(** serve-mixed: a [zkml serve] daemon in a child process on a unix
    socket (default 2 workers and queue, mnist and dlrm warmed at
    start), driven over 2 connections: proves of mnist and dlrm (batch
    1-2) back to back on one, verifies of honest and tampered proofs,
    pings and malformed frames at a fixed arrival rate on the other, in
    seeded decks of fixed composition. A light request's latency runs
    from its due time, so a stall also charges the requests behind it. *)

module B = Zkml_serve.Backends
module Wire = Zkml_serve.Wire
module PF = Zkml_serve.Proof_file
module Spec = Zkml_compiler.Layout_spec
module Err = Zkml_util.Err

let setup_reps = 3
let models = [ "mnist"; "dlrm" ]

(* The two connections are two lanes. The prove lane is one client
   proving back to back (a closed loop), so the daemon is always
   proving. The light lane sends verifies, pings and malformed frames
   open-loop at a fixed rate well below what the daemon answers while
   proving, so every light request meets a proving daemon and its
   latency shows the head-of-line wait (a busy worker, or the runtime
   lock held by the proving thread), and none waits behind a prove on
   the client side. *)
let light_rate = 8.0
let prove_decks = 16

(** Latency limit per request kind, for slo_met_share. *)
let limit_s = function "prove" -> 3.0 | _ -> 0.25

type req =
  | Prove of Sched.input list  (** one model, one proof per input *)
  | Verify of string * bool  (** model, honest *)
  | Ping
  | Malformed of int  (** flavour, see {!malformed} *)

let kind = function
  | Prove _ -> "prove"
  | Verify _ -> "verify"
  | Ping -> "ping"
  | Malformed _ -> "malformed"

(* Latency classes: batch sizes and honest/tampered proofs of one model
   share a class, so each class holds enough samples for a median. *)
let req_class = function
  | Prove l -> (List.hd l).Sched.model
  | Verify (m, _) -> m
  | Ping -> "ping"
  | Malformed f -> Printf.sprintf "malformed/%d" f

let flavours = 5

(* Decks of fixed composition, each a seeded shuffle, so every run
   holds the same mix. *)
let prove_deck rng =
  let prove m b = Prove (List.init b (fun _ -> Sched.draw rng m)) in
  Array.concat
    [
      Array.init 3 (fun _ -> prove "mnist" 1);
      [| prove "mnist" 2 |];
      Array.init 3 (fun _ -> prove "dlrm" 1);
      [| prove "dlrm" 2 |];
    ]
  |> Sched.shuffle rng

let light_deck rng =
  Array.concat
    [
      Array.make 4 (Verify ("mnist", true));
      Array.make 4 (Verify ("dlrm", true));
      Array.make 2 (Verify ("mnist", false));
      Array.make 2 (Verify ("dlrm", false));
      Array.make 4 Ping;
      Array.init 4 (fun i -> Malformed ((i + Zkml_util.Rng.int rng flavours) mod flavours));
    ]
  |> Sched.shuffle rng

let decks deck rng n = Array.concat (List.init n (fun _ -> deck rng))

(* ------------------------------------------------------------------ *)
(* Connections *)

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let read_response fd =
  match Wire.read_frame fd with
  | Wire.Frame (k, p) -> Wire.response_of_payload k p
  | Wire.Eof -> Error (Err.make Err.Truncated "connection closed")
  | Wire.Fail e -> Error e

let roundtrip fd req =
  Wire.send_request fd req;
  read_response fd

let spawn ~zkml ~sock ~cache ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process_env zkml
      [| zkml; "serve"; "--socket"; sock; "--warm"; String.concat "," models |]
      (Setup.env_with
         [ ("ZKML_CACHE_DIR", cache); ("ZKML_JOBS", "2"); ("ZKML_SEGMENTS", "");
           ("ZKML_SERVE_WORKERS", "2"); ("ZKML_SERVE_QUEUE", "16") ])
      Unix.stdin out out
  in
  Unix.close out;
  pid

(** Poll until the daemon accepts and answers a ping. *)
let await_pong ~pid sock =
  let deadline = Stats.now () +. 120.0 in
  let rec go () =
    match connect sock with
    | fd -> (
        match roundtrip fd Wire.Ping with
        | Ok Wire.Pong -> fd
        | _ -> failwith "daemon answered the first ping wrongly")
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "daemon exited during start-up");
        if Stats.now () > deadline then failwith "daemon did not come up";
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let stop ~pid fd =
  (match roundtrip fd Wire.Shutdown with
  | Ok Wire.Stopping -> ()
  | _ -> prerr_endline "daemon did not answer Shutdown with Stopping");
  Unix.close fd;
  ignore (Unix.waitpid [] pid)

(* ------------------------------------------------------------------ *)
(* Requests *)

let prove_frame model inputs =
  Wire.Prove
    {
      tenant = "bench";
      backend = B.Kzg;
      model;
      seeds = List.map (fun (i : Sched.input) -> Int64.of_int i.Sched.seed) inputs;
    }

let expect_verdict fd code =
  match read_response fd with
  | Ok (Wire.Verdict { code = c; _ }) -> c = code
  | _ -> false

(** Send a malformed frame; returns (answered with verdict 2, whether
    the daemon drops the connection afterwards). *)
let malformed fd flavour =
  let prove = Wire.encode_request (prove_frame "mnist" []) in
  match flavour with
  | 0 ->
      (* cut inside the payload, then half-close *)
      Wire.write_all fd (String.sub prove 0 (Wire.header_len + 3));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (expect_verdict fd 2, true)
  | 1 ->
      Wire.write_all fd ("XKW1" ^ String.sub prove 4 (String.length prove - 4));
      (expect_verdict fd 2, true)
  | 2 ->
      Wire.write_all fd "ZKW1\x01\x7f\xff\xff\xff";
      (expect_verdict fd 2, true)
  | 3 ->
      Wire.write_all fd (Wire.encode_frame ~kind:0x02 "\xff\xff\xff\xff\xff\xff");
      (expect_verdict fd 2, false)
  | _ ->
      Wire.write_all fd (Wire.encode_frame ~kind:0x7e "");
      (expect_verdict fd 2, false)

type outcome = {
  req : req;
  latency : float;  (** from due time to answer *)
  late : float;  (** send time minus due time *)
  ok : bool;
  overloaded : bool;
  texts : string list;  (** proof files returned by a prove *)
}

let exec ~corpus fd req =
  match req with
  | Prove inputs -> (
      let model = (List.hd inputs).Sched.model in
      match roundtrip fd (prove_frame model inputs) with
      | Ok (Wire.Proofs texts) when List.length texts = List.length inputs ->
          (true, false, texts, false)
      | Ok Wire.Overloaded -> (false, true, [], false)
      | _ -> (false, false, [], false))
  | Verify (m, good) ->
      let honest, tampered = List.assoc m corpus in
      Wire.send_request fd
        (Wire.Verify
           { tenant = "bench"; model = m; proof = (if good then honest else tampered) });
      (expect_verdict fd (if good then 0 else 1), false, [], false)
  | Ping -> (roundtrip fd Wire.Ping = Ok Wire.Pong, false, [], false)
  | Malformed f ->
      let ok, drop = malformed fd f in
      (ok, false, [], drop)

(* ------------------------------------------------------------------ *)
(* Checks on returned proofs, in this process after the daemon stopped *)

let kzg_keys = Hashtbl.create 8
let ipa_keys = Hashtbl.create 8

let check_text (i : Sched.input) text =
  match PF.of_string text with
  | Error e -> Some ("proof text does not parse: " ^ Err.to_string e)
  | Ok pf ->
      if PF.render pf <> text then Some "proof text does not re-render to itself"
      else if not (Sched.instance_matches i pf.PF.pf_instance) then
        Some "public values differ from Quant_exec"
      else (
        match PF.verdict ~kzg_keys ~ipa_keys (Sched.model i.Sched.model) pf with
        | `Accepted -> None
        | `Rejected -> Some "honest proof rejected"
        | `Malformed e -> Some ("honest proof malformed: " ^ Err.to_string e))

let tamper text =
  match PF.of_string text with
  | Error _ -> text
  | Ok pf ->
      let inst = Array.copy pf.PF.pf_instance in
      inst.(0) <- inst.(0) + 1;
      PF.render { pf with PF.pf_instance = inst }

let plan_of text =
  match PF.of_string text with
  | Ok pf ->
      Mono.plan_string
        { Mono.spec = Spec.to_string pf.PF.pf_spec; k = pf.PF.pf_k; ncols = pf.PF.pf_ncols }
  | Error _ -> "unparsable"

(* ------------------------------------------------------------------ *)
(* The run *)

let run ~zkml ~seed ~seconds ~trace ~work =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rng = Zkml_util.Rng.create (Int64.of_int seed) in
  let proves = decks prove_deck rng prove_decks in
  let lights =
    Array.sub
      (decks light_deck rng (1 + int_of_float (seconds *. light_rate /. 20.0)))
      0
      (int_of_float (seconds *. light_rate))
  in
  let corpus_inputs = List.map (fun m -> (m, Sched.draw rng m)) models in
  let fp =
    Sched.fingerprint
      (List.mapi (fun i r -> Printf.sprintf "serve-mixed prove %d %s" i (req_class r))
         (Array.to_list proves)
      @ List.mapi
          (fun i r ->
            Printf.sprintf "serve-mixed light %.6f %s" (float_of_int i /. light_rate)
              (req_class r))
          (Array.to_list lights))
      (List.map snd corpus_inputs
      @ List.concat_map (function Prove l -> l | _ -> []) (Array.to_list proves))
  in
  Printf.printf "workload serve-mixed seed %d fingerprint %s (refused inputs %d)\n%!"
    seed fp !Sched.refused;
  let sock = Filename.concat work "d.sock" in
  let live = ref None in
  let kill () =
    match !live with
    | Some pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        live := None
    | None -> ()
  in
  Fun.protect ~finally:kill @@ fun () ->
  (* set-up repetitions: spawn to first Pong, each on an empty cache *)
  let reps = if trace then 1 else setup_reps in
  let daemon r cache =
    let pid =
      spawn ~zkml ~sock ~cache ~log:(Filename.concat work (Printf.sprintf "daemon-%d.log" r))
    in
    live := Some pid;
    (pid, await_pong ~pid sock)
  in
  let ups =
    List.init reps (fun r ->
        let cache = Filename.concat work (Printf.sprintf "cache-%d" r) in
        Stats.mkdir_p cache;
        let (pid, fd), dt = Stats.time (fun () -> daemon r cache) in
        Printf.printf "set-up %d: %.3f s\n%!" r dt;
        stop ~pid fd;
        live := None;
        dt)
  in
  let setup_s = Stats.median ups in
  (* the daemon under load starts from artifacts compiled here with the
     pinned calibration, so its layouts do not vary from run to run *)
  let cache = Filename.concat work "cache-pinned" in
  Stats.mkdir_p cache;
  Unix.putenv "ZKML_CACHE_DIR" cache;
  let pinned = Mono.compile_pinned ~store:true B.Kzg models in
  let pid, fd0 = daemon reps cache in
  (* the verify corpus, and a first verify of each proof so the
     daemon's header keys are built before the window *)
  let corpus_texts =
    List.map
      (fun (m, i) ->
        match roundtrip fd0 (prove_frame m [ i ]) with
        | Ok (Wire.Proofs [ t ]) -> (m, i, t)
        | _ -> failwith ("corpus prove of " ^ m ^ " failed"))
      corpus_inputs
  in
  let corpus = List.map (fun (m, _, t) -> (m, (t, tamper t))) corpus_texts in
  let warm_ok =
    List.for_all
      (fun (m, (good, bad)) ->
        List.for_all
          (fun (p, code) ->
            Wire.send_request fd0 (Wire.Verify { tenant = "bench"; model = m; proof = p });
            expect_verdict fd0 code)
          [ (good, 0); (bad, 1) ])
      corpus
  in
  let used = List.map (fun (m, (t, _)) -> (m ^ "/kzg", plan_of t)) corpus in
  Setup.report_plans ~pinned:used [ pinned ];
  (* the two lanes; a request's latency runs from its due time: the
     send time in the closed prove lane, the schedule in the light lane *)
  let cpu0 = Stats.cpu_s (string_of_int pid) in
  let t0 = Stats.now () +. 0.05 in
  let t_end = t0 +. seconds in
  let send fd req ~due =
    let sent = Stats.now () in
    let ok, overloaded, texts, drop =
      try exec ~corpus !fd req with _ -> (false, false, [], true)
    in
    let o = { req; latency = Stats.now () -. due; late = sent -. due; ok; overloaded; texts } in
    if drop then begin
      (try Unix.close !fd with Unix.Unix_error _ -> ());
      fd := connect sock
    end;
    o
  in
  let lane f () =
    let fd = ref (connect sock) in
    let out = f fd in
    (try Unix.close !fd with Unix.Unix_error _ -> ());
    out
  in
  (* whole decks until the window is over, so every class holds the
     same share of samples *)
  let per_deck = Array.length proves / prove_decks in
  let prove_lane fd =
    let rec go i acc =
      if i >= Array.length proves || (i mod per_deck = 0 && Stats.now () >= t_end) then
        List.rev acc
      else begin
        let wait = t0 -. Stats.now () in
        if wait > 0.0 then Unix.sleepf wait;
        go (i + 1) (send fd proves.(i) ~due:(Stats.now ()) :: acc)
      end
    in
    go 0 []
  in
  let light_lane fd =
    Array.to_list
      (Array.mapi
         (fun i req ->
           let due = t0 +. (float_of_int i /. light_rate) in
           let wait = due -. Stats.now () in
           if wait > 0.0 then Unix.sleepf wait;
           send fd req ~due)
         lights)
  in
  let results = Array.make 2 [] in
  let lanes_ok = Atomic.make true in
  let threads =
    List.mapi
      (fun i f ->
        Thread.create
          (fun () ->
            try results.(i) <- lane f ()
            with e ->
              Printf.printf "FAIL lane %d: %s\n%!" i (Printexc.to_string e);
              Atomic.set lanes_ok false)
          ())
      [ prove_lane; light_lane ]
  in
  List.iter Thread.join threads;
  let wall = Stats.now () -. t0 in
  let daemon_cpu = Stats.cpu_s (string_of_int pid) -. cpu0 in
  let peak = Stats.peak_rss_mb (string_of_int pid) in
  stop ~pid fd0;
  live := None;
  (* checks *)
  let outcomes = results.(0) @ results.(1) in
  let n = List.length outcomes in
  let checked =
    List.map
      (fun o ->
        let problems =
          match o.req with
          | Prove inputs when o.ok -> List.filter_map Fun.id (List.map2 check_text inputs o.texts)
          | _ -> if o.ok then [] else [ req_class o.req ^ ": wrong or missing answer" ]
        in
        List.iter (fun p -> Printf.printf "FAIL %s\n" p) problems;
        (o, problems = []))
      outcomes
  in
  let corpus_ok =
    Atomic.get lanes_ok
    && List.for_all (fun (_, i, t) -> check_text i t = None) corpus_texts
  in
  let good = List.filter_map (fun (o, ok) -> if ok then Some o else None) checked in
  let nok = List.length good in
  let proofs = List.fold_left (fun a o -> a + List.length o.texts) 0 good in
  let of_kind k = List.filter (fun o -> kind o.req = k) outcomes in
  let lat k = List.map (fun o -> (req_class o.req, o.latency)) (of_kind k) in
  Printf.printf "%d requests (%d proofs) in %.2f s\n" (List.length outcomes) proofs wall;
  List.iter
    (fun k ->
      List.iter
        (fun (c, xs) ->
          Printf.printf "  %-9s %-10s n=%4d p10 %.4f p50 %.4f p75 %.4f p90 %.4f s\n" k c
            (List.length xs) (Stats.percentile 0.1 xs) (Stats.median xs)
            (Stats.percentile 0.75 xs) (Stats.percentile 0.9 xs))
        (Report.classes (lat k)))
    [ "prove"; "verify"; "ping"; "malformed" ];
  let share k = Stats.ratio (float_of_int k) (float_of_int n) in
  let s = Report.sink () in
  if not trace then begin
    Report.set s "setup_s" setup_s;
    Report.set s "prove_p50_s" (Report.balanced 0.5 (lat "prove"));
    Report.set s "prove_p75_s" (Report.balanced 0.75 (lat "prove"));
    Report.set s "verify_p50_s" (Report.balanced 0.5 (lat "verify"));
    Report.set s "verify_p75_s" (Report.balanced 0.75 (lat "verify"));
    Report.set s "proofs_per_s" (Stats.ratio (float_of_int proofs) wall);
    Report.set s "proof_bytes"
      (Report.balanced 0.5
         (List.concat_map
            (fun o ->
              List.filter_map
                (fun t ->
                  match PF.of_string t with
                  | Ok pf -> Some (pf.PF.pf_model, float_of_int (String.length pf.PF.pf_proof))
                  | Error _ -> None)
                o.texts)
            good));
    Report.set s "peak_rss_mb" peak;
    Report.set s "ops_ok_share" (share nok);
    Report.set s "slo_met_share"
      (share (List.length (List.filter (fun o -> o.latency <= limit_s (kind o.req)) good)));
    (warm_ok && corpus_ok, n, n - nok, Report.emit Report.end_to_end s)
  end
  else begin
    let pooled k = List.map (fun o -> o.latency) (of_kind k) in
    Report.set s "serve.ping_p50_s" (Stats.median (pooled "ping"));
    Report.set s "serve.ping_p90_s" (Stats.percentile 0.9 (pooled "ping"));
    Report.set s "serve.malformed_p50_s" (Stats.median (pooled "malformed"));
    Report.set s "serve.overloaded"
      (float_of_int (List.length (List.filter (fun o -> o.overloaded) outcomes)));
    Report.set s "serve.gen_late_p50_s"
      (Stats.median (List.filter_map (fun o -> if kind o.req = "prove" then None else Some o.late) outcomes));
    (* an outside encode and decode of the largest recorded answer *)
    let biggest =
      List.fold_left
        (fun a o -> if List.length o.texts > List.length a then o.texts else a)
        [] good
    in
    Report.set s "serve.wire_roundtrip_s"
      (Stats.median
         (List.init 101 (fun _ ->
              snd
                (Stats.time (fun () ->
                     ignore (Wire.decode_response (Wire.encode_response (Wire.Proofs biggest))))))));
    Report.set s "nn.witness_failed" (float_of_int !Sched.refused);
    let per = Probe.compiler s ~used in
    ignore (Mono.compile_pinned B.Kzg Sched.model_names);
    let mono, mono_failures = Probe.mono s ~seed in
    Probe.put_estimates s per ~measured:(Probe.kzg_median mono);
    Probe.kernels s;
    (* the daemon's own CPU, not the probe's *)
    Report.set s "util.pool.cpu_share" (Stats.ratio daemon_cpu (wall *. 2.0));
    List.iter print_endline mono_failures;
    ( warm_ok && corpus_ok,
      n + List.length mono,
      n - nok + List.length mono_failures,
      Report.emit Report.per_layer s )
  end
