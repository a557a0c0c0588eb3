(** Deterministic seeded load generator for the proving daemon.

    Replays a mixed traffic schedule — proves over the zoo models with
    varying batch sizes, verifications of genuine and tampered proofs,
    pings, and malformed frames drawn from the wire fuzz corpus — from
    [concurrency] client connections, asserting the daemon's answer for
    every request: Proofs for proves, verdict 0/1/2 for good/tampered/
    malformed traffic, and that the daemon keeps serving after every
    malformed frame. The whole schedule is a pure function of the seed,
    so a failing run replays exactly.

    Reports per-kind p50/p90/p99 latency and proofs/sec, optionally as
    a schema-stamped BENCH_PR9-style JSON blob for the bench-regression
    gate. `zkml loadgen --spawn` forks the daemon itself (before any
    client thread exists), drives it, shuts it down with a wire-level
    Shutdown, and checks the child exits cleanly — `make serve-smoke`
    in one process tree. *)

module Zoo = Zkml_models.Zoo
module Err = Zkml_util.Err
module Rng = Zkml_util.Rng
module Mclock = Zkml_obs.Mclock

type opts = {
  lg_addr : Server.addr;
  lg_seed : int;
  lg_requests : int;
  lg_concurrency : int;
  lg_models : string list;
  lg_spawn : Server.config option;
      (** [Some cfg]: fork a daemon with this config on [lg_addr] *)
  lg_bench_out : string option;  (** write the serve bench JSON here *)
}

(* ------------------------------------------------------------------ *)
(* schedule *)

type op =
  | Op_prove of { model : string; seeds : int64 list }
  | Op_verify_good of string
  | Op_verify_bad of string
  | Op_ping
  | Op_malformed of int  (** flavor index, see [malformed_flavors] *)

let op_kind = function
  | Op_prove _ -> "prove"
  | Op_verify_good _ -> "verify_good"
  | Op_verify_bad _ -> "verify_bad"
  | Op_ping -> "ping"
  | Op_malformed _ -> "malformed"

let malformed_flavors = 5

(* The mixed-phase schedule: model choice, batch sizes, op mix and
   malformed-frame flavors all drawn from one seeded stream. *)
let schedule ~rng ~models n =
  Array.init n (fun i ->
      let d = Rng.int rng 100 in
      let pick () = List.nth models (Rng.int rng (List.length models)) in
      if d < 25 then
        let batch = 1 + Rng.int rng 2 in
        Op_prove
          {
            model = pick ();
            seeds =
              List.init batch (fun j -> Int64.of_int (2000 + (i * 7) + j));
          }
      else if d < 50 then Op_verify_good (pick ())
      else if d < 65 then Op_verify_bad (pick ())
      else if d < 85 then Op_malformed (Rng.int rng malformed_flavors)
      else Op_ping)

(* A tampered proof that must draw verdict 1: bump one public instance
   value. The proof still parses and the header still rebuilds, but the
   proof no longer binds the altered instance — well-formed and false.
   Handles both proof formats, so segmented corpus proofs (from
   Prove_seg) are load-testable too: there the bumped slot is a boundary
   value of the last segment, which the seam equality check rejects. *)
let tamper_proof text =
  if Seg_proof.looks_segmented text then
    match Seg_proof.of_string text with
    | Error e ->
        failwith
          ("loadgen: stored segmented proof does not parse: "
         ^ Err.to_string e)
    | Ok sp ->
        let n = Array.length sp.Seg_proof.sp_groups in
        if n = 0 then failwith "loadgen: stored segmented proof is empty";
        let g = sp.Seg_proof.sp_groups.(n - 1) in
        if Array.length g.Seg_proof.sg_instance = 0 then
          failwith "loadgen: stored segmented proof has an empty instance";
        let instance = Array.copy g.Seg_proof.sg_instance in
        instance.(0) <- instance.(0) + 1;
        let groups = Array.copy sp.Seg_proof.sp_groups in
        groups.(n - 1) <- { g with Seg_proof.sg_instance = instance };
        Seg_proof.render { sp with Seg_proof.sp_groups = groups }
  else
    match Proof_file.of_string text with
    | Error e ->
        failwith ("loadgen: stored proof does not parse: " ^ Err.to_string e)
    | Ok pf ->
        if Array.length pf.Proof_file.pf_instance = 0 then
          failwith "loadgen: stored proof has an empty instance";
        let instance = Array.copy pf.Proof_file.pf_instance in
        instance.(0) <- instance.(0) + 1;
        Proof_file.render { pf with Proof_file.pf_instance = instance }

(* ------------------------------------------------------------------ *)
(* client connections *)

(* The spawned daemon warms its cache before listening, so the first
   successful connect doubles as the ready signal. *)
let connect_retry ?(timeout_s = 600.0) addr =
  let t0 = Mclock.now_s () in
  let rec go () =
    match Server.connect addr with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        if Mclock.elapsed_s ~since:t0 > timeout_s then
          failwith "loadgen: daemon did not come up in time"
        else begin
          ignore (Unix.select [] [] [] 0.2);
          go ()
        end
  in
  go ()

let read_response fd =
  match Wire.read_frame fd with
  | Wire.Frame (kind, payload) -> Wire.response_of_payload kind payload
  | Wire.Eof ->
      Err.fail ~context:[ "loadgen" ] Err.Truncated "connection closed"
  | Wire.Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* per-op execution: send, check the answer, report (ok, note) *)

type outcome = {
  o_kind : string;
  o_latency : float;
  o_ok : bool;
  o_note : string;
  o_proofs : int;  (** proofs returned by this op *)
}

let expect_verdict fd code what =
  match read_response fd with
  | Ok (Wire.Verdict { code = c; _ }) when c = code -> (true, "", 0)
  | Ok (Wire.Verdict { code = c; detail }) ->
      ( false,
        Printf.sprintf "%s: verdict %d (wanted %d): %s" what c code detail,
        0 )
  | Ok _ -> (false, what ^ ": unexpected response kind", 0)
  | Error e -> (false, what ^ ": " ^ Err.to_string e, 0)

(* Each malformed flavor says whether the daemon is expected to keep the
   connection afterwards ([`Keep]) or drop it ([`Drop]). *)
let run_malformed fd flavor =
  let ping = Wire.encode_request Wire.Ping in
  let prove =
    Wire.encode_request
      (Wire.Prove
         { tenant = "fuzz"; backend = Backends.Kzg; model = "mnist";
           seeds = [ 1L ] })
  in
  match flavor with
  | 0 ->
      (* truncated frame: cut mid-payload, half-close so the daemon sees
         EOF inside the frame *)
      Wire.write_all fd (String.sub prove 0 (Wire.header_len + 3));
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (expect_verdict fd 2 "truncated frame", `Drop)
  | 1 ->
      (* corrupt magic *)
      Wire.write_all fd ("XKW1" ^ String.sub ping 4 (String.length ping - 4));
      (expect_verdict fd 2 "bad magic", `Drop)
  | 2 ->
      (* length field far over the declared cap *)
      Wire.write_all fd "ZKW1\x01\x7f\xff\xff\xff";
      (expect_verdict fd 2 "oversized length", `Drop)
  | 3 ->
      (* well-delimited frame, garbage payload: the daemon must answer
         verdict 2 and keep serving this very connection *)
      Wire.write_all fd
        (Wire.encode_frame ~kind:0x02 "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff");
      let (ok1, note1, _) = expect_verdict fd 2 "garbage payload" in
      if not ok1 then ((ok1, note1, 0), `Keep)
      else begin
        Wire.write_all fd ping;
        match read_response fd with
        | Ok Wire.Pong -> ((true, "", 0), `Keep)
        | _ -> ((false, "daemon stopped serving after payload error", 0), `Keep)
      end
  | _ ->
      (* duplicate header / trailing bytes: a valid frame followed by a
         second header with a hostile length *)
      Wire.write_all fd (ping ^ "ZKW1\xff\xff\xff\xff\xff");
      let ok1 =
        match read_response fd with Ok Wire.Pong -> true | _ -> false
      in
      let (ok2, note2, _) = expect_verdict fd 2 "duplicate header" in
      if not ok1 then ((false, "no answer to the frame before the junk", 0), `Drop)
      else ((ok2, note2, 0), `Drop)

let run_op ~addr ~good_proofs fd_ref op =
  let fd = !fd_ref in
  let reconnect () =
    (try Unix.close fd with _ -> ());
    fd_ref := connect_retry ~timeout_s:30.0 addr
  in
  let t0 = Mclock.now_s () in
  let ok, note, proofs =
    match op with
    | Op_ping -> (
        Wire.send_request fd Wire.Ping;
        match read_response fd with
        | Ok Wire.Pong -> (true, "", 0)
        | Ok _ -> (false, "ping: unexpected response", 0)
        | Error e -> (false, "ping: " ^ Err.to_string e, 0))
    | Op_prove { model; seeds } -> (
        Wire.send_request fd
          (Wire.Prove
             { tenant = "loadgen"; backend = Backends.Kzg; model; seeds });
        match read_response fd with
        | Ok (Wire.Proofs texts) when List.length texts = List.length seeds ->
            (true, "", List.length texts)
        | Ok (Wire.Proofs texts) ->
            ( false,
              Printf.sprintf "prove %s: %d proofs for %d seeds" model
                (List.length texts) (List.length seeds),
              List.length texts )
        | Ok (Wire.Verdict { code; detail }) ->
            (false, Printf.sprintf "prove %s: verdict %d: %s" model code detail, 0)
        | Ok _ -> (false, "prove " ^ model ^ ": unexpected response", 0)
        | Error e -> (false, "prove " ^ model ^ ": " ^ Err.to_string e, 0))
    | Op_verify_good model ->
        Wire.send_request fd
          (Wire.Verify
             { tenant = "loadgen"; model;
               proof = fst (List.assoc model good_proofs) });
        let ok, note, _ = expect_verdict fd 0 ("verify " ^ model) in
        (ok, note, 0)
    | Op_verify_bad model ->
        Wire.send_request fd
          (Wire.Verify
             { tenant = "mallory"; model;
               proof = snd (List.assoc model good_proofs) });
        let ok, note, _ = expect_verdict fd 1 ("verify tampered " ^ model) in
        (ok, note, 0)
    | Op_malformed flavor ->
        let (ok, note, _), keep = run_malformed fd flavor in
        (match keep with `Drop -> reconnect () | `Keep -> ());
        (ok, note, 0)
  in
  {
    o_kind = op_kind op;
    o_latency = Mclock.elapsed_s ~since:t0;
    o_ok = ok;
    o_note = note;
    o_proofs = proofs;
  }

(* ------------------------------------------------------------------ *)
(* stats *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

type kind_stats = {
  ks_kind : string;
  ks_count : int;
  ks_p50 : float;
  ks_p90 : float;
  ks_p99 : float;
}

let stats_of outcomes =
  let kinds =
    [ "prove"; "verify_good"; "verify_bad"; "ping"; "malformed" ]
  in
  List.filter_map
    (fun kind ->
      let lat =
        Array.of_list
          (List.filter_map
             (fun o -> if o.o_kind = kind then Some o.o_latency else None)
             outcomes)
      in
      if Array.length lat = 0 then None
      else begin
        Array.sort compare lat;
        Some
          {
            ks_kind = kind;
            ks_count = Array.length lat;
            ks_p50 = percentile lat 0.50;
            ks_p90 = percentile lat 0.90;
            ks_p99 = percentile lat 0.99;
          }
      end)
    kinds

let bench_json ~opts ~kinds ~proofs ~wall_s =
  let f = Zkml_obs.Obs.json_float in
  let kind_rows =
    List.map
      (fun k ->
        Printf.sprintf
          "{\"kind\":\"%s\",\"count\":%d,\"p50_s\":%s,\"p90_s\":%s,\"p99_s\":%s}"
          k.ks_kind k.ks_count (f k.ks_p50) (f k.ks_p90) (f k.ks_p99))
      kinds
  in
  Printf.sprintf
    "{\"schema_version\":1,\"bench\":\"serve\",\"seed\":%d,\"requests\":%d,\"concurrency\":%d,\"models\":[%s],\"kinds\":[%s],\"proofs\":%d,\"proofs_per_s\":%s,\"wall_s\":%s}\n"
    opts.lg_seed opts.lg_requests opts.lg_concurrency
    (String.concat "," (List.map (Printf.sprintf "\"%s\"") opts.lg_models))
    (String.concat "," kind_rows)
    proofs
    (f (float_of_int proofs /. Float.max wall_s 1e-9))
    (f wall_s)

(* ------------------------------------------------------------------ *)
(* the run *)

let spawn_daemon config addr =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* child: become the daemon; _exit skips the parent's at_exit
         handlers (metrics/trace dumps would race the parent's) *)
      (try
         Server.run ~config addr;
         Unix._exit 0
       with exn ->
         Printf.eprintf "daemon: %s\n%!" (Printexc.to_string exn);
         Unix._exit 1)
  | pid -> pid

let run opts =
  let failures = ref [] in
  let record_failures outcomes =
    List.iter
      (fun o -> if not o.o_ok then failures := o.o_note :: !failures)
      outcomes
  in
  let daemon =
    Option.map (fun cfg -> spawn_daemon cfg opts.lg_addr) opts.lg_spawn
  in
  let t_start = Mclock.now_s () in
  (* phase A (sequential): one proof per model; the stored texts feed
     the verify_good/verify_bad traffic of the mixed phase *)
  let fd0 = connect_retry opts.lg_addr in
  Printf.printf "loadgen: connected to %s; proving %d model(s) for the verify corpus\n%!"
    (Server.addr_string opts.lg_addr)
    (List.length opts.lg_models);
  let phase_a = ref [] in
  let good_proofs =
    List.map
      (fun model ->
        let t0 = Mclock.now_s () in
        Wire.send_request fd0
          (Wire.Prove
             { tenant = "loadgen"; backend = Backends.Kzg; model;
               seeds = [ Int64.of_int (1000 + opts.lg_seed) ] });
        let text =
          match read_response fd0 with
          | Ok (Wire.Proofs [ text ]) -> text
          | Ok (Wire.Verdict { code; detail }) ->
              failwith
                (Printf.sprintf "loadgen: prove %s answered verdict %d: %s"
                   model code detail)
          | Ok _ -> failwith ("loadgen: prove " ^ model ^ ": unexpected response")
          | Error e ->
              failwith ("loadgen: prove " ^ model ^ ": " ^ Err.to_string e)
        in
        phase_a :=
          {
            o_kind = "prove";
            o_latency = Mclock.elapsed_s ~since:t0;
            o_ok = true;
            o_note = "";
            o_proofs = 1;
          }
          :: !phase_a;
        (model, (text, tamper_proof text)))
      opts.lg_models
  in
  (try Unix.close fd0 with _ -> ());
  (* mixed phase: the seeded schedule over [concurrency] connections *)
  let n_mixed = max 0 (opts.lg_requests - List.length opts.lg_models) in
  let rng = Rng.create (Int64.of_int opts.lg_seed) in
  let ops = schedule ~rng ~models:opts.lg_models n_mixed in
  let results = Array.make n_mixed None in
  let next = Atomic.make 0 in
  let client () =
    let fd_ref = ref (connect_retry ~timeout_s:30.0 opts.lg_addr) in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n_mixed then begin
        results.(i) <-
          Some (run_op ~addr:opts.lg_addr ~good_proofs fd_ref ops.(i));
        go ()
      end
    in
    (try go ()
     with exn ->
       failures :=
         ("client thread died: " ^ Printexc.to_string exn) :: !failures);
    try Unix.close !fd_ref with _ -> ()
  in
  Printf.printf "loadgen: replaying %d mixed requests over %d connection(s)\n%!"
    n_mixed opts.lg_concurrency;
  let clients =
    List.init (max 1 opts.lg_concurrency) (fun _ -> Thread.create client ())
  in
  List.iter Thread.join clients;
  let wall_s = Mclock.elapsed_s ~since:t_start in
  (* clean shutdown over the wire, then reap the child *)
  let fd = connect_retry ~timeout_s:30.0 opts.lg_addr in
  Wire.send_request fd Wire.Shutdown;
  (match read_response fd with
  | Ok Wire.Stopping -> ()
  | _ -> failures := "no Stopping answer to Shutdown" :: !failures);
  (try Unix.close fd with _ -> ());
  (match daemon with
  | None -> ()
  | Some pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> failures := "daemon did not exit cleanly" :: !failures));
  (* report *)
  let outcomes =
    !phase_a
    @ (Array.to_list results |> List.filter_map Fun.id)
  in
  let mixed_done = List.length (List.filter_map Fun.id (Array.to_list results)) in
  if mixed_done < n_mixed then
    failures :=
      Printf.sprintf "%d of %d mixed requests never ran" (n_mixed - mixed_done)
        n_mixed
      :: !failures;
  record_failures outcomes;
  let kinds = stats_of outcomes in
  let proofs = List.fold_left (fun acc o -> acc + o.o_proofs) 0 outcomes in
  Printf.printf "\n%-12s %6s %10s %10s %10s\n" "kind" "count" "p50_s" "p90_s"
    "p99_s";
  List.iter
    (fun k ->
      Printf.printf "%-12s %6d %10.4f %10.4f %10.4f\n" k.ks_kind k.ks_count
        k.ks_p50 k.ks_p90 k.ks_p99)
    kinds;
  Printf.printf "\n%d proofs in %.2f s wall (%.3f proofs/s), %d request(s) failed\n"
    proofs wall_s
    (float_of_int proofs /. Float.max wall_s 1e-9)
    (List.length !failures);
  List.iter (fun f -> Printf.printf "  FAIL %s\n" f) !failures;
  (match opts.lg_bench_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (bench_json ~opts ~kinds ~proofs ~wall_s);
      close_out oc;
      Printf.printf "wrote %s\n" path);
  Zkml_obs.Log.event "loadgen.done"
    [ ("requests", Zkml_obs.Log.I opts.lg_requests);
      ("proofs", Zkml_obs.Log.I proofs);
      ("wall_s", Zkml_obs.Log.F wall_s);
      ("failures", Zkml_obs.Log.I (List.length !failures)) ];
  if !failures = [] then 0 else 1
