(** prove-seg4: a closed loop with one client. Each op runs
    [Seg_proof.prove m Kzg seed ~segments:4], parses the rendered text
    back with [Seg_proof.of_string] and judges it with
    [Seg_proof.verdict]. Rounds cover mnist, dlrm and gpt2 on the same
    input seeds as the KZG half of prove-inproc. *)

module B = Zkml_serve.Backends
module SP = Zkml_serve.Seg_proof
module Seg = Zkml_compiler.Segment
module Obs = Zkml_obs.Obs
module T = Zkml_tensor.Tensor

let rounds = 12
let setup_reps = 3
let prove_limit_s = 5.0
let verify_limit_s = 0.5

type op = {
  input : Sched.input;
  prove_s : float;  (** the whole [Seg_proof.prove] call *)
  proved : SP.proved option;  (** [None]: the call raised *)
  verify_s : float;  (** [of_string] then [verdict] *)
  verdict : int;
  note : string;
}

let code = function `Accepted -> 0 | `Rejected -> 1 | `Malformed _ -> 2

(* rebuilt per-segment keys, shared across verdicts as the daemon does *)
let kzg_keys = Hashtbl.create 16
let ipa_keys = Hashtbl.create 16

let judge m text =
  match SP.of_string text with
  | Error _ -> 2
  | Ok sp -> code (SP.verdict ~kzg_keys ~ipa_keys m sp)

let op (i : Sched.input) =
  let m = Sched.model i.Sched.model in
  match Stats.time (fun () -> SP.prove m B.Kzg i.Sched.seed ~segments:Setup.segments) with
  | exception e ->
      { input = i; prove_s = 0.0; proved = None; verify_s = 0.0; verdict = 2;
        note = Printexc.to_string e }
  | p, prove_s ->
      let verdict, verify_s =
        Stats.repeat Mono.verify_reps (fun () -> judge m p.SP.p_text)
      in
      { input = i; prove_s; proved = Some p; verify_s; verdict; note = "" }

let proof_bytes sp =
  Array.fold_left (fun a g -> a + String.length g.SP.sg_proof) 0 sp.SP.sp_groups

(** Model outputs as the segments expose them: each graph output is
    exported by exactly one segment, at a fixed instance offset. *)
let outputs_match (i : Sched.input) sp =
  let m = Sched.model i.Sched.model in
  let graph = m.Zkml_models.Zoo.graph in
  match
    Seg.plan ~spec:sp.SP.sp_spec ~ncols:sp.SP.sp_ncols ~cfg:sp.SP.sp_cfg
      ~segments:(Array.length sp.SP.sp_groups) graph
  with
  | exception _ -> false
  | splan ->
      List.for_all2
        (fun id (expect : int T.t) ->
          Array.exists
            (fun (sg : Seg.seg) ->
              match List.assoc_opt id sg.Seg.sg_export_off with
              | None -> false
              | Some off ->
                  Seg.slice_copy sp.SP.sp_groups.(sg.Seg.sg_index).SP.sg_instance
                    ~off ~numel:(T.numel expect)
                  = Some (T.data expect))
            splan.Seg.p_segments)
        (Zkml_nn.Graph.outputs graph) i.Sched.outputs

(** The parsed file with the last segment's first public value bumped. *)
let tampered sp =
  let n = Array.length sp.SP.sp_groups in
  let g = sp.SP.sp_groups.(n - 1) in
  let inst = Array.copy g.SP.sg_instance in
  inst.(0) <- inst.(0) + 1;
  let groups = Array.copy sp.SP.sp_groups in
  groups.(n - 1) <- { g with SP.sg_instance = inst };
  SP.render { sp with SP.sp_groups = groups }

let check o =
  let what = Printf.sprintf "seg4 %s seed %d" o.input.Sched.model o.input.Sched.seed in
  match o.proved with
  | None -> [ what ^ ": prove raised " ^ o.note ]
  | Some p -> (
      match SP.of_string p.SP.p_text with
      | Error _ -> [ what ^ ": proof text does not parse" ]
      | Ok sp ->
          let m = Sched.model o.input.Sched.model in
          List.filter_map Fun.id
            [
              (if o.verdict <> 0 then
                 Some (Printf.sprintf "%s: honest proof got verdict %d" what o.verdict)
               else None);
              (if SP.render sp <> p.SP.p_text then
                 Some (what ^ ": text does not re-render to itself")
               else None);
              (if not (outputs_match o.input sp) then
                 Some (what ^ ": exported outputs differ from Quant_exec")
               else None);
              (let t = judge m (tampered sp) in
               if t <> 1 then
                 Some (Printf.sprintf "%s: tampered proof got verdict %d" what t)
               else None);
            ])

let bytes_of o =
  match o.proved with
  | None -> 0.0
  | Some p -> (
      match SP.of_string p.SP.p_text with
      | Ok sp -> float_of_int (proof_bytes sp)
      | Error _ -> 0.0)

let lat f ops = List.map (fun o -> (o.input.Sched.model, f o)) ops

let run ~seed ~seconds ~trace ~work =
  let sched = Sched.cycles ~seed rounds in
  let fp =
    Sched.fingerprint
      (Array.to_list sched
      |> List.mapi (fun r inputs ->
             List.map
               (fun (i : Sched.input) ->
                 Printf.sprintf "prove-seg4 %d %s/kzg %d" r i.Sched.model i.Sched.seed)
               inputs)
      |> List.concat)
      (List.concat (Array.to_list sched))
  in
  Printf.printf "workload prove-seg4 seed %d fingerprint %s (refused inputs %d)\n%!"
    seed fp !Sched.refused;
  let reps = if trace then 1 else setup_reps in
  let setup_s, rep_plans = Setup.measure ~workload:"prove-seg4" ~work ~reps in
  let pinned = Mono.compile_pinned B.Kzg Sched.model_names in
  Setup.report_plans ~pinned rep_plans;
  (* lazy set-up of this process, untimed: one round on the schedule's
     last inputs builds every segment's keys and fills the verdict key
     tables *)
  let warm = List.map op sched.(rounds - 1) in
  let start = Stats.now () in
  let next, ops =
    Sched.rounds ~first:0 ~deadline:(start +. seconds) (fun r ->
        List.map op sched.(r mod rounds))
  in
  let wall = Stats.now () -. start in
  let checked = List.map (fun o -> (o, check o)) (warm @ ops) in
  List.iter (fun (_, fs) -> List.iter print_endline fs) checked;
  let ok o = List.assq o checked = [] in
  let nok = List.length (List.filter ok ops) in
  let n = List.length ops in
  Printf.printf "%d ops (%d rounds) in %.2f s\n" n next wall;
  let warm_ok = List.for_all ok warm in
  if not trace then begin
    let met =
      List.filter
        (fun o -> ok o && o.prove_s <= prove_limit_s && o.verify_s <= verify_limit_s)
        ops
    in
    let share k = Stats.ratio (float_of_int k) (float_of_int n) in
    let s = Report.sink () in
    Report.set s "setup_s" setup_s;
    Report.set s "prove_p50_s" (Report.balanced 0.5 (lat (fun o -> o.prove_s) ops));
    Report.set s "prove_p75_s" (Report.balanced 0.75 (lat (fun o -> o.prove_s) ops));
    Report.set s "verify_p50_s" (Report.balanced 0.5 (lat (fun o -> o.verify_s) ops));
    Report.set s "verify_p75_s" (Report.balanced 0.75 (lat (fun o -> o.verify_s) ops));
    Report.set s "proofs_per_s" (Stats.ratio (float_of_int nok) wall);
    Report.set s "proof_bytes" (Report.balanced 0.5 (lat bytes_of ops));
    Report.set s "peak_rss_mb" (Stats.peak_rss_mb "self");
    Report.set s "ops_ok_share" (share nok);
    Report.set s "slo_met_share" (share (List.length met));
    (warm_ok, n, n - nok, Report.emit Report.end_to_end s)
  end
  else begin
    let s = Report.sink () in
    let proved f =
      List.filter_map (fun o -> Option.map (fun p -> (o.input.Sched.model, f p)) o.proved) ops
    in
    Report.set s "segment.prove_p50_s" (Report.balanced 0.5 (proved (fun p -> p.SP.p_prove_s)));
    Report.set s "segment.verdict_p50_s" (Report.balanced 0.5 (lat (fun o -> o.verify_s) ops));
    List.iter
      (fun (m, v) -> Report.set s ("segment.peak_rows." ^ m) (float_of_int v))
      (proved (fun p -> p.SP.p_peak_rows));
    List.iter
      (fun (m, v) -> Report.set s ("segment.ks_sum." ^ m) (float_of_int v))
      (proved (fun p -> List.fold_left ( + ) 0 p.SP.p_ks));
    (* one traced round: the optimizer run inside every call *)
    let traced, r = Obs.with_enabled (fun () -> List.map op sched.(next mod rounds)) in
    Report.set s "segment.optimize_s"
      (Stats.ratio (Obs.total_of r "optimize") (float_of_int (List.length traced)));
    Report.set s "nn.witness_failed" (float_of_int !Sched.refused);
    let per = Probe.compiler s ~used:pinned in
    ignore (Mono.compile_pinned B.Kzg Sched.model_names);
    let mono, mono_failures = Probe.mono s ~seed in
    Probe.put_estimates s per ~measured:(Probe.kzg_median mono);
    List.iter
      (fun m ->
        Report.set s ("segment.vs_mono." ^ m)
          (Stats.ratio
             (Report.class_median (lat (fun o -> o.prove_s) ops) m)
             (Probe.kzg_median mono m)))
      Sched.model_names;
    Probe.kernels s;
    let traced_failures = List.concat_map check traced in
    List.iter print_endline (mono_failures @ traced_failures);
    ( warm_ok,
      n + List.length traced + List.length mono,
      n - nok + List.length traced_failures + List.length mono_failures,
      Report.emit Report.per_layer s )
  end
