(** prove-inproc: a closed loop with one client inside this process.
    Each round proves one input per model under KZG and under IPA, in
    seeded order; each op runs the daemon's prove path without the wire
    and verifies the proof bytes. Rounds run whole, so every class holds
    the same number of samples. *)

module B = Zkml_serve.Backends
module Obs = Zkml_obs.Obs

let rounds = 12
let setup_reps = 3

(* latency limits for slo_met_share *)
let prove_limit_s = 2.0
let verify_limit_s = 0.5

let schedule ~seed =
  let orng = Sched.order_rng ~seed in
  Array.map
    (fun inputs ->
      List.concat_map (fun i -> List.map (fun b -> (i, b)) Mono.backends) inputs
      |> Array.of_list |> Sched.shuffle orng |> Array.to_list)
    (Sched.cycles ~seed rounds)

let fingerprint sched =
  let ops =
    Array.to_list sched
    |> List.mapi (fun r ops ->
           List.map
             (fun ((i : Sched.input), b) ->
               Printf.sprintf "prove-inproc %d %s/%s %d" r i.Sched.model
                 (B.backend_name b) i.Sched.seed)
             ops)
    |> List.concat
  in
  let inputs =
    Array.to_list sched
    |> List.concat_map (List.filter_map (fun (i, b) -> if b = B.Kzg then Some i else None))
  in
  Sched.fingerprint ops inputs

let round ~seed sched r =
  List.map
    (fun (i, b) -> Mono.op b i ~seed:(Int64.of_int ((seed * 7919) + r)))
    sched.(r mod Array.length sched)

let lat f ops = List.map (fun o -> (Probe.op_class o, f o)) ops

(* The failures of each op, printed; checked before any probe replaces
   the cached keys the proofs were made with. *)
let check ops =
  List.map
    (fun o ->
      let fs = Probe.check_op o in
      List.iter print_endline fs;
      (o, fs = []))
    ops

let run ~seed ~seconds ~trace ~work =
  let sched = schedule ~seed in
  Printf.printf "workload prove-inproc seed %d fingerprint %s (refused inputs %d)\n%!"
    seed (fingerprint sched) !Sched.refused;
  let reps = if trace then 1 else setup_reps in
  let setup_s, rep_plans = Setup.measure ~workload:"prove-inproc" ~work ~reps in
  let pinned =
    List.concat_map (fun b -> Mono.compile_pinned b Sched.model_names) Mono.backends
  in
  Setup.report_plans ~pinned rep_plans;
  let start = Stats.now () in
  if not trace then begin
    let _, ops = Sched.rounds ~first:0 ~deadline:(start +. seconds) (round ~seed sched) in
    let wall = Stats.now () -. start in
    let checked = check ops in
    let good = List.filter_map (fun (o, ok) -> if ok then Some o else None) checked in
    let met =
      List.filter
        (fun o ->
          Mono.prove_latency o <= prove_limit_s && o.Mono.verify_s <= verify_limit_s)
        good
    in
    let n = List.length ops and nok = List.length good in
    Printf.printf "%d ops (%d rounds) in %.2f s\n" n (n / 6) wall;
    let share k = Stats.ratio (float_of_int k) (float_of_int n) in
    let s = Report.sink () in
    Report.set s "setup_s" setup_s;
    Report.set s "prove_p50_s" (Report.balanced 0.5 (lat Mono.prove_latency ops));
    Report.set s "prove_p75_s" (Report.balanced 0.75 (lat Mono.prove_latency ops));
    Report.set s "verify_p50_s" (Report.balanced 0.5 (lat (fun o -> o.Mono.verify_s) ops));
    Report.set s "verify_p75_s" (Report.balanced 0.75 (lat (fun o -> o.Mono.verify_s) ops));
    Report.set s "proofs_per_s" (Stats.ratio (float_of_int nok) wall);
    Report.set s "proof_bytes"
      (Report.balanced 0.5 (lat (fun o -> float_of_int (String.length o.Mono.proof)) ops));
    Report.set s "peak_rss_mb" (Stats.peak_rss_mb "self");
    Report.set s "ops_ok_share" (share nok);
    Report.set s "slo_met_share" (share (List.length met));
    (true, n, n - nok, Report.emit Report.end_to_end s)
  end
  else begin
    let s = Report.sink () in
    let m = Probe.meter () in
    let next, plain = Sched.rounds ~first:0 ~deadline:(start +. (seconds /. 2.0)) (round ~seed sched) in
    Probe.put_runtime s m ~proofs:(List.length plain);
    Probe.put_mono s plain;
    let acc = Report.trace_acc () in
    let wrap f =
      let v, r = Obs.with_enabled f in
      Report.add_trace acc r;
      v
    in
    let _, traced = Sched.rounds ~wrap ~first:next ~deadline:(start +. seconds) (round ~seed sched) in
    let sums_ok = Report.put_trace s acc in
    Report.set s "trace.overhead_share"
      (Stats.ratio
         (Report.balanced 0.5 (lat Mono.prove_latency traced))
         (Report.balanced 0.5 (lat Mono.prove_latency plain))
      -. 1.0);
    Report.set s "nn.witness_failed" (float_of_int !Sched.refused);
    let checked = check (plain @ traced) in
    let per = Probe.compiler s ~used:pinned in
    Probe.put_estimates s per ~measured:(Probe.kzg_median plain);
    Probe.kernels s;
    if not sums_ok then print_endline "traced phases do not add up to the prove wall time";
    ( sums_ok,
      List.length checked,
      List.length (List.filter (fun (_, ok) -> not ok) checked),
      Report.emit Report.per_layer s )
  end
