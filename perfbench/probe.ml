(** Per-layer measurements shared by the traced runs: a resource meter,
    the compiler probe, the NTT probes and a small monolithic KZG probe
    for workloads that do not prove monolithically in-process. *)

module B = Zkml_serve.Backends
module Obs = Zkml_obs.Obs

(* ------------------------------------------------------------------ *)
(* Process CPU and allocation over an interval *)

type meter = { t0 : float; cpu0 : float; alloc0 : float; gcs0 : int }

let meter () =
  let alloc0, gcs0 = Stats.gc_counts () in
  { t0 = Stats.now (); cpu0 = Stats.cpu_s "self"; alloc0; gcs0 }

(** CPU time over wall time x 2 (the pool width), and allocation and
    major collections per proof, since [m] was taken. *)
let put_runtime s m ~proofs =
  let wall = Stats.now () -. m.t0 in
  let alloc, gcs = Stats.gc_counts () in
  let per v = Stats.ratio v (float_of_int proofs) in
  Report.set s "util.pool.cpu_share"
    (Stats.ratio (Stats.cpu_s "self" -. m.cpu0) (wall *. 2.0));
  Report.set s "runtime.alloc_mb_per_proof" (per (alloc -. m.alloc0));
  Report.set s "runtime.major_gcs_per_proof" (per (float_of_int (gcs - m.gcs0)))

(* ------------------------------------------------------------------ *)
(* Compiler and kernels *)

(** Cold in-process compile of every model under KZG. [used] maps
    ["<model>/kzg"] to the plan the workload ran with; a model whose
    fresh plan differs counts as a plan flip. Returns the compiled
    plans. *)
let compiler s ~used =
  let calibrate_s, per =
    Mono.Kzg.cold_compile (List.map Sched.model Sched.model_names)
  in
  Report.set s "compiler.calibrate_s" calibrate_s;
  Report.set s "compiler.optimize_s"
    (Stats.sum (List.map (fun c -> c.Mono.c_optimize_s) per));
  Report.set s "compiler.keygen_s"
    (Stats.sum (List.map (fun c -> c.Mono.c_keygen_s) per));
  let flips = ref 0 in
  List.iter
    (fun (c : Mono.compiled) ->
      let m = c.Mono.c_model in
      Report.set s ("compiler.k." ^ m) (float_of_int c.Mono.c_plan.Mono.k);
      Report.set s ("compiler.ncols." ^ m)
        (float_of_int c.Mono.c_plan.Mono.ncols);
      Report.set s ("compiler.rows." ^ m) (float_of_int c.Mono.c_rows);
      let fresh = Mono.plan_string c.Mono.c_plan in
      match List.assoc_opt (m ^ "/kzg") used with
      | Some p when p <> fresh ->
          Printf.printf "plan flip %s: ran with %s, fresh compile chose %s\n"
            m p fresh;
          incr flips
      | _ -> ())
    per;
  Report.set s "compiler.plan_flips" (float_of_int !flips);
  per

(** The plan's estimated cost over the measured prove median, per
    model; [measured] maps a model to its KZG prove median. *)
let put_estimates s per ~measured =
  List.iter
    (fun (c : Mono.compiled) ->
      Report.set s
        ("compiler.est_over_measured." ^ c.Mono.c_model)
        (Stats.ratio c.Mono.c_est_s (measured c.Mono.c_model)))
    per

let kernels s =
  Report.set s "poly.ntt_k9_s" (Mono.Kzg.ntt_probe ~k:9 ~reps:41);
  Report.set s "poly.ntt_k10_s" (Mono.Kzg.ntt_probe ~k:10 ~reps:41)

(* ------------------------------------------------------------------ *)
(* Checks on one monolithic op *)

(** Honest proof accepted after its bytes round trip, public outputs
    equal to the reference executor's, and the tampered proof rejected
    with verdict 1. Returns the failures found. *)
let check_op (o : Mono.op) =
  let what =
    Printf.sprintf "%s/%s seed %d" o.Mono.input.Sched.model
      (B.backend_name o.Mono.backend) o.Mono.input.Sched.seed
  in
  List.filter_map Fun.id
    [
      (if o.Mono.verdict <> 0 then
         Some (Printf.sprintf "%s: honest proof got verdict %d" what o.Mono.verdict)
       else None);
      (if not (Sched.instance_matches o.Mono.input o.Mono.instance) then
         Some (what ^ ": public values differ from Quant_exec")
       else None);
      (let t = Mono.tampered_verdict o in
       if t <> 1 then Some (Printf.sprintf "%s: tampered proof got verdict %d" what t)
       else None);
    ]

let op_class (o : Mono.op) =
  o.Mono.input.Sched.model ^ "/" ^ B.backend_name o.Mono.backend

(** Monolithic per-layer figures from untraced ops. *)
let put_mono s (ops : Mono.op list) =
  let by f = List.map (fun o -> (op_class o, f o)) ops in
  Report.set s "nn.witness_p50_s" (Report.balanced 0.5 (by (fun o -> o.Mono.witness_s)));
  Report.set s "serve.cache_lookup_p50_s"
    (Report.balanced 0.5 (by (fun o -> o.Mono.prepare_s)));
  Report.set s "plonkish.prove_p50_s"
    (Report.balanced 0.5 (by (fun o -> o.Mono.prove_s)));
  List.iter
    (fun b ->
      let of_b = List.filter (fun o -> o.Mono.backend = b) ops in
      if of_b <> [] then
        Report.set s
          ("plonkish.verify_p50_s." ^ B.backend_name b)
          (Report.balanced 0.5
             (List.map (fun o -> (op_class o, o.Mono.verify_s)) of_b)))
    Mono.backends

(** Prove median of model [m] under KZG among [ops]. *)
let kzg_median ops m =
  Stats.median
    (List.filter_map
       (fun o ->
         if o.Mono.backend = B.Kzg && o.Mono.input.Sched.model = m then
           Some (Mono.prove_latency o)
         else None)
       ops)

(** The monolithic KZG probe: 3 untraced rounds then 1 traced round over
    every model, on the first inputs of the run's schedule. Fills the
    monolithic per-layer figures, the traced phases and the tracing
    overhead; returns (ops, failures). *)
let mono s ~seed =
  let untraced = 3 and traced = 1 in
  let cycles = Sched.cycles ~seed (untraced + traced) in
  let run i = List.map (fun inp -> Mono.op B.Kzg inp ~seed:(Int64.of_int (seed + i))) cycles.(i) in
  let m = meter () in
  let plain = List.concat (List.init untraced run) in
  put_runtime s m ~proofs:(List.length plain);
  put_mono s plain;
  let acc = Report.trace_acc () in
  let traced_ops =
    List.concat
      (List.init traced (fun j ->
           let ops, r = Obs.with_enabled (fun () -> run (untraced + j)) in
           Report.add_trace acc r;
           ops))
  in
  let sums_ok = Report.put_trace s acc in
  let lat ops = List.map (fun o -> (op_class o, Mono.prove_latency o)) ops in
  Report.set s "trace.overhead_share"
    (Stats.ratio (Report.balanced 0.5 (lat traced_ops)) (Report.balanced 0.5 (lat plain))
    -. 1.0);
  let all = plain @ traced_ops in
  let failures =
    List.concat_map check_op all
    @ if sums_ok then [] else [ "traced prove phases do not add up to the prove wall time" ]
  in
  (all, failures)
