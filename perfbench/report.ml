(** The metric set, the class-balanced latency statistics and the
    per-layer extraction from traces.

    A workload mixes op classes of very different cost (dlrm proves in
    about 0.15 s, gpt2 under IPA in about 0.9 s; a KZG verify takes 2 ms,
    an IPA verify 100 ms). A pooled percentile of such a mix sits on the
    boundary between two classes and jumps with one sample. So every
    latency statistic here is class-balanced: the percentile is taken
    within each class, and the classes are combined by geometric mean.
    Every class then moves the figure in proportion to its change. *)

module Obs = Zkml_obs.Obs

(** The end-to-end metrics, in output order, with their units. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("prove_p50_s", "s");
    ("prove_p75_s", "s");
    ("verify_p50_s", "s");
    ("verify_p75_s", "s");
    ("proofs_per_s", "1/s");
    ("proof_bytes", "B");
    ("peak_rss_mb", "MB");
    ("ops_ok_share", "ratio");
    ("slo_met_share", "ratio");
  ]

let per_model prefix unit =
  List.map (fun m -> (prefix ^ "." ^ m, unit)) Sched.model_names

(** The per-layer metrics, in output order, with their units. *)
let per_layer =
  [
    ("compiler.calibrate_s", "s");
    ("compiler.optimize_s", "s");
    ("compiler.keygen_s", "s");
    ("compiler.plan_flips", "count");
  ]
  @ per_model "compiler.k" "count"
  @ per_model "compiler.ncols" "count"
  @ per_model "compiler.rows" "count"
  @ per_model "compiler.est_over_measured" "ratio"
  @ [
      ("nn.witness_p50_s", "s");
      ("nn.witness_failed", "count");
      ("serve.cache_lookup_p50_s", "s");
      ("plonkish.prove_p50_s", "s");
      ("plonkish.verify_p50_s.kzg", "s");
      ("plonkish.verify_p50_s.ipa", "s");
      ("plonkish.prove_traced_s", "s");
      ("plonkish.advice_commit_s", "s");
      ("plonkish.lookup_s", "s");
      ("plonkish.lookup_commit_s", "s");
      ("plonkish.grand_products_s", "s");
      ("plonkish.quotient_s", "s");
      ("plonkish.evals_s", "s");
      ("plonkish.multiopen_s", "s");
      ("plonkish.prove_residual_s", "s");
      ("poly.ntt_share", "ratio");
      ("poly.ntt_k9_s", "s");
      ("poly.ntt_k10_s", "s");
      ("ec.msm_share", "ratio");
      ("ec.msm_points", "count");
      ("commit.open_s", "s");
      ("util.pool.cpu_share", "ratio");
      ("runtime.alloc_mb_per_proof", "MB");
      ("runtime.major_gcs_per_proof", "count");
      ("segment.prove_p50_s", "s");
      ("segment.optimize_s", "s");
      ("segment.verdict_p50_s", "s");
    ]
  @ per_model "segment.peak_rows" "count"
  @ per_model "segment.ks_sum" "count"
  @ per_model "segment.vs_mono" "ratio"
  @ [
      ("serve.ping_p50_s", "s");
      ("serve.ping_p90_s", "s");
      ("serve.malformed_p50_s", "s");
      ("serve.wire_roundtrip_s", "s");
      ("serve.overloaded", "count");
      ("serve.gen_late_p50_s", "s");
      ("trace.overhead_share", "ratio");
    ]

(** Collects named values; {!emit} lists every metric of [names] in
    order, 0 for any this workload does not exercise. *)
type sink = (string, float) Hashtbl.t

let sink () : sink = Hashtbl.create 64
let set (s : sink) name v = Hashtbl.replace s name v

let emit names (s : sink) =
  List.map
    (fun (name, unit) ->
      Stats.metric name unit
        (Option.value (Hashtbl.find_opt s name) ~default:0.0))
    names

(* ------------------------------------------------------------------ *)
(* Class-balanced statistics *)

let gmean xs =
  match List.filter (fun x -> x > 0.0) xs with
  | [] -> 0.0
  | pos ->
      exp (Stats.sum (List.map log pos) /. float_of_int (List.length pos))

let classes (samples : (string * float) list) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c, v) ->
      Hashtbl.replace tbl c (v :: Option.value (Hashtbl.find_opt tbl c) ~default:[]))
    samples;
  Hashtbl.fold (fun c vs acc -> (c, vs) :: acc) tbl []
  |> List.sort compare

(** [q]-th percentile within each class, geometric mean across classes. *)
let balanced q samples =
  gmean (List.map (fun (_, vs) -> Stats.percentile q vs) (classes samples))

let class_median samples c =
  Stats.median (List.filter_map (fun (c', v) -> if c' = c then Some v else None) samples)

(* ------------------------------------------------------------------ *)
(* Traced prove phases *)

let phases =
  [
    ("advice-commit", "plonkish.advice_commit_s");
    ("lookup", "plonkish.lookup_s");
    ("lookup-commit", "plonkish.lookup_commit_s");
    ("grand-products", "plonkish.grand_products_s");
    ("quotient", "plonkish.quotient_s");
    ("evals", "plonkish.evals_s");
    ("multiopen", "plonkish.multiopen_s");
  ]

(** Totals over every traced [Protocol.prove] span seen so far. *)
type trace_acc = {
  mutable proofs : int;
  mutable wall : float;
  phase : float array;  (** summed durations of each phase child *)
  mutable ntt : float;
  mutable msm : float;
  mutable msm_points : float;
  mutable opens : float;
}

let trace_acc () =
  {
    proofs = 0;
    wall = 0.0;
    phase = Array.make (List.length phases) 0.0;
    ntt = 0.0;
    msm = 0.0;
    msm_points = 0.0;
    opens = 0.0;
  }

let rec outermost name acc (n : Obs.node) =
  if n.Obs.name = name then n :: acc
  else List.fold_left (outermost name) acc n.Obs.children

let rec counter_in name (n : Obs.node) =
  List.fold_left
    (fun a (c, v) -> if c = name then a +. v else a)
    0.0 n.Obs.counters
  +. List.fold_left (fun a c -> a +. counter_in name c) 0.0 n.Obs.children

(** Fold one report in. A prove span's phases are its direct children
    of the phase names, which run one after another on the calling
    domain; the prove wall time they leave uncovered is the residual. *)
let add_trace acc (r : Obs.report) =
  List.iter
    (fun (n : Obs.node) ->
      acc.proofs <- acc.proofs + 1;
      acc.wall <- acc.wall +. n.Obs.dur_s;
      List.iteri
        (fun j (span, _) ->
          List.iter
            (fun (c : Obs.node) ->
              if c.Obs.name = span then acc.phase.(j) <- acc.phase.(j) +. c.Obs.dur_s)
            n.Obs.children)
        phases;
      acc.msm_points <- acc.msm_points +. counter_in "msm.points" n)
    (List.fold_left (outermost "prove") [] r.Obs.spans);
  acc.ntt <- acc.ntt +. Obs.total_of ~under:"prove" r "ntt";
  acc.msm <- acc.msm +. Obs.total_of ~under:"prove" r "msm";
  acc.opens <- acc.opens +. Obs.total_of ~under:"prove" r "open"

(** Per-proof phase times, the residual and the kernel shares. Returns
    false if the phases and the residual do not add up to the traced
    prove wall time. *)
let put_trace (s : sink) acc =
  let per v = Stats.ratio v (float_of_int acc.proofs) in
  set s "plonkish.prove_traced_s" (per acc.wall);
  let covered = ref 0.0 in
  List.iteri
    (fun j (_, name) ->
      covered := !covered +. per acc.phase.(j);
      set s name (per acc.phase.(j)))
    phases;
  let residual = per acc.wall -. !covered in
  set s "plonkish.prove_residual_s" residual;
  set s "poly.ntt_share" (Stats.ratio acc.ntt acc.wall);
  set s "ec.msm_share" (Stats.ratio acc.msm acc.wall);
  set s "ec.msm_points" (per acc.msm_points);
  set s "commit.open_s" (per acc.opens);
  acc.proofs > 0 && residual >= 0.0
  && Float.abs (!covered +. residual -. per acc.wall) < 1e-9
