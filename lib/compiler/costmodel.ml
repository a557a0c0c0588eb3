(** Cost estimation (§7.4). Proving cost is dominated by FFTs, MSMs,
    lookup-table construction and residual field arithmetic; the model
    combines per-operation timings measured once on the proving hardware
    (Algorithm 1's [BenchmarkOperations]) with the operation counts
    derived from a physical layout — equations (1) and (2) of the
    paper. *)

type backend = Kzg | Ipa

type op_times = {
  fft : (int * float) list;  (** measured (k, seconds per FFT of 2^k) *)
  msm : (int * float) list;
  lookup : (int * float) list;  (** table construction of 2^k entries *)
  field_op : float;  (** one multiply-add *)
}

let ceil_log2 x =
  let rec go k = if 1 lsl k >= x then k else go (k + 1) in
  go 0

(** Interpolate/extrapolate a measured curve at size 2^k. FFT-like costs
    scale as n log n, MSM and table costs roughly linearly in n; using
    the n log n rule for all three is accurate enough for ranking (the
    §9.5 experiment validates this). *)
let at_k curve k =
  let nlogn kk = float_of_int ((1 lsl kk) * max 1 kk) in
  match curve with
  | [] -> invalid_arg "Costmodel.at_k: empty curve"
  | curve -> (
      match List.assoc_opt k curve with
      | Some t -> t
      | None ->
          (* nearest measured k, scaled *)
          let kk, t =
            List.fold_left
              (fun (bk, bt) (ck, ct) ->
                if abs (ck - k) < abs (bk - k) then (ck, ct) else (bk, bt))
              (List.hd curve) curve
          in
          t *. nlogn k /. nlogn kk)

(** Measure the hardware profile once for a given field/group backend.
    The closures are supplied by the pipeline so this module stays
    independent of the functorized crypto code. *)
let benchmark ~fft_run ~msm_run ~lookup_run ~field_run ~ks =
  let measure run k =
    (Zkml_util.Timer.median_of 3 (fun () -> run k)).Zkml_util.Timer.median
  in
  {
    fft = List.map (fun k -> (k, measure fft_run k)) ks;
    msm = List.map (fun k -> (k, measure msm_run k)) ks;
    lookup = List.map (fun k -> (k, measure lookup_run k)) ks;
    field_op =
      (let n = 200_000 in
       (Zkml_util.Timer.median_of 3 (fun () -> field_run n))
         .Zkml_util.Timer.median
       /. float_of_int n);
  }

(** Committed columns of the logUp lookup argument: one helper per
    lookup, and a multiplicity column and a running sum per table. *)
let lookup_columns (s : Layouter.summary) =
  s.Layouter.lookup_count + (2 * s.Layouter.tables)

(** Operation counts for a physical layout, following eq. (2). *)
type counts = {
  n_fft : float;
  n_fft' : float;
  n_msm : float;
  n_lookup : int;
  d_max : int;
  ext_factor : int;
  terms : int;  (** quotient terms, for the residual field-op estimate *)
}

let counts_of_summary ~backend (s : Layouter.summary) =
  let d = max 3 s.Layouter.max_gate_degree in
  let n_i = 1 (* one instance column *) in
  let n_a = s.Layouter.advice_cols in
  let n_lk = s.Layouter.lookup_count in
  (* permutation: every advice column, the instance column and the
     constants column participate in copies *)
  let n_pm = n_a + 2 in
  let n_fft =
    float_of_int n_i +. float_of_int n_a
    +. float_of_int (lookup_columns s)
    +. (float_of_int (n_pm + d - 3) /. float_of_int (d - 2))
  in
  let ext_factor = Zkml_plonkish.Circuit.ext_factor d in
  let n_msm =
    n_fft +. float_of_int (match backend with Kzg -> d - 1 | Ipa -> d)
  in
  {
    n_fft;
    n_fft' = n_fft +. 1.0;
    n_msm;
    n_lookup = n_lk;
    d_max = d;
    ext_factor;
    terms =
      s.Layouter.gate_count + n_lk + (3 * s.Layouter.tables)
      + ((n_pm + d - 3) / (d - 2)) + 3;
  }

(** Predicted seconds split by op class — the quantities the §9.5
    accuracy experiment compares against measured span totals. *)
type breakdown = {
  b_fft : float;
  b_msm : float;
  b_lookup : float;
  b_residual : float;
}

let breakdown_total b = b.b_fft +. b.b_msm +. b.b_lookup +. b.b_residual

(** Equation (1) plus the MSM, lookup and residual terms, per op class,
    for a circuit with 2^k rows. *)
let estimate_breakdown times ~backend ~k (s : Layouter.summary) =
  let c = counts_of_summary ~backend s in
  let k' = k + ceil_log2 c.ext_factor in
  let c_fft = (c.n_fft *. at_k times.fft k) +. (c.n_fft' *. at_k times.fft k') in
  let c_msm = c.n_msm *. at_k times.msm k in
  let c_lookup = float_of_int c.n_lookup *. at_k times.lookup k in
  let ext_n = float_of_int ((1 lsl k) * c.ext_factor) in
  let c_residual = ext_n *. float_of_int c.terms *. times.field_op *. 2.0 in
  { b_fft = c_fft; b_msm = c_msm; b_lookup = c_lookup; b_residual = c_residual }

(** Estimated proving seconds: the sum of the per-class breakdown. *)
let estimate_time times ~backend ~k (s : Layouter.summary) =
  breakdown_total (estimate_breakdown times ~backend ~k s)

(** Estimated proof size in bytes, from the same structural counts (for
    the size-optimization objective, Table 14). *)
let estimate_size ~backend ~k ~group_bytes ~field_bytes (s : Layouter.summary) =
  let c = counts_of_summary ~backend s in
  let perm_chunks = (s.Layouter.advice_cols + 2 + c.d_max - 3) / (c.d_max - 2) in
  let commitments =
    s.Layouter.advice_cols + lookup_columns s + perm_chunks + c.ext_factor
  in
  let evals =
    s.Layouter.fixed_cols + s.Layouter.advice_cols
    + (s.Layouter.advice_cols + 2) (* sigmas *)
    + (3 * perm_chunks)
    + c.n_lookup + (3 * s.Layouter.tables) (* helpers; phi at 0 and 1, m *)
    + c.ext_factor
  in
  let opening =
    match backend with
    | Kzg -> 4 * group_bytes
    | Ipa -> 4 * (((2 * k) + 2) * group_bytes)
  in
  (commitments * group_bytes) + (evals * field_bytes) + opening
