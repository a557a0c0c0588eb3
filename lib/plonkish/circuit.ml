(** Circuit (constraint-system) description: a 2^k-row grid of fixed,
    advice and instance columns constrained by single- or multi-row
    custom gates, lookup arguments and copy (equality) constraints —
    the Plonkish randomized AIR of Section 3 of the paper. *)

type any_col = Col_fixed of int | Col_advice of int | Col_instance of int

type 'f gate = {
  gate_name : string;
  polys : 'f Expr.t list;  (** each must evaluate to zero on every row *)
}

type 'f lookup = {
  lookup_name : string;
  inputs : 'f Expr.t list;
  tables : 'f Expr.t list;
      (** the tuple of [inputs] must appear as a row of the tuple of
          [tables]; both lists have equal length *)
}

type copy = (any_col * int) * (any_col * int)

type 'f t = {
  k : int;  (** rows = 2^k *)
  num_fixed : int;
  is_selector : bool array;
      (** per fixed column: is it a selector? (cost accounting only) *)
  advice_phases : int array;
      (** phase (0 or 1) per advice column; phase-1 columns may depend on
          the challenges squeezed after phase 0 *)
  num_instance : int;
  num_challenges : int;
  gates : 'f gate list;
  lookups : 'f lookup list;
  copies : copy list;
  blinding : int;  (** rows reserved at the bottom for zero-knowledge *)
}

let n t = 1 lsl t.k
let num_advice t = Array.length t.advice_phases

(** Index of the "last" usable row u; rows 0..u-1 hold content, row u
    anchors the grand-product boundary checks, rows u+1..2^k-1 are
    blinding. *)
let last_row t = n t - t.blinding - 1

let usable_rows t = last_row t

let gate_degree g = List.fold_left (fun acc p -> max acc (Expr.degree p)) 0 g.polys

(** Degree of the logUp argument's constraints for one lookup (see
    Protocol): the helper identity [h * (f + beta) - 1] has degree
    [1 + deg f], and the running-sum step
    [active * ((phi(wX) - phi(X) - sum h) * (t + beta) + m)] has degree
    [2 + deg t]. *)
let lookup_degree l =
  let deg es = List.fold_left (fun acc e -> max acc (Expr.degree e)) 0 es in
  max (1 + deg l.inputs) (2 + max 1 (deg l.tables))

(** The distinct table tuples of the circuit's lookups, compared
    structurally, in order of first use, and for each lookup the index of
    its table. Lookups sharing a table share one multiplicity column and
    one running sum. *)
let lookup_tables t =
  let tables = ref [] in
  let index tup =
    let rec find i = function
      | [] ->
          tables := !tables @ [ tup ];
          i
      | x :: rest -> if x = tup then i else find (i + 1) rest
    in
    find 0 !tables
  in
  let of_lookup = List.map (fun l -> index l.tables) t.lookups in
  (Array.of_list !tables, Array.of_list of_lookup)

(** Maximum constraint degree over the whole system (>= 3 so the
    permutation argument can make progress). *)
let max_degree t =
  let d = List.fold_left (fun acc g -> max acc (gate_degree g)) 3 t.gates in
  List.fold_left (fun acc l -> max acc (lookup_degree l)) d t.lookups

(** Blow-up of the quotient's extended domain over the 2^k rows for a
    constraint system of degree [d]. An honest quotient h = C / Z_H has
    degree at most d(n-1) - n < (d-1)n, so (d-1)n coset evaluations
    determine it; the factor is the next power of two at or above
    [d - 1], halo2's [extended_k] rule. Keygen and the cost model both
    size the domain through this one function. *)
let ext_factor d =
  let rec go f = if f >= d - 1 then f else go (2 * f) in
  go 1

(** Chunk width of the permutation argument, as in halo2: each grand
    product covers [max_degree - 2] columns. *)
let permutation_chunk t = max_degree t - 2

(** Columns participating in the permutation argument, in a canonical
    order derived from the copy constraints. *)
let permutation_columns t =
  let cols =
    List.concat_map (fun ((c1, _), (c2, _)) -> [ c1; c2 ]) t.copies
  in
  List.sort_uniq compare cols |> Array.of_list

(** Statistics consumed by the cost model (§7.4 of the paper). *)
type stats = {
  s_rows : int;
  s_fixed : int;
  s_selectors : int;
  s_advice : int;
  s_instance : int;
  s_lookups : int;
  s_perm_columns : int;
  s_perm_chunks : int;
  s_gates : int;
  s_max_degree : int;
}

let stats t =
  let perm_cols = Array.length (permutation_columns t) in
  let chunk = permutation_chunk t in
  {
    s_rows = n t;
    s_fixed = t.num_fixed;
    s_selectors =
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.is_selector;
    s_advice = num_advice t;
    s_instance = t.num_instance;
    s_lookups = List.length t.lookups;
    s_perm_columns = perm_cols;
    s_perm_chunks = (if perm_cols = 0 then 0 else (perm_cols + chunk - 1) / chunk);
    s_gates = List.length t.gates;
    s_max_degree = max_degree t;
  }
