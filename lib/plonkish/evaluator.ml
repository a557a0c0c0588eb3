(** Compiled quotient evaluator.

    The prover's dominant cost is evaluating the combined constraint
    polynomial — every gate, the logUp helper and running-sum terms and
    the permutation grand-product numerators, Horner-combined with
    powers of [y] — at each of the [ext_factor * n] rows of the
    extended coset. Walking the {!Expr.t} ASTs through closure-based
    {!Expr.eval} per row is allocation-heavy and blind to
    subexpressions shared across gadget instances, so this module
    lowers the whole combination once per circuit into a flat
    register-based linear program:

    - every arithmetic node is hash-consed, giving common-subexpression
      elimination across all gates, lookups and permutation chunks;
    - constants fold at compile time ([Neg]/[Scaled] chains collapse,
      multiplications by 0/1 and additions of 0 disappear);
    - a lowering pass fuses a single-use product into its consuming
      add/sub (three fused forms: [a*b + c], [c - a*b], [a*b - c]) —
      in particular every [acc*y + term] Horner step becomes one op;
    - column reads are resolved to a (bank column, rotation slot) pair;
      execution materializes each rotated column once per range with
      two wrap-around blits, so reads are direct array loads;
    - registers are assigned by linear scan over last uses, keeping the
      working set a handful of slots regardless of circuit size.

    The program is pure marshallable data (no closures), so it rides
    inside the proving keys through the [lib/serve] artifact cache and
    batch jobs compile once. Every rewrite above preserves the exact
    field values (canonical residues; field [add]/[mul] are
    commutative and [square x = mul x x]), so proofs are byte-identical
    to the interpreter path — which stays available as a reference
    oracle via [Protocol.Make(_).Testing.prove_interp] and is asserted
    equivalent in [test_evaluator]. *)

module Make (F : Zkml_ff.Field_intf.S) = struct
  (** Operand of an instruction: a virtual register, an interned
      compile-time constant, a runtime scalar (transcript challenges and
      the combination randomness, see {!pack_scalars}) or a column cell
      at one of the program's distinct rotations. *)
  type src =
    | S_reg of int
    | S_const of int
    | S_scalar of int
    | S_cell of int * int  (* bank column, rotation slot *)

  type op =
    | Add of src * src
    | Sub of src * src
    | Mul of src * src
    | Square of src
    | Neg of src
    | Fma of src * src * src  (* a*b + c *)
    | Fms of src * src * src  (* c - a*b *)
    | Msc of src * src * src  (* a*b - c *)

  type prog = {
    p_rots : int array;  (** distinct rotations, slot order *)
    p_consts : F.t array;
    p_ops : op array;
    p_dst : int array;  (** destination register per instruction *)
    p_result : src;
    p_nregs : int;
    p_ncols : int;  (** expected width of the column bank *)
    p_nscalars : int;  (** num_challenges + theta/beta/gamma/y *)
    p_nodes : int;  (** graph nodes before dead-code elimination *)
    p_cse_hits : int;
  }

  (* ------------------------------------------------------------------ *)
  (* Column-bank layout. The prover hands [eval_rows_into] one array of
     extended-coset columns; the compiler and the prover agree on this
     order (it is exactly the concatenation the prover already builds
     for the batched coset NTT, plus the coset points). *)

  type layout = {
    ncols : int;
    c_fixed : int;
    c_advice : int;
    c_instance : int;
    c_sigma : int;
    c_perm_z : int;
    c_helper : int;  (** logUp helper, one per lookup *)
    c_phi : int;  (** logUp running sum, one per table *)
    c_mult : int;  (** logUp multiplicities, one per table *)
    c_l0 : int;
    c_llast : int;
    c_lblind : int;
    c_point : int;
  }

  let layout (circuit : F.t Circuit.t) ~num_sigma ~n_chunks ~n_tables =
    let c_fixed = 0 in
    let c_advice = c_fixed + circuit.Circuit.num_fixed in
    let c_instance = c_advice + Circuit.num_advice circuit in
    let c_sigma = c_instance + circuit.Circuit.num_instance in
    let c_perm_z = c_sigma + num_sigma in
    let c_helper = c_perm_z + n_chunks in
    let c_phi = c_helper + List.length circuit.Circuit.lookups in
    let c_mult = c_phi + n_tables in
    let c_l0 = c_mult + n_tables in
    {
      ncols = c_l0 + 4;
      c_fixed;
      c_advice;
      c_instance;
      c_sigma;
      c_perm_z;
      c_helper;
      c_phi;
      c_mult;
      c_l0;
      c_llast = c_l0 + 1;
      c_lblind = c_l0 + 2;
      c_point = c_l0 + 3;
    }

  (** Runtime scalar layout: challenges first, then theta/beta/gamma/y. *)
  let pack_scalars ~(challenges : F.t array) ~theta ~beta ~gamma ~y =
    Array.append challenges [| theta; beta; gamma; y |]

  (* ------------------------------------------------------------------ *)
  (* Expression-graph builder: hash-consing + constant folding. Nodes
     are created in topological order; [b_cse] maps a structural op to
     the node that already computes it. *)

  type builder = {
    mutable b_nodes : op array;
    mutable b_len : int;
    b_cse : (op, src) Hashtbl.t;
    b_const_ix : (string, int) Hashtbl.t;  (* canonical bytes -> index *)
    mutable b_consts : F.t array;
    mutable b_nconsts : int;
    b_rot_ix : (int, int) Hashtbl.t;
    mutable b_rots : int array;
    mutable b_nrots : int;
    mutable b_cse_hits : int;
  }

  let builder () =
    {
      b_nodes = Array.make 64 (Neg (S_const 0));
      b_len = 0;
      b_cse = Hashtbl.create 256;
      b_const_ix = Hashtbl.create 16;
      b_consts = Array.make 8 F.zero;
      b_nconsts = 0;
      b_rot_ix = Hashtbl.create 8;
      b_rots = Array.make 4 0;
      b_nrots = 0;
      b_cse_hits = 0;
    }

  let const b v =
    let key = F.to_bytes v in
    match Hashtbl.find_opt b.b_const_ix key with
    | Some i -> S_const i
    | None ->
        if b.b_nconsts = Array.length b.b_consts then begin
          let bigger = Array.make (2 * b.b_nconsts) F.zero in
          Array.blit b.b_consts 0 bigger 0 b.b_nconsts;
          b.b_consts <- bigger
        end;
        let i = b.b_nconsts in
        b.b_consts.(i) <- v;
        b.b_nconsts <- i + 1;
        Hashtbl.add b.b_const_ix key i;
        S_const i

  let rot_slot b r =
    match Hashtbl.find_opt b.b_rot_ix r with
    | Some s -> s
    | None ->
        if b.b_nrots = Array.length b.b_rots then begin
          let bigger = Array.make (2 * b.b_nrots) 0 in
          Array.blit b.b_rots 0 bigger 0 b.b_nrots;
          b.b_rots <- bigger
        end;
        let s = b.b_nrots in
        b.b_rots.(s) <- r;
        b.b_nrots <- s + 1;
        Hashtbl.add b.b_rot_ix r s;
        s

  let cval b = function S_const i -> Some b.b_consts.(i) | _ -> None
  let def b = function S_reg i -> Some b.b_nodes.(i) | _ -> None

  let fresh b op =
    match Hashtbl.find_opt b.b_cse op with
    | Some s ->
        b.b_cse_hits <- b.b_cse_hits + 1;
        s
    | None ->
        if b.b_len = Array.length b.b_nodes then begin
          let bigger = Array.make (2 * b.b_len) (Neg (S_const 0)) in
          Array.blit b.b_nodes 0 bigger 0 b.b_len;
          b.b_nodes <- bigger
        end;
        let i = b.b_len in
        b.b_nodes.(i) <- op;
        b.b_len <- i + 1;
        let s = S_reg i in
        Hashtbl.add b.b_cse op s;
        s

  (* Canonical operand order for commutative ops, so [x+y] and [y+x]
     hash-cons to one node. [compare] on [src] is structural — any
     total order works, the choice never changes the computed value. *)
  let ordered x y = if compare x y <= 0 then (x, y) else (y, x)

  (* Smart constructors. Every rewrite maps to an identity of the field
     on canonical representatives, so the evaluated result is
     bit-for-bit the interpreter's. *)
  let rec add b x y =
    match (cval b x, cval b y) with
    | Some a, Some c -> const b (F.add a c)
    | Some a, None when F.is_zero a -> y
    | None, Some c when F.is_zero c -> x
    | _ -> (
        match (def b x, def b y) with
        | _, Some (Neg y') -> sub b x y'
        | Some (Neg x'), _ -> sub b y x'
        | _ ->
            let x, y = ordered x y in
            fresh b (Add (x, y)))

  and sub b x y =
    if x = y then const b F.zero
    else
      match (cval b x, cval b y) with
      | Some a, Some c -> const b (F.sub a c)
      | None, Some c when F.is_zero c -> x
      | Some a, None when F.is_zero a -> neg b y
      | _ -> (
          match def b y with
          | Some (Neg y') -> add b x y'
          | _ -> fresh b (Sub (x, y)))

  and neg b x =
    match cval b x with
    | Some v -> const b (F.neg v)
    | None -> (
        match def b x with Some (Neg x') -> x' | _ -> fresh b (Neg x))

  let mul b x y =
    match (cval b x, cval b y) with
    | Some a, Some c -> const b (F.mul a c)
    | Some a, _ when F.is_zero a -> const b F.zero
    | _, Some c when F.is_zero c -> const b F.zero
    | Some a, _ when F.equal a F.one -> y
    | _, Some c when F.equal c F.one -> x
    | _ ->
        if x = y then fresh b (Square x)
        else
          let x, y = ordered x y in
          fresh b (Mul (x, y))

  let square b x =
    match cval b x with
    | Some v -> const b (F.square v)
    | None -> fresh b (Square x)

  (* ------------------------------------------------------------------ *)
  (* Lowering: dead-code elimination from the root, single-use-product
     fusion, then linear-scan register assignment over last uses. *)

  let operands = function
    | Add (a, b) | Sub (a, b) | Mul (a, b) -> [ a; b ]
    | Square a | Neg a -> [ a ]
    | Fma (a, b, c) | Fms (a, b, c) | Msc (a, b, c) -> [ a; b; c ]

  let lower b lay root =
    let n = b.b_len in
    let live = Array.make (max 1 n) false in
    (match root with
    | S_reg r ->
        let stack = ref [ r ] in
        let rec drain () =
          match !stack with
          | [] -> ()
          | i :: rest ->
              stack := rest;
              if not live.(i) then begin
                live.(i) <- true;
                List.iter
                  (function S_reg j -> stack := j :: !stack | _ -> ())
                  (operands b.b_nodes.(i))
              end;
              drain ()
        in
        drain ()
    | _ -> ());
    (* graph-level use counts (the root counts as a use) decide which
       products are single-use and safe to fold into their consumer *)
    let uses = Array.make (max 1 n) 0 in
    let bump = function S_reg j -> uses.(j) <- uses.(j) + 1 | _ -> () in
    for i = 0 to n - 1 do
      if live.(i) then List.iter bump (operands b.b_nodes.(i))
    done;
    bump root;
    let fused = Array.make (max 1 n) false in
    let replaced = Array.make (max 1 n) None in
    let product m =
      if live.(m) && uses.(m) = 1 && not fused.(m) then
        match b.b_nodes.(m) with Mul (x, y) -> Some (x, y) | _ -> None
      else None
    in
    for i = 0 to n - 1 do
      if live.(i) then begin
        match b.b_nodes.(i) with
        | Add (S_reg m, o) when product m <> None ->
            let x, y = Option.get (product m) in
            fused.(m) <- true;
            replaced.(i) <- Some (Fma (x, y, o))
        | Add (o, S_reg m) when product m <> None ->
            let x, y = Option.get (product m) in
            fused.(m) <- true;
            replaced.(i) <- Some (Fma (x, y, o))
        | Sub (S_reg m, o) when product m <> None ->
            let x, y = Option.get (product m) in
            fused.(m) <- true;
            replaced.(i) <- Some (Msc (x, y, o))
        | Sub (o, S_reg m) when product m <> None ->
            let x, y = Option.get (product m) in
            fused.(m) <- true;
            replaced.(i) <- Some (Fms (x, y, o))
        | _ -> ()
      end
    done;
    let order = ref [] in
    for i = n - 1 downto 0 do
      if live.(i) && not fused.(i) then order := i :: !order
    done;
    let order = Array.of_list !order in
    let op_of i =
      match replaced.(i) with Some o -> o | None -> b.b_nodes.(i)
    in
    (* final use counts over the emitted sequence drive register reuse *)
    let remaining = Array.make (max 1 n) 0 in
    let bump2 = function
      | S_reg j -> remaining.(j) <- remaining.(j) + 1
      | _ -> ()
    in
    Array.iter (fun i -> List.iter bump2 (operands (op_of i))) order;
    bump2 root;
    let reg_of = Array.make (max 1 n) (-1) in
    let free = ref [] in
    let nregs = ref 0 in
    let nops = Array.length order in
    let ops = Array.make (max 1 nops) (Neg (S_const 0)) in
    let dst = Array.make (max 1 nops) 0 in
    Array.iteri
      (fun k i ->
        let op = op_of i in
        List.iter
          (function
            | S_reg j ->
                remaining.(j) <- remaining.(j) - 1;
                if remaining.(j) = 0 then free := reg_of.(j) :: !free
            | _ -> ())
          (operands op);
        let d =
          match !free with
          | r :: rest ->
              free := rest;
              r
          | [] ->
              let r = !nregs in
              incr nregs;
              r
        in
        reg_of.(i) <- d;
        ops.(k) <- op;
        dst.(k) <- d)
      order;
    let map_src = function S_reg i -> S_reg reg_of.(i) | s -> s in
    let map_op = function
      | Add (a, b) -> Add (map_src a, map_src b)
      | Sub (a, b) -> Sub (map_src a, map_src b)
      | Mul (a, b) -> Mul (map_src a, map_src b)
      | Square a -> Square (map_src a)
      | Neg a -> Neg (map_src a)
      | Fma (a, b, c) -> Fma (map_src a, map_src b, map_src c)
      | Fms (a, b, c) -> Fms (map_src a, map_src b, map_src c)
      | Msc (a, b, c) -> Msc (map_src a, map_src b, map_src c)
    in
    {
      p_rots = Array.sub b.b_rots 0 b.b_nrots;
      p_consts = Array.sub b.b_consts 0 b.b_nconsts;
      p_ops = Array.map map_op (Array.sub ops 0 nops);
      p_dst = Array.sub dst 0 nops;
      p_result = map_src root;
      p_nregs = !nregs;
      p_ncols = lay.ncols;
      p_nscalars = 0;  (* patched by compile *)
      p_nodes = n;
      p_cse_hits = b.b_cse_hits;
    }

  (* ------------------------------------------------------------------ *)
  (* Compilation: mirror [Protocol.combine_terms] term by term. The
     Horner accumulation over [y] is order-sensitive, so the emission
     sequence below must match the interpreter exactly: gates, then the
     helper term of each lookup and the three running-sum terms of each
     table, then the permutation boundary / chunk / last-row terms. *)

  let compile (circuit : F.t Circuit.t) ~(perm_cols : Circuit.any_col array)
      ~(deltas : F.t array) ~n_chunks ~chunk =
    let b = builder () in
    let u = Circuit.last_row circuit in
    let nc = circuit.Circuit.num_challenges in
    let tables, look_table = Circuit.lookup_tables circuit in
    let lay =
      layout circuit ~num_sigma:(Array.length perm_cols) ~n_chunks
        ~n_tables:(Array.length tables)
    in
    let theta = S_scalar nc
    and beta = S_scalar (nc + 1)
    and gamma = S_scalar (nc + 2)
    and y = S_scalar (nc + 3) in
    let cell col r = S_cell (col, rot_slot b r) in
    let fixed c r = cell (lay.c_fixed + c) r in
    let adv c r = cell (lay.c_advice + c) r in
    let inst c r = cell (lay.c_instance + c) r in
    let col_cell = function
      | Circuit.Col_fixed c -> fixed c 0
      | Circuit.Col_advice c -> adv c 0
      | Circuit.Col_instance c -> inst c 0
    in
    let one = const b F.one and zero = const b F.zero in
    let l0 = cell lay.c_l0 0
    and llast = cell lay.c_llast 0
    and lblind = cell lay.c_lblind 0
    and point = cell lay.c_point 0 in
    let active = sub b one (add b llast lblind) in
    let rec expr_src (e : F.t Expr.t) =
      match e with
      | Expr.Const v -> const b v
      | Expr.Fixed q -> fixed q.Expr.col q.Expr.rot
      | Expr.Advice q -> adv q.Expr.col q.Expr.rot
      | Expr.Instance q -> inst q.Expr.col q.Expr.rot
      | Expr.Challenge i -> S_scalar i
      | Expr.Neg e -> neg b (expr_src e)
      | Expr.Add (x, y) -> add b (expr_src x) (expr_src y)
      | Expr.Sub (x, y) -> sub b (expr_src x) (expr_src y)
      | Expr.Mul (x, y) -> mul b (expr_src x) (expr_src y)
      | Expr.Scaled (e, v) -> mul b (expr_src e) (const b v)
    in
    let acc = ref zero in
    let push v = acc := add b (mul b !acc y) v in
    let compress srcs =
      List.fold_left (fun a v -> add b (mul b a theta) v) zero srcs
    in
    (* 1. custom gates *)
    List.iter
      (fun g -> List.iter (fun p -> push (expr_src p)) g.Circuit.polys)
      circuit.Circuit.gates;
    (* 2. lookups (logUp): the helper identity per lookup, then the
       running-sum boundary and step terms per table *)
    List.iteri
      (fun li (l : F.t Circuit.lookup) ->
        let f = compress (List.map expr_src l.Circuit.inputs) in
        push (sub b (mul b (cell (lay.c_helper + li) 0) (add b f beta)) one))
      circuit.Circuit.lookups;
    Array.iteri
      (fun ti tup ->
        let phi0 = cell (lay.c_phi + ti) 0 and phi1 = cell (lay.c_phi + ti) 1 in
        let t = compress (List.map expr_src tup) in
        let sum_h = ref zero in
        Array.iteri
          (fun li tj ->
            if tj = ti then sum_h := add b !sum_h (cell (lay.c_helper + li) 0))
          look_table;
        push (mul b l0 phi0);
        push
          (mul b active
             (add b
                (mul b (sub b (sub b phi1 phi0) !sum_h) (add b t beta))
                (cell (lay.c_mult + ti) 0)));
        push (mul b llast phi0))
      tables;
    (* 3. permutation argument *)
    if n_chunks > 0 then begin
      push (mul b l0 (sub b one (cell lay.c_perm_z 0)));
      for j = 1 to n_chunks - 1 do
        push
          (mul b l0
             (sub b (cell (lay.c_perm_z + j) 0) (cell (lay.c_perm_z + j - 1) u)))
      done;
      let m = Array.length perm_cols in
      let rec chunks start =
        if start >= m then []
        else
          let len = min chunk (m - start) in
          Array.to_list (Array.init len (fun i -> start + i))
          :: chunks (start + len)
      in
      List.iteri
        (fun j cols ->
          let lhs = ref (cell (lay.c_perm_z + j) 1)
          and rhs = ref (cell (lay.c_perm_z + j) 0) in
          List.iter
            (fun mi ->
              let w = col_cell perm_cols.(mi) in
              lhs :=
                mul b !lhs
                  (add b w (add b (mul b beta (cell (lay.c_sigma + mi) 0)) gamma));
              rhs :=
                mul b !rhs
                  (add b w
                     (add b (mul b (mul b beta (const b deltas.(mi))) point) gamma)))
            cols;
          push (mul b active (sub b !lhs !rhs)))
        (chunks 0);
      let zl = cell (lay.c_perm_z + n_chunks - 1) 0 in
      push (mul b llast (sub b (square b zl) zl))
    end;
    let prog = lower b lay !acc in
    { prog with p_nscalars = nc + 4 }

  (* ------------------------------------------------------------------ *)
  (* Row-wise execution on the extended coset. *)

  (** [eval_rows_into p ~bank ~scalars ~factor ~out ~lo ~hi] evaluates
      the program at rows [lo..hi-1] of the coset, writing [out.(i)].
      [bank] columns follow {!layout} order (width [p.p_ncols], each of
      length [Array.length out]); rotations wrap as
      [(i + r*factor) mod ext_n]. Pure with disjoint writes per range,
      so ranges fan out over the domain pool; all scratch is per-call.

      Execution is blocked, not row-at-a-time: operands are resolved to
      plain arrays once per call (registers become block-wide buffers,
      constants and scalars broadcast into block buffers, each column
      read at a non-zero rotation materialized for the range by two
      wrap-around blits) and every instruction then runs over a whole
      block in a tight loop. This amortizes instruction dispatch across
      the block and keeps each element-step to array loads, one field
      op and one store — the per-row interpretive overhead is what made
      a naive register machine slower than the closure interpreter it
      replaces. Element results are unchanged: the same field ops run
      on the same values in the same order for every row. *)
  let eval_rows_into (p : prog) ~(bank : F.t array array)
      ~(scalars : F.t array) ~factor ~(out : F.t array) ~lo ~hi =
    if Array.length bank <> p.p_ncols then
      invalid_arg "Evaluator.eval_rows_into: bank width mismatch";
    if Array.length scalars <> p.p_nscalars then
      invalid_arg "Evaluator.eval_rows_into: scalar count mismatch";
    let ext_n = Array.length out in
    Array.iter
      (fun col ->
        if Array.length col <> ext_n then
          invalid_arg "Evaluator.eval_rows_into: bank column length mismatch")
      bank;
    let len = hi - lo in
    if len > 0 then begin
      let blk = min 256 len in
      let bcast v = Array.make blk v in
      let const_buf = Array.map bcast p.p_consts in
      let scal_buf = Array.map bcast scalars in
      let regs = Array.init p.p_nregs (fun _ -> Array.make blk F.zero) in
      (* Offset modes per operand array: 0 = block-relative scratch
         (registers, broadcasts), 1 = the bank column itself (absolute
         row index; only rotation 0 reads it directly), 2 = a
         range-relative rotated view. *)
      let rot_view : (int * int, F.t array) Hashtbl.t = Hashtbl.create 8 in
      let resolve = function
        | S_reg r -> (regs.(r), 0)
        | S_const c -> (const_buf.(c), 0)
        | S_scalar s -> (scal_buf.(s), 0)
        | S_cell (col, slot) ->
            let r = p.p_rots.(slot) in
            if r = 0 then (bank.(col), 1)
            else
              let a =
                match Hashtbl.find_opt rot_view (col, slot) with
                | Some a -> a
                | None ->
                    let src = bank.(col) in
                    let a = Array.make len F.zero in
                    let s = (lo + (r * factor)) mod ext_n in
                    let start = if s < 0 then s + ext_n else s in
                    let first = min len (ext_n - start) in
                    Array.blit src start a 0 first;
                    if first < len then Array.blit src 0 a first (len - first);
                    Hashtbl.add rot_view (col, slot) a;
                    a
              in
              (a, 2)
      in
      let nops = Array.length p.p_ops in
      let dummy : F.t array = [||] in
      let mk () = (Array.make (max 1 nops) dummy, Array.make (max 1 nops) 0) in
      let a_arr, a_md = mk () in
      let b_arr, b_md = mk () in
      let c_arr, c_md = mk () in
      let code = Array.make (max 1 nops) 0 in
      Array.iteri
        (fun k op ->
          let put (arr, md) s =
            let a, m = resolve s in
            arr.(k) <- a;
            md.(k) <- m
          in
          let a = (a_arr, a_md) and b = (b_arr, b_md) and c = (c_arr, c_md) in
          match op with
          | Add (x, y) -> code.(k) <- 0; put a x; put b y
          | Sub (x, y) -> code.(k) <- 1; put a x; put b y
          | Mul (x, y) -> code.(k) <- 2; put a x; put b y
          | Square x -> code.(k) <- 3; put a x
          | Neg x -> code.(k) <- 4; put a x
          | Fma (x, y, z) -> code.(k) <- 5; put a x; put b y; put c z
          | Fms (x, y, z) -> code.(k) <- 6; put a x; put b y; put c z
          | Msc (x, y, z) -> code.(k) <- 7; put a x; put b y; put c z)
        p.p_ops;
      let res_arr, res_md = resolve p.p_result in
      (* Unsafe indexing below is bounds-checked by construction: mode-0
         buffers have length [blk >= bl], mode-1 columns length [ext_n >
         cur_lo + bl - 1] (validated above), mode-2 views length [len >=
         pos + bl]. *)
      let pos = ref 0 in
      while !pos < len do
        let bl = min blk (len - !pos) in
        let cur_lo = lo + !pos in
        let off m = if m = 0 then 0 else if m = 1 then cur_lo else !pos in
        for k = 0 to nops - 1 do
          let d = regs.(Array.unsafe_get p.p_dst k) in
          let a = Array.unsafe_get a_arr k
          and ao = off (Array.unsafe_get a_md k) in
          match Array.unsafe_get code k with
          | 0 ->
              let b = Array.unsafe_get b_arr k
              and bo = off (Array.unsafe_get b_md k) in
              for t = 0 to bl - 1 do
                Array.unsafe_set d t
                  (F.add (Array.unsafe_get a (ao + t))
                     (Array.unsafe_get b (bo + t)))
              done
          | 1 ->
              let b = Array.unsafe_get b_arr k
              and bo = off (Array.unsafe_get b_md k) in
              for t = 0 to bl - 1 do
                Array.unsafe_set d t
                  (F.sub (Array.unsafe_get a (ao + t))
                     (Array.unsafe_get b (bo + t)))
              done
          | 2 ->
              let b = Array.unsafe_get b_arr k
              and bo = off (Array.unsafe_get b_md k) in
              for t = 0 to bl - 1 do
                Array.unsafe_set d t
                  (F.mul (Array.unsafe_get a (ao + t))
                     (Array.unsafe_get b (bo + t)))
              done
          | 3 ->
              for t = 0 to bl - 1 do
                Array.unsafe_set d t (F.square (Array.unsafe_get a (ao + t)))
              done
          | 4 ->
              for t = 0 to bl - 1 do
                Array.unsafe_set d t (F.neg (Array.unsafe_get a (ao + t)))
              done
          | _ ->
              let b = Array.unsafe_get b_arr k
              and bo = off (Array.unsafe_get b_md k) in
              let c = Array.unsafe_get c_arr k
              and co = off (Array.unsafe_get c_md k) in
              let kind = Array.unsafe_get code k in
              for t = 0 to bl - 1 do
                let prod =
                  F.mul (Array.unsafe_get a (ao + t))
                    (Array.unsafe_get b (bo + t))
                in
                let cv = Array.unsafe_get c (co + t) in
                Array.unsafe_set d t
                  (if kind = 5 then F.add prod cv
                   else if kind = 6 then F.sub cv prod
                   else F.sub prod cv)
              done
        done;
        let ro = off res_md in
        for t = 0 to bl - 1 do
          out.(cur_lo + t) <- Array.unsafe_get res_arr (ro + t)
        done;
        pos := !pos + bl
      done
    end
end
