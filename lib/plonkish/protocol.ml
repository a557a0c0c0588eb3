(** The proving protocol: keygen, prover and verifier for {!Circuit}
    descriptions, functorized over the polynomial commitment scheme so
    that the KZG and IPA backends (paper Tables 6 and 7) share all code.

    The protocol follows halo2: commit advice (in phases, squeezing the
    circuit challenges in between), run the lookup argument and the
    chunked permutation argument, combine every constraint with powers
    of [y] into the quotient polynomial computed on an extended coset,
    then evaluate everything at a random point [x] and batch the
    openings per rotation.

    Lookups use logUp (Haböck, ePrint 2022/1530), not halo2's permuted
    columns: per table tuple a multiplicity column [m_T] and a running
    sum [phi_T], per lookup a helper [h_i = 1 / (f_i + beta)]; see
    DESIGN.md, "Lookup argument (logUp)". *)

module Make (Scheme : Zkml_commit.Scheme_intf.S) = struct
  module G = Scheme.G
  module F = G.Scalar
  module P = Zkml_poly.Polynomial.Make (F)
  module Extra = Zkml_ff.Field_extra.Make (F)
  module T = Zkml_transcript.Transcript
  module Ch = Zkml_transcript.Transcript.Challenge (F)
  module Obs = Zkml_obs.Obs
  module Metrics = Zkml_obs.Metrics
  module Ev = Evaluator.Make (F)

  type circuit = F.t Circuit.t

  (* ------------------------------------------------------------------ *)
  (* Keys *)

  type keys = {
    circuit : circuit;
    domain : P.Domain.t;
    fixed_values : F.t array array;
    fixed_polys : F.t array array;
    fixed_commits : G.t array;
    perm_cols : Circuit.any_col array;
    sigma_values : F.t array array;  (* per perm column: permuted labels *)
    sigma_polys : F.t array array;
    sigma_commits : G.t array;
    deltas : F.t array;  (* identity coset shifts, delta^m per perm col *)
    tables : F.t Expr.t list array;  (** distinct lookup table tuples *)
    look_table : int array;  (** per lookup: index of its table *)
    d_max : int;
    ext_factor : int;
    ext_domain : P.Domain.t;
    n_chunks : int;
    chunk : int;
    ind_ext : F.t array array;
        (** the l0 / llast / lblind row indicators on the quotient's
            extended coset, extended once here instead of per proof *)
    eval_prog : Ev.prog;
        (** the whole quotient combination compiled to a flat register
            program (see {!Evaluator}); pure data, cached with the keys *)
    rot_omegas : (int * F.t) array;
        (** rotation r -> omega^r (inverse powers for r < 0, all
            inverted by one batched inversion at keygen) *)
  }

  module Pool = Zkml_util.Pool

  (** Coset shift of the quotient's extended domain. *)
  let coset_shift = F.generator

  (** Columns in coefficient form, evaluated on the extended coset. *)
  let extend ext_domain polys =
    P.coset_ntt_many ext_domain ~shift:coset_shift polys

  (* Union-find for copy-constraint equivalence classes. *)
  let build_sigma (circuit : circuit) (perm_cols : Circuit.any_col array)
      ~n ~omega_pows ~deltas =
    let m = Array.length perm_cols in
    let col_index c =
      let rec find i = if perm_cols.(i) = c then i else find (i + 1) in
      find 0
    in
    let total = m * n in
    let parent = Array.init total (fun i -> i) in
    let rec find i = if parent.(i) = i then i else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then parent.(ri) <- rj
    in
    List.iter
      (fun ((c1, r1), (c2, r2)) ->
        union ((col_index c1 * n) + r1) ((col_index c2 * n) + r2))
      circuit.Circuit.copies;
    (* Collect members per class and rotate each cycle by one. *)
    let classes = Hashtbl.create 64 in
    for i = 0 to total - 1 do
      let r = find i in
      Hashtbl.replace classes r (i :: (try Hashtbl.find classes r with Not_found -> []))
    done;
    (* identity labels: omega_pows is the domain's cached elements *)
    let label cell =
      let c = cell / n and r = cell mod n in
      F.mul deltas.(c) omega_pows.(r)
    in
    let sigma = Array.init m (fun c -> Array.init n (fun r -> label ((c * n) + r))) in
    Hashtbl.iter
      (fun _ members ->
        match members with
        | [] | [ _ ] -> ()
        | first :: _ ->
            let arr = Array.of_list members in
            let len = Array.length arr in
            ignore first;
            for i = 0 to len - 1 do
              let cell = arr.(i) and next = arr.((i + 1) mod len) in
              sigma.(cell / n).(cell mod n) <- label next
            done)
      classes;
    sigma

  let column_rotations (circuit : circuit) =
    (* per-kind map: column -> sorted rotation list (always includes 0) *)
    let fixed_rots = Array.make circuit.num_fixed [ 0 ] in
    let advice_rots = Array.make (Circuit.num_advice circuit) [ 0 ] in
    let instance_rots = Array.make circuit.num_instance [ 0 ] in
    let add arr (q : Expr.query) =
      if not (List.mem q.rot arr.(q.col)) then arr.(q.col) <- q.rot :: arr.(q.col)
    in
    let visit e =
      ignore
        (Expr.fold_queries
           (fun () kind q ->
             (match kind with
             | Expr.KFixed -> add fixed_rots q
             | Expr.KAdvice -> add advice_rots q
             | Expr.KInstance -> add instance_rots q);
             ())
           () e)
    in
    List.iter (fun g -> List.iter visit g.Circuit.polys) circuit.gates;
    List.iter
      (fun l ->
        List.iter visit l.Circuit.inputs;
        List.iter visit l.Circuit.tables)
      circuit.lookups;
    let sort a = Array.map (List.sort compare) a in
    (sort fixed_rots, sort advice_rots, sort instance_rots)

  let keygen scheme_params (circuit : circuit) ~(fixed : F.t array array) =
    Obs.Span.with_ ~name:"keygen" @@ fun () ->
    Obs.count "keygen.fixed_cols" circuit.num_fixed;
    let n = Circuit.n circuit in
    let domain = P.Domain.create circuit.k in
    if Array.length fixed <> circuit.num_fixed then
      invalid_arg "keygen: fixed column count mismatch";
    Array.iter
      (fun col ->
        if Array.length col <> n then invalid_arg "keygen: fixed column length")
      fixed;
    let fixed_polys = P.interpolate_many domain fixed in
    let fixed_commits = Scheme.commit_many scheme_params fixed_polys in
    let perm_cols = Circuit.permutation_columns circuit in
    let m = Array.length perm_cols in
    let deltas = Array.make (max m 1) F.one in
    for i = 1 to m - 1 do
      deltas.(i) <- F.mul deltas.(i - 1) F.generator
    done;
    let sigma_values =
      if m = 0 then [||]
      else
        build_sigma circuit perm_cols ~n
          ~omega_pows:(P.Domain.elements domain) ~deltas
    in
    let sigma_polys = P.interpolate_many domain sigma_values in
    let sigma_commits = Scheme.commit_many scheme_params sigma_polys in
    let d_max = Circuit.max_degree circuit in
    let chunk = Circuit.permutation_chunk circuit in
    let n_chunks = if m = 0 then 0 else (m + chunk - 1) / chunk in
    let ext_factor = Circuit.ext_factor d_max in
    let ext_domain =
      let rec lg f = if f <= 1 then 0 else 1 + lg (f / 2) in
      P.Domain.create (circuit.k + lg ext_factor)
    in
    let ind_ext =
      (* l0, llast and lblind: 1 on row 0, on row u, on the blinding rows *)
      let u = Circuit.last_row circuit in
      let indicator lo hi = Array.init n (fun r -> if r >= lo && r <= hi then F.one else F.zero) in
      extend ext_domain
        (P.interpolate_many domain
           [| indicator 0 0; indicator u u; indicator (u + 1) (n - 1) |])
    in
    let tables, look_table = Circuit.lookup_tables circuit in
    let eval_prog =
      (* lower the whole quotient combination once; the program rides in
         the keys (and hence the serve artifact cache) *)
      let p = Ev.compile circuit ~perm_cols ~deltas ~n_chunks ~chunk in
      Obs.gauge_int "evaluator.ops" (Array.length p.Ev.p_ops);
      Obs.gauge_int "evaluator.nodes" p.Ev.p_nodes;
      Obs.gauge_int "evaluator.cse_hits" p.Ev.p_cse_hits;
      Obs.gauge_int "evaluator.regs" p.Ev.p_nregs;
      Obs.gauge_int "evaluator.consts" (Array.length p.Ev.p_consts);
      p
    in
    let rot_omegas =
      (* every rotation the opening plan or an expression can query:
         column rotations, the running-sum shift 1, the permutation
         shifts {1, u} and 0. One batched inversion covers all negative
         rotations. *)
      let u = Circuit.last_row circuit in
      let rots = ref [ 0 ] in
      let add r = if not (List.mem r !rots) then rots := r :: !rots in
      let fixed_rots, advice_rots, instance_rots = column_rotations circuit in
      Array.iter (List.iter add) fixed_rots;
      Array.iter (List.iter add) advice_rots;
      Array.iter (List.iter add) instance_rots;
      if circuit.lookups <> [] then add 1;
      if n_chunks > 0 then begin
        add 1;
        add u
      end;
      let rots = Array.of_list (List.sort compare !rots) in
      let negs = Array.of_list (List.filter (fun r -> r < 0) (Array.to_list rots)) in
      let neg_inv =
        Extra.batch_inv (Array.map (fun r -> F.pow_int domain.omega (-r)) negs)
      in
      Array.map
        (fun r ->
          if r >= 0 then (r, F.pow_int domain.omega r)
          else begin
            let j = ref 0 in
            Array.iteri (fun i r' -> if r' = r then j := i) negs;
            (r, neg_inv.(!j))
          end)
        rots
    in
    {
      circuit;
      domain;
      fixed_values = fixed;
      fixed_polys;
      fixed_commits;
      perm_cols;
      sigma_values;
      sigma_polys;
      sigma_commits;
      deltas;
      tables;
      look_table;
      d_max;
      ext_factor;
      ext_domain;
      n_chunks;
      chunk;
      ind_ext;
      eval_prog;
      rot_omegas;
    }

  (** Rotation multiplier [omega^r] from the precomputed per-keys table
      (negative rotations were inverted together at keygen); falls back
      to direct computation for a rotation outside the table. *)
  let omega_rot keys r =
    let tbl = keys.rot_omegas in
    let n_tbl = Array.length tbl in
    let rec find i =
      if i = n_tbl then
        if r >= 0 then F.pow_int keys.domain.omega r
        else F.inv (F.pow_int keys.domain.omega (-r))
      else
        let r', v = tbl.(i) in
        if r' = r then v else find (i + 1)
    in
    find 0

  (** The opening point for rotation [r]: [x * omega^r]. *)
  let point_of_rot keys x r = F.mul x (omega_rot keys r)

  (* ------------------------------------------------------------------ *)
  (* Opening plan: which polynomial is opened at which rotation, in a
     deterministic order shared by prover and verifier. *)

  type source =
    | Src_fixed of int
    | Src_advice of int
    | Src_sigma of int
    | Src_perm_z of int
    | Src_helper of int
    | Src_phi of int
    | Src_mult of int
    | Src_h of int

  let opening_plan keys =
    let circuit = keys.circuit in
    let fixed_rots, advice_rots, _ = column_rotations circuit in
    let u = Circuit.last_row circuit in
    let plan = ref [] in
    let push src rot = plan := (src, rot) :: !plan in
    Array.iteri (fun i rots -> List.iter (fun r -> push (Src_fixed i) r) rots) fixed_rots;
    Array.iteri (fun i rots -> List.iter (fun r -> push (Src_advice i) r) rots) advice_rots;
    Array.iteri (fun i _ -> push (Src_sigma i) 0) keys.sigma_polys;
    for j = 0 to keys.n_chunks - 1 do
      push (Src_perm_z j) 0;
      push (Src_perm_z j) 1;
      if j < keys.n_chunks - 1 then push (Src_perm_z j) u
    done;
    Array.iteri (fun li _ -> push (Src_helper li) 0) keys.look_table;
    Array.iteri
      (fun ti _ ->
        push (Src_phi ti) 0;
        push (Src_phi ti) 1;
        push (Src_mult ti) 0)
      keys.tables;
    for j = 0 to keys.ext_factor - 1 do
      push (Src_h j) 0
    done;
    List.rev !plan

  (* ------------------------------------------------------------------ *)
  (* Shared constraint-term combination. The [ctx] callbacks abstract
     whether we are on the extended coset (prover) or at the point x
     (verifier); keeping this in one function guarantees the two sides
     agree on the term order and formulas. *)

  type ctx = {
    c_fixed : int -> int -> F.t;
    c_advice : int -> int -> F.t;
    c_instance : int -> int -> F.t;
    c_challenge : int -> F.t;
    c_col : Circuit.any_col -> F.t;  (* at rotation 0 *)
    c_sigma : int -> F.t;
    c_perm_z : int -> [ `R0 | `R1 | `Ru ] -> F.t;
    c_helper : int -> F.t;
    c_phi : int -> [ `R0 | `R1 ] -> F.t;
    c_mult : int -> F.t;
    c_l0 : F.t;
    c_llast : F.t;
    c_lblind : F.t;
    c_point : F.t;  (* the evaluation point (coset point or x) *)
  }

  let eval_expr ctx e =
    Expr.eval ~fixed_at:ctx.c_fixed ~advice_at:ctx.c_advice
      ~instance_at:ctx.c_instance ~challenge:ctx.c_challenge ~add:F.add
      ~sub:F.sub ~mul:F.mul ~neg:F.neg ~scale:F.mul e

  let compress theta values =
    List.fold_left (fun acc v -> F.add (F.mul acc theta) v) F.zero values

  (* Chunked permutation column list. *)
  let perm_chunks keys =
    let m = Array.length keys.perm_cols in
    let rec go start =
      if start >= m then []
      else begin
        let len = min keys.chunk (m - start) in
        Array.to_list (Array.init len (fun i -> start + i)) :: go (start + len)
      end
    in
    go 0

  let combine_terms keys ~beta ~gamma ~theta ~y ctx =
    let circuit = keys.circuit in
    let acc = ref F.zero in
    let push v = acc := F.add (F.mul !acc y) v in
    let active = F.sub F.one (F.add ctx.c_llast ctx.c_lblind) in
    (* 1. custom gates *)
    List.iter
      (fun g -> List.iter (fun p -> push (eval_expr ctx p)) g.Circuit.polys)
      circuit.gates;
    (* 2. lookups (logUp): the helper identity per lookup, then the
       running-sum boundary and step terms per table *)
    List.iteri
      (fun li (l : F.t Circuit.lookup) ->
        let f = compress theta (List.map (eval_expr ctx) l.inputs) in
        push (F.sub (F.mul (ctx.c_helper li) (F.add f beta)) F.one))
      circuit.lookups;
    Array.iteri
      (fun ti tup ->
        let phi0 = ctx.c_phi ti `R0 in
        let t = compress theta (List.map (eval_expr ctx) tup) in
        let sum_h = ref F.zero in
        Array.iteri
          (fun li tj -> if tj = ti then sum_h := F.add !sum_h (ctx.c_helper li))
          keys.look_table;
        push (F.mul ctx.c_l0 phi0);
        push
          (F.mul active
             (F.add
                (F.mul (F.sub (F.sub (ctx.c_phi ti `R1) phi0) !sum_h) (F.add t beta))
                (ctx.c_mult ti)));
        push (F.mul ctx.c_llast phi0))
      keys.tables;
    (* 3. permutation argument *)
    if keys.n_chunks > 0 then begin
      push (F.mul ctx.c_l0 (F.sub F.one (ctx.c_perm_z 0 `R0)));
      for j = 1 to keys.n_chunks - 1 do
        push
          (F.mul ctx.c_l0
             (F.sub (ctx.c_perm_z j `R0) (ctx.c_perm_z (j - 1) `Ru)))
      done;
      List.iteri
        (fun j cols ->
          let lhs = ref (ctx.c_perm_z j `R1) and rhs = ref (ctx.c_perm_z j `R0) in
          List.iter
            (fun m ->
              let w = ctx.c_col keys.perm_cols.(m) in
              lhs := F.mul !lhs (F.add w (F.add (F.mul beta (ctx.c_sigma m)) gamma));
              rhs :=
                F.mul !rhs
                  (F.add w
                     (F.add (F.mul (F.mul beta keys.deltas.(m)) ctx.c_point) gamma)))
            cols;
          push (F.mul active (F.sub !lhs !rhs)))
        (perm_chunks keys);
      let zl = ctx.c_perm_z (keys.n_chunks - 1) `R0 in
      push (F.mul ctx.c_llast (F.sub (F.square zl) zl))
    end;
    !acc

  (* ------------------------------------------------------------------ *)
  (* Proof representation *)

  type proof = {
    adv_commits : G.t array;
    mult_commits : G.t array;  (* per lookup table *)
    perm_z_commits : G.t array;
    helper_commits : G.t array;  (* per lookup *)
    phi_commits : G.t array;  (* per lookup table *)
    h_commits : G.t array;
    evals : F.t array;  (* in opening_plan order *)
    openings : Scheme.proof array;  (* per distinct rotation *)
  }

  let proof_to_bytes proof =
    let buf = Buffer.create 4096 in
    let add_commits cs = Array.iter (fun c -> Buffer.add_string buf (G.to_bytes c)) cs in
    add_commits proof.adv_commits;
    add_commits proof.mult_commits;
    add_commits proof.perm_z_commits;
    add_commits proof.helper_commits;
    add_commits proof.phi_commits;
    add_commits proof.h_commits;
    Array.iter (fun e -> Buffer.add_string buf (F.to_bytes e)) proof.evals;
    Array.iter
      (fun o -> Buffer.add_string buf (Scheme.proof_to_bytes o))
      proof.openings;
    Buffer.contents buf

  let proof_size_bytes proof = String.length (proof_to_bytes proof)

  (* ------------------------------------------------------------------ *)
  (* Transcript bootstrap shared by prover and verifier *)

  let init_transcript keys ~instance =
    let t = T.create "zkml-plonkish" in
    Array.iter
      (fun c -> T.absorb_bytes t ~label:"fixed" (G.to_bytes c))
      keys.fixed_commits;
    Array.iter
      (fun c -> T.absorb_bytes t ~label:"sigma" (G.to_bytes c))
      keys.sigma_commits;
    Array.iter (fun col -> Ch.absorb_scalars t ~label:"instance" (Array.to_list col)) instance;
    t

  (* Distinct rotations in plan order of first appearance. *)
  let distinct_rotations plan =
    List.fold_left
      (fun acc (_, r) -> if List.mem r acc then acc else r :: acc)
      [] plan
    |> List.rev

  module Err = Zkml_util.Err

  (** Parse a proof produced by {!proof_to_bytes}; all counts are
      derived from the verification keys. Total over adversarial bytes:
      a proof truncated at any point, a non-canonical field or group
      encoding, or trailing garbage all come back as a typed
      [Error _] carrying the byte offset — never as an exception. *)
  let proof_of_bytes scheme_params keys s =
    let open Err in
    let circuit = keys.circuit in
    let num_adv = Circuit.num_advice circuit in
    let num_lookups = List.length circuit.lookups in
    let num_tables = Array.length keys.tables in
    let plan = opening_plan keys in
    let r = Reader.of_string s in
    let read_many what k decode_one =
      let rec go acc i =
        if i = k then Ok (Array.of_list (List.rev acc))
        else
          let* v = decode_one (Printf.sprintf "%s[%d]" what i) in
          go (v :: acc) (i + 1)
      in
      go [] 0
    in
    let read_gs what k =
      read_many what k (fun w -> Reader.decode r ~what:w G.size_bytes G.of_bytes_exn)
    in
    let result =
      let* adv_commits = read_gs "advice commit" num_adv in
      let* mult_commits = read_gs "lookup multiplicity commit" num_tables in
      let* perm_z_commits = read_gs "permutation z commit" keys.n_chunks in
      let* helper_commits = read_gs "lookup helper commit" num_lookups in
      let* phi_commits = read_gs "lookup running sum commit" num_tables in
      let* h_commits = read_gs "quotient commit" keys.ext_factor in
      let* evals =
        read_many "evaluation" (List.length plan) (fun w ->
            Reader.decode r ~what:w F.size_bytes F.of_bytes_exn)
      in
      let* openings =
        read_many "opening" (List.length (distinct_rotations plan)) (fun w ->
            in_context w (Scheme.read_proof scheme_params r))
      in
      let* () = Reader.expect_end r ~what:"proof" in
      Ok
        {
          adv_commits;
          mult_commits;
          perm_z_commits;
          helper_commits;
          phi_commits;
          h_commits;
          evals;
          openings;
        }
    in
    in_context "proof" result

  let proof_of_bytes_exn scheme_params keys s =
    Err.get_exn (proof_of_bytes scheme_params keys s)


  (* ------------------------------------------------------------------ *)
  (* Prover *)

  let rot_index ~ext_n ~factor i rot =
    let j = (i + (rot * factor)) mod ext_n in
    if j < 0 then j + ext_n else j

  (** The logUp columns a test-only tamper hook may rewrite (see
      {!Testing}). *)
  type lookup_column = Mult | Helper | Phi

  (* The prover. [tamper] is [None] and [interp] false on every
     production path. A tamper hook receives a copy of each logUp column
     just before it is committed and may rewrite it, while the prover's
     other derivations keep the honest values. With a hook, an input
     missing from its table is skipped instead of refused. [interp]
     evaluates the quotient with the reference AST interpreter instead
     of the compiled program. *)
  let prove_gen ~tamper ~interp scheme_params keys ~(instance : F.t array array)
      ~(advice : F.t array -> F.t array array) ~rng =
    Metrics.inc ~help:"Proofs produced" "zkml_proofs_total" 1.0;
    Obs.Span.with_ ~name:"prove" @@ fun () ->
    let circuit = keys.circuit in
    let n = Circuit.n circuit in
    let u = Circuit.last_row circuit in
    let transcript = init_transcript keys ~instance in
    let absorb label = Array.iter (fun c -> T.absorb_bytes transcript ~label (G.to_bytes c)) in
    let num_adv = Circuit.num_advice circuit in
    let adv_polys, adv_commits, challenges, advice_grid =
      Obs.Span.with_ ~name:"advice-commit" @@ fun () ->
      Obs.count "advice.cols" num_adv;
      (* --- phase 0 advice --- *)
      let advice0 = advice [||] in
      if Array.length advice0 <> num_adv then
        invalid_arg "prove: advice column count mismatch";
      (* blinding rows *)
      let blind_grid g =
        Array.iter
          (fun col ->
            for r = u to n - 1 do
              col.(r) <- F.random rng
            done)
          g
      in
      blind_grid advice0;
      let adv_polys = Array.make num_adv [||] in
      let adv_commits = Array.make num_adv G.zero in
      let commit_phase ph grid =
        (* interpolate + commit the phase's columns as one parallel
           batch, then absorb in ascending column order — the same
           transcript sequence as the sequential loop *)
        let idxs = ref [] in
        for i = num_adv - 1 downto 0 do
          if circuit.advice_phases.(i) = ph then idxs := i :: !idxs
        done;
        let idxs = Array.of_list !idxs in
        let polys =
          P.interpolate_many keys.domain (Array.map (fun i -> grid.(i)) idxs)
        in
        let commits = Scheme.commit_many scheme_params polys in
        Array.iteri
          (fun j i ->
            adv_polys.(i) <- polys.(j);
            adv_commits.(i) <- commits.(j);
            T.absorb_bytes transcript ~label:"advice"
              (G.to_bytes adv_commits.(i)))
          idxs
      in
      commit_phase 0 advice0;
      let challenges =
        Array.init circuit.num_challenges (fun _ ->
            Ch.squeeze_nonzero transcript ~label:"challenge")
      in
      let advice_grid =
        if circuit.num_challenges = 0 && Array.for_all (fun p -> p = 0) circuit.advice_phases
        then advice0
        else begin
          let g = advice challenges in
          (* phase-0 columns must be reproduced identically: reuse the
             blinded versions committed above; blind only phase-1 columns *)
          for i = 0 to num_adv - 1 do
            if circuit.advice_phases.(i) = 0 then g.(i) <- advice0.(i)
            else
              for r = u to n - 1 do
                g.(i).(r) <- F.random rng
              done
          done;
          g
        end
      in
      if Array.exists (fun p -> p = 1) circuit.advice_phases then
        commit_phase 1 advice_grid;
      (adv_polys, adv_commits, challenges, advice_grid)
    in
    (* --- lookups (logUp): compress, count multiplicities, commit --- *)
    let theta = Ch.squeeze_nonzero transcript ~label:"theta" in
    let inst_cols = instance in
    (* per-row compression is pure and writes disjoint rows *)
    let compressed rows exprs =
      let v = Array.make rows F.zero in
      Pool.parallel_for_ranges ~seq_below:1024 rows (fun lo hi ->
          for row = lo to hi - 1 do
            let at grid col rot = grid.(col).((((row + rot) mod n) + n) mod n) in
            let eval =
              Expr.eval ~fixed_at:(at keys.fixed_values) ~advice_at:(at advice_grid)
                ~instance_at:(at inst_cols) ~challenge:(Array.get challenges)
                ~add:F.add ~sub:F.sub ~mul:F.mul ~neg:F.neg ~scale:F.mul
            in
            v.(row) <- compress theta (List.map eval exprs)
          done);
      v
    in
    let lookups = Array.of_list circuit.lookups in
    let num_tables = Array.length keys.tables in
    (* the column a tamper hook sees is a copy: the prover's own
       derivations keep the honest values *)
    let committed what i col =
      match tamper with
      | None -> col
      | Some hook ->
          let c = Array.copy col in
          hook what i c;
          c
    in
    let look_f, table_t, mult =
      Obs.Span.with_ ~name:"lookup" @@ fun () ->
      Obs.count "lookup.rows" (Array.length lookups * u);
      (* inputs on every row, since the helper identity holds on every
         row; tables on the usable rows the running sum covers *)
      let look_f = Array.map (fun l -> compressed n l.Circuit.inputs) lookups in
      let table_t = Array.map (compressed u) keys.tables in
      (* each distinct table value is counted at its first usable row *)
      let mult =
        Array.mapi
          (fun ti t ->
            let first = Hashtbl.create u and m = Array.make u 0 in
            for r = u - 1 downto 0 do
              Hashtbl.replace first (F.to_bytes t.(r)) r
            done;
            Array.iteri
              (fun li f ->
                if keys.look_table.(li) = ti then
                  for row = 0 to u - 1 do
                    match Hashtbl.find_opt first (F.to_bytes f.(row)) with
                    | Some r -> m.(r) <- m.(r) + 1
                    | None ->
                        if tamper = None then
                          invalid_arg
                            (Printf.sprintf "prove: lookup '%s' input not in table"
                               lookups.(li).Circuit.lookup_name)
                  done)
              look_f;
            Array.init n (fun r -> if r < u then F.of_int m.(r) else F.random rng))
          table_t
      in
      (look_f, table_t, mult)
    in
    let mult_polys, mult_commits =
      Obs.Span.with_ ~name:"lookup-commit" @@ fun () ->
      let polys = P.interpolate_many keys.domain (Array.mapi (committed Mult) mult) in
      (polys, Scheme.commit_many scheme_params polys)
    in
    absorb "look-m" mult_commits;
    let beta = Ch.squeeze_nonzero transcript ~label:"beta" in
    let gamma = Ch.squeeze_nonzero transcript ~label:"gamma" in
    (* helpers 1/(f_i + beta) on every row and the table side
       1/(t_T + beta) on the usable rows: one batch inversion per column *)
    let helpers, table_inv =
      Obs.Span.with_ ~name:"lookup" @@ fun () ->
      let inv =
        Pool.parallel_map_array
          (fun col -> Extra.batch_inv (Array.map (fun v -> F.add v beta) col))
          (Array.append look_f table_t)
      in
      (Array.sub inv 0 (Array.length lookups), Array.sub inv (Array.length lookups) num_tables)
    in
    (* --- grand products and running sums --- *)
    let perm_z_polys, helper_polys, phi_polys, perm_z_commits, helper_commits, phi_commits =
      Obs.Span.with_ ~name:"grand-products" @@ fun () ->
      Obs.count "perm.cols" (Array.length keys.perm_cols);
      Obs.count "perm.chunks" keys.n_chunks;
    let omega_pows = P.Domain.elements keys.domain in
    let col_value c row =
      match c with
      | Circuit.Col_fixed i -> keys.fixed_values.(i).(row)
      | Circuit.Col_advice i -> advice_grid.(i).(row)
      | Circuit.Col_instance i -> inst_cols.(i).(row)
    in
    let chunks = Array.of_list (perm_chunks keys) in
    let ncs = Array.length chunks in
    let perm_z = Array.make keys.n_chunks [||] in
    (* Per-row numerator and denominator products of every chunk are
       independent: compute them in one parallel pass over all
       (chunk, row) pairs, then invert every denominator of the whole
       argument with a single batched inversion — O(1) field inversions
       total instead of one batch per chunk. Only the short prefix
       recurrence over z and the blinding draws stay sequential, which
       keeps the rng order (hence the proof bytes) identical. *)
    let denoms = Array.make (max 1 (ncs * u)) F.one in
    let nums = Array.make (max 1 (ncs * u)) F.one in
    if ncs > 0 then
      Pool.parallel_for_ranges ~seq_below:2048 (ncs * u) (fun lo hi ->
          for t = lo to hi - 1 do
            let j = t / u and row = t mod u in
            let d = ref F.one and nm = ref F.one in
            List.iter
              (fun m ->
                let w = col_value keys.perm_cols.(m) row in
                d :=
                  F.mul !d
                    (F.add w
                       (F.add (F.mul beta keys.sigma_values.(m).(row)) gamma));
                nm :=
                  F.mul !nm
                    (F.add w
                       (F.add
                          (F.mul (F.mul beta keys.deltas.(m)) omega_pows.(row))
                          gamma)))
              chunks.(j);
            denoms.(t) <- !d;
            nums.(t) <- !nm
          done);
    let inv_denoms =
      if ncs = 0 then [||] else Extra.batch_inv (Array.sub denoms 0 (ncs * u))
    in
    let carry = ref F.one in
    Array.iteri
      (fun j _cols ->
        let z = Array.make n F.zero in
        z.(0) <- !carry;
        for row = 0 to u - 1 do
          let t = (j * u) + row in
          z.(row + 1) <- F.mul z.(row) (F.mul nums.(t) inv_denoms.(t))
        done;
        carry := z.(u);
        for r = u + 1 to n - 1 do
          z.(r) <- F.random rng
        done;
        perm_z.(j) <- z)
      chunks;
    (* running sums: phi(0) = 0, phi(r+1) = phi(r) + sum_i h_i(r) -
       m(r) / (t(r) + beta); an honest phi returns to 0 at row u *)
    let phi =
      Array.mapi
        (fun ti m ->
          let z = Array.make n F.zero in
          for row = 0 to u - 1 do
            let acc = ref (F.sub z.(row) (F.mul m.(row) table_inv.(ti).(row))) in
            Array.iteri
              (fun li tj -> if tj = ti then acc := F.add !acc helpers.(li).(row))
              keys.look_table;
            z.(row + 1) <- !acc
          done;
          for r = u + 1 to n - 1 do
            z.(r) <- F.random rng
          done;
          z)
        mult
    in
    let cols =
      Array.concat
        [ perm_z; Array.mapi (committed Helper) helpers; Array.mapi (committed Phi) phi ]
    in
    let polys = P.interpolate_many keys.domain cols in
    let commits = Scheme.commit_many scheme_params polys in
    let nl = Array.length lookups and pc = keys.n_chunks in
      ( Array.sub polys 0 pc,
        Array.sub polys pc nl,
        Array.sub polys (pc + nl) num_tables,
        Array.sub commits 0 pc,
        Array.sub commits pc nl,
        Array.sub commits (pc + nl) num_tables )
    in
    absorb "perm-z" perm_z_commits;
    absorb "look-h" helper_commits;
    absorb "look-phi" phi_commits;
    let y = Ch.squeeze_nonzero transcript ~label:"y" in
    (* --- quotient on the extended coset --- *)
    let h_pieces, h_commits =
      Obs.Span.with_ ~name:"quotient" @@ fun () ->
      Obs.count "quotient.pieces" keys.ext_factor;
    let ext_n = P.Domain.size keys.ext_domain in
    let factor = keys.ext_factor in
    let shift = coset_shift in
    let inst_polys = P.interpolate_many keys.domain inst_cols in
    (* every column set extends to the coset in one parallel batch; the
       indicators come extended with the keys *)
    let all_polys =
      Array.concat
        [ keys.fixed_polys; adv_polys; inst_polys; keys.sigma_polys; perm_z_polys;
          helper_polys; phi_polys; mult_polys ]
    in
    let all_ext = extend keys.ext_domain all_polys in
    let off = ref 0 in
    let take k =
      let r = Array.sub all_ext !off k in
      off := !off + k;
      r
    in
    let fixed_ext = take (Array.length keys.fixed_polys) in
    let adv_ext = take (Array.length adv_polys) in
    let inst_ext = take (Array.length inst_polys) in
    let sigma_ext = take (Array.length keys.sigma_polys) in
    let perm_z_ext = take (Array.length perm_z_polys) in
    let helper_ext = take (Array.length helper_polys) in
    let phi_ext = take (Array.length phi_polys) in
    let mult_ext = take (Array.length mult_polys) in
    let l0_ext = keys.ind_ext.(0)
    and llast_ext = keys.ind_ext.(1)
    and lblind_ext = keys.ind_ext.(2) in
    let coset_points = P.Domain.coset_points keys.ext_domain ~shift in
    let quotient_evals = Array.make ext_n F.zero in
    (if interp then (
       (* Reference oracle: walk the Expr.t ASTs through closures for
          every row. Reached only through [Testing.prove_interp], so
          tests can assert the compiled program is byte-identical. *)
       Obs.Span.with_ ~name:"quotient.interp" @@ fun () ->
       Obs.count "quotient.rows" ext_n;
       let rot = rot_index ~ext_n ~factor in
       Pool.parallel_for_ranges ~seq_below:256 ext_n (fun row_lo row_hi ->
           for i = row_lo to row_hi - 1 do
             let ctx =
               {
                 c_fixed = (fun col r -> fixed_ext.(col).(rot i r));
                 c_advice = (fun col r -> adv_ext.(col).(rot i r));
                 c_instance = (fun col r -> inst_ext.(col).(rot i r));
                 c_challenge = (fun idx -> challenges.(idx));
                 c_col =
                   (function
                   | Circuit.Col_fixed c -> fixed_ext.(c).(i)
                   | Circuit.Col_advice c -> adv_ext.(c).(i)
                   | Circuit.Col_instance c -> inst_ext.(c).(i));
                 c_sigma = (fun m -> sigma_ext.(m).(i));
                 c_perm_z =
                   (fun j r ->
                     match r with
                     | `R0 -> perm_z_ext.(j).(i)
                     | `R1 -> perm_z_ext.(j).(rot i 1)
                     | `Ru -> perm_z_ext.(j).(rot i u));
                 c_helper = (fun li -> helper_ext.(li).(i));
                 c_phi =
                   (fun ti r ->
                     match r with
                     | `R0 -> phi_ext.(ti).(i)
                     | `R1 -> phi_ext.(ti).(rot i 1));
                 c_mult = (fun ti -> mult_ext.(ti).(i));
                 c_l0 = l0_ext.(i);
                 c_llast = llast_ext.(i);
                 c_lblind = lblind_ext.(i);
                 c_point = coset_points.(i);
               }
             in
             quotient_evals.(i) <- combine_terms keys ~beta ~gamma ~theta ~y ctx
           done))
     else
       (* Compiled path: run the flat register program from keygen over
          the extended-coset column bank — no per-row closures, no AST
          walks. The bank layout matches Evaluator.layout. *)
       Obs.Span.with_ ~name:"quotient.compiled" @@ fun () ->
       Obs.count "quotient.rows" ext_n;
       let bank =
         Array.concat
           [ fixed_ext; adv_ext; inst_ext; sigma_ext; perm_z_ext; helper_ext;
             phi_ext; mult_ext; keys.ind_ext; [| coset_points |] ]
       in
       let scalars = Ev.pack_scalars ~challenges ~theta ~beta ~gamma ~y in
       Pool.parallel_for_ranges ~seq_below:256 ext_n (fun lo hi ->
           Ev.eval_rows_into keys.eval_prog ~bank ~scalars ~factor
             ~out:quotient_evals ~lo ~hi));
    (* divide by Z_H(X) = X^n - 1 on the coset: the values cycle with
       period [factor]. *)
    let zh = Array.init factor (fun i -> F.sub (F.pow_int coset_points.(i) n) F.one) in
    let zh_inv = Extra.batch_inv zh in
    Pool.parallel_for_ranges ~seq_below:(1 lsl 14) ext_n (fun lo hi ->
        for i = lo to hi - 1 do
          quotient_evals.(i) <- F.mul quotient_evals.(i) zh_inv.(i mod factor)
        done);
    let h_coeffs = P.coset_intt keys.ext_domain ~shift quotient_evals in
    let h_pieces =
      Array.init factor (fun j ->
          Array.sub h_coeffs (j * n) n)
    in
    let h_commits = Scheme.commit_many scheme_params h_pieces in
      (h_pieces, h_commits)
    in
    absorb "h" h_commits;
    let x = Ch.squeeze_nonzero transcript ~label:"x" in
    (* --- evaluations --- *)
    let plan = opening_plan keys in
    let poly_of_source = function
      | Src_fixed i -> keys.fixed_polys.(i)
      | Src_advice i -> adv_polys.(i)
      | Src_sigma i -> keys.sigma_polys.(i)
      | Src_perm_z j -> perm_z_polys.(j)
      | Src_helper li -> helper_polys.(li)
      | Src_phi ti -> phi_polys.(ti)
      | Src_mult ti -> mult_polys.(ti)
      | Src_h j -> h_pieces.(j)
    in
    let evals =
      Obs.Span.with_ ~name:"evals" @@ fun () ->
      Obs.count "proof.evals" (List.length plan);
      Pool.parallel_map_array
        (fun (src, r) -> P.eval (poly_of_source src) (point_of_rot keys x r))
        (Array.of_list plan)
    in
    Ch.absorb_scalars transcript ~label:"evals" (Array.to_list evals);
    (* --- multi-open: batch per distinct rotation --- *)
    let v = Ch.squeeze_nonzero transcript ~label:"multiopen-v" in
    let rotations = distinct_rotations plan in
    let openings =
      Obs.Span.with_ ~name:"multiopen" @@ fun () ->
      List.map
        (fun rot_r ->
          let group = List.filter (fun (_, r) -> r = rot_r) plan in
          let combined = ref P.zero in
          let vi = ref F.one in
          List.iter
            (fun (src, _) ->
              combined := P.add !combined (P.scale !vi (poly_of_source src));
              vi := F.mul !vi v)
            group;
          let _, pf =
            Scheme.open_at scheme_params transcript !combined
              (point_of_rot keys x rot_r)
          in
          pf)
        rotations
      |> Array.of_list
    in
    ignore x;
    {
      adv_commits;
      mult_commits;
      perm_z_commits;
      helper_commits;
      phi_commits;
      h_commits;
      evals;
      openings;
    }

  let prove scheme_params keys ~instance ~advice ~rng =
    prove_gen ~tamper:None ~interp:false scheme_params keys ~instance ~advice
      ~rng

  (** Test-only entry points; the CLI, the daemon and perfbench call
      {!prove}. *)
  module Testing = struct
    (** For the mutation suites: [tamper what i column] gets a copy of
        column [i] of kind [what] (a table index for [Mult] and [Phi], a
        lookup index for [Helper]) before it is committed. *)
    let prove_tampered ~tamper scheme_params keys ~instance ~advice ~rng =
      prove_gen ~tamper:(Some tamper) ~interp:false scheme_params keys
        ~instance ~advice ~rng

    (** {!prove} with the quotient evaluated by the reference AST
        interpreter: the oracle the compiled evaluator must match byte
        for byte. *)
    let prove_interp scheme_params keys ~instance ~advice ~rng =
      prove_gen ~tamper:None ~interp:true scheme_params keys ~instance
        ~advice ~rng
  end

  (* ------------------------------------------------------------------ *)
  (* Batch proving: one cached circuit, many witnesses. The keys carry
     the domain (with its twiddle tables) and the fixed/sigma artifacts,
     so everything input-independent is computed once; each job's proof
     is bit-for-bit what a standalone [prove] call would produce. *)

  type prove_job = {
    job_instance : F.t array array;
    job_advice : F.t array -> F.t array array;
    job_rng : Zkml_util.Rng.t;
  }

  let prove_many scheme_params keys jobs =
    Obs.Span.with_ ~name:"prove_many" @@ fun () ->
    Obs.count "batch.proofs" (List.length jobs);
    Metrics.observe_in
      ~labels:[ ("op", "prove") ]
      ~help:"Batch sizes seen by prove_many/verify_many" "zkml_batch_size"
      (float_of_int (List.length jobs));
    List.map
      (fun job ->
        prove scheme_params keys ~instance:job.job_instance
          ~advice:job.job_advice ~rng:job.job_rng)
      jobs

  (* ------------------------------------------------------------------ *)
  (* Verifier. [verify_collect] replays the transcript and evaluates
     every scalar-level check (structure, quotient identity), reducing
     the proof to its per-rotation deferred opening claims; [verify]
     evaluates each claim as its own final check, [verify_many] RLCs the
     claims of a whole batch into one. *)

  let verify_collect scheme_params keys ~(instance : F.t array array) proof =
    let circuit = keys.circuit in
    let n = Circuit.n circuit in
    let u = Circuit.last_row circuit in
    let transcript = init_transcript keys ~instance in
    let absorb label = Array.iter (fun c -> T.absorb_bytes transcript ~label (G.to_bytes c)) in
    let num_adv = Circuit.num_advice circuit in
    if Array.length proof.adv_commits <> num_adv then None
    else begin
      (* replay transcript *)
      for i = 0 to num_adv - 1 do
        if circuit.advice_phases.(i) = 0 then
          T.absorb_bytes transcript ~label:"advice"
            (G.to_bytes proof.adv_commits.(i))
      done;
      let challenges =
        Array.init circuit.num_challenges (fun _ ->
            Ch.squeeze_nonzero transcript ~label:"challenge")
      in
      if Array.exists (fun p -> p = 1) circuit.advice_phases then
        for i = 0 to num_adv - 1 do
          if circuit.advice_phases.(i) = 1 then
            T.absorb_bytes transcript ~label:"advice"
              (G.to_bytes proof.adv_commits.(i))
        done;
      let theta = Ch.squeeze_nonzero transcript ~label:"theta" in
      absorb "look-m" proof.mult_commits;
      let beta = Ch.squeeze_nonzero transcript ~label:"beta" in
      let gamma = Ch.squeeze_nonzero transcript ~label:"gamma" in
      absorb "perm-z" proof.perm_z_commits;
      absorb "look-h" proof.helper_commits;
      absorb "look-phi" proof.phi_commits;
      let y = Ch.squeeze_nonzero transcript ~label:"y" in
      absorb "h" proof.h_commits;
      let x = Ch.squeeze_nonzero transcript ~label:"x" in
      Ch.absorb_scalars transcript ~label:"evals" (Array.to_list proof.evals);
      let v = Ch.squeeze_nonzero transcript ~label:"multiopen-v" in
      (* eval lookup table: (source, rot) -> value *)
      let plan = opening_plan keys in
      if List.length plan <> Array.length proof.evals then None
      else begin
        let eval_map = Hashtbl.create 64 in
        List.iteri
          (fun i (src, r) -> Hashtbl.replace eval_map (src, r) proof.evals.(i))
          plan;
        let get src r =
          match Hashtbl.find_opt eval_map (src, r) with
          | Some vv -> vv
          | None -> invalid_arg "verify: missing evaluation"
        in
        (* instance evaluations computed locally *)
        let _, _, instance_rots = column_rotations circuit in
        let inst_evals = Hashtbl.create 16 in
        let inst_polys = P.interpolate_many keys.domain instance in
        Array.iteri
          (fun col rots ->
            let poly = inst_polys.(col) in
            List.iter
              (fun r ->
                let pt = point_of_rot keys x r in
                Hashtbl.replace inst_evals (col, r) (P.eval poly pt))
              rots)
          instance_rots;
        (* Lagrange values at x *)
        let l0 = P.Domain.eval_lagrange keys.domain 0 x in
        let llast = P.Domain.eval_lagrange keys.domain u x in
        let lblind =
          let idx = List.init (n - u - 1) (fun i -> u + 1 + i) in
          List.fold_left F.add F.zero
            (P.Domain.eval_lagrange_many keys.domain idx x)
        in
        let ctx =
          {
            c_fixed = (fun col r -> get (Src_fixed col) r);
            c_advice = (fun col r -> get (Src_advice col) r);
            c_instance =
              (fun col r ->
                match Hashtbl.find_opt inst_evals (col, r) with
                | Some vv -> vv
                | None -> invalid_arg "verify: missing instance eval");
            c_challenge = (fun i -> challenges.(i));
            c_col =
              (function
              | Circuit.Col_fixed c -> get (Src_fixed c) 0
              | Circuit.Col_advice c -> get (Src_advice c) 0
              | Circuit.Col_instance c -> (
                  match Hashtbl.find_opt inst_evals (c, 0) with
                  | Some vv -> vv
                  | None -> invalid_arg "verify: missing instance eval"));
            c_sigma = (fun m -> get (Src_sigma m) 0);
            c_perm_z =
              (fun j r ->
                match r with
                | `R0 -> get (Src_perm_z j) 0
                | `R1 -> get (Src_perm_z j) 1
                | `Ru -> get (Src_perm_z j) u);
            c_helper = (fun li -> get (Src_helper li) 0);
            c_phi =
              (fun ti r ->
                match r with
                | `R0 -> get (Src_phi ti) 0
                | `R1 -> get (Src_phi ti) 1);
            c_mult = (fun ti -> get (Src_mult ti) 0);
            c_l0 = l0;
            c_llast = llast;
            c_lblind = lblind;
            c_point = x;
          }
        in
        let expected = combine_terms keys ~beta ~gamma ~theta ~y ctx in
        let xn = F.pow_int x n in
        let h_at_x =
          let acc = ref F.zero in
          for j = keys.ext_factor - 1 downto 0 do
            acc := F.add (F.mul !acc xn) (get (Src_h j) 0)
          done;
          !acc
        in
        let identity_ok =
          F.equal expected (F.mul h_at_x (F.sub xn F.one))
        in
        if not identity_ok then None
        else begin
          (* reduce the batched openings to deferred claims *)
          let commitment_of = function
            | Src_fixed i -> keys.fixed_commits.(i)
            | Src_advice i -> proof.adv_commits.(i)
            | Src_sigma i -> keys.sigma_commits.(i)
            | Src_perm_z j -> proof.perm_z_commits.(j)
            | Src_helper li -> proof.helper_commits.(li)
            | Src_phi ti -> proof.phi_commits.(ti)
            | Src_mult ti -> proof.mult_commits.(ti)
            | Src_h j -> proof.h_commits.(j)
          in
          let rotations = distinct_rotations plan in
          if List.length rotations <> Array.length proof.openings then None
          else begin
            let deferred = ref [] and ok = ref true in
            List.iteri
              (fun idx rot_r ->
                let group = List.filter (fun (_, r) -> r = rot_r) plan in
                let combined_c = ref G.zero and combined_e = ref F.zero in
                let vi = ref F.one in
                List.iter
                  (fun (src, r) ->
                    combined_c :=
                      Scheme.add_commitment !combined_c
                        (Scheme.scale_commitment (commitment_of src) !vi);
                    combined_e := F.add !combined_e (F.mul (get src r) !vi);
                    vi := F.mul !vi v)
                  group;
                let pt = point_of_rot keys x rot_r in
                match
                  Scheme.verify_deferred scheme_params transcript !combined_c
                    ~point:pt ~value:!combined_e proof.openings.(idx)
                with
                | Some d -> deferred := d :: !deferred
                | None -> ok := false)
              rotations;
            if !ok then Some (List.rev !deferred) else None
          end
        end
      end
    end

  let verify scheme_params keys ~(instance : F.t array array) proof =
    Obs.Span.with_ ~name:"verify" @@ fun () ->
    match verify_collect scheme_params keys ~instance proof with
    | None -> false
    | Some deferred ->
        (* one final check per distinct rotation, exactly the historical
           sequential-verification cost *)
        List.for_all
          (fun d ->
            Scheme.deferred_check scheme_params
              ~next_coeff:(fun () -> F.one)
              [ d ])
          deferred

  (** Verify a batch of proofs over one circuit with a single deferred
      final check: every per-proof transcript is replayed and every
      scalar check evaluated as usual, but the opening claims of the
      whole batch are combined by a random linear combination whose
      coefficients are squeezed from a transcript that absorbed every
      (instance, proof) pair — so one group equation (one simulated
      pairing for KZG, one size-n MSM for IPA) covers the batch. The
      check localizes nothing: a batch with any false member rejects as
      a whole. *)
  let verify_many scheme_params keys ~(batch : (F.t array array * proof) list)
      =
    Obs.Span.with_ ~name:"verify_many" @@ fun () ->
    Obs.count "batch.verified" (List.length batch);
    Metrics.observe_in
      ~labels:[ ("op", "verify") ]
      ~help:"Batch sizes seen by prove_many/verify_many" "zkml_batch_size"
      (float_of_int (List.length batch));
    let collected =
      List.map
        (fun (instance, proof) ->
          verify_collect scheme_params keys ~instance proof)
        batch
    in
    if List.exists (fun c -> c = None) collected then false
    else begin
      let deferred =
        List.concat_map (function Some ds -> ds | None -> []) collected
      in
      (* RLC coefficients bound to the full batch statement *)
      let bt = T.create "zkml-batch-verify" in
      List.iter
        (fun (instance, proof) ->
          Array.iter
            (fun col ->
              Ch.absorb_scalars bt ~label:"instance" (Array.to_list col))
            instance;
          T.absorb_bytes bt ~label:"proof"
            (Zkml_util.Sha256.digest (proof_to_bytes proof)))
        batch;
      deferred = []
      || Scheme.deferred_check scheme_params
           ~next_coeff:(fun () -> Ch.squeeze_nonzero bt ~label:"batch-rlc")
           deferred
    end

  (* ------------------------------------------------------------------ *)
  (* Never-raising verification of untrusted proof bytes *)

  (** Three-way outcome: [Malformed] means the bytes never were a proof
      (parse-level failure, with the reason); [Rejected] means a
      structurally valid proof that does not verify; [Accepted] means it
      verifies. The CLI maps these to exit codes 2 / 1 / 0. *)
  type verdict = Accepted | Rejected | Malformed of Err.t

  let verdict_string = function
    | Accepted -> "accepted"
    | Rejected -> "rejected"
    | Malformed e -> "malformed: " ^ Err.to_string e

  (* Verdict-by-code tally: the single library-level counting point for
     proof judgements on untrusted bytes (the pipeline adds its own
     instance-level malformed short-circuits; see Pipeline). *)
  let tally_verdict v =
    let code =
      match v with
      | Accepted -> "accepted"
      | Rejected -> "rejected"
      | Malformed _ -> "malformed"
    in
    Metrics.inc
      ~labels:[ ("verdict", code) ]
      ~help:"Verifier verdicts on untrusted proof bytes"
      "zkml_verify_verdicts_total" 1.0;
    v

  let verify_bytes scheme_params keys ~instance bytes =
    tally_verdict
    @@ match proof_of_bytes scheme_params keys bytes with
    | Error e -> Malformed e
    | Ok proof -> (
        (* [verify] on a structurally complete proof has no raising
           paths left, but a verifier judging adversarial input must not
           depend on that invariant: classify any internal raise instead
           of propagating it. *)
        match
          Err.guard Err.Invalid_encoding (fun () ->
              verify scheme_params keys ~instance proof)
        with
        | Ok true -> Accepted
        | Ok false -> Rejected
        | Error e -> Malformed (Err.with_context "verify" e))

  (** Batched {!verify_bytes}: parse every proof, then judge the batch
      with {!verify_many}. Total over adversarial bytes — any parse
      failure surfaces as [Malformed] (tagged with the failing member's
      index), a structurally valid batch that fails the combined check
      as [Rejected]. *)
  let verify_many_bytes scheme_params keys
      ~(batch : (F.t array array * string) list) =
    let rec parse acc i = function
      | [] -> Ok (List.rev acc)
      | (instance, bytes) :: rest -> (
          match proof_of_bytes scheme_params keys bytes with
          | Error e ->
              Error (Err.with_context (Printf.sprintf "batch[%d]" i) e)
          | Ok proof -> parse ((instance, proof) :: acc) (i + 1) rest)
    in
    tally_verdict
    @@ match parse [] 0 batch with
    | Error e -> Malformed e
    | Ok parsed -> (
        match
          Err.guard Err.Invalid_encoding (fun () ->
              verify_many scheme_params keys ~batch:parsed)
        with
        | Ok true -> Accepted
        | Ok false -> Rejected
        | Error e -> Malformed (Err.with_context "verify_many" e))

  (* ------------------------------------------------------------------ *)
  (* Split-and-aggregate: a model cut into segments, each its own
     circuit with its own (smaller) keys. [prove_segmented] mirrors
     [prove_many] but carries per-segment keys and wraps each segment in
     a labelled span, so profiles attribute ntt/msm/commit/quotient time
     per segment; [verify_segmented] folds every segment's deferred
     opening claims into a single RLC final check — one group equation
     regardless of segment count. The claims live at the commitment-
     scheme level over the shared SRS, so combining across different
     circuits is exactly as sound as [verify_many]'s combination across
     proofs. *)

  let prove_segmented scheme_params (jobs : (keys * prove_job) list) =
    Obs.Span.with_ ~name:"prove_segmented" @@ fun () ->
    Obs.count "segments.proved" (List.length jobs);
    Metrics.observe_in
      ~labels:[ ("op", "prove") ]
      ~help:"Batch sizes seen by prove_many/verify_many" "zkml_batch_size"
      (float_of_int (List.length jobs));
    List.mapi
      (fun i (keys, job) ->
        Obs.Span.with_ ~name:(Printf.sprintf "segment-%d" i) @@ fun () ->
        prove scheme_params keys ~instance:job.job_instance
          ~advice:job.job_advice ~rng:job.job_rng)
      jobs

  (** Verify one proof per segment with a single deferred final check:
      each segment's transcript is replayed against its own keys and
      every scalar check evaluated as usual, then the opening claims of
      all segments are combined by an RLC whose coefficients are
      squeezed from a transcript bound to every (instance, proof) pair.
      Seam equality between segment instances is the caller's check
      (see Seg_proof) — this function judges only the proofs. *)
  let verify_segmented scheme_params
      ~(batch : (keys * F.t array array * proof) list) =
    Obs.Span.with_ ~name:"verify_segmented" @@ fun () ->
    Obs.count "segments.verified" (List.length batch);
    let collected =
      List.map
        (fun (keys, instance, proof) ->
          Obs.Span.with_ ~name:"segment-verify" @@ fun () ->
          verify_collect scheme_params keys ~instance proof)
        batch
    in
    if List.exists (fun c -> c = None) collected then false
    else begin
      let deferred =
        List.concat_map (function Some ds -> ds | None -> []) collected
      in
      (* RLC coefficients bound to the full multi-segment statement *)
      let bt = T.create "zkml-segment-verify" in
      List.iter
        (fun (_, instance, proof) ->
          Array.iter
            (fun col ->
              Ch.absorb_scalars bt ~label:"instance" (Array.to_list col))
            instance;
          T.absorb_bytes bt ~label:"proof"
            (Zkml_util.Sha256.digest (proof_to_bytes proof)))
        batch;
      deferred = []
      || Scheme.deferred_check scheme_params
           ~next_coeff:(fun () -> Ch.squeeze_nonzero bt ~label:"segment-rlc")
           deferred
    end

  (** {!verify_segmented} over untrusted proof bytes: total, with the
      failing segment's index in the error context. *)
  let verify_segmented_bytes scheme_params
      ~(batch : (keys * F.t array array * string) list) =
    let rec parse acc i = function
      | [] -> Ok (List.rev acc)
      | (keys, instance, bytes) :: rest -> (
          match proof_of_bytes scheme_params keys bytes with
          | Error e ->
              Error (Err.with_context (Printf.sprintf "segment[%d]" i) e)
          | Ok proof -> parse ((keys, instance, proof) :: acc) (i + 1) rest)
    in
    tally_verdict
    @@ match parse [] 0 batch with
    | Error e -> Malformed e
    | Ok parsed -> (
        match
          Err.guard Err.Invalid_encoding (fun () ->
              verify_segmented scheme_params ~batch:parsed)
        with
        | Ok true -> Accepted
        | Ok false -> Rejected
        | Error e -> Malformed (Err.with_context "verify_segmented" e))
end
