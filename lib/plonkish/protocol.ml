(** The proving protocol: keygen, prover and verifier for {!Circuit}
    descriptions, functorized over the polynomial commitment scheme so
    that the KZG and IPA backends (paper Tables 6 and 7) share all code.

    The protocol follows halo2: commit advice (in phases, squeezing the
    circuit challenges in between), run the permuted lookup argument and
    the chunked permutation argument, combine every constraint with
    powers of [y] into the quotient polynomial computed on an extended
    coset, then evaluate everything at a random point [x] and batch the
    openings per rotation. *)

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
    d_max : int;
    ext_factor : int;
    ext_domain : P.Domain.t;
    n_chunks : int;
    chunk : int;
    eval_prog : Ev.prog;
        (** the whole quotient combination compiled to a flat register
            program (see {!Evaluator}); pure data, cached with the keys *)
    rot_omegas : (int * F.t) array;
        (** rotation r -> omega^r (inverse powers for r < 0, all
            inverted by one batched inversion at keygen) *)
  }

  module Pool = Zkml_util.Pool

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
         column rotations, the lookup shifts {1, -1}, the permutation
         shifts {1, u} and 0. One batched inversion covers all negative
         rotations. *)
      let u = Circuit.last_row circuit in
      let rots = ref [ 0 ] in
      let add r = if not (List.mem r !rots) then rots := r :: !rots in
      let fixed_rots, advice_rots, instance_rots = column_rotations circuit in
      Array.iter (List.iter add) fixed_rots;
      Array.iter (List.iter add) advice_rots;
      Array.iter (List.iter add) instance_rots;
      if circuit.lookups <> [] then begin
        add 1;
        add (-1)
      end;
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
      d_max;
      ext_factor;
      ext_domain;
      n_chunks;
      chunk;
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
    | Src_look_a of int
    | Src_look_s of int
    | Src_look_z of int
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
    List.iteri
      (fun li _ ->
        push (Src_look_z li) 0;
        push (Src_look_z li) 1;
        push (Src_look_a li) 0;
        push (Src_look_a li) (-1);
        push (Src_look_s li) 0)
      circuit.lookups;
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
    c_look : int -> [ `Z0 | `Z1 | `A0 | `Am1 | `S0 ] -> F.t;
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
    (* 2. lookups *)
    List.iteri
      (fun li (l : F.t Circuit.lookup) ->
        let a = compress theta (List.map (eval_expr ctx) l.inputs) in
        let s = compress theta (List.map (eval_expr ctx) l.tables) in
        let z0 = ctx.c_look li `Z0
        and z1 = ctx.c_look li `Z1
        and a'0 = ctx.c_look li `A0
        and a'm1 = ctx.c_look li `Am1
        and s'0 = ctx.c_look li `S0 in
        push (F.mul ctx.c_l0 (F.sub z0 F.one));
        push
          (F.mul active
             (F.sub
                (F.mul z1 (F.mul (F.add a'0 beta) (F.add s'0 gamma)))
                (F.mul z0 (F.mul (F.add a beta) (F.add s gamma)))));
        push (F.mul ctx.c_llast (F.sub (F.square z0) z0));
        push (F.mul ctx.c_l0 (F.sub a'0 s'0));
        push (F.mul active (F.mul (F.sub a'0 s'0) (F.sub a'0 a'm1))))
      circuit.lookups;
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
    look_a_commits : G.t array;
    look_s_commits : G.t array;
    perm_z_commits : G.t array;
    look_z_commits : G.t array;
    h_commits : G.t array;
    evals : F.t array;  (* in opening_plan order *)
    openings : Scheme.proof array;  (* per distinct rotation *)
  }

  let proof_to_bytes proof =
    let buf = Buffer.create 4096 in
    let add_commits cs = Array.iter (fun c -> Buffer.add_string buf (G.to_bytes c)) cs in
    add_commits proof.adv_commits;
    add_commits proof.look_a_commits;
    add_commits proof.look_s_commits;
    add_commits proof.perm_z_commits;
    add_commits proof.look_z_commits;
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
      let* look_a_commits = read_gs "lookup input commit" num_lookups in
      let* look_s_commits = read_gs "lookup table commit" num_lookups in
      let* perm_z_commits = read_gs "permutation z commit" keys.n_chunks in
      let* look_z_commits = read_gs "lookup z commit" num_lookups in
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
          look_a_commits;
          look_s_commits;
          perm_z_commits;
          look_z_commits;
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

  let prove scheme_params keys ~(instance : F.t array array)
      ~(advice : F.t array -> F.t array array) ~rng =
    Metrics.phase "prove" @@ fun () ->
    Metrics.inc ~help:"Proofs produced" "zkml_proofs_total" 1.0;
    Obs.Span.with_ ~name:"prove" @@ fun () ->
    let circuit = keys.circuit in
    let n = Circuit.n circuit in
    let u = Circuit.last_row circuit in
    let transcript = init_transcript keys ~instance in
    let num_adv = Circuit.num_advice circuit in
    let adv_polys, adv_commits, challenges, advice_grid =
      Metrics.phase "commit" @@ fun () ->
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
    (* --- lookups: compress, permute, commit --- *)
    let theta = Ch.squeeze_nonzero transcript ~label:"theta" in
    let inst_cols = instance in
    let cell_ctx row =
      let at grid col rot =
        let r = (row + rot) mod n in
        let r = if r < 0 then r + n else r in
        grid.(col).(r)
      in
      {
        c_fixed = at keys.fixed_values;
        c_advice = at advice_grid;
        c_instance = at inst_cols;
        c_challenge = (fun i -> challenges.(i));
        c_col =
          (function
          | Circuit.Col_fixed i -> keys.fixed_values.(i).(row)
          | Circuit.Col_advice i -> advice_grid.(i).(row)
          | Circuit.Col_instance i -> inst_cols.(i).(row));
        c_sigma = (fun _ -> F.zero);
        c_perm_z = (fun _ _ -> F.zero);
        c_look = (fun _ _ -> F.zero);
        c_l0 = F.zero;
        c_llast = F.zero;
        c_lblind = F.zero;
        c_point = F.zero;
      }
    in
    let lookups = Array.of_list circuit.lookups in
    let num_lookups = Array.length lookups in
    let look_a = Array.make num_lookups [||] (* compressed inputs, n rows *)
    and look_s = Array.make num_lookups [||]
    and look_a' = Array.make num_lookups [||]
    and look_s' = Array.make num_lookups [||] in
    for li = 0 to num_lookups - 1 do
      Obs.Span.with_ ~name:"lookup" @@ fun () ->
      Obs.count "lookup.rows" u;
      let l = lookups.(li) in
      let a = Array.make n F.zero and s = Array.make n F.zero in
      (* per-row compression is pure and writes disjoint rows *)
      Pool.parallel_for_ranges ~seq_below:1024 n (fun lo hi ->
          for row = lo to hi - 1 do
            let ctx = cell_ctx row in
            a.(row) <-
              compress theta (List.map (eval_expr ctx) l.Circuit.inputs);
            s.(row) <-
              compress theta (List.map (eval_expr ctx) l.Circuit.tables)
          done);
      (* permute over usable rows 0..u-1 *)
      let a_u = Array.sub a 0 u and s_u = Array.sub s 0 u in
      let a_sorted = Array.copy a_u in
      Array.sort F.compare a_sorted;
      (* multiset of table values *)
      let s_sorted = Array.copy s_u in
      Array.sort F.compare s_sorted;
      let s' = Array.make u F.zero in
      let used = Array.make u false in
      (* two-pointer: for each new value in a_sorted find it in s_sorted *)
      let sp = ref 0 in
      let fill_later = ref [] in
      for i = 0 to u - 1 do
        if i = 0 || not (F.equal a_sorted.(i) a_sorted.(i - 1)) then begin
          (* advance sp to the first unused s equal to a_sorted.(i) *)
          let rec seek j =
            if j >= u then
              invalid_arg
                (Printf.sprintf "prove: lookup '%s' input not in table"
                   l.Circuit.lookup_name)
            else if (not used.(j)) && F.equal s_sorted.(j) a_sorted.(i) then j
            else seek (j + 1)
          in
          let j = seek !sp in
          sp := j;
          used.(j) <- true;
          s'.(i) <- s_sorted.(j)
        end
        else fill_later := i :: !fill_later
      done;
      (* fill remaining slots with unused table values *)
      let unused = ref [] in
      for j = u - 1 downto 0 do
        if not used.(j) then unused := s_sorted.(j) :: !unused
      done;
      List.iter
        (fun i ->
          match !unused with
          | v :: rest ->
              s'.(i) <- v;
              unused := rest
          | [] -> assert false)
        !fill_later;
      let a_full = Array.make n F.zero and s_full = Array.make n F.zero in
      Array.blit a_sorted 0 a_full 0 u;
      Array.blit s' 0 s_full 0 u;
      for r = u to n - 1 do
        a_full.(r) <- F.random rng;
        s_full.(r) <- F.random rng
      done;
      look_a.(li) <- a;
      look_s.(li) <- s;
      look_a'.(li) <- a_full;
      look_s'.(li) <- s_full
    done;
    let look_a_polys, look_s_polys, look_a_commits, look_s_commits =
      Metrics.phase "commit" @@ fun () ->
      Obs.Span.with_ ~name:"lookup-commit" @@ fun () ->
      (* one batch over inputs and tables together *)
      let polys =
        P.interpolate_many keys.domain (Array.append look_a' look_s')
      in
      let commits = Scheme.commit_many scheme_params polys in
      let look_a_polys = Array.sub polys 0 num_lookups in
      let look_s_polys = Array.sub polys num_lookups num_lookups in
      let look_a_commits = Array.sub commits 0 num_lookups in
      let look_s_commits = Array.sub commits num_lookups num_lookups in
      (look_a_polys, look_s_polys, look_a_commits, look_s_commits)
    in
    for li = 0 to num_lookups - 1 do
      T.absorb_bytes transcript ~label:"look-a" (G.to_bytes look_a_commits.(li));
      T.absorb_bytes transcript ~label:"look-s" (G.to_bytes look_s_commits.(li))
    done;
    let beta = Ch.squeeze_nonzero transcript ~label:"beta" in
    let gamma = Ch.squeeze_nonzero transcript ~label:"gamma" in
    (* --- permutation grand products --- *)
    let perm_z_polys, look_z_polys, perm_z_commits, look_z_commits =
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
    (* --- lookup grand products --- *)
    let look_z = Array.make num_lookups [||] in
    for li = 0 to num_lookups - 1 do
      let z = Array.make n F.zero in
      z.(0) <- F.one;
      let denoms =
        Array.init u (fun row ->
            F.mul
              (F.add look_a'.(li).(row) beta)
              (F.add look_s'.(li).(row) gamma))
      in
      let inv_denoms = Extra.batch_inv denoms in
      for row = 0 to u - 1 do
        let num =
          F.mul (F.add look_a.(li).(row) beta) (F.add look_s.(li).(row) gamma)
        in
        z.(row + 1) <- F.mul z.(row) (F.mul num inv_denoms.(row))
      done;
      for r = u + 1 to n - 1 do
        z.(r) <- F.random rng
      done;
      look_z.(li) <- z
    done;
    let z_polys = P.interpolate_many keys.domain (Array.append perm_z look_z) in
    let z_commits = Scheme.commit_many scheme_params z_polys in
    let perm_z_polys = Array.sub z_polys 0 keys.n_chunks in
    let look_z_polys = Array.sub z_polys keys.n_chunks num_lookups in
    let perm_z_commits = Array.sub z_commits 0 keys.n_chunks in
    let look_z_commits = Array.sub z_commits keys.n_chunks num_lookups in
      (perm_z_polys, look_z_polys, perm_z_commits, look_z_commits)
    in
    Array.iter
      (fun c -> T.absorb_bytes transcript ~label:"perm-z" (G.to_bytes c))
      perm_z_commits;
    Array.iter
      (fun c -> T.absorb_bytes transcript ~label:"look-z" (G.to_bytes c))
      look_z_commits;
    let y = Ch.squeeze_nonzero transcript ~label:"y" in
    (* --- quotient on the extended coset --- *)
    let h_pieces, h_commits =
      Obs.Span.with_ ~name:"quotient" @@ fun () ->
      Obs.count "quotient.pieces" keys.ext_factor;
    let ext_n = P.Domain.size keys.ext_domain in
    let factor = keys.ext_factor in
    let shift = F.generator in
    let inst_polys = P.interpolate_many keys.domain inst_cols in
    (* indicator columns for l0 / llast / lblind, interpolated as part
       of the same batch *)
    let indicator rows =
      let v = Array.make n F.zero in
      List.iter (fun r -> v.(r) <- F.one) rows;
      v
    in
    let ind_polys =
      P.interpolate_many keys.domain
        [|
          indicator [ 0 ];
          indicator [ u ];
          indicator (List.init (n - u - 1) (fun i -> u + 1 + i));
        |]
    in
    (* every column set extends to the coset in one parallel batch *)
    let all_polys =
      Array.concat
        [
          keys.fixed_polys;
          adv_polys;
          inst_polys;
          keys.sigma_polys;
          perm_z_polys;
          look_z_polys;
          look_a_polys;
          look_s_polys;
          ind_polys;
        ]
    in
    let all_ext = P.coset_ntt_many keys.ext_domain ~shift all_polys in
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
    let look_z_ext = take (Array.length look_z_polys) in
    let look_a'_ext = take (Array.length look_a_polys) in
    let look_s'_ext = take (Array.length look_s_polys) in
    (* A and S (unpermuted, uncommitted) are expressions; evaluate their
       compressed forms through the generic ctx below. *)
    let l0_ext = all_ext.(!off)
    and llast_ext = all_ext.(!off + 1)
    and lblind_ext = all_ext.(!off + 2) in
    let coset_points = P.Domain.coset_points keys.ext_domain ~shift in
    let quotient_evals = Array.make ext_n F.zero in
    let use_interp =
      match Sys.getenv_opt "ZKML_EVAL" with Some "interp" -> true | _ -> false
    in
    (if use_interp then (
       (* Reference oracle: walk the Expr.t ASTs through closures for
          every row. Kept selectable via ZKML_EVAL=interp so tests can
          assert the compiled program is byte-identical. *)
       Metrics.phase "quotient_interp" @@ fun () ->
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
                 c_look =
                   (fun li what ->
                     match what with
                     | `Z0 -> look_z_ext.(li).(i)
                     | `Z1 -> look_z_ext.(li).(rot i 1)
                     | `A0 -> look_a'_ext.(li).(i)
                     | `Am1 -> look_a'_ext.(li).(rot i (-1))
                     | `S0 -> look_s'_ext.(li).(i));
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
          walks. The bank layout matches Evaluator.layout: the all_ext
          concatenation above, with the coset points as the last
          column. *)
       Metrics.phase "quotient_compiled" @@ fun () ->
       Obs.Span.with_ ~name:"quotient.compiled" @@ fun () ->
       Obs.count "quotient.rows" ext_n;
       let bank = Array.append all_ext [| coset_points |] in
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
    Array.iter
      (fun c -> T.absorb_bytes transcript ~label:"h" (G.to_bytes c))
      h_commits;
    let x = Ch.squeeze_nonzero transcript ~label:"x" in
    (* --- evaluations --- *)
    let plan = opening_plan keys in
    let poly_of_source = function
      | Src_fixed i -> keys.fixed_polys.(i)
      | Src_advice i -> adv_polys.(i)
      | Src_sigma i -> keys.sigma_polys.(i)
      | Src_perm_z j -> perm_z_polys.(j)
      | Src_look_a li -> look_a_polys.(li)
      | Src_look_s li -> look_s_polys.(li)
      | Src_look_z li -> look_z_polys.(li)
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
      look_a_commits;
      look_s_commits;
      perm_z_commits;
      look_z_commits;
      h_commits;
      evals;
      openings;
    }

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
      let num_lookups = List.length circuit.lookups in
      for li = 0 to num_lookups - 1 do
        T.absorb_bytes transcript ~label:"look-a"
          (G.to_bytes proof.look_a_commits.(li));
        T.absorb_bytes transcript ~label:"look-s"
          (G.to_bytes proof.look_s_commits.(li))
      done;
      let beta = Ch.squeeze_nonzero transcript ~label:"beta" in
      let gamma = Ch.squeeze_nonzero transcript ~label:"gamma" in
      Array.iter
        (fun c -> T.absorb_bytes transcript ~label:"perm-z" (G.to_bytes c))
        proof.perm_z_commits;
      Array.iter
        (fun c -> T.absorb_bytes transcript ~label:"look-z" (G.to_bytes c))
        proof.look_z_commits;
      let y = Ch.squeeze_nonzero transcript ~label:"y" in
      Array.iter
        (fun c -> T.absorb_bytes transcript ~label:"h" (G.to_bytes c))
        proof.h_commits;
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
            c_look =
              (fun li what ->
                match what with
                | `Z0 -> get (Src_look_z li) 0
                | `Z1 -> get (Src_look_z li) 1
                | `A0 -> get (Src_look_a li) 0
                | `Am1 -> get (Src_look_a li) (-1)
                | `S0 -> get (Src_look_s li) 0);
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
            | Src_look_a li -> proof.look_a_commits.(li)
            | Src_look_s li -> proof.look_s_commits.(li)
            | Src_look_z li -> proof.look_z_commits.(li)
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
    Metrics.phase "verify" @@ fun () ->
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

  let segment_seconds phase =
    Metrics.histogram
      ~labels:[ ("phase", phase) ]
      ~help:"Per-segment wall-clock by phase" "zkml_segment_seconds"

  let prove_segmented scheme_params (jobs : (keys * prove_job) list) =
    Obs.Span.with_ ~name:"prove_segmented" @@ fun () ->
    Obs.count "segments.proved" (List.length jobs);
    Metrics.observe_in
      ~labels:[ ("op", "prove") ]
      ~help:"Batch sizes seen by prove_many/verify_many" "zkml_batch_size"
      (float_of_int (List.length jobs));
    let h = segment_seconds "prove" in
    List.mapi
      (fun i (keys, job) ->
        Obs.Span.with_ ~name:(Printf.sprintf "segment-%d" i) @@ fun () ->
        Metrics.time h @@ fun () ->
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
    let h = segment_seconds "verify" in
    let collected =
      List.map
        (fun (keys, instance, proof) ->
          Metrics.time h @@ fun () ->
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
