(* Inner-product-argument polynomial commitments (the transparent halo2
   backend; no trusted setup). Opening is the recursive-halving argument
   of Bouneh et al. / Bulletproofs:

     claim:  C = <a, G>  and  v = <a, b>  with b = (1, z, z^2, ...).

   Each round sends L/R, folds the vectors by a transcript challenge x:
     a' = a_lo * x + a_hi * x^-1
     b' = b_lo * x^-1 + b_hi * x      G' = G_lo * x^-1 + G_hi * x
   so that  <a',G'> + <a',b'> U = P + x^2 L + x^-2 R. The proof carries
   2 log n group elements, and verification costs an O(n) MSM — exactly
   the proof-size and verify-time asymmetry the paper reports for IPA
   (Table 7 vs Table 6). *)

module Make (G : Zkml_ec.Group_intf.S) :
  Scheme_intf.S with module G = G = struct
  module G = G
  module F = G.Scalar
  module M = Zkml_ec.Msm.Make (G)
  module Ch = Zkml_transcript.Transcript.Challenge (F)

  type params = { gens : G.t array; u : G.t }

  type proof = { ls : G.t array; rs : G.t array; a_final : F.t }

  (* An opening claim folded down to "one size-n MSM over the fixed
     generators equals a cheap group element":
       msm(gens, d_scalars) == d_rhs
     with d_scalars = a_final * s (the verifier's folded-basis scalars)
     and d_rhs = C + v*[xi]U + sum(x_j^2 L_j + x_j^-2 R_j)
                 - a_final*b_final*[xi]U.
     The MSM is the dominant cost of IPA verification; deferring it lets
     a batch of N claims share a single MSM by linearity:
       msm(gens, sum r_i * d_scalars_i) == sum r_i * d_rhs_i. *)
  type deferred = { d_scalars : F.t array; d_rhs : G.t }

  let name = "ipa"

  let setup ~max_size ~seed =
    let n =
      let rec pow2 k = if k >= max_size then k else pow2 (2 * k) in
      pow2 1
    in
    let all = G.derive_generators ("ipa:" ^ seed) (n + 1) in
    { gens = Array.sub all 0 n; u = all.(n) }

  let max_size t = Array.length t.gens

  let m_commits =
    Zkml_obs.Metrics.counter
      ~labels:[ ("backend", name) ]
      ~help:"Polynomial commitments computed" "zkml_commitments_total"

  let m_final_checks =
    Zkml_obs.Metrics.counter
      ~labels:[ ("backend", name) ]
      ~help:"PCS final checks (one per verify or amortized batch)"
      "zkml_pcs_final_checks_total"

  let commit t coeffs =
    if Array.length coeffs > Array.length t.gens then
      invalid_arg "Ipa.commit: polynomial too large for params";
    Zkml_obs.Obs.count "commitments" 1;
    Zkml_obs.Metrics.add m_commits 1.0;
    M.msm (Array.sub t.gens 0 (Array.length coeffs)) coeffs

  let commit_many t polys =
    (* per-column fan-out only pays once each MSM is non-trivial *)
    let m = Array.fold_left (fun acc p -> max acc (Array.length p)) 0 polys in
    let seq_below = if m >= 256 then 2 else max_int in
    Zkml_util.Pool.parallel_map_array ~seq_below (commit t) polys
  let add_commitment = G.add
  let scale_commitment = G.mul

  let inner a b =
    let acc = ref F.zero in
    Array.iteri (fun i x -> acc := F.add !acc (F.mul x b.(i))) a;
    !acc

  let open_at t transcript coeffs z =
    Zkml_obs.Obs.Span.with_ ~name:"open" @@ fun () ->
    let n = Array.length t.gens in
    let a = Array.make n F.zero in
    Array.blit coeffs 0 a 0 (Array.length coeffs);
    let b = Array.make n F.one in
    for i = 1 to n - 1 do
      b.(i) <- F.mul b.(i - 1) z
    done;
    let v = inner a b in
    Ch.absorb_scalar transcript ~label:"ipa-v" v;
    let xi = Ch.squeeze_nonzero transcript ~label:"ipa-xi" in
    let u = G.mul t.u xi in
    let g = Array.copy t.gens in
    let rounds =
      let rec log2 k acc = if k <= 1 then acc else log2 (k / 2) (acc + 1) in
      log2 n 0
    in
    let ls = Array.make rounds G.zero and rs = Array.make rounds G.zero in
    let len = ref n in
    let a = ref a and b = ref b and g = ref g in
    for j = 0 to rounds - 1 do
      let half = !len / 2 in
      let a_lo = Array.sub !a 0 half and a_hi = Array.sub !a half half in
      let b_lo = Array.sub !b 0 half and b_hi = Array.sub !b half half in
      let g_lo = Array.sub !g 0 half and g_hi = Array.sub !g half half in
      let l = G.add (M.msm g_hi a_lo) (G.mul u (inner a_lo b_hi)) in
      let r = G.add (M.msm g_lo a_hi) (G.mul u (inner a_hi b_lo)) in
      ls.(j) <- l;
      rs.(j) <- r;
      Zkml_transcript.Transcript.absorb_bytes transcript ~label:"ipa-l"
        (G.to_bytes l);
      Zkml_transcript.Transcript.absorb_bytes transcript ~label:"ipa-r"
        (G.to_bytes r);
      let x = Ch.squeeze_nonzero transcript ~label:"ipa-x" in
      let x_inv = F.inv x in
      a := Array.init half (fun i -> F.add (F.mul a_lo.(i) x) (F.mul a_hi.(i) x_inv));
      b := Array.init half (fun i -> F.add (F.mul b_lo.(i) x_inv) (F.mul b_hi.(i) x));
      g :=
        Array.init half (fun i ->
            G.add (G.mul g_lo.(i) x_inv) (G.mul g_hi.(i) x));
      len := half
    done;
    (v, { ls; rs; a_final = (!a).(0) })

  let verify_deferred t transcript c ~point ~value proof =
    let n = Array.length t.gens in
    let rounds = Array.length proof.ls in
    if 1 lsl rounds <> n || Array.length proof.rs <> rounds then None
    else begin
      Ch.absorb_scalar transcript ~label:"ipa-v" value;
      let xi = Ch.squeeze_nonzero transcript ~label:"ipa-xi" in
      let u = G.mul t.u xi in
      let challenges = Array.make rounds F.one in
      for j = 0 to rounds - 1 do
        Zkml_transcript.Transcript.absorb_bytes transcript ~label:"ipa-l"
          (G.to_bytes proof.ls.(j));
        Zkml_transcript.Transcript.absorb_bytes transcript ~label:"ipa-r"
          (G.to_bytes proof.rs.(j));
        challenges.(j) <- Ch.squeeze_nonzero transcript ~label:"ipa-x"
      done;
      (* s_i = prod_j x_j^(+-1): refine with each round's bit as the new
         least-significant bit. *)
      let s = ref [| F.one |] in
      Array.iter
        (fun x ->
          let x_inv = F.inv x in
          let prev = !s in
          let m = Array.length prev in
          let next = Array.make (2 * m) F.one in
          for i = 0 to m - 1 do
            next.(2 * i) <- F.mul prev.(i) x_inv;
            next.((2 * i) + 1) <- F.mul prev.(i) x
          done;
          s := next)
        challenges;
      let s = !s in
      let b_final =
        let acc = ref F.zero and zi = ref F.one in
        for i = 0 to n - 1 do
          acc := F.add !acc (F.mul s.(i) !zi);
          zi := F.mul !zi point
        done;
        !acc
      in
      (* msm(gens, a_final * s) is the lhs term G.mul (msm gens s)
         a_final by linearity; fold a_final into the scalars so the MSM
         can be shared across a batch. *)
      let d_scalars = Array.map (fun si -> F.mul si proof.a_final) s in
      let rhs = ref (G.add c (G.mul u value)) in
      for j = 0 to rounds - 1 do
        let x2 = F.square challenges.(j) in
        rhs :=
          G.add !rhs
            (G.add
               (G.mul proof.ls.(j) x2)
               (G.mul proof.rs.(j) (F.inv x2)))
      done;
      rhs := G.sub !rhs (G.mul u (F.mul proof.a_final b_final));
      Some { d_scalars; d_rhs = !rhs }
    end

  let deferred_check t ~next_coeff ds =
    Zkml_obs.Obs.count "pcs.final_check" 1;
    Zkml_obs.Metrics.add m_final_checks 1.0;
    let n = Array.length t.gens in
    let acc_scalars = Array.make n F.zero in
    let acc_rhs = ref G.zero in
    List.iter
      (fun d ->
        let r = next_coeff () in
        Array.iteri
          (fun i si -> acc_scalars.(i) <- F.add acc_scalars.(i) (F.mul r si))
          d.d_scalars;
        acc_rhs := G.add !acc_rhs (G.mul d.d_rhs r))
      ds;
    G.equal (M.msm t.gens acc_scalars) !acc_rhs

  let verify t transcript c ~point ~value proof =
    match verify_deferred t transcript c ~point ~value proof with
    | None -> false
    | Some d -> deferred_check t ~next_coeff:(fun () -> F.one) [ d ]

  let proof_to_bytes p =
    let buf = Buffer.create 256 in
    Array.iter (fun l -> Buffer.add_string buf (G.to_bytes l)) p.ls;
    Array.iter (fun r -> Buffer.add_string buf (G.to_bytes r)) p.rs;
    Buffer.add_string buf (F.to_bytes p.a_final);
    Buffer.contents buf

  module Err = Zkml_util.Err

  let read_proof t r =
    let open Err in
    let rounds =
      let rec log2 k acc = if k <= 1 then acc else log2 (k / 2) (acc + 1) in
      log2 (Array.length t.gens) 0
    in
    let read_gs what k =
      let acc = Array.make k G.zero in
      let rec go i =
        if i = k then Ok acc
        else
          let* g = Reader.decode r ~what G.size_bytes G.of_bytes_exn in
          acc.(i) <- g;
          go (i + 1)
      in
      go 0
    in
    let* ls = read_gs "ipa L" rounds in
    let* rs = read_gs "ipa R" rounds in
    let* a_final = Reader.decode r ~what:"ipa a" F.size_bytes F.of_bytes_exn in
    Ok { ls; rs; a_final }

  let read_proof_exn t s ~pos =
    let r = Err.Reader.of_string s in
    ignore (Err.get_exn (Err.Reader.take r ~what:"ipa proof prefix" pos));
    let p = Err.get_exn (read_proof t r) in
    (p, Err.Reader.pos r)
end
