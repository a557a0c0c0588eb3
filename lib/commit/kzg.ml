(* KZG polynomial commitments [Kate-Zaverucha-Goldberg 2010].

   The SRS is (G, tau G, tau^2 G, ...). The standard scheme checks the
   opening with one pairing equation; our group backends have no pairing,
   so verification is *designated-verifier*: the verifier holds tau and
   checks  C - v*G == (tau - z) * W  directly in the group. This is the
   same equation the pairing would verify in the exponent, so prover
   work, proof bytes and completeness/soundness structure are identical;
   only public verifiability is lost (documented in DESIGN.md). *)

module Make (G : Zkml_ec.Group_intf.S) :
  Scheme_intf.S with module G = G = struct
  module G = G
  module F = G.Scalar
  module P = Zkml_poly.Polynomial.Make (F)

  type params = {
    srs : G.t array;
    trapdoor : F.t;  (* designated-verifier secret *)
  }

  type proof = G.t

  type deferred = G.t  (* see [verify_deferred] *)

  let name = "kzg"

  let setup ~max_size ~seed =
    (* The trusted-setup ceremony is simulated in-process: tau is derived
       from the seed, powers are computed, and tau is retained for the
       designated-verifier check. *)
    let rng =
      Zkml_util.Rng.create
        (Zkml_util.Bytes_util.int64_of_le
           (Zkml_util.Sha256.digest ("zkml-kzg-setup:" ^ seed))
           0)
    in
    let tau = F.random rng in
    let srs = Array.make max_size G.generator in
    for i = 1 to max_size - 1 do
      srs.(i) <- G.mul srs.(i - 1) tau
    done;
    { srs; trapdoor = tau }

  let max_size t = Array.length t.srs

  module M = Zkml_ec.Msm.Make (G)

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
    if Array.length coeffs > Array.length t.srs then
      invalid_arg "Kzg.commit: polynomial too large for SRS";
    Zkml_obs.Obs.count "commitments" 1;
    Zkml_obs.Metrics.add m_commits 1.0;
    M.msm (Array.sub t.srs 0 (Array.length coeffs)) coeffs

  let commit_many t polys =
    (* per-column fan-out only pays once each MSM is non-trivial *)
    let m = Array.fold_left (fun acc p -> max acc (Array.length p)) 0 polys in
    let seq_below = if m >= 256 then 2 else max_int in
    Zkml_util.Pool.parallel_map_array ~seq_below (commit t) polys
  let add_commitment = G.add
  let scale_commitment = G.mul

  let open_at t _transcript coeffs z =
    Zkml_obs.Obs.Span.with_ ~name:"open" @@ fun () ->
    let v = P.eval coeffs z in
    let shifted = Array.copy coeffs in
    if Array.length shifted = 0 then (v, G.zero)
    else begin
      shifted.(0) <- F.sub shifted.(0) v;
      let w = P.div_by_linear shifted z in
      (v, commit t w)
    end

  (* The verification equation moved to one side:
       D = C - v*G - (tau - z)*W
     so a valid opening's deferred element is the group zero and any
     linear combination of valid claims stays zero. Evaluating "D == 0"
     (resp. the RLC "sum r_i D_i == 0") is the designated-verifier
     stand-in for the final pairing-product check, so batching N claims
     costs one final check instead of N. *)
  let verify_deferred t _transcript c ~point ~value w =
    Some
      (G.sub
         (G.sub c (G.mul G.generator value))
         (G.mul w (F.sub t.trapdoor point)))

  let deferred_check _t ~next_coeff ds =
    Zkml_obs.Obs.count "pcs.final_check" 1;
    Zkml_obs.Metrics.add m_final_checks 1.0;
    let acc =
      List.fold_left
        (fun acc d -> G.add acc (G.mul d (next_coeff ())))
        G.zero ds
    in
    G.equal acc G.zero

  let verify t transcript c ~point ~value w =
    (* C - v*G == (tau - z) * W, via the deferred path on a singleton *)
    match verify_deferred t transcript c ~point ~value w with
    | None -> false
    | Some d -> deferred_check t ~next_coeff:(fun () -> F.one) [ d ]

  let proof_to_bytes w = G.to_bytes w

  module Err = Zkml_util.Err

  let read_proof _t r =
    Err.Reader.decode r ~what:"kzg opening" G.size_bytes G.of_bytes_exn

  let read_proof_exn t s ~pos =
    let r = Err.Reader.of_string s in
    ignore (Err.get_exn (Err.Reader.take r ~what:"kzg opening prefix" pos));
    let p = Err.get_exn (read_proof t r) in
    (p, Err.Reader.pos r)
end
