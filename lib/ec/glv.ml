(* GLV scalar decomposition for curves with a degree-2 endomorphism.

   Given the scalar-field cube root of unity lambda (so the curve map
   phi satisfies phi(P) = lambda * P), every scalar k splits as
   k = k1 + lambda * k2 (mod n) with |k1|, |k2| ~ sqrt(n), halving the
   number of Pippenger window passes at the cost of doubling the point
   count — a large win because bucket work is linear in windows but the
   doubled points share one bucket array.

   Everything derived here is computed from the modulus and lambda at
   first use, in the spirit of mont29.ml's derived Montgomery constants:

   - the short lattice vectors v1 = (a1, b1), v2 = (a2, b2) with
     a_i + b_i * lambda = 0 (mod n) come from the extended Euclidean
     algorithm on (n, lambda), stopped at the first remainder below
     sqrt(n) (Gallant-Lambert-Vanstone);
   - the per-scalar rounding divisions c_i = round(k * b_j / n) are
     replaced by multiplications with precomputed 384-bit reciprocals
     g_j = floor(2^384 * |b_j| / n), so a split is a handful of
     schoolbook limb multiplications and no divisions.

   Correctness does not depend on the reciprocal rounding: k1 and k2
   are recomputed exactly as signed multiprecision integers from
   whatever c1, c2 the reciprocals produce, and the identity
   k1 + lambda * k2 = k (mod n) holds for any c1, c2. Rounding quality
   only affects how small the halves are, which the property suite
   checks (both fit in 130 bits). *)

module L = Zkml_ff.Limbs
module S = Zkml_ff.Limbs.Signed

module Make
    (Scalar : Zkml_ff.Field_intf.S)
    (P : sig
      val lambda : Scalar.t Lazy.t
    end) =
struct
  type derived = {
    d_v1 : S.t * S.t;  (* (a1, b1) *)
    d_v2 : S.t * S.t;  (* (a2, b2) *)
    d_g1 : S.t;  (* sign(b2/det) * floor(2^384 |b2| / n) *)
    d_g2 : S.t;  (* sign(-b1/det) * floor(2^384 |b1| / n) *)
  }

  let recip_shift = 384
  let n_limbs = Scalar.modulus_limbs

  let derived =
    lazy
      (let lam = Scalar.to_canonical_limbs (Lazy.force P.lambda) in
       (* Extended Euclid on (n, lam), tracking r_i = s_i*n + t_i*lam;
          each (r_i, -t_i) is a lattice vector (a, b) with
          a + b*lam = 0 (mod n). Stop at the first remainder whose
          square is below n; take its predecessor and successor as the
          second-vector candidates and keep the shorter. *)
       let rec go (r0, t0) (r1, t1) =
         if L.compare (L.mul r1.S.mag r1.S.mag) n_limbs < 0 then begin
           let q, r2m = L.div_rem r0.S.mag r1.S.mag in
           let t2 = S.sub t0 (S.mul (S.of_limbs q) t1) in
           ((r0, t0), (r1, t1), (S.of_limbs r2m, t2))
         end
         else begin
           let q, r2m = L.div_rem r0.S.mag r1.S.mag in
           let t2 = S.sub t0 (S.mul (S.of_limbs q) t1) in
           go (r1, t1) (S.of_limbs r2m, t2)
         end
       in
       let (rp, tp), (r1, t1), (r2, t2) =
         go (S.of_limbs n_limbs, S.zero) (S.of_limbs lam, S.of_limbs [| 1L |])
       in
       let vec (r, t) = (r, S.neg t) in
       let v1 = vec (r1, t1) in
       let norm (a, b) = L.add (L.mul a.S.mag a.S.mag) (L.mul b.S.mag b.S.mag) in
       let cp = vec (rp, tp) and cn = vec (r2, t2) in
       let v2 = if L.compare (norm cp) (norm cn) <= 0 then cp else cn in
       let a1, b1 = v1 and a2, b2 = v2 in
       (* det = a1*b2 - a2*b1 must be +-n (basis of the GLV lattice). *)
       let det = S.sub (S.mul a1 b2) (S.mul a2 b1) in
       if L.compare det.S.mag n_limbs <> 0 then
         failwith "Glv: lattice determinant is not the group order";
       (* c1 = round(k*b2/det), c2 = round(-k*b1/det): fold det's sign
          into the reciprocal signs. *)
       let recip (b : S.t) flip =
         let g, _ = L.div_rem (L.shift_left b.S.mag recip_shift) n_limbs in
         let neg = b.S.neg <> det.S.neg <> flip in
         S.of_limbs ~neg g
       in
       { d_v1 = v1; d_v2 = v2; d_g1 = recip b2 false; d_g2 = recip b1 true })

  (* round((k * |g|) / 2^384) with g's sign. *)
  let mul_round_shift (k : int64 array) (g : S.t) =
    let prod = L.mul k g.S.mag in
    let half = L.shift_left [| 1L |] (recip_shift - 1) in
    let r = L.shift_right (L.add prod half) recip_shift in
    S.of_limbs ~neg:g.S.neg r

  let split (k : Scalar.t) : Group_intf.glv_split =
    let d = Lazy.force derived in
    let kl = Scalar.to_canonical_limbs k in
    let c1 = mul_round_shift kl d.d_g1 in
    let c2 = mul_round_shift kl d.d_g2 in
    let a1, b1 = d.d_v1 and a2, b2 = d.d_v2 in
    (* exact: k1 = k - c1*a1 - c2*a2; k2 = -(c1*b1 + c2*b2) *)
    let k1 =
      S.sub (S.sub (S.of_limbs kl) (S.mul c1 a1)) (S.mul c2 a2)
    in
    let k2 = S.neg (S.add (S.mul c1 b1) (S.mul c2 b2)) in
    {
      Group_intf.k1_neg = k1.S.neg && not (S.is_zero k1);
      k1 = k1.S.mag;
      k2_neg = k2.S.neg && not (S.is_zero k2);
      k2 = k2.S.mag;
    }
end
