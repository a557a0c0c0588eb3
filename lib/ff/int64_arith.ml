let mask32 = 0xFFFFFFFFL

let umul a b =
  let open Int64 in
  let al = logand a mask32 and ah = shift_right_logical a 32 in
  let bl = logand b mask32 and bh = shift_right_logical b 32 in
  let ll = mul al bl in
  let lh = mul al bh in
  let hl = mul ah bl in
  let hh = mul ah bh in
  (* cross collects bits 32..95; each summand is < 2^32 so the sum fits
     comfortably in 64 bits (< 3 * 2^32). *)
  let cross =
    add
      (shift_right_logical ll 32)
      (add (logand lh mask32) (logand hl mask32))
  in
  let lo = logor (shift_left cross 32) (logand ll mask32) in
  let hi =
    add hh
      (add
         (shift_right_logical cross 32)
         (add (shift_right_logical lh 32) (shift_right_logical hl 32)))
  in
  (hi, lo)

let addc a b carry_in =
  let open Int64 in
  let s = add a b in
  let c1 = if unsigned_compare s a < 0 then 1L else 0L in
  let s' = add s carry_in in
  let c2 = if unsigned_compare s' s < 0 then 1L else 0L in
  (s', add c1 c2)
