(* The NTT-friendly prime p = 29 * 2^57 + 1 = 0x3A00000000000001.

   An element is an immediate OCaml [int] holding its Montgomery form
   (R = 2^62) in [0, p). Since p < 2^62 every element fits in the
   63-bit native int, so no arithmetic operation allocates, even through
   a functor. Sums of two elements can reach 2p > max_int and wrap
   negative; every reduction therefore tests [s < 0 || s >= p], and the
   subtraction of p, taken modulo 2^63, lands on the true residue. *)

type t = int

let name = "fp61"
let p = 0x3A00000000000001
let modulus_limbs = [| Int64.of_int p |]
let size_bytes = 8
let two_adicity = 57

let mask31 = (1 lsl 31) - 1
let mask62 = max_int (* 2^62 - 1 *)

(* p = p_hi * 2^31 + 1; REDC's m * p product uses these limbs. *)
let p_hi = p lsr 31

(* p' = -p^-1 mod 2^62 by Newton iteration; int multiplication wraps
   modulo 2^63, so the low 62 bits are exact. *)
let p' =
  let x = ref p in
  for _ = 1 to 6 do
    x := !x * (2 - (p * !x))
  done;
  (- !x) land mask62

let reduce s = if s < 0 || s >= p then s - p else s
let add a b = reduce (a + b)
let sub a b = if a < b then a - b + p else a - b
let neg a = if a = 0 then 0 else p - a

(* Montgomery reduction of the 124-bit value hi * 2^62 + lo (lo < 2^62,
   hi < p): returns (hi * 2^62 + lo) * 2^-62 mod p. With m = lo * p'
   mod 2^62, lo + m * p is a multiple of 2^62: its low half carries
   exactly 1 into the high half unless lo = 0. The high half of m * p is
   formed from 31-bit limbs of m against p = p_hi * 2^31 + 1. *)
let redc hi lo =
  let m = (lo * p') land mask62 in
  let m0 = m land mask31 and m1 = m lsr 31 in
  let lh = m0 * p_hi in
  let mp_hi = (m1 * p_hi) + (lh lsr 31) + (((lh land mask31) + m1) lsr 31) in
  reduce (hi + mp_hi + (if lo = 0 then 0 else 1))

(* Schoolbook 62 x 62-bit product over 31-bit limbs: every partial
   product and every partial sum stays below 2^62. *)
let mul a b =
  let a0 = a land mask31 and a1 = a lsr 31 in
  let b0 = b land mask31 and b1 = b lsr 31 in
  let ll = a0 * b0 and lh = a0 * b1 and hl = a1 * b0 in
  let cross = (ll lsr 31) + (lh land mask31) + (hl land mask31) in
  let lo = ((cross land mask31) lsl 31) lor (ll land mask31) in
  let hi = (a1 * b1) + (lh lsr 31) + (hl lsr 31) + (cross lsr 31) in
  redc hi lo

let square a = mul a a

(* R mod p and R^2 mod p, computed by repeated modular doubling. *)
let r_mod_p =
  let x = ref 1 in
  for _ = 1 to 62 do
    x := add !x !x
  done;
  !x

let r2_mod_p =
  let x = ref r_mod_p in
  for _ = 1 to 62 do
    x := add !x !x
  done;
  !x

let zero = 0
let one = r_mod_p

(* [c] canonical, in [0, p) *)
let of_canonical c = mul c r2_mod_p
let to_canonical a = redc 0 a

let of_int64 x =
  of_canonical (Int64.to_int (Int64.unsigned_rem x (Int64.of_int p)))

(* [x mod p] lies in (-p, p) for every int, min_int included, so no
   negation that could overflow is needed. *)
let of_int x =
  let r = x mod p in
  of_canonical (if r < 0 then r + p else r)

let to_canonical_limbs a = [| Int64.of_int (to_canonical a) |]
let equal (a : t) (b : t) = a = b
let is_zero a = a = 0
let compare a b = Int.compare (to_canonical a) (to_canonical b)

let pow_int base e =
  assert (e >= 0);
  let rec go acc base e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul acc base else acc in
      go acc (square base) (e lsr 1)
  in
  go one base e

let pow_limbs base limbs =
  let acc = ref one and b = ref base in
  Array.iter
    (fun limb ->
      let l = ref limb in
      for _ = 1 to 64 do
        if Int64.logand !l 1L = 1L then acc := mul !acc !b;
        b := square !b;
        l := Int64.shift_right_logical !l 1
      done)
    limbs;
  !acc

let inv a = if is_zero a then raise Division_by_zero else pow_int a (p - 2)
let div a b = mul a (inv b)
let generator = of_int 3

let root_of_unity k =
  if k > two_adicity || k < 0 then
    invalid_arg "Fp61.root_of_unity: exceeds two-adicity";
  (* g^((p-1) / 2^k); p - 1 = 29 * 2^57. *)
  pow_int generator ((p - 1) lsr k)

let to_bytes a = Zkml_util.Bytes_util.int64_le (Int64.of_int (to_canonical a))

let of_bytes_exn s =
  if String.length s <> 8 then invalid_arg "Fp61.of_bytes_exn: length";
  let x = Zkml_util.Bytes_util.int64_of_le s 0 in
  if Int64.unsigned_compare x (Int64.of_int p) >= 0 then
    invalid_arg "Fp61.of_bytes_exn: not canonical";
  of_canonical (Int64.to_int x)

let random rng =
  let rec draw () =
    let x = Int64.to_int (Zkml_util.Rng.next_int64 rng) land mask62 in
    if x < p then x else draw ()
  in
  of_canonical (draw ())

let to_hex a = Printf.sprintf "%016x" (to_canonical a)
let pp fmt a = Format.fprintf fmt "0x%s" (to_hex a)
