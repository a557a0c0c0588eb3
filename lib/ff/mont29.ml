(* Prime fields below 2^255 in Montgomery form (R = 2^261) on nine
   29-bit limbs held in an [int array]. The arithmetic kernel, one
   straight-line [mul], [add], [sub] and [neg] per modulus, is emitted
   by gen/gen_mont29.ml through a rule in this directory's dune file.
   Every operation returns a fresh array, and no array is written after
   it is built, so elements may be shared freely. *)

module type PARAMS = sig
  val name : string
  val generator_int : int
  val two_adicity : int

  (* The generated kernel, see gen/gen_mont29.ml: *)

  val modulus : int64 array
  (** Four little-endian 64-bit words. *)

  val mul : int array -> int array -> int array
  val add : int array -> int array -> int array
  val sub : int array -> int array -> int array
  val neg : int array -> int array
end

let n = 9
let w = 29
let mask = (1 lsl w) - 1

(* Four 64-bit words to nine 29-bit limbs, and back. *)
let of_words ws =
  Array.init n (fun j ->
      let k = w * j / 64 and s = w * j mod 64 in
      let lo = Int64.shift_right_logical ws.(k) s in
      let hi = if s > 64 - w && k < 3 then Int64.shift_left ws.(k + 1) (64 - s) else 0L in
      Int64.to_int (Int64.logor lo hi) land mask)

let to_words a =
  Array.init 4 (fun k ->
      let acc = ref 0L in
      for j = 0 to n - 1 do
        let s = (w * j) - (64 * k) and v = Int64.of_int a.(j) in
        if s >= 0 && s < 64 then acc := Int64.logor !acc (Int64.shift_left v s)
        else if s < 0 && s > -w then
          acc := Int64.logor !acc (Int64.shift_right_logical v (-s))
      done;
      !acc)

let rec equal_from a b i =
  i = n || (Array.unsafe_get a i = Array.unsafe_get b i && equal_from a b (i + 1))

(* Order of two canonical limb vectors, most significant limb first. *)
let rec compare_from a b i =
  if i < 0 then 0
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i - 1)

module Make (P : PARAMS) : Field_intf.S = struct
  type t = int array

  let name = P.name
  let modulus_limbs = Array.copy P.modulus
  let size_bytes = 32
  let two_adicity = P.two_adicity
  let mul = P.mul
  let add = P.add
  let sub = P.sub
  let neg = P.neg
  let square a = mul a a
  let zero = Array.make n 0
  let is_zero a = equal_from a zero 0
  let equal a b = equal_from a b 0

  (* R mod p by 261 modular doublings of 1, and R^2 mod p by 261 more. *)
  let raw_one = Array.init n (fun j -> if j = 0 then 1 else 0)
  let double_n x =
    let x = ref x in
    for _ = 1 to n * w do
      x := add !x !x
    done;
    !x

  let one = double_n raw_one
  let r2 = double_n one
  let to_mont raw = mul raw r2
  let of_mont a = mul a raw_one
  let to_canonical_limbs a = to_words (of_mont a)
  let of_int64 x = to_mont (of_words [| x; 0L; 0L; 0L |])

  let of_int x =
    if x >= 0 then of_int64 (Int64.of_int x)
    else neg (of_int64 (Int64.neg (Int64.of_int x)))

  let compare a b =
    if equal a b then 0 else compare_from (of_mont a) (of_mont b) (n - 1)

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

  let pow_int base e =
    assert (e >= 0);
    pow_limbs base [| Int64.of_int e |]

  let p_minus_2 = Limbs.sub_exn P.modulus [| 2L |]

  let inv a =
    if is_zero a then raise Division_by_zero else pow_limbs a p_minus_2

  let div a b = mul a (inv b)
  let generator = of_int P.generator_int

  let root_of_unity k =
    if k > two_adicity || k < 0 then
      invalid_arg (name ^ ".root_of_unity: exceeds two-adicity");
    pow_limbs generator (Limbs.shift_right (Limbs.sub_exn P.modulus [| 1L |]) k)

  let to_bytes a =
    String.concat ""
      (List.map Zkml_util.Bytes_util.int64_le (Array.to_list (to_canonical_limbs a)))

  let of_bytes_exn s =
    if String.length s <> 32 then invalid_arg (name ^ ".of_bytes_exn: length");
    let raw = Array.init 4 (fun i -> Zkml_util.Bytes_util.int64_of_le s (8 * i)) in
    if Limbs.compare raw P.modulus >= 0 then
      invalid_arg (name ^ ".of_bytes_exn: not canonical");
    to_mont (of_words raw)

  (* Four 64-bit words with the top two bits cleared, redrawn while not
     below p: the stream every seeded Pasta test was taken with. *)
  let random rng =
    let rec draw () =
      let raw = Array.init 4 (fun _ -> Zkml_util.Rng.next_int64 rng) in
      raw.(3) <- Int64.logand raw.(3) 0x3FFFFFFFFFFFFFFFL;
      if Limbs.compare raw P.modulus < 0 then raw else draw ()
    in
    to_mont (of_words (draw ()))

  let to_hex a =
    let c = to_canonical_limbs a in
    Printf.sprintf "%016Lx%016Lx%016Lx%016Lx" c.(3) c.(2) c.(1) c.(0)

  let pp fmt a = Format.fprintf fmt "0x%s" (to_hex a)
end
