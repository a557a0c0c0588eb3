(* Emits the arithmetic kernel of one odd prime p < 2^255 in Montgomery
   form on nine 29-bit limbs (R = 2^261): [mul], [add], [sub] and [neg]
   as straight-line OCaml over immediate [int]s, and [modulus] as four
   64-bit words.

     gen_mont29.exe HEX_MODULUS > kernel.ml

   The kernel's [mul] is CIOS in the form that defers carries: each
   iteration folds a_j * b_i and q * p_j into limb j - 1 of the running
   sum and only carries out of limb 0, the one whose low bits pick the
   next q. A limb product is below 2^58, so a limb can absorb several
   before it nears max_int = 2^62 - 1. The generator tracks an upper
   bound on every partial sum and refuses a modulus for which one could
   pass max_int. Terms q * p_j with p_j = 0 are dropped, and p' =
   -p^-1 mod 2^29 is folded to a negation when it is 2^29 - 1. *)

let w = 29
let n = 9
let mask = (1 lsl w) - 1

(* [words s] parses a hex modulus of at most 64 digits into four
   little-endian 64-bit words. *)
let words s =
  let s =
    if String.length s > 2 && String.sub s 0 2 = "0x" then
      String.sub s 2 (String.length s - 2)
    else s
  in
  if String.length s > 64 then failwith "gen_mont29: the modulus must be below 2^256";
  let s = String.make (64 - String.length s) '0' ^ s in
  Array.init 4 (fun k -> Int64.of_string ("0x" ^ String.sub s (48 - (16 * k)) 16))

(* Nine little-endian 29-bit limbs of the value held in [ws]. *)
let limbs ws =
  Array.init n (fun j ->
      let k = w * j / 64 and s = w * j mod 64 in
      let lo = Int64.shift_right_logical ws.(k) s in
      let hi = if s > 64 - w && k < 3 then Int64.shift_left ws.(k + 1) (64 - s) else 0L in
      Int64.to_int (Int64.logor lo hi) land mask)

(* p' = -p^-1 mod 2^29 by Newton iteration (each step doubles the
   correct low bits). *)
let p_prime p0 =
  let x = ref p0 in
  for _ = 1 to 5 do
    x := !x * (2 - (p0 * !x))
  done;
  - !x land mask

let buf = Buffer.create 16384
let emit fmt = Printf.bprintf buf fmt

(* Upper bounds on intermediate values, as floats: they are sums of at
   most a few dozen terms, so rounding cannot hide an overflow margin of
   2^-20. *)
let limit = 0x1p62 *. (1. -. 0x1p-20)
let fmask = float_of_int mask

let check what b =
  if b > limit then
    failwith (Printf.sprintf "gen_mont29: %s may exceed max_int" what);
  b

(* [term x c] is x * c with the constant folded. *)
let term x c =
  if c = 0 then None else if c = 1 then Some x else Some (Printf.sprintf "%s * %d" x c)

let sum terms = String.concat " + " (List.filter_map Fun.id terms)
let array_lit f = String.concat "; " (List.init n f)

(* [chain v sh f] binds v0 .. v8 to [f j] plus, from limb 1 on, the
   carry or borrow [v(j-1) sh 29] out of the limb below. *)
let chain v sh f =
  for j = 0 to n - 1 do
    if j = 0 then emit "  let %s0 = %s in\n" v (f 0)
    else emit "  let %s%d = %s + (%s%d %s %d) in\n" v j (f j) v (j - 1) sh w
  done

(* [f j] minus p_j, with zero limbs of p dropped. *)
let minus_p p f j = if p.(j) = 0 then f j else Printf.sprintf "%s - %d" (f j) p.(j)
let plus_p p f j = if p.(j) = 0 then f j else Printf.sprintf "%s + %d" (f j) p.(j)

(* [masked v] lists v0 .. v8 reduced to 29 bits, except the top limb. *)
let masked v =
  String.concat "; "
    (List.init n (fun j ->
         if j = n - 1 then Printf.sprintf "%s%d" v j
         else Printf.sprintf "%s%d land mask" v j))

let load v =
  for j = 0 to n - 1 do
    emit "  let %s%d = Array.unsafe_get %s %d in\n" v j v j
  done

(* Given s0 .. s8 holding a value below 2p with s0 .. s7 carried into
   29 bits, returns s if it is below p and s - p otherwise. *)
let subtract_p_once p s =
  chain "d" "asr" (minus_p p (Printf.sprintf "%s%d" s));
  emit "  if d8 < 0 then [| %s |]\n" (array_lit (Printf.sprintf "%s%d" s));
  emit "  else [| %s |]\n\n" (masked "d")

let gen_mul p =
  let pp = p_prime p.(0) in
  let q_of u =
    if pp = mask then Printf.sprintf "- %s land mask" u
    else Printf.sprintf "%s * %d land mask" u pp
  in
  emit "let mul a b =\n";
  load "a";
  (* t.(j) bounds limb j of the running sum; t.(n - 1) stays 0 *)
  let t = Array.make n 0. in
  for i = 0 to n - 1 do
    emit "  let bi = Array.unsafe_get b %d in\n" i;
    emit "  let u = %s in\n" (if i = 0 then "a0 * bi" else "t0 + a0 * bi");
    let bu = check "u" (t.(0) +. (fmask *. fmask)) in
    emit "  let q = %s in\n" (q_of "u");
    emit "  let c = (%s) lsr %d in\n" (sum [ Some "u"; term "q" p.(0) ]) w;
    let bc = check "c" (bu +. (fmask *. float_of_int p.(0))) /. 0x1p29 in
    for j = 1 to n - 1 do
      let prev =
        if i = 0 || j = n - 1 then None else Some (Printf.sprintf "t%d" j)
      in
      let carry = if j = 1 then Some "c" else None in
      emit "  let t%d = %s in\n" (j - 1)
        (sum [ prev; Some (Printf.sprintf "a%d * bi" j); term "q" p.(j); carry ]);
      t.(j - 1) <-
        check "a limb"
          (t.(j) +. (fmask *. fmask) +. (fmask *. float_of_int p.(j))
          +. if j = 1 then bc else 0.)
    done
  done;
  (* the sum is below 2p < 2^256: carry it into nine 29-bit limbs *)
  for j = 1 to n - 2 do
    ignore (check "a carried limb" (t.(j) +. (t.(j - 1) /. 0x1p29)));
    emit "  let t%d = t%d + (t%d lsr %d) in\n" j j (j - 1) w
  done;
  emit "  let t8 = t7 lsr %d in\n" w;
  for j = 0 to n - 2 do
    emit "  let t%d = t%d land mask in\n" j j
  done;
  subtract_p_once p "t"

let gen_add p =
  emit "let add a b =\n";
  load "a";
  load "b";
  chain "s" "lsr" (fun j -> Printf.sprintf "a%d + b%d" j j);
  for j = 0 to n - 2 do
    emit "  let s%d = s%d land mask in\n" j j
  done;
  subtract_p_once p "s"

let gen_sub p =
  emit "let sub a b =\n";
  load "a";
  load "b";
  chain "d" "asr" (fun j -> Printf.sprintf "a%d - b%d" j j);
  emit "  if d8 >= 0 then [| %s |]\n  else begin\n" (masked "d");
  chain "e" "lsr" (plus_p p (fun j ->
      if j = n - 1 then "d8" else Printf.sprintf "(d%d land mask)" j));
  emit "  [| %s |]\n  end\n\n" (masked "e")

let gen_neg p =
  emit "let neg a =\n";
  load "a";
  emit "  if %s = 0 then a\n  else begin\n"
    (String.concat " lor " (List.init n (Printf.sprintf "a%d")));
  chain "d" "asr" (fun j ->
      if p.(j) = 0 then Printf.sprintf "- a%d" j else Printf.sprintf "%d - a%d" p.(j) j);
  emit "  [| %s |]\n  end\n" (masked "d")

let () =
  if Array.length Sys.argv <> 2 then failwith "usage: gen_mont29.exe HEX_MODULUS";
  let ws = words Sys.argv.(1) in
  if Int64.shift_right_logical ws.(3) 63 <> 0L then
    failwith "gen_mont29: the modulus must be below 2^255";
  let p = limbs ws in
  if p.(0) land 1 = 0 then failwith "gen_mont29: the modulus must be odd";
  emit "(* Generated by lib/ff/gen/gen_mont29.ml for p = %s; do not edit. *)\n\n"
    Sys.argv.(1);
  emit "let mask = 0x%x\n" mask;
  emit "let modulus = [| %s |]\n\n"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "0x%016LxL") ws)));
  gen_mul p;
  gen_add p;
  gen_sub p;
  gen_neg p;
  print_string (Buffer.contents buf)
