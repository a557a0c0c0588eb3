(* Field axiom and algorithm tests, run over all three field
   instantiations via a functor, and each field against an independent
   reference. *)

module Make_suite (F : Zkml_ff.Field_intf.S) = struct
  module Extra = Zkml_ff.Field_extra.Make (F)

  let rng = Zkml_util.Rng.create 7L

  let arb =
    QCheck.make
      ~print:(fun x -> F.to_hex x)
      (QCheck.Gen.map (fun seed -> F.random (Zkml_util.Rng.create seed)) QCheck.Gen.int64)

  let check_eq msg a b = Alcotest.(check bool) msg true (F.equal a b)

  let test_basic_identities () =
    check_eq "0+0" F.zero (F.add F.zero F.zero);
    check_eq "1*1" F.one (F.mul F.one F.one);
    check_eq "1+(-1)" F.zero (F.add F.one (F.neg F.one));
    check_eq "2*3=6" (F.of_int 6) (F.mul (F.of_int 2) (F.of_int 3));
    check_eq "of_int neg" (F.neg (F.of_int 5)) (F.of_int (-5));
    check_eq "sub" (F.of_int 2) (F.sub (F.of_int 7) (F.of_int 5))

  let test_generator_order () =
    (* generator^((p-1)/2) must be -1 (it is a non-residue). *)
    let e = Extra.legendre F.generator in
    check_eq "legendre(g) = -1" (F.neg F.one) e

  let test_root_of_unity () =
    for k = 1 to min 12 F.two_adicity do
      let w = F.root_of_unity k in
      let full = F.pow_int w (1 lsl k) in
      check_eq (Printf.sprintf "w^(2^%d)=1" k) F.one full;
      let half = F.pow_int w (1 lsl (k - 1)) in
      check_eq (Printf.sprintf "w^(2^%d)=-1" (k - 1)) (F.neg F.one) half
    done

  let test_bytes_roundtrip () =
    for _ = 1 to 200 do
      let x = F.random rng in
      let s = F.to_bytes x in
      Alcotest.(check int) "size" F.size_bytes (String.length s);
      check_eq "roundtrip" x (F.of_bytes_exn s)
    done

  let test_sqrt () =
    for _ = 1 to 50 do
      let x = F.random rng in
      let sq = F.square x in
      match Extra.sqrt sq with
      | None -> Alcotest.fail "square has no root"
      | Some r -> check_eq "sqrt^2" sq (F.square r)
    done

  let test_batch_inv () =
    let xs =
      Array.init 37 (fun _ ->
          let rec nz () =
            let x = F.random rng in
            if F.is_zero x then nz () else x
          in
          nz ())
    in
    let invs = Extra.batch_inv xs in
    Array.iteri
      (fun i x -> check_eq "batch inv" F.one (F.mul x invs.(i)))
      xs

  let test_inv_zero () =
    Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
        ignore (F.inv F.zero))

  let prop_tests =
    let open QCheck in
    [ Test.make ~name:"add_comm" ~count:200 (pair arb arb) (fun (a, b) ->
          F.equal (F.add a b) (F.add b a));
      Test.make ~name:"mul_comm" ~count:200 (pair arb arb) (fun (a, b) ->
          F.equal (F.mul a b) (F.mul b a));
      Test.make ~name:"mul_assoc" ~count:200 (triple arb arb arb)
        (fun (a, b, c) ->
          F.equal (F.mul a (F.mul b c)) (F.mul (F.mul a b) c));
      Test.make ~name:"distrib" ~count:200 (triple arb arb arb)
        (fun (a, b, c) ->
          F.equal (F.mul a (F.add b c)) (F.add (F.mul a b) (F.mul a c)));
      Test.make ~name:"inv" ~count:200 arb (fun a ->
          F.is_zero a || F.equal F.one (F.mul a (F.inv a)));
      Test.make ~name:"square" ~count:200 arb (fun a ->
          F.equal (F.square a) (F.mul a a));
      Test.make ~name:"sub_add" ~count:200 (pair arb arb) (fun (a, b) ->
          F.equal a (F.add (F.sub a b) b));
      Test.make ~name:"pow_int_7" ~count:50 arb (fun a ->
          F.equal (F.pow_int a 7)
            (F.mul a (F.mul (F.square a) (F.square (F.square a)))));
      Test.make ~name:"compare_refl" ~count:100 (pair arb arb) (fun (a, b) ->
          (F.compare a b = 0) = F.equal a b)
    ]

  (* [compare] must order by canonical residue, not by internal
     (Montgomery) representation: its sign has to match a lexicographic
     compare of the canonical limbs. The seed implementation got this
     wrong for the 4-limb fields. *)
  let canonical_cmp a b =
    let la = F.to_canonical_limbs a and lb = F.to_canonical_limbs b in
    let rec go i =
      if i < 0 then 0
      else
        let c = Int64.unsigned_compare la.(i) lb.(i) in
        if c <> 0 then c else go (i - 1)
    in
    go (Array.length la - 1)

  let sign x = Stdlib.compare x 0

  let compare_props =
    let open QCheck in
    [ Test.make ~name:"compare_canonical" ~count:300 (pair arb arb)
        (fun (a, b) -> sign (F.compare a b) = sign (canonical_cmp a b));
      Test.make ~name:"compare_antisym" ~count:100 (pair arb arb)
        (fun (a, b) -> sign (F.compare a b) = -sign (F.compare b a))
    ]

  let suite =
    [ Alcotest.test_case "basic_identities" `Quick test_basic_identities;
      Alcotest.test_case "generator_order" `Quick test_generator_order;
      Alcotest.test_case "root_of_unity" `Quick test_root_of_unity;
      Alcotest.test_case "bytes_roundtrip" `Quick test_bytes_roundtrip;
      Alcotest.test_case "sqrt" `Quick test_sqrt;
      Alcotest.test_case "batch_inv" `Quick test_batch_inv;
      Alcotest.test_case "inv_zero" `Quick test_inv_zero
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false)
        (prop_tests @ compare_props)
end

module Fp61_suite = Make_suite (Zkml_ff.Fp61)
module Pasta_fp_suite = Make_suite (Zkml_ff.Pasta.Fp)
module Pasta_fq_suite = Make_suite (Zkml_ff.Pasta.Fq)

(* The pipeline calls the field through functor parameters, where no
   cross-module inlining happens; the minor words of [n] rounds of one
   mul and one add, made there. *)
module Alloc (G : Zkml_ff.Field_intf.S) = struct
  let minor_words n a b =
    let acc = ref a in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      acc := G.add (G.mul !acc b) a
    done;
    let words = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity !acc);
    words
end

(* Fp61 against a trusted slow path on OCaml native ints. p < 2^62, so
   every reference step is arranged to stay below max_int. *)
module Fp61_checks = struct
  module F = Zkml_ff.Fp61

  let p = 0x3A00000000000001

  (* x + y mod p for x, y in [0, p), without forming a sum past max_int *)
  let add_mod x y = if x < p - y then x + y else x - (p - y)
  let sub_mod x y = if x >= y then x - y else x + (p - y)

  (* a * b mod p by shift-and-add over 15-bit limbs of b and a 31-bit
     split of a, so each partial product fits. *)
  let mul_mod a b =
    let a_lo = a land 0x7FFFFFFF and a_hi = a lsr 31 in
    let r = ref 0 in
    let add_shifted x shift =
      let x = ref (x mod p) in
      for _ = 1 to shift do
        x := add_mod !x !x
      done;
      r := add_mod !r !x
    in
    let rec limbs b shift =
      if b <> 0 then begin
        let limb = b land 0x7FFF in
        if limb <> 0 then begin
          add_shifted (a_lo * limb) shift;
          add_shifted (a_hi * limb) (shift + 31)
        end;
        limbs (b lsr 15) (shift + 15)
      end
    in
    limbs b 0;
    !r

  let canonical x = Int64.to_int (F.to_canonical_limbs x).(0)

  (* 2^62 mod p, the Montgomery radix R *)
  let r_mod_p = max_int - p + 1

  (* The element whose Montgomery form is [v]: canonical v * R^-1. *)
  let of_mont v = F.div (F.of_int v) (F.of_int r_mod_p)

  (* Values around p and the 2^61 boundary, where the sum of two
     residues passes max_int. Each is used both as a canonical value and
     as a Montgomery form, since the sums that can overflow are taken on
     the internal form. *)
  let boundary =
    [ 0; 1; 2; p - 1; p - 2; (1 lsl 61) - 1; 1 lsl 61; (1 lsl 61) + 1 ]

  let boundary_elems = List.map F.of_int boundary @ List.map of_mont boundary

  let arb =
    let open QCheck in
    make
      ~print:(fun x -> F.to_hex x)
      Gen.(
        oneof
          [ oneofl boundary_elems;
            map (fun seed -> F.random (Zkml_util.Rng.create seed)) int64
          ])

  let laws =
    let open QCheck in
    [ Test.make ~name:"boundary_add" ~count:1000 (pair arb arb) (fun (a, b) ->
          canonical (F.add a b) = add_mod (canonical a) (canonical b));
      Test.make ~name:"boundary_sub" ~count:1000 (pair arb arb) (fun (a, b) ->
          canonical (F.sub a b) = sub_mod (canonical a) (canonical b));
      Test.make ~name:"boundary_neg" ~count:500 arb (fun a ->
          canonical (F.neg a) = sub_mod 0 (canonical a));
      Test.make ~name:"boundary_mul" ~count:1000 (pair arb arb) (fun (a, b) ->
          canonical (F.mul a b) = mul_mod (canonical a) (canonical b));
      Test.make ~name:"boundary_inv" ~count:300 arb (fun a ->
          F.is_zero a || F.equal F.one (F.mul a (F.inv a)))
    ]

  let test_against_reference () =
    let rng = Zkml_util.Rng.create 99L in
    let check a b =
      let got = canonical (F.mul (F.of_int a) (F.of_int b)) in
      Alcotest.(check int) "mulmod" (mul_mod a b) got
    in
    List.iter (fun a -> List.iter (check a) boundary) boundary;
    for _ = 1 to 65_536 - (List.length boundary * List.length boundary) do
      check (Zkml_util.Rng.int rng p) (Zkml_util.Rng.int rng p)
    done

  let test_of_int_extremes () =
    let check what expected x =
      Alcotest.(check int) what expected (canonical (F.of_int x))
    in
    check "max_int" (max_int - p) max_int;
    check "min_int" (p - r_mod_p) min_int;
    check "-1" (p - 1) (-1);
    check "-p" 0 (-p);
    check "p" 0 p;
    Alcotest.(check bool) "min_int = -(max_int + 1)" true
      (F.equal (F.of_int min_int) (F.neg (F.add (F.of_int max_int) F.one)))

  let le = Zkml_util.Bytes_util.int64_le

  let test_bytes_boundaries () =
    List.iter
      (fun bad ->
        Alcotest.check_raises (Printf.sprintf "reject %Lx" bad)
          (Invalid_argument "Fp61.of_bytes_exn: not canonical") (fun () ->
            ignore (F.of_bytes_exn (le bad))))
      [ Int64.of_int p; 0x4000000000000000L; -1L ];
    List.iter
      (fun v ->
        Alcotest.(check string) "to_bytes is canonical" (le (Int64.of_int v))
          (F.to_bytes (F.of_int v)))
      boundary;
    List.iter
      (fun x ->
        Alcotest.(check bool) "roundtrip" true
          (F.equal x (F.of_bytes_exn (F.to_bytes x))))
      boundary_elems

  let test_no_allocation () =
    let module A = Alloc (F) in
    let words = A.minor_words 100_000 (F.of_int 3) (F.neg (F.of_int 7)) in
    if words > 64. then
      Alcotest.failf "10^5 mul+add allocated %.0f minor words" words

  let suite =
    [ Alcotest.test_case "of_int_extremes" `Quick test_of_int_extremes;
      Alcotest.test_case "bytes_boundaries" `Quick test_bytes_boundaries;
      Alcotest.test_case "no_allocation" `Quick test_no_allocation
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) laws
end

(* The Pasta fields against an independent oracle: schoolbook products
   and long division on canonical 64-bit limbs ({!Zkml_ff.Limbs}), a
   different algorithm from the Montgomery kernel. *)
module Pasta_checks
    (F : Zkml_ff.Field_intf.S) (D : sig
      val digest : string
    end) =
struct
  module L = Zkml_ff.Limbs

  let p = F.modulus_limbs
  let reduce x = snd (L.div_rem x p)
  let canonical x = F.to_canonical_limbs x
  let pow2 k = L.shift_left [| 1L |] k

  let bytes_of v =
    String.concat ""
      (List.init 4 (fun i -> Zkml_util.Bytes_util.int64_le (L.limb v i)))

  let of_canonical v = F.of_bytes_exn (bytes_of v)

  (* The element whose Montgomery form (R = 2^261) is [v]. *)
  let of_mont v = F.div (of_canonical v) (of_canonical (reduce (pow2 261)))

  (* 0, 1, p - 1, p - 2, 2^254, values whose low 29-bit limbs are all
     ones, and 2^(29i) +- 1: each both as a canonical value and as a
     Montgomery form, since the kernel's carries run on the latter. *)
  let boundary =
    let one = [| 1L |] in
    [ [| 0L |]; one; [| 2L |]; L.sub_exn p one; L.sub_exn p [| 2L |]; pow2 254 ]
    @ List.concat_map
        (fun i -> [ L.sub_exn (pow2 (29 * i)) one; L.add (pow2 (29 * i)) one ])
        (List.init 8 (( + ) 1))

  let boundary_elems =
    List.map of_canonical boundary @ List.map of_mont boundary

  let arb =
    let open QCheck in
    make
      ~print:(fun x -> F.to_hex x)
      Gen.(
        oneof
          [ oneofl boundary_elems;
            map (fun seed -> F.random (Zkml_util.Rng.create seed)) int64
          ])

  (* [x] holds the residue of [v], in its one fully reduced form. *)
  let agrees x v =
    let r = reduce v in
    L.compare (canonical x) r = 0 && F.equal x (of_canonical r)

  let laws =
    let open QCheck in
    [ Test.make ~name:"boundary_add" ~count:1000 (pair arb arb) (fun (a, b) ->
          agrees (F.add a b) (L.add (canonical a) (canonical b)));
      Test.make ~name:"boundary_sub" ~count:1000 (pair arb arb) (fun (a, b) ->
          agrees (F.sub a b) (L.sub_exn (L.add (canonical a) p) (canonical b)));
      Test.make ~name:"boundary_neg" ~count:500 arb (fun a ->
          agrees (F.neg a) (L.sub_exn p (canonical a)));
      Test.make ~name:"boundary_mul" ~count:1000 (pair arb arb) (fun (a, b) ->
          agrees (F.mul a b) (L.mul (canonical a) (canonical b)));
      Test.make ~name:"boundary_square" ~count:500 arb (fun a ->
          agrees (F.square a) (L.mul (canonical a) (canonical a)));
      Test.make ~name:"boundary_inv" ~count:200 arb (fun a ->
          F.is_zero a || agrees F.one (L.mul (canonical a) (canonical (F.inv a))))
    ]

  let test_against_reference () =
    let rng = Zkml_util.Rng.create 2024L in
    let check a b =
      let ca = canonical a and cb = canonical b in
      if
        not
          (agrees (F.mul a b) (L.mul ca cb)
          && agrees (F.add a b) (L.add ca cb)
          && agrees (F.sub a b) (L.sub_exn (L.add ca p) cb))
      then Alcotest.failf "%s: %s, %s" F.name (F.to_hex a) (F.to_hex b)
    in
    List.iter (fun a -> List.iter (check a) boundary_elems) boundary_elems;
    for _ = 1 to 2000 do
      check (F.random rng) (F.random rng)
    done

  let test_bytes_boundaries () =
    List.iter
      (fun bad ->
        match F.of_bytes_exn (bytes_of bad) with
        | _ ->
            Alcotest.failf "accepted %s"
              (Zkml_util.Bytes_util.to_hex (bytes_of bad))
        | exception Invalid_argument _ -> ())
      [ p; pow2 255; L.sub_exn (pow2 256) [| 1L |] ];
    List.iter
      (fun v ->
        Alcotest.(check string) "to_bytes is canonical" (bytes_of v)
          (F.to_bytes (of_canonical v)))
      boundary;
    List.iter
      (fun x ->
        Alcotest.(check bool) "roundtrip" true
          (F.equal x (F.of_bytes_exn (F.to_bytes x))))
      boundary_elems

  let test_of_int_extremes () =
    Alcotest.(check bool) "min_int = -(max_int + 1)" true
      (F.equal (F.of_int min_int) (F.neg (F.add (F.of_int max_int) F.one)))

  (* Pins [random]'s rejection sampling and the canonical bytes: 1000
     seeded elements and the products of neighbours. *)
  let test_pinned_digest () =
    let rng = Zkml_util.Rng.create 2026L in
    let xs = Array.init 1000 (fun _ -> F.random rng) in
    let b = Buffer.create 64_000 in
    Array.iter (fun x -> Buffer.add_string b (F.to_bytes x)) xs;
    for i = 0 to 998 do
      Buffer.add_string b (F.to_bytes (F.mul xs.(i) xs.(i + 1)))
    done;
    Alcotest.(check string) "digest" D.digest
      (Zkml_util.Sha256.hex_digest (Buffer.contents b))

  (* One fresh nine-limb array (ten words with its header) per op. *)
  let test_allocation () =
    let module A = Alloc (F) in
    let n = 100_000 in
    let words = A.minor_words n (F.of_int 3) (F.neg (F.of_int 7)) in
    if words > float_of_int (10 * 2 * n) then
      Alcotest.failf "10^5 mul+add allocated %.0f minor words" words

  let suite =
    [ Alcotest.test_case "of_int_extremes" `Quick test_of_int_extremes;
      Alcotest.test_case "bytes_boundaries" `Quick test_bytes_boundaries;
      Alcotest.test_case "pinned_digest" `Quick test_pinned_digest;
      Alcotest.test_case "allocation" `Quick test_allocation
    ]
    @ List.map (QCheck_alcotest.to_alcotest ~long:false) laws
end

module Pasta_fp_checks =
  Pasta_checks
    (Zkml_ff.Pasta.Fp)
    (struct
      let digest =
        "4d5f508fa3b0f21905b422947b18d554bdd6f2c19ace18cea1c0c7bd8605d314"
    end)

module Pasta_fq_checks =
  Pasta_checks
    (Zkml_ff.Pasta.Fq)
    (struct
      let digest =
        "4e131c478580021fe2248c5f434e9f58b27a95e0f004bf706f02ec97cbc1f105"
    end)

let test_pasta_vs_limbs () =
  Pasta_fp_checks.test_against_reference ();
  Pasta_fq_checks.test_against_reference ()

(* Multiprecision limb layer backing the GLV derivation: cross-check the
   ring ops against native ints on small values and internal identities
   (division, shifts) on multi-limb ones. *)
let limbs_tests =
  let module L = Zkml_ff.Limbs in
  let open QCheck in
  let small = Gen.map Int64.abs Gen.int64 in
  let arb_small = make ~print:Int64.to_string small in
  let arb_wide =
    make
      ~print:(fun a ->
        String.concat ","
          (Array.to_list (Array.map (Printf.sprintf "%Lx") a)))
      (Gen.map
         (fun (n, s) ->
           let st = Random.State.make [| Int64.to_int s |] in
           Array.init (1 + (abs n mod 5)) (fun _ -> Random.State.int64 st Int64.max_int))
         Gen.(pair int int64))
  in
  [ Test.make ~name:"limbs_add_small" ~count:500 (pair arb_small arb_small)
      (fun (a, b) ->
        let a = Int64.shift_right_logical a 2
        and b = Int64.shift_right_logical b 2 in
        L.compare (L.add [| a |] [| b |]) [| Int64.add a b |] = 0);
    Test.make ~name:"limbs_mul_small" ~count:500 (pair arb_small arb_small)
      (fun (a, b) ->
        let a = Int64.logand a 0xFFFFFFFFL and b = Int64.logand b 0xFFFFFFFFL in
        L.compare (L.mul [| a |] [| b |]) [| Int64.mul a b |] = 0);
    Test.make ~name:"limbs_sub_roundtrip" ~count:500 (pair arb_wide arb_wide)
      (fun (a, b) ->
        let s = L.add a b in
        L.compare (L.sub_exn s b) a = 0 && L.compare (L.sub_exn s a) b = 0);
    Test.make ~name:"limbs_div_rem" ~count:500 (pair arb_wide arb_wide)
      (fun (a, b) ->
        if L.is_zero b then true
        else begin
          let q, r = L.div_rem a b in
          L.compare r b < 0 && L.compare (L.add (L.mul q b) r) a = 0
        end);
    Test.make ~name:"limbs_shift_roundtrip" ~count:500 arb_wide (fun a ->
        List.for_all
          (fun k -> L.compare (L.shift_right (L.shift_left a k) k) a = 0)
          [ 1; 63; 64; 65; 200 ]);
    Test.make ~name:"limbs_bits" ~count:500 arb_wide (fun a ->
        let n = L.bits a in
        if L.is_zero a then n = 0
        else
          L.compare a (L.shift_left [| 1L |] n) < 0
          && L.compare a (L.shift_left [| 1L |] (n - 1)) >= 0);
    Test.make ~name:"limbs_compare_padding" ~count:200 arb_wide (fun a ->
        L.compare a (Array.append a [| 0L; 0L |]) = 0);
    Test.make ~name:"limbs_signed_ring" ~count:500 (pair arb_wide arb_wide)
      (fun (a, b) ->
        let module S = L.Signed in
        let sa = S.of_limbs a and sb = S.of_limbs ~neg:true b in
        (* (a - b) + b = a in sign-magnitude *)
        let d = S.add sa sb in
        let back = S.sub d sb in
        (not back.S.neg || S.is_zero back) && L.compare back.S.mag a = 0)
  ]

(* Known-answer test for the Pasta moduli: -1 serializes to p - 1. *)
let test_pasta_minus_one () =
  let open Zkml_ff in
  let hex = Pasta.Fp.to_hex (Pasta.Fp.neg Pasta.Fp.one) in
  Alcotest.(check string) "pallas p-1"
    "40000000000000000000000000000000224698fc094cf91b992d30ed00000000" hex;
  let hex = Pasta.Fq.to_hex (Pasta.Fq.neg Pasta.Fq.one) in
  Alcotest.(check string) "vesta q-1"
    "40000000000000000000000000000000224698fc0994a8dd8c46eb2100000000" hex

let () =
  Alcotest.run "ff"
    [ ("fp61", Fp61_suite.suite);
      ("fp61_boundary", Fp61_checks.suite);
      ("pasta_fp", Pasta_fp_suite.suite);
      ("pasta_fp_boundary", Pasta_fp_checks.suite);
      ("pasta_fq", Pasta_fq_suite.suite);
      ("pasta_fq_boundary", Pasta_fq_checks.suite);
      ( "cross_checks",
        [ Alcotest.test_case "fp61_vs_reference" `Quick
            Fp61_checks.test_against_reference;
          Alcotest.test_case "pasta_minus_one" `Quick test_pasta_minus_one;
          Alcotest.test_case "pasta_vs_limbs" `Quick test_pasta_vs_limbs
        ] );
      ( "limbs",
        List.map (QCheck_alcotest.to_alcotest ~long:false) limbs_tests )
    ]
