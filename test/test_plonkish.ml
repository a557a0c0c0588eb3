(* End-to-end tests of the Plonkish protocol on small hand-built
   circuits: completeness, and soundness against corrupted witnesses,
   instances and proofs. *)

open Zkml_plonkish

let with_jobs j f =
  let module Pool = Zkml_util.Pool in
  let saved = Pool.jobs () in
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* the extended-domain rule, restated independently of Circuit *)
let next_pow2 x =
  let rec go f = if f >= x then f else go (2 * f) in
  go 1

module Make_suite (Scheme : Zkml_commit.Scheme_intf.S) = struct
  module Proto = Protocol.Make (Scheme)
  module F = Proto.F

  let rng = Zkml_util.Rng.create 101L
  let params = Scheme.setup ~max_size:64 ~seed:"plonkish-test"

  (* Circuit 1: one multiplication gate + copies + a ReLU-style lookup.
     Columns: fixed = [s_mul; t_in; t_out; s_lk], advice = [a; b; c],
     instance = [out]. *)
  let k = 5
  let n = 1 lsl k
  let blinding = 5
  let u = n - blinding - 1

  let circuit : F.t Circuit.t =
    let open Expr in
    {
      k;
      num_fixed = 4;
      is_selector = [| true; false; false; true |];
      advice_phases = [| 0; 0; 0 |];
      num_instance = 1;
      num_challenges = 0;
      gates =
        [ {
            gate_name = "mul";
            polys = [ Mul (fixed 0, Sub (advice 2, Mul (advice 0, advice 1))) ];
          }
        ];
      lookups =
        [ {
            lookup_name = "relu";
            inputs = [ Mul (fixed 3, advice 0); Mul (fixed 3, advice 1) ];
            tables = [ fixed 1; fixed 2 ];
          }
        ];
      copies =
        [ ((Circuit.Col_advice 2, 0), (Circuit.Col_instance 0, 0));
          (* chain: c at row 0 equals a at row 1 *)
          ((Circuit.Col_advice 2, 0), (Circuit.Col_advice 0, 1));
        ];
      blinding;
    }

  (* table: (i, relu(i)) for i in -8..8 (0 included for inactive rows) *)
  let fixed_cols () =
    let s_mul = Array.make n F.zero in
    let t_in = Array.make n F.zero in
    let t_out = Array.make n F.zero in
    let s_lk = Array.make n F.zero in
    s_mul.(0) <- F.one;
    s_mul.(1) <- F.one;
    List.iteri
      (fun row i ->
        t_in.(row) <- F.of_int i;
        t_out.(row) <- F.of_int (max 0 i))
      (List.init 17 (fun j -> j - 8));
    s_lk.(1) <- F.one;
    [| s_mul; t_in; t_out; s_lk |]

  let good_advice () =
    let a = Array.make n F.zero in
    let b = Array.make n F.zero in
    let c = Array.make n F.zero in
    (* row 0: 3 * 4 = 12 *)
    a.(0) <- F.of_int 3;
    b.(0) <- F.of_int 4;
    c.(0) <- F.of_int 12;
    (* row 1: a = 12 (copied from c row 0); multiplied by b=0 -> c=0;
       lookup checks relu: but 12 is outside the table, so use b as the
       relu output of... choose a value in range instead. *)
    a.(1) <- F.of_int 12;
    b.(1) <- F.zero;
    c.(1) <- F.zero;
    [| a; b; c |]

  (* 12 is outside the relu table (-8..8); fix row 1 to satisfy both the
     mul gate, the copy and the lookup by adjusting the scenario: the
     copy forces a.(1) = 12, so the lookup selector must instead point at
     another row. Use row 2 for the lookup. *)
  let fixed_cols () =
    let f = fixed_cols () in
    f.(3).(1) <- F.zero;
    f.(3).(2) <- F.one;
    f
    [@@warning "-32"]

  let good_advice () =
    let adv = good_advice () in
    (* row 2: lookup row: a = -3, b = relu(-3) = 0; no mul selector *)
    adv.(0).(2) <- F.of_int (-3);
    adv.(1).(2) <- F.zero;
    adv

  let instance_cols out_value =
    let col = Array.make n F.zero in
    col.(0) <- out_value;
    [| col |]

  let keys = lazy (Proto.keygen params circuit ~fixed:(fixed_cols ()))

  let prove_good () =
    let keys = Lazy.force keys in
    let adv = good_advice () in
    Proto.prove params keys
      ~instance:(instance_cols (F.of_int 12))
      ~advice:(fun _ -> Array.map Array.copy adv)
      ~rng

  let test_completeness () =
    let keys = Lazy.force keys in
    let proof = prove_good () in
    Alcotest.(check bool)
      "valid proof accepted" true
      (Proto.verify params keys ~instance:(instance_cols (F.of_int 12)) proof)

  let test_wrong_instance () =
    let keys = Lazy.force keys in
    let proof = prove_good () in
    Alcotest.(check bool)
      "wrong instance rejected" false
      (Proto.verify params keys ~instance:(instance_cols (F.of_int 13)) proof)

  let test_gate_violation () =
    let keys = Lazy.force keys in
    let adv = good_advice () in
    adv.(2).(0) <- F.of_int 13;
    (* also fix the copy target so only the gate is violated *)
    adv.(0).(1) <- F.of_int 13;
    let proof =
      Proto.prove params keys
        ~instance:(instance_cols (F.of_int 13))
        ~advice:(fun _ -> Array.map Array.copy adv)
        ~rng
    in
    Alcotest.(check bool)
      "gate violation rejected" false
      (Proto.verify params keys ~instance:(instance_cols (F.of_int 13)) proof)

  let test_copy_violation () =
    let keys = Lazy.force keys in
    let adv = good_advice () in
    (* break the advice-advice copy: a.(1) must equal c.(0) = 12 *)
    adv.(0).(1) <- F.of_int 7;
    let proof =
      Proto.prove params keys
        ~instance:(instance_cols (F.of_int 12))
        ~advice:(fun _ -> Array.map Array.copy adv)
        ~rng
    in
    Alcotest.(check bool)
      "copy violation rejected" false
      (Proto.verify params keys ~instance:(instance_cols (F.of_int 12)) proof)

  let test_lookup_violation () =
    let keys = Lazy.force keys in
    let adv = good_advice () in
    (* row 2: claim relu(-3) = 2, which is not a table row *)
    adv.(1).(2) <- F.of_int 2;
    match
      Proto.prove params keys
        ~instance:(instance_cols (F.of_int 12))
        ~advice:(fun _ -> Array.map Array.copy adv)
        ~rng
    with
    | exception Invalid_argument _ -> (
        (* the honest prover refuses: input not in table. The test-only
           seam with a no-op hook proves anyway, and the verifier must
           reject: only the lookup is violated. *)
        let proof =
          Proto.Testing.prove_tampered
            ~tamper:(fun _ _ _ -> ())
            params keys
            ~instance:(instance_cols (F.of_int 12))
            ~advice:(fun _ -> Array.map Array.copy adv)
            ~rng
        in
        Alcotest.(check bool)
          "lookup violation rejected" false
          (Proto.verify params keys ~instance:(instance_cols (F.of_int 12)) proof))
    | _ -> Alcotest.fail "honest prover accepted an input outside the table"

  let test_corrupted_proof () =
    let keys = Lazy.force keys in
    let proof = prove_good () in
    let corrupted =
      { proof with
        evals =
          (let e = Array.copy proof.Proto.evals in
           e.(0) <- F.add e.(0) F.one;
           e)
      }
    in
    Alcotest.(check bool)
      "corrupted eval rejected" false
      (Proto.verify params keys
         ~instance:(instance_cols (F.of_int 12))
         corrupted)

  let test_proof_bytes () =
    let proof = prove_good () in
    let bytes = Proto.proof_to_bytes proof in
    Alcotest.(check bool) "nonempty" true (String.length bytes > 100);
    Alcotest.(check int)
      "size accessor" (String.length bytes)
      (Proto.proof_size_bytes proof)

  (* Circuit 2: challenge + phase-1 advice. Gate: s * (c - r*a) with
     r = Challenge 0 and c in phase 1. *)
  let chal_circuit : F.t Circuit.t =
    let open Expr in
    {
      k;
      num_fixed = 1;
      is_selector = [| true |];
      advice_phases = [| 0; 1 |];
      num_instance = 0;
      num_challenges = 1;
      gates =
        [ {
            gate_name = "scale-by-challenge";
            polys =
              [ Mul (fixed 0, Sub (advice 1, Mul (Challenge 0, advice 0))) ];
          }
        ];
      lookups = [];
      copies = [];
      blinding;
    }

  let test_challenge_phase () =
    let s = Array.make n F.zero in
    s.(0) <- F.one;
    s.(3) <- F.one;
    let keys = Proto.keygen params chal_circuit ~fixed:[| s |] in
    let a = Array.make n F.zero in
    a.(0) <- F.of_int 5;
    a.(3) <- F.of_int 9;
    let advice challenges =
      let c = Array.make n F.zero in
      if Array.length challenges > 0 then begin
        c.(0) <- F.mul challenges.(0) a.(0);
        c.(3) <- F.mul challenges.(0) a.(3)
      end;
      [| Array.copy a; c |]
    in
    let proof = Proto.prove params keys ~instance:[||] ~advice ~rng in
    Alcotest.(check bool)
      "challenge circuit accepted" true
      (Proto.verify params keys ~instance:[||] proof);
    (* wrong phase-1 witness must fail *)
    let bad_advice challenges =
      let c = Array.make n F.zero in
      if Array.length challenges > 0 then
        c.(0) <- F.add F.one (F.mul challenges.(0) a.(0));
      [| Array.copy a; c |]
    in
    let proof =
      Proto.prove params keys ~instance:[||] ~advice:bad_advice ~rng
    in
    Alcotest.(check bool)
      "bad phase-1 witness rejected" false
      (Proto.verify params keys ~instance:[||] proof)

  (* Circuit 3: multi-row gate (rotation): s * (a(X) + a(wX) - b(X)). *)
  let multirow_circuit : F.t Circuit.t =
    let open Expr in
    {
      k;
      num_fixed = 1;
      is_selector = [| true |];
      advice_phases = [| 0; 0 |];
      num_instance = 0;
      num_challenges = 0;
      gates =
        [ {
            gate_name = "adjacent-sum";
            polys =
              [ Mul (fixed 0, Sub (advice 1, Add (advice 0, advice ~rot:1 0))) ];
          }
        ];
      lookups = [];
      copies = [];
      blinding;
    }

  let test_multirow () =
    let s = Array.make n F.zero in
    s.(2) <- F.one;
    let keys = Proto.keygen params multirow_circuit ~fixed:[| s |] in
    let a = Array.make n F.zero and b = Array.make n F.zero in
    a.(2) <- F.of_int 10;
    a.(3) <- F.of_int 32;
    b.(2) <- F.of_int 42;
    let adv = [| a; b |] in
    let proof =
      Proto.prove params keys ~instance:[||]
        ~advice:(fun _ -> Array.map Array.copy adv)
        ~rng
    in
    Alcotest.(check bool)
      "multi-row gate accepted" true
      (Proto.verify params keys ~instance:[||] proof);
    let bad = Array.map Array.copy adv in
    bad.(1).(2) <- F.of_int 41;
    let proof =
      Proto.prove params keys ~instance:[||]
        ~advice:(fun _ -> Array.map Array.copy bad)
        ~rng
    in
    Alcotest.(check bool)
      "multi-row violation rejected" false
      (Proto.verify params keys ~instance:[||] proof)

  let test_stats () =
    let st = Circuit.stats circuit in
    Alcotest.(check int) "rows" n st.Circuit.s_rows;
    Alcotest.(check int) "selectors" 2 st.Circuit.s_selectors;
    Alcotest.(check int) "advice" 3 st.Circuit.s_advice;
    Alcotest.(check int) "lookups" 1 st.Circuit.s_lookups;
    Alcotest.(check bool) "degree >= 3" true (st.Circuit.s_max_degree >= 3);
    Alcotest.(check int) "u" u (Circuit.last_row circuit)

  (* Degree boundaries of the extended domain: a gate of degree [d]
     (s * (a^(d-1) - b)), a copy of b into the instance column and the
     zoo's gated lookup, whose logUp constraints have degree 3 and so
     never raise d. The quotient runs on ext_factor = next_pow2 (d - 1)
     cosets of the 2^k rows. *)
  let degree_circuit d : F.t Circuit.t =
    let open Expr in
    let rec pow e j = if j = 1 then e else Mul (e, pow e (j - 1)) in
    {
      k;
      num_fixed = 3;
      is_selector = [| true; false; true |];
      advice_phases = [| 0; 0 |];
      num_instance = 1;
      num_challenges = 0;
      gates =
        [ {
            gate_name = Printf.sprintf "pow-%d" (d - 1);
            polys = [ Mul (fixed 0, Sub (pow (advice 0) (d - 1), advice 1)) ];
          }
        ];
      lookups =
        [ { lookup_name = "range"; inputs = [ Mul (fixed 2, advice 0) ]; tables = [ fixed 1 ] } ];
      copies = [ ((Circuit.Col_advice 1, 0), (Circuit.Col_instance 0, 0)) ];
      blinding;
    }

  (* a on the gated rows 0, 1, 2 *)
  let degree_values = [ 2; 3; 5 ]

  let degree_fixed () =
    let s = Array.make n F.zero
    and table = Array.init n (fun i -> F.of_int (min i 15))
    and s_lk = Array.make n F.zero in
    List.iteri
      (fun row _ ->
        s.(row) <- F.one;
        s_lk.(row) <- F.one)
      degree_values;
    [| s; table; s_lk |]

  let degree_advice d =
    let a = Array.make n F.zero and b = Array.make n F.zero in
    List.iteri
      (fun row v ->
        a.(row) <- F.of_int v;
        b.(row) <- F.pow_int (F.of_int v) (d - 1))
      degree_values;
    [| a; b |]

  let test_degree_boundaries () =
    List.iter
      (fun (d, factor) ->
        let circuit = degree_circuit d in
        Alcotest.(check int)
          (Printf.sprintf "d=%d: max degree" d) d (Circuit.max_degree circuit);
        let keys = Proto.keygen params circuit ~fixed:(degree_fixed ()) in
        Alcotest.(check int)
          (Printf.sprintf "d=%d: ext_factor" d) factor keys.Proto.ext_factor;
        let adv = degree_advice d in
        let instance = instance_cols adv.(1).(0) in
        let prove adv =
          Proto.prove params keys ~instance
            ~advice:(fun _ -> Array.map Array.copy adv)
            ~rng:(Zkml_util.Rng.create 7L)
        in
        let bytes =
          List.map
            (fun jobs ->
              with_jobs jobs @@ fun () ->
              let what = Printf.sprintf "d=%d jobs=%d" d jobs in
              let proof = prove adv in
              Alcotest.(check int)
                (what ^ ": h commitments") factor
                (Array.length proof.Proto.h_commits);
              Alcotest.(check bool)
                (what ^ ": accepted") true
                (Proto.verify params keys ~instance proof);
              (* one row off: b at the second gated row *)
              let bad = Array.map Array.copy adv in
              bad.(1).(1) <- F.add bad.(1).(1) F.one;
              Alcotest.(check bool)
                (what ^ ": gate violation rejected") false
                (Proto.verify params keys ~instance (prove bad));
              Proto.proof_to_bytes proof)
            [ 1; 4 ]
        in
        (* the reference interpreter agrees with the compiled evaluator
           at this factor *)
        let interp =
          Proto.proof_to_bytes
            (Proto.Testing.prove_interp params keys ~instance
               ~advice:(fun _ -> Array.map Array.copy adv)
               ~rng:(Zkml_util.Rng.create 7L))
        in
        List.iter2
          (fun what b ->
            Alcotest.(check bool)
              (Printf.sprintf "d=%d: %s bytes equal compiled jobs=1" d what)
              true
              (String.equal (List.hd bytes) b))
          [ "compiled jobs=4"; "interp jobs=1" ]
          [ List.nth bytes 1; interp ])
      [ (3, 2); (4, 4); (5, 4); (9, 8) ]

  (* logUp edge cases on hand circuits. Every case has fixed columns
     [s; t1; t2]: a selector, the table 0..7 padded with duplicate 7s,
     and the table 0, 1, 4, 9, 16, 25 padded with 25s; advice [a0; a1]
     holds [vals] on rows 0, 1, ... where [s] = 1. [mult] lists the
     expected (table, row, multiplicity) entries: each distinct table
     value is counted at its first usable row, duplicates get 0. *)
  type logup_case = {
    lk_name : string;
    lk_lookups : F.t Circuit.lookup list;
    lk_gates : F.t Circuit.gate list;
    lk_vals : (int * int) list;
    lk_tables : int;
    lk_mult : (int * int * int) list;
  }

  let gated c = Expr.Mul (Expr.fixed 0, Expr.advice c)
  let lookup name inputs tables = { Circuit.lookup_name = name; inputs; tables }

  let logup_cases =
    let open Expr in
    let t1 = fixed 1 and t2 = fixed 2 in
    let idle = u in
    [ (* one value read on 10 rows; the 16 disabled rows read 0 *)
      { lk_name = "repeated_inputs";
        lk_lookups = [ lookup "rep" [ gated 0 ] [ t1 ] ];
        lk_gates = [];
        lk_vals = List.init 10 (fun _ -> (3, 0));
        lk_tables = 1;
        lk_mult = [ (0, 3, 10); (0, 0, idle - 10) ] };
      (* disabled rows read the default 9 instead of 0 *)
      { lk_name = "default_tuple";
        lk_lookups =
          [ lookup "dflt"
              [ Add (gated 0, Mul (Sub (Const F.one, fixed 0), Const (F.of_int 9))) ]
              [ t2 ] ];
        lk_gates = [];
        lk_vals = [ (16, 0); (1, 0); (4, 0) ];
        lk_tables = 1;
        lk_mult = [ (0, 3, idle - 3); (0, 4, 1); (0, 1, 1); (0, 2, 1); (0, 0, 0) ] };
      (* 7 fills rows 7.. of t1: counted once at row 7, never at a
         duplicate *)
      { lk_name = "padded_duplicates";
        lk_lookups = [ lookup "pad" [ gated 0 ] [ t1 ] ];
        lk_gates = [];
        lk_vals = List.init 5 (fun _ -> (7, 0));
        lk_tables = 1;
        lk_mult = [ (0, 7, 5); (0, 8, 0); (0, idle - 1, 0); (0, 0, idle - 5) ] };
      (* two lookups share t1, a third reads t2 *)
      { lk_name = "shared_and_distinct_tables";
        lk_lookups =
          [ lookup "a0-t1" [ gated 0 ] [ t1 ];
            lookup "a1-t2" [ gated 1 ] [ t2 ];
            lookup "a1-t1" [ gated 1 ] [ t1 ] ];
        lk_gates = [];
        lk_vals = [ (2, 1); (5, 4); (7, 4) ];
        lk_tables = 2;
        lk_mult =
          [ (0, 2, 1); (0, 5, 1); (0, 7, 1); (0, 1, 1); (0, 4, 2);
            (0, 0, 2 * (idle - 3)); (1, 1, 1); (1, 2, 2); (1, 0, idle - 3) ] };
      (* no lookups: no helper, multiplicity or running-sum columns *)
      { lk_name = "lookup_free";
        lk_lookups = [];
        lk_gates =
          [ { gate_name = "square";
              polys = [ Mul (fixed 0, Sub (advice 1, Mul (advice 0, advice 0))) ] } ];
        lk_vals = [ (3, 9); (5, 25) ];
        lk_tables = 0;
        lk_mult = [] } ]

  let test_logup_case c () =
    let circuit : F.t Circuit.t =
      { k; num_fixed = 3; is_selector = [| true; false; false |];
        advice_phases = [| 0; 0 |]; num_instance = 0; num_challenges = 0;
        gates = c.lk_gates; lookups = c.lk_lookups; copies = []; blinding }
    in
    let table vals = Array.init n (fun r -> F.of_int (List.nth vals (min r (List.length vals - 1)))) in
    let s = Array.init n (fun r -> if r < List.length c.lk_vals then F.one else F.zero) in
    let fixed = [| s; table (List.init 8 Fun.id); table [ 0; 1; 4; 9; 16; 25 ] |] in
    let keys = Proto.keygen params circuit ~fixed in
    Alcotest.(check int) "tables" c.lk_tables (Array.length keys.Proto.tables);
    Alcotest.(check int) "max degree" 3 (Circuit.max_degree circuit);
    let advice =
      let col f = Array.init n (fun r -> match List.nth_opt c.lk_vals r with Some v -> F.of_int (f v) | None -> F.zero) in
      [| col fst; col snd |]
    in
    let prove ?tamper () =
      let advice _ = Array.map Array.copy advice and rng = Zkml_util.Rng.create 9L in
      match tamper with
      | None -> Proto.prove params keys ~instance:[||] ~advice ~rng
      | Some tamper -> Proto.Testing.prove_tampered ~tamper params keys ~instance:[||] ~advice ~rng
    in
    let bytes =
      List.map
        (fun jobs ->
          with_jobs jobs @@ fun () ->
          let proof = prove () in
          let what = Printf.sprintf "%s jobs=%d" c.lk_name jobs in
          Alcotest.(check (list int))
            (what ^ ": helper/mult/phi commitments")
            [ List.length c.lk_lookups; c.lk_tables; c.lk_tables ]
            (List.map Array.length
               [ proof.Proto.helper_commits; proof.Proto.mult_commits; proof.Proto.phi_commits ]);
          Alcotest.(check bool) (what ^ ": accepted") true
            (Proto.verify params keys ~instance:[||] proof);
          Proto.proof_to_bytes proof)
        [ 1; 4 ]
    in
    (* a hook that only reads sees the multiplicities and leaves the
       proof byte-identical *)
    let seen = Hashtbl.create 4 in
    let observed =
      Proto.proof_to_bytes
        (prove ~tamper:(fun what i col -> if what = Proto.Mult then Hashtbl.replace seen i (Array.copy col)) ())
    in
    List.iter
      (fun (ti, row, m) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: m[%d][%d] = %d" c.lk_name ti row m)
          true
          (F.equal (F.of_int m) (Hashtbl.find seen ti).(row)))
      c.lk_mult;
    let interp =
      Proto.proof_to_bytes
        (Proto.Testing.prove_interp params keys ~instance:[||]
           ~advice:(fun _ -> Array.map Array.copy advice)
           ~rng:(Zkml_util.Rng.create 9L))
    in
    List.iter2
      (fun what b ->
        Alcotest.(check bool) (c.lk_name ^ ": " ^ what ^ " bytes equal compiled jobs=1") true
          (String.equal (List.hd bytes) b))
      [ "compiled jobs=4"; "observed"; "interp jobs=1" ]
      [ List.nth bytes 1; observed; interp ]

  let suite =
    [ Alcotest.test_case "completeness" `Quick test_completeness;
      Alcotest.test_case "wrong_instance" `Quick test_wrong_instance;
      Alcotest.test_case "gate_violation" `Quick test_gate_violation;
      Alcotest.test_case "copy_violation" `Quick test_copy_violation;
      Alcotest.test_case "lookup_violation" `Quick test_lookup_violation;
      Alcotest.test_case "corrupted_proof" `Quick test_corrupted_proof;
      Alcotest.test_case "proof_bytes" `Quick test_proof_bytes;
      Alcotest.test_case "challenge_phase" `Quick test_challenge_phase;
      Alcotest.test_case "multirow" `Quick test_multirow;
      Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "degree_boundaries" `Quick test_degree_boundaries
    ]
    @ List.map
        (fun c -> Alcotest.test_case ("logup_" ^ c.lk_name) `Quick (test_logup_case c))
        logup_cases
end

module Sim61 = Zkml_ec.Simulated.Make (Zkml_ff.Fp61)
module Kzg_suite = Make_suite (Zkml_commit.Kzg.Make (Sim61))
module Ipa_suite = Make_suite (Zkml_commit.Ipa.Make (Sim61))
module Kzg_pallas_suite = Make_suite (Zkml_commit.Kzg.Make (Zkml_ec.Pallas))

(* Pinned proof digests: SHA-256 of the proof bytes of two zoo models on
   a fixed layout (default spec, 16 columns, smallest k) and a fixed
   prover seed, at jobs 1 and 4. A refactor that changes one proof byte
   fails here; a deliberate change of the proof format re-pins these
   values and bumps the proof-file version. *)
module Pinned (Scheme : Zkml_commit.Scheme_intf.S) = struct
  module Pipe = Zkml_compiler.Pipeline.Make (Scheme)
  module Zoo = Zkml_models.Zoo
  module Spec = Zkml_compiler.Layout_spec

  let params = lazy (Scheme.setup ~max_size:(1 lsl 12) ~seed:"pinned-digests")
  let spec = Spec.default
  let ncols = 16

  let digest (m : Zoo.model) =
    let params = Lazy.force params and cfg = m.Zoo.cfg in
    let k =
      let qinputs =
        List.map
          (Zkml_tensor.Tensor.map (Zkml_fixed.Fixed.quantize cfg))
          (Zoo.sample_inputs m)
      in
      let exec = Zkml_nn.Quant_exec.run cfg m.Zoo.graph ~inputs:qinputs in
      let lowered =
        Zkml_compiler.Lower.lower ~spec ~cfg ~ncols ~counting:true m.Zoo.graph
          exec
      in
      Zkml_compiler.Layouter.optimal_k lowered.Zkml_compiler.Lower.layouter
        ~blinding:Zkml_compiler.Optimizer.blinding
    in
    let keys = Pipe.rebuild_keys params ~spec ~ncols ~k ~cfg m.Zoo.graph in
    let w = Pipe.witness ~spec ~ncols ~k ~cfg m.Zoo.graph (Zoo.sample_inputs m) in
    let proof =
      Pipe.Proto.prove params keys ~instance:w.Pipe.w_instance
        ~advice:(fun _ -> Array.map Array.copy w.Pipe.w_advice)
        ~rng:(Zkml_util.Rng.create 42L)
    in
    Alcotest.(check int)
      (m.Zoo.name ^ " ext_factor")
      (next_pow2 (keys.Pipe.Proto.d_max - 1))
      keys.Pipe.Proto.ext_factor;
    Alcotest.(check int)
      (m.Zoo.name ^ " h commitments") keys.Pipe.Proto.ext_factor
      (Array.length proof.Pipe.Proto.h_commits);
    Alcotest.(check bool)
      (m.Zoo.name ^ " verifies") true
      (Pipe.Proto.verify params keys ~instance:w.Pipe.w_instance proof);
    Zkml_util.Sha256.hex_digest (Pipe.Proto.proof_to_bytes proof)

  let test pins () =
    List.iter
      (fun (m, expected) ->
        List.iter
          (fun jobs ->
            let got = with_jobs jobs (fun () -> digest m) in
            Alcotest.(check string)
              (Printf.sprintf "%s/%s jobs=%d" m.Zoo.name Scheme.name jobs)
              expected got)
          [ 1; 4 ])
      pins
end

module Kzg_pinned = Pinned (Zkml_commit.Kzg.Make (Sim61))
module Ipa_pinned = Pinned (Zkml_commit.Ipa.Make (Sim61))

let pinned_kzg =
  [ ( Zkml_models.Zoo.mnist (),
      "dfa8865c7ae3ecded4102bb1700be15395143b190f75dfbcbeb3413f2f3a17eb" );
    ( Zkml_models.Zoo.gpt2 (),
      "15d84c7e80555774c599219118560a2e1811cf548634f2d46d1c2303495ac807" ) ]

let pinned_ipa =
  [ ( Zkml_models.Zoo.mnist (),
      "33011bb68e368b86b657c6886d088d4f4a4346d628da0c40a929ef4b535e284c" );
    ( Zkml_models.Zoo.gpt2 (),
      "af17d1423c105fc3df9290ca75bc81ac9d3c024b84cbe49d2cf766821390c6fa" ) ]

let () =
  Alcotest.run "plonkish"
    [ ("kzg_fp61", Kzg_suite.suite);
      ("ipa_fp61", Ipa_suite.suite);
      ( "pinned_digests",
        [ Alcotest.test_case "kzg" `Slow (Kzg_pinned.test pinned_kzg);
          Alcotest.test_case "ipa" `Slow (Ipa_pinned.test pinned_ipa)
        ] );
      ( "kzg_pallas",
        [ Alcotest.test_case "completeness" `Slow
            Kzg_pallas_suite.test_completeness
        ] )
    ]
