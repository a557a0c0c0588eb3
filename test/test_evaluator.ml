(* Equivalence tests for the compiled quotient evaluator (PR 5).

   The evaluator lowers the combined constraint polynomial into a flat
   register program once per circuit; the interpreter path
   (Proto.Testing.prove_interp) stays available as a reference oracle. Three
   layers of checks:

   1. qcheck: random expression lists (every Expr constructor,
      rotations, challenges) compiled and run over random grids must
      match a direct Horner fold over Expr.eval, at ext factors 1/4.
   2. a small hand-built circuit with gates + lookup + copies proves
      byte-identically under interp/compiled at ZKML_JOBS=1 and 4.
   3. every zoo model proves byte-identically across the same 2x2
      matrix (small models Quick, big models Slow), and the compiled
      proof verifies.

   Everything is seeded, so failures replay exactly. *)

open Zkml_plonkish
module F = Zkml_ff.Fp61
module Ev = Evaluator.Make (F)
module Pool = Zkml_util.Pool
module Zoo = Zkml_models.Zoo
module Sim61 = Zkml_ec.Simulated.Make (Zkml_ff.Fp61)
module Kzg = Zkml_commit.Kzg.Make (Sim61)
module Serve = Zkml_serve.Artifacts.Make (Kzg)
module Pipe = Serve.Pipe
module Proto = Pipe.Proto

(* Hermetic artifact cache, as in test_soundness. *)
let () =
  Unix.putenv "ZKML_CACHE_DIR"
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "zkml-test-evaluator-%d" (Unix.getpid ())))

let with_jobs j f =
  let saved = Pool.jobs () in
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* The two quotient evaluators: the compiled program every production
   prove runs, and the interpreter oracle. *)
let prover interp = if interp then Proto.Testing.prove_interp else Proto.prove

(* ------------------------------------------------------------------ *)
(* 1. qcheck: compiled program vs a direct Expr.eval fold.             *)

let nf = 2
let na = 3
let ni = 1
let nc = 2

let gen_expr : F.t Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized
  @@ fix (fun self sz ->
         let leaf =
           oneof
             [
               map (fun i -> Expr.Const (F.of_int i)) (int_range (-20) 20);
               map2
                 (fun c r -> Expr.fixed ~rot:r c)
                 (int_range 0 (nf - 1)) (int_range (-2) 2);
               map2
                 (fun c r -> Expr.advice ~rot:r c)
                 (int_range 0 (na - 1)) (int_range (-2) 2);
               map2
                 (fun c r -> Expr.instance ~rot:r c)
                 (int_range 0 (ni - 1)) (int_range (-2) 2);
               map (fun i -> Expr.Challenge i) (int_range 0 (nc - 1));
             ]
         in
         if sz <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 2,
                 map2 (fun a b -> Expr.Add (a, b)) (self (sz / 2))
                   (self (sz / 2)) );
               ( 2,
                 map2 (fun a b -> Expr.Sub (a, b)) (self (sz / 2))
                   (self (sz / 2)) );
               ( 2,
                 map2 (fun a b -> Expr.Mul (a, b)) (self (sz / 2))
                   (self (sz / 2)) );
               (1, map (fun e -> Expr.Neg e) (self (sz - 1)));
               ( 1,
                 map2
                   (fun e c -> Expr.Scaled (e, F.of_int c))
                   (self (sz - 1)) (int_range (-9) 9) );
             ])

let gen_case =
  let open QCheck.Gen in
  triple (list_size (int_range 1 3) gen_expr) (oneofl [ 1; 4 ]) int

let circuit_of polys : F.t Circuit.t =
  {
    Circuit.k = 3;
    num_fixed = nf;
    is_selector = Array.make nf false;
    advice_phases = Array.make na 0;
    num_instance = ni;
    num_challenges = nc;
    gates = [ { Circuit.gate_name = "random"; polys } ];
    lookups = [];
    copies = [];
    blinding = 2;
  }

let check_case (polys, factor, seed) =
  let circuit = circuit_of polys in
  let prog =
    Ev.compile circuit ~perm_cols:[||] ~deltas:[||] ~n_chunks:0 ~chunk:1
  in
  let ext_n = 8 * factor in
  let rng = Zkml_util.Rng.create (Int64.of_int seed) in
  let column () = Array.init ext_n (fun _ -> F.random rng) in
  let grid w = Array.init w (fun _ -> column ()) in
  let fixed = grid nf and advice = grid na and inst = grid ni in
  let bank = Array.concat [ fixed; advice; inst; grid 4 ] in
  let challenges = Array.init nc (fun _ -> F.random rng) in
  let theta = F.random rng
  and beta = F.random rng
  and gamma = F.random rng
  and y = F.random rng in
  let scalars = Ev.pack_scalars ~challenges ~theta ~beta ~gamma ~y in
  let out = Array.make ext_n F.zero in
  Ev.eval_rows_into prog ~bank ~scalars ~factor ~out ~lo:0 ~hi:ext_n;
  let wrap i r =
    let j = (i + (r * factor)) mod ext_n in
    if j < 0 then j + ext_n else j
  in
  let ok = ref true in
  for i = 0 to ext_n - 1 do
    let at g col r = g.(col).(wrap i r) in
    let value e =
      Expr.eval ~fixed_at:(at fixed) ~advice_at:(at advice)
        ~instance_at:(at inst)
        ~challenge:(fun c -> challenges.(c))
        ~add:F.add ~sub:F.sub ~mul:F.mul ~neg:F.neg
        ~scale:(fun c v -> F.mul c v)
        e
    in
    let expected =
      List.fold_left (fun acc p -> F.add (F.mul acc y) (value p)) F.zero polys
    in
    if not (F.equal out.(i) expected) then ok := false
  done;
  !ok

let qcheck_compiled_matches_interpreter =
  QCheck.Test.make ~count:200 ~name:"compiled program = Expr.eval fold"
    (QCheck.make gen_case) check_case

(* ------------------------------------------------------------------ *)
(* 2. compiler stats: CSE fires and the program shrinks.               *)

let test_compile_stats () =
  (* the same product appears in two polys of one gate, so hash-consing
     must dedup it; the shared [active]/boundary machinery plus folding
     keeps the op count strictly below the node count *)
  let shared = Expr.(Mul (advice 0, advice 1)) in
  let polys =
    Expr.
      [
        Mul (fixed 0, Sub (advice 2, shared));
        Mul (fixed 1, Sub (instance 0, shared));
      ]
  in
  let prog =
    Ev.compile (circuit_of polys) ~perm_cols:[||] ~deltas:[||] ~n_chunks:0
      ~chunk:1
  in
  Alcotest.(check bool) "CSE hits > 0" true (prog.Ev.p_cse_hits > 0);
  Alcotest.(check bool)
    "ops < graph nodes" true
    (Array.length prog.Ev.p_ops < prog.Ev.p_nodes);
  Alcotest.(check bool) "registers bounded" true
    (prog.Ev.p_nregs > 0 && prog.Ev.p_nregs <= Array.length prog.Ev.p_ops)

(* ------------------------------------------------------------------ *)
(* 3. small hand circuit (gates + lookup + copies), interp vs compiled
      at jobs 1 and 4 — the proof bytes must not move.                 *)

let hand_circuit : F.t Circuit.t =
  let open Expr in
  {
    Circuit.k = 5;
    num_fixed = 4;
    is_selector = [| true; false; false; true |];
    advice_phases = [| 0; 0; 0 |];
    num_instance = 1;
    num_challenges = 0;
    gates =
      [
        {
          Circuit.gate_name = "mul";
          polys = [ Mul (fixed 0, Sub (advice 2, Mul (advice 0, advice 1))) ];
        };
      ];
    lookups =
      [
        {
          Circuit.lookup_name = "relu";
          inputs = [ Mul (fixed 3, advice 0); Mul (fixed 3, advice 1) ];
          tables = [ fixed 1; fixed 2 ];
        };
      ];
    copies =
      [
        ((Circuit.Col_advice 2, 0), (Circuit.Col_instance 0, 0));
        ((Circuit.Col_advice 2, 0), (Circuit.Col_advice 0, 1));
      ];
    blinding = 5;
  }

let hand_n = 1 lsl 5

let hand_fixed () =
  let s_mul = Array.make hand_n F.zero in
  let t_in = Array.make hand_n F.zero in
  let t_out = Array.make hand_n F.zero in
  let s_lk = Array.make hand_n F.zero in
  s_mul.(0) <- F.one;
  s_mul.(1) <- F.one;
  List.iteri
    (fun row i ->
      t_in.(row) <- F.of_int i;
      t_out.(row) <- F.of_int (max 0 i))
    (List.init 17 (fun j -> j - 8));
  s_lk.(2) <- F.one;
  [| s_mul; t_in; t_out; s_lk |]

let hand_advice () =
  let a = Array.make hand_n F.zero in
  let b = Array.make hand_n F.zero in
  let c = Array.make hand_n F.zero in
  a.(0) <- F.of_int 3;
  b.(0) <- F.of_int 4;
  c.(0) <- F.of_int 12;
  a.(1) <- F.of_int 12;
  a.(2) <- F.of_int (-3);
  [| a; b; c |]

let hand_instance () =
  let col = Array.make hand_n F.zero in
  col.(0) <- F.of_int 12;
  [| col |]

let test_hand_circuit_identical () =
  let params = Kzg.setup ~max_size:64 ~seed:"test-evaluator" in
  let keys = Proto.keygen params hand_circuit ~fixed:(hand_fixed ()) in
  let adv = hand_advice () in
  let prove interp () =
    Proto.proof_to_bytes
      (prover interp params keys ~instance:(hand_instance ())
         ~advice:(fun _ -> Array.map Array.copy adv)
         ~rng:(Zkml_util.Rng.create 101L))
  in
  let reference = with_jobs 1 (prove true) in
  List.iter
    (fun (jobs, interp) ->
      let bytes = with_jobs jobs (prove interp) in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d %s = interp/jobs=1" jobs
           (if interp then "interp" else "compiled"))
        true
        (String.equal reference bytes))
    [ (1, false); (4, true); (4, false) ];
  let proof = Proto.prove params keys ~instance:(hand_instance ())
      ~advice:(fun _ -> Array.map Array.copy adv)
      ~rng:(Zkml_util.Rng.create 101L)
  in
  Alcotest.(check bool)
    "compiled proof verifies" true
    (Proto.verify params keys ~instance:(hand_instance ()) proof)

(* ------------------------------------------------------------------ *)
(* 4. zoo models end to end: interp/compiled x jobs 1/4.               *)

let zoo_params = lazy (Kzg.setup ~max_size:(1 lsl 13) ~seed:"test-evaluator")

let run_model name =
  let m = Zoo.by_name name in
  let params = Lazy.force zoo_params in
  let entry, _ = Serve.prepare ~cfg:m.Zoo.cfg params m.Zoo.graph in
  let keys = entry.Serve.e_keys in
  let w =
    Serve.witness entry ~cfg:m.Zoo.cfg m.Zoo.graph
      (Zoo.sample_inputs ~seed:1234L m)
  in
  let prove interp =
    prover interp params keys ~instance:w.Pipe.w_instance
      ~advice:(fun _ -> Array.map Array.copy w.Pipe.w_advice)
      ~rng:(Zkml_util.Rng.create 1234L)
  in
  let reference =
    with_jobs 1 (fun () ->
        let p = prove true in
        Alcotest.(check bool)
          (name ^ " interp proof verifies")
          true
          (Proto.verify params keys ~instance:w.Pipe.w_instance p);
        Proto.proof_to_bytes p)
  in
  List.iter
    (fun (jobs, interp, label) ->
      let bytes =
        with_jobs jobs (fun () -> Proto.proof_to_bytes (prove interp))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s byte-identical to interp/jobs=1" name label)
        true
        (String.equal reference bytes))
    [
      (1, false, "compiled/jobs=1");
      (4, true, "interp/jobs=4");
      (4, false, "compiled/jobs=4");
    ]

let zoo_small () = List.iter run_model [ "mnist"; "dlrm"; "twitter"; "gpt2" ]

let zoo_big () =
  List.iter run_model [ "resnet18"; "mobilenet"; "vgg16"; "diffusion" ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "evaluator"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest ~long:false
            qcheck_compiled_matches_interpreter;
          Alcotest.test_case "compile_stats" `Quick test_compile_stats;
          Alcotest.test_case "hand_circuit" `Quick test_hand_circuit_identical;
          Alcotest.test_case "zoo_small" `Quick zoo_small;
          Alcotest.test_case "zoo_big" `Slow zoo_big;
        ] );
    ]
