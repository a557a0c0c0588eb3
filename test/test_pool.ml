(* The domain pool: loop combinators, exception propagation, obs
   capture, and the headline guarantee — identical NTT/MSM/proof output
   at every job count. *)

module Pool = Zkml_util.Pool
module Obs = Zkml_obs.Obs

let with_jobs j f =
  let saved = Pool.jobs () in
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* every combinator test runs the parallel machinery for real *)
let par_jobs = 4

let test_empty_range () =
  with_jobs par_jobs @@ fun () ->
  let hits = ref 0 in
  Pool.parallel_for ~seq_below:0 0 (fun _ -> incr hits);
  Pool.parallel_for ~seq_below:0 (-3) (fun _ -> incr hits);
  Pool.parallel_for_ranges ~seq_below:0 0 (fun _ _ -> incr hits);
  Alcotest.(check int) "no iterations" 0 !hits;
  Alcotest.(check (array int)) "empty map" [||]
    (Pool.parallel_map_array (fun x -> x) [||]);
  Alcotest.(check int) "empty reduce" 7
    (Pool.parallel_reduce 0 ~init:7 ~map:(fun _ _ -> 0) ~combine:( + ))

let test_coverage_small_n () =
  (* n < jobs: every index exactly once *)
  with_jobs par_jobs @@ fun () ->
  List.iter
    (fun n ->
      let hits = Array.make (max n 1) 0 in
      Pool.parallel_for ~seq_below:0 n (fun i -> hits.(i) <- hits.(i) + 1);
      for i = 0 to n - 1 do
        Alcotest.(check int) (Printf.sprintf "n=%d i=%d" n i) 1 hits.(i)
      done)
    [ 1; 2; 3; 5; 100 ]

(* Alcotest's checks are not domain-safe, so the body only records what
   it sees; the assertions run on the caller once the region is done. *)
let test_ranges_partition () =
  with_jobs par_jobs @@ fun () ->
  let n = 1000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let empty_ranges = Atomic.make 0 in
  Pool.parallel_for_ranges ~seq_below:0 ~chunk:7 n (fun lo hi ->
      if lo >= hi then Atomic.incr empty_ranges;
      for i = lo to hi - 1 do
        Atomic.incr hits.(i)
      done);
  Alcotest.(check int) "lo<hi" 0 (Atomic.get empty_ranges);
  Array.iteri
    (fun i h -> Alcotest.(check int) (Printf.sprintf "i=%d" i) 1 (Atomic.get h))
    hits

exception Boom

let test_exception_propagates () =
  List.iter
    (fun j ->
      with_jobs j @@ fun () ->
      match
        Pool.parallel_for ~seq_below:0 100 (fun i -> if i = 37 then raise Boom)
      with
      | () -> Alcotest.fail (Printf.sprintf "jobs=%d: no exception" j)
      | exception Boom -> ())
    [ 1; par_jobs ];
  (* the pool must survive a raising region *)
  with_jobs par_jobs @@ fun () ->
  let sum = ref 0 in
  Pool.parallel_reduce ~chunk:3 ~seq_below:0 10 ~init:0
    ~map:(fun lo hi ->
      let s = ref 0 in
      for i = lo to hi - 1 do
        s := !s + i
      done;
      !s)
    ~combine:( + )
  |> fun v -> sum := v;
  Alcotest.(check int) "pool alive after raise" 45 !sum

let test_map_and_reduce_match_sequential () =
  with_jobs par_jobs @@ fun () ->
  let a = Array.init 500 (fun i -> i) in
  Alcotest.(check (array int)) "map" (Array.map (fun x -> (x * x) + 1) a)
    (Pool.parallel_map_array (fun x -> (x * x) + 1) a);
  let expect = Array.fold_left ( + ) 0 a in
  List.iter
    (fun chunk ->
      Alcotest.(check int) (Printf.sprintf "reduce chunk=%d" chunk) expect
        (Pool.parallel_reduce ~chunk ~seq_below:0 500 ~init:0
           ~map:(fun lo hi ->
             let s = ref 0 in
             for i = lo to hi - 1 do
               s := !s + a.(i)
             done;
             !s)
           ~combine:( + )))
    [ 1; 13; 512 ]

let test_nested_no_deadlock () =
  with_jobs par_jobs @@ fun () ->
  let hits = Atomic.make 0 in
  Pool.parallel_for ~seq_below:0 8 (fun _ ->
      Pool.parallel_for ~seq_below:0 8 (fun _ ->
          ignore (Atomic.fetch_and_add hits 1)));
  Alcotest.(check int) "all inner iterations" 64 (Atomic.get hits)

let test_obs_capture () =
  with_jobs par_jobs @@ fun () ->
  let n = 64 in
  let (), report =
    Obs.with_enabled (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Pool.parallel_for ~seq_below:0 n (fun _ -> Obs.count "tick" 1)))
  in
  Alcotest.(check int)
    "ticks recorded across domains" n
    (int_of_float (Obs.counter_total report "tick"))

(* ------------------------------------------------------------------ *)
(* Determinism: kernel outputs and whole proofs are byte-identical at
   every job count. *)

module F = Zkml_ff.Fp61
module P = Zkml_poly.Polynomial.Make (F)
module G = Zkml_ec.Simulated.Make (F)
module M = Zkml_ec.Msm.Make (G)

let test_ntt_matches_across_jobs () =
  (* k=15 exceeds every sequential cutoff, so the parallel stage path
     really runs *)
  let k = 15 in
  let rng = Zkml_util.Rng.create 5L in
  let coeffs =
    with_jobs 1 (fun () ->
        let d = P.Domain.create k in
        P.random rng (P.Domain.size d))
  in
  let run j =
    with_jobs j @@ fun () ->
    let d = P.Domain.create k in
    let a = Array.copy coeffs in
    P.ntt d a;
    let c = P.coset_ntt d ~shift:F.generator coeffs in
    let back = P.coset_intt d ~shift:F.generator c in
    P.intt d a;
    (a, c, back)
  in
  let a1, c1, b1 = run 1 and a4, c4, b4 = run 4 in
  let eq name x y =
    Array.iteri
      (fun i v ->
        Alcotest.(check bool)
          (Printf.sprintf "%s[%d]" name i)
          true (F.equal v y.(i)))
      x
  in
  eq "ntt" a1 a4;
  eq "coset" c1 c4;
  eq "coset-roundtrip" b1 b4

let test_msm_matches_across_jobs () =
  let n = 300 in
  let rng = Zkml_util.Rng.create 9L in
  let points = Array.init n (fun _ -> G.mul G.generator (F.random rng)) in
  let scalars = Array.init n (fun _ -> F.random rng) in
  let r1 = with_jobs 1 (fun () -> M.msm points scalars) in
  let r4 = with_jobs 4 (fun () -> M.msm points scalars) in
  Alcotest.(check bool) "msm equal" true (G.equal r1 r4);
  let n1 = with_jobs 1 (fun () -> M.naive points scalars) in
  let n4 = with_jobs 4 (fun () -> M.naive points scalars) in
  Alcotest.(check bool) "naive equal" true (G.equal n1 n4);
  Alcotest.(check bool) "naive = pippenger" true (G.equal r1 n1)

(* Full prove/verify round-trip on a seed model: proof bytes must be
   identical at jobs=1 and jobs=4. *)
module Scheme = Zkml_commit.Kzg.Make (G)
module Pipe = Zkml_compiler.Pipeline.Make (Scheme)
module Zoo = Zkml_models.Zoo

let test_proof_bytes_across_jobs () =
  let m = Zoo.mnist () in
  let inputs = Zoo.sample_inputs m in
  let run j =
    with_jobs j @@ fun () ->
    let params = Scheme.setup ~max_size:(1 lsl 17) ~seed:"pool-test" in
    let r = Pipe.run ~cfg:m.Zoo.cfg ~params m.Zoo.graph inputs in
    Alcotest.(check bool)
      (Printf.sprintf "verified jobs=%d" j)
      true r.Pipe.verified;
    Pipe.Proto.proof_to_bytes r.Pipe.proof
  in
  let b1 = run 1 in
  let b4 = run 4 in
  Alcotest.(check int) "proof length" (String.length b1) (String.length b4);
  Alcotest.(check bool) "proof bytes identical" true (String.equal b1 b4)

let () =
  Alcotest.run "pool"
    [
      ( "combinators",
        [
          Alcotest.test_case "empty_range" `Quick test_empty_range;
          Alcotest.test_case "coverage_small_n" `Quick test_coverage_small_n;
          Alcotest.test_case "ranges_partition" `Quick test_ranges_partition;
          Alcotest.test_case "exceptions" `Quick test_exception_propagates;
          Alcotest.test_case "map_reduce" `Quick
            test_map_and_reduce_match_sequential;
          Alcotest.test_case "nested" `Quick test_nested_no_deadlock;
          Alcotest.test_case "obs_capture" `Quick test_obs_capture;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "ntt_across_jobs" `Quick
            test_ntt_matches_across_jobs;
          Alcotest.test_case "msm_across_jobs" `Quick
            test_msm_matches_across_jobs;
          Alcotest.test_case "proof_bytes_across_jobs" `Slow
            test_proof_bytes_across_jobs;
        ] );
    ]
