(* Serving-layer tests: the per-model artifact cache and the batch
   prove/verify APIs.

   Covers, with a hermetic cache directory:
   - batch/single equivalence: [prove_many [x]] is byte-identical to
     [prove x], and batch proofs are byte-identical across worker-pool
     sizes (ZKML_JOBS);
   - [verify_many] accepts exactly when every member verifies
     individually, including mixed honest/tampered batches;
   - the amortization claim itself: batched verification of 8 proofs
     performs strictly fewer PCS final checks than 8 single
     verifications (asserted on the "pcs.final_check" counter, for both
     the KZG and IPA backends);
   - cache behaviour: Miss -> Hit_mem -> Hit_disk status progression,
     disk roundtrip of the compiled layout, corrupt/truncated entries
     classified as typed errors (and recompiled), never exceptions. *)

module Zoo = Zkml_models.Zoo
module Obs = Zkml_obs.Obs
module Err = Zkml_util.Err
module Art = Zkml_serve.Artifacts
module Sim61 = Zkml_ec.Simulated.Make (Zkml_ff.Fp61)
module Kzg = Zkml_commit.Kzg.Make (Sim61)
module Ipa = Zkml_commit.Ipa.Make (Sim61)
module Serve = Zkml_serve.Artifacts.Make (Kzg)
module Serve_ipa = Zkml_serve.Artifacts.Make (Ipa)
module Pipe = Serve.Pipe
module Proto = Pipe.Proto

let cache_dir =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "zkml-test-serve-%d" (Unix.getpid ()))

let () = Unix.putenv "ZKML_CACHE_DIR" cache_dir

let kzg_params = Kzg.setup ~max_size:(1 lsl 13) ~seed:"test-serve"
let ipa_params = Ipa.setup ~max_size:(1 lsl 13) ~seed:"test-serve"

let mnist = lazy (Zoo.mnist ())

(* one compiled entry per test run, via the cache *)
let entry = lazy (fst (Serve.prepare ~cfg:(Lazy.force mnist).Zoo.cfg kzg_params
                         (Lazy.force mnist).Zoo.graph))

let witness_for seed =
  let m = Lazy.force mnist in
  Serve.witness (Lazy.force entry) ~cfg:m.Zoo.cfg m.Zoo.graph
    (Zoo.sample_inputs ~seed m)

let prove_one ?(seed = 7L) () =
  let w = witness_for seed in
  let keys = (Lazy.force entry).Serve.e_keys in
  let proof =
    Proto.prove kzg_params keys ~instance:w.Pipe.w_instance
      ~advice:(fun _ -> Array.map Array.copy w.Pipe.w_advice)
      ~rng:(Zkml_util.Rng.create seed)
  in
  (w, proof)

(* --- batch/single equivalence --------------------------------------- *)

let test_prove_many_singleton () =
  let w, single = prove_one () in
  let keys = (Lazy.force entry).Serve.e_keys in
  let batch =
    Proto.prove_many kzg_params keys
      [
        {
          Proto.job_instance = w.Pipe.w_instance;
          job_advice = (fun _ -> Array.map Array.copy w.Pipe.w_advice);
          job_rng = Zkml_util.Rng.create 7L;
        };
      ]
  in
  match batch with
  | [ p ] ->
      Alcotest.(check string)
        "prove_many [x] = prove x"
        (Proto.proof_to_bytes single)
        (Proto.proof_to_bytes p)
  | _ -> Alcotest.fail "prove_many returned wrong batch size"

let test_batch_bytes_stable_across_jobs () =
  let m = Lazy.force mnist in
  let prove_batch () =
    Serve.prove_batch kzg_params (Lazy.force entry) ~cfg:m.Zoo.cfg m.Zoo.graph
      [ (Zoo.sample_inputs ~seed:11L m, 11L); (Zoo.sample_inputs ~seed:12L m, 12L) ]
    |> List.map (fun (_, p) -> Proto.proof_to_bytes p)
  in
  Zkml_util.Pool.set_jobs 1;
  let seq = prove_batch () in
  Zkml_util.Pool.set_jobs 4;
  let par = prove_batch () in
  Zkml_util.Pool.set_jobs 1;
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "batch proof bytes identical at jobs 1 and 4" true
        (String.equal a b))
    seq par

(* --- verify_many semantics ------------------------------------------ *)

let tamper bytes =
  let b = Bytes.of_string bytes in
  Bytes.set b 3 (Char.chr (Char.code (Bytes.get b 3) lxor 1));
  Bytes.to_string b

let test_verify_many_mixed_batches () =
  let w, proof = prove_one () in
  let keys = (Lazy.force entry).Serve.e_keys in
  let good = Proto.proof_to_bytes proof in
  let bad = tamper good in
  let ints = w.Pipe.w_instance_ints in
  let verdict batch =
    Pipe.verify_many_verdict kzg_params keys
      ~batch:(List.map (fun p -> (ints, p)) batch)
  in
  let is_accepted = function Proto.Accepted -> true | _ -> false in
  (* accepted iff every member individually accepted *)
  Alcotest.(check bool) "good singleton" true (is_accepted (verdict [ good ]));
  Alcotest.(check bool)
    "all-good batch" true
    (is_accepted (verdict [ good; good; good ]));
  Alcotest.(check bool) "bad singleton" false (is_accepted (verdict [ bad ]));
  Alcotest.(check bool)
    "bad first" false
    (is_accepted (verdict [ bad; good; good ]));
  Alcotest.(check bool)
    "bad last" false
    (is_accepted (verdict [ good; good; bad ]));
  (* truncated member classifies as malformed, never raises *)
  (match verdict [ good; String.sub good 0 10 ] with
  | Proto.Malformed _ -> ()
  | _ -> Alcotest.fail "truncated batch member must classify as malformed");
  (* wrong instance for a member rejects the batch *)
  let forged = Array.copy ints in
  forged.(0) <- forged.(0) + 1;
  Alcotest.(check bool)
    "forged member instance" false
    (is_accepted
       (Pipe.verify_many_verdict kzg_params keys
          ~batch:[ (ints, good); (forged, good) ]))

(* --- the amortization claim (Obs counter) --------------------------- *)

let final_checks f =
  let _, report = Obs.with_enabled f in
  int_of_float (Obs.counter_total report "pcs.final_check")

let test_batched_final_check_kzg () =
  let proofs = List.map (fun seed -> prove_one ~seed ()) [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ] in
  let keys = (Lazy.force entry).Serve.e_keys in
  let batch =
    List.map
      (fun (w, p) -> (w.Pipe.w_instance, p))
      proofs
  in
  let singles =
    final_checks (fun () ->
        List.iter
          (fun (instance, p) ->
            Alcotest.(check bool) "single verifies" true
              (Proto.verify kzg_params keys ~instance p))
          batch)
  in
  let batched =
    final_checks (fun () ->
        Alcotest.(check bool) "batch verifies" true
          (Proto.verify_many kzg_params keys ~batch))
  in
  Alcotest.(check int) "one final check for the whole batch" 1 batched;
  Alcotest.(check bool)
    (Printf.sprintf "batched (%d) strictly fewer than 8 singles (%d)" batched
       singles)
    true (batched < singles)

let test_batched_final_check_ipa () =
  let m = Zoo.dlrm () in
  let entry, _ = Serve_ipa.prepare ~cfg:m.Zoo.cfg ipa_params m.Zoo.graph in
  let keys = entry.Serve_ipa.e_keys in
  let batch =
    Serve_ipa.prove_batch ipa_params entry ~cfg:m.Zoo.cfg m.Zoo.graph
      [ (Zoo.sample_inputs ~seed:1L m, 1L); (Zoo.sample_inputs ~seed:2L m, 2L) ]
    |> List.map (fun (w, p) -> (w.Serve_ipa.Pipe.w_instance, p))
  in
  let singles =
    final_checks (fun () ->
        List.iter
          (fun (instance, p) ->
            Alcotest.(check bool) "ipa single verifies" true
              (Serve_ipa.Proto.verify ipa_params keys ~instance p))
          batch)
  in
  let batched =
    final_checks (fun () ->
        Alcotest.(check bool) "ipa batch verifies" true
          (Serve_ipa.Proto.verify_many ipa_params keys ~batch))
  in
  Alcotest.(check int) "one MSM final check for the ipa batch" 1 batched;
  Alcotest.(check bool) "ipa batched strictly fewer" true (batched < singles)

(* --- artifact cache behaviour --------------------------------------- *)

let test_cache_status_progression () =
  let m = Lazy.force mnist in
  let prep () = Serve.prepare ~cfg:m.Zoo.cfg kzg_params m.Zoo.graph in
  ignore (Lazy.force entry);
  (* entry was prepared at least once above: in-memory now *)
  let _, s1 = prep () in
  Alcotest.(check bool) "second prepare hits memory" true (s1 = Art.Hit_mem);
  Serve.reset_memory ();
  let e2, s2 = prep () in
  Alcotest.(check bool) "after LRU reset, hits disk" true (s2 = Art.Hit_disk);
  let e1 = Lazy.force entry in
  Alcotest.(check int) "same k" e1.Serve.e_k e2.Serve.e_k;
  Alcotest.(check int) "same ncols" e1.Serve.e_ncols e2.Serve.e_ncols;
  Alcotest.(check string) "same spec"
    (Zkml_compiler.Layout_spec.to_string e1.Serve.e_spec)
    (Zkml_compiler.Layout_spec.to_string e2.Serve.e_spec);
  (* a proof made with disk-loaded keys verifies against original keys *)
  let w = witness_for 21L in
  let proof =
    Proto.prove kzg_params e2.Serve.e_keys ~instance:w.Pipe.w_instance
      ~advice:(fun _ -> Array.map Array.copy w.Pipe.w_advice)
      ~rng:(Zkml_util.Rng.create 21L)
  in
  Alcotest.(check bool) "disk-loaded keys prove" true
    (Proto.verify kzg_params e1.Serve.e_keys ~instance:w.Pipe.w_instance proof)

let cache_file () =
  let m = Lazy.force mnist in
  Filename.concat cache_dir
    (Serve.cache_key ~cfg:m.Zoo.cfg m.Zoo.graph ^ ".zka")

let overwrite path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let test_cache_corruption_is_typed () =
  let m = Lazy.force mnist in
  ignore (Lazy.force entry);
  let path = cache_file () in
  Alcotest.(check bool) "cache file exists" true (Sys.file_exists path);
  let original =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let expect_corrupt what text =
    overwrite path text;
    Serve.reset_memory ();
    let _, status = Serve.prepare ~cfg:m.Zoo.cfg kzg_params m.Zoo.graph in
    match status with
    | Art.Corrupt _ -> ()
    | s ->
        Alcotest.failf "%s: expected Corrupt, got %s" what (Art.status_string s)
  in
  (* flip a payload byte: digest mismatch *)
  let flipped = Bytes.of_string original in
  let pos = Bytes.length flipped - 100 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 1));
  expect_corrupt "bit flip" (Bytes.to_string flipped);
  (* truncations at every interesting boundary *)
  expect_corrupt "empty file" "";
  expect_corrupt "header only" (Art.cache_version ^ "\n");
  (* an entry of the previous layout is never unmarshalled: its payload
     would read as garbage that passes the digest check *)
  let nl = String.index original '\n' in
  expect_corrupt "stale version"
    ("zkml-artifact v6" ^ String.sub original nl (String.length original - nl));
  expect_corrupt "half file" (String.sub original 0 (String.length original / 2));
  expect_corrupt "one byte short"
    (String.sub original 0 (String.length original - 1));
  (* trailing garbage *)
  expect_corrupt "trailing bytes" (original ^ "x");
  (* wrong backend: rewrite the header's backend line *)
  let needle = "backend " ^ Kzg.name in
  let nlen = String.length needle in
  let rec find i =
    if i + nlen > String.length original then None
    else if String.sub original i nlen = needle then Some i
    else find (i + 1)
  in
  (match find 0 with
  | Some i ->
      let swapped =
        String.sub original 0 i
        ^ "backend " ^ Ipa.name
        ^ String.sub original (i + nlen) (String.length original - i - nlen)
      in
      expect_corrupt "wrong backend" swapped
  | None -> Alcotest.fail "header has no backend line")

let test_load_entry_total () =
  (* load_entry distinguishes absent (None) from damaged (Some Error) *)
  ignore (Lazy.force entry);
  Alcotest.(check bool) "absent entry is None" true
    (Serve.load_entry "0000000000000000" = None);
  let path = cache_file () in
  overwrite path "not a cache entry at all";
  match Serve.load_entry (Filename.chop_suffix (Filename.basename path) ".zka") with
  | Some (Error e) ->
      (* any typed code is fine; the point is no exception escapes *)
      Alcotest.(check bool) "typed error has a message" true
        (String.length (Err.to_string e) > 0)
  | Some (Ok _) -> Alcotest.fail "garbage parsed as a cache entry"
  | None -> Alcotest.fail "existing file reported as absent"

(* ------------------------------------------------------------------ *)
(* backend dispatch: [select] hands back each backend's own instance,
   and that instance is the process-wide one (same calibration cache),
   not a second application of the stateful functors *)

let test_select () =
  let module B = Zkml_serve.Backends in
  List.iter
    (fun b ->
      let name = B.backend_name b in
      let (module X) = B.select b in
      Alcotest.(check bool) (name ^ ": tag") true (X.backend = b);
      Alcotest.(check string) (name ^ ": scheme") name X.Scheme.name;
      Alcotest.(check (option string)) (name ^ ": name round-trips")
        (Some name) (Option.map B.backend_name (B.backend_of_string name));
      let shared =
        match b with
        | B.Kzg -> B.Pipe_kzg.times_cache
        | B.Ipa -> B.Pipe_ipa.times_cache
      in
      Alcotest.(check bool) (name ^ ": shared pipeline instance") true
        (X.Pipe.times_cache == shared))
    B.all

let () =
  let restore_cache_after f () =
    (* tests above deliberately destroy the disk entry; rebuild state
       for whoever runs next *)
    Fun.protect ~finally:Serve.reset_memory f
  in
  Alcotest.run "serve"
    [
      ( "batch",
        [
          Alcotest.test_case "prove_many_singleton" `Quick
            test_prove_many_singleton;
          Alcotest.test_case "bytes_stable_across_jobs" `Quick
            test_batch_bytes_stable_across_jobs;
          Alcotest.test_case "verify_many_mixed" `Quick
            test_verify_many_mixed_batches;
          Alcotest.test_case "final_check_counter_kzg" `Quick
            test_batched_final_check_kzg;
          Alcotest.test_case "final_check_counter_ipa" `Quick
            test_batched_final_check_ipa;
        ] );
      ( "cache",
        [
          Alcotest.test_case "status_progression" `Quick
            (restore_cache_after test_cache_status_progression);
          Alcotest.test_case "corruption_is_typed" `Quick
            (restore_cache_after test_cache_corruption_is_typed);
          Alcotest.test_case "load_entry_total" `Quick
            (restore_cache_after test_load_entry_total);
        ] );
      ("dispatch", [ Alcotest.test_case "select" `Quick test_select ]);
    ]
