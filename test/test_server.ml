(* Daemon tests: byte-identity with the one-shot CLI pipeline,
   exactly-once verdict accounting for proofs rejected over the wire,
   admission-control backpressure on the bounded engine, and a clean
   wire-level shutdown.

   The socket tests run one in-process daemon on a unix socket in a
   hermetic temp dir; the backpressure test drives the Engine directly
   with the [job_hook] seam so a worker can be held mid-job. *)

module Zoo = Zkml_models.Zoo
module Err = Zkml_util.Err
module Metrics = Zkml_obs.Metrics
module B = Zkml_serve.Backends
module PF = Zkml_serve.Proof_file
module SPF = Zkml_serve.Seg_proof
module Wire = Zkml_serve.Wire
module Server = Zkml_serve.Server

let tmp_dir =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "zkml-test-server-%d" (Unix.getpid ()))

let () =
  (try Unix.mkdir tmp_dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.putenv "ZKML_CACHE_DIR" tmp_dir

let mnist = lazy (Zoo.mnist ())

(* ------------------------------------------------------------------ *)
(* one in-process daemon shared by the socket tests *)

let addr = Server.Unix_sock (Filename.concat tmp_dir "daemon.sock")

let server_thread =
  lazy
    (let config =
       { Server.workers = 2; queue_capacity = 8; warm = []; job_hook = None }
     in
     Thread.create (fun () -> Server.run ~config addr) ())

let connect () =
  ignore (Lazy.force server_thread);
  let rec go tries =
    match Server.connect addr with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
        Thread.delay 0.05;
        go (tries - 1)
  in
  go 200

let roundtrip req =
  let fd = connect () in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      match Wire.roundtrip fd req with
      | Ok resp -> resp
      | Error e -> Alcotest.failf "roundtrip: %s" (Err.to_string e))

(* ------------------------------------------------------------------ *)
(* byte-identity: the daemon's proof text equals the CLI pipeline's *)

let expect_proof = function
  | Wire.Proofs [ text ] -> text
  | Wire.Proofs l -> Alcotest.failf "expected 1 proof, got %d" (List.length l)
  | Wire.Verdict { code; detail } ->
      Alcotest.failf "prove answered verdict %d: %s" code detail
  | _ -> Alcotest.fail "prove answered a non-proof response"

let daemon_prove_text backend seed =
  expect_proof
    (roundtrip
       (Wire.Prove
          { tenant = "test"; backend; model = "mnist";
            seeds = [ Int64.of_int seed ] }))

let test_byte_identity () =
  let m = Lazy.force mnist in
  List.iter
    (fun backend ->
      let name = B.backend_name backend in
      let reference, _, _ = PF.prove m backend 1234 in
      (* serve the same request under both worker-pool widths: proof
         bytes must not depend on how the proving fan-out is scheduled *)
      Zkml_util.Pool.set_jobs 1;
      let seq = daemon_prove_text backend 1234 in
      Zkml_util.Pool.set_jobs 4;
      let par = daemon_prove_text backend 1234 in
      Zkml_util.Pool.set_jobs 1;
      Alcotest.(check string)
        (Printf.sprintf "%s: daemon = CLI pipeline (jobs 1)" name)
        reference seq;
      Alcotest.(check string)
        (Printf.sprintf "%s: daemon = CLI pipeline (jobs 4)" name)
        reference par)
    B.all

(* ------------------------------------------------------------------ *)
(* soundness over the wire: a tampered proof is rejected, and the
   verifier's verdict counter moves exactly once *)

let rejected_count () =
  Metrics.counter_value
    ~labels:[ ("verdict", "rejected") ]
    (Metrics.snapshot ()) "zkml_verify_verdicts_total"

let expect_verdict what want proof =
  match roundtrip (Wire.Verify { tenant = "test"; model = "mnist"; proof }) with
  | Wire.Verdict { code; _ } when code = want -> ()
  | Wire.Verdict { code; detail } ->
      Alcotest.failf "%s answered %d (want %d): %s" what code want detail
  | _ -> Alcotest.fail "verify answered a non-verdict response"

let test_tampered_proof_rejected_once () =
  List.iter
    (fun backend ->
      let name = B.backend_name backend in
      let text = daemon_prove_text backend 77 in
      (* an honest proof round-trips to verdict 0 first *)
      expect_verdict (name ^ " honest proof") 0 text;
      (* claim a different public instance than the proof commits to *)
      let tampered =
        match PF.of_string text with
        | Error e -> Alcotest.failf "reparse: %s" (Err.to_string e)
        | Ok pf ->
            pf.PF.pf_instance.(0) <- pf.PF.pf_instance.(0) + 1;
            PF.render pf
      in
      let before = rejected_count () in
      expect_verdict (name ^ " tampered proof") 1 tampered;
      let after = rejected_count () in
      Alcotest.(check int)
        (name ^ ": zkml_verify_verdicts_total{verdict=rejected} moved \
                  exactly once")
        1
        (int_of_float (after -. before)))
    B.all

(* split-and-aggregate over the wire under IPA: the daemon's segmented
   proof equals [Seg_proof.prove]'s, verifies, and a seam tamper is
   rejected *)
let test_prove_seg_ipa () =
  let m = Lazy.force mnist in
  let reference = (SPF.prove m B.Ipa 1234 ~segments:3).SPF.p_text in
  let text =
    expect_proof
      (roundtrip
         (Wire.Prove_seg
            { tenant = "test"; backend = B.Ipa; model = "mnist"; segments = 3;
              seeds = [ 1234L ] }))
  in
  Alcotest.(check string) "daemon = Seg_proof.prove (ipa)" reference text;
  expect_verdict "honest segmented ipa proof" 0 text;
  match SPF.of_string text with
  | Error e -> Alcotest.failf "reparse: %s" (Err.to_string e)
  | Ok sp ->
      Alcotest.(check bool) "ipa header" true (sp.SPF.sp_backend = B.Ipa);
      Alcotest.(check bool) "has seams" true (Array.length sp.SPF.sp_seams > 0);
      let d = Bytes.of_string sp.SPF.sp_seams.(0) in
      Bytes.set d 0 (Char.chr (Char.code (Bytes.get d 0) lxor 1));
      sp.SPF.sp_seams.(0) <- Bytes.to_string d;
      expect_verdict "seam-tampered segmented ipa proof" 1 (SPF.render sp)

(* ------------------------------------------------------------------ *)
(* malformed frames: answered with verdict 2, connection policy as
   documented (payload error keeps the connection, framing error drops) *)

let read_response fd =
  match Wire.read_frame fd with
  | Wire.Frame (kind, payload) -> Wire.response_of_payload kind payload
  | Wire.Eof -> Error (Err.make Err.Truncated "eof")
  | Wire.Fail e -> Error e

let test_malformed_keeps_connection () =
  let fd = connect () in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      (* a well-delimited frame whose payload is garbage *)
      Wire.write_all fd (Wire.encode_frame ~kind:0x02 "garbage payload");
      (match read_response fd with
      | Ok (Wire.Verdict { code = 2; _ }) -> ()
      | Ok _ -> Alcotest.fail "garbage payload must answer verdict 2"
      | Error e -> Alcotest.failf "read: %s" (Err.to_string e));
      (* the same connection still serves requests *)
      Wire.send_request fd Wire.Ping;
      match read_response fd with
      | Ok Wire.Pong -> ()
      | Ok _ -> Alcotest.fail "expected Pong after malformed payload"
      | Error e -> Alcotest.failf "read: %s" (Err.to_string e))

let test_bad_framing_drops_connection () =
  let fd = connect () in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      Wire.write_all fd "XKW1\x01\x00\x00\x00\x00";
      (match read_response fd with
      | Ok (Wire.Verdict { code = 2; _ }) -> ()
      | Ok _ -> Alcotest.fail "bad magic must answer verdict 2"
      | Error e -> Alcotest.failf "read: %s" (Err.to_string e));
      (* framing is unrecoverable: the daemon closes its end *)
      match Wire.read_frame fd with
      | Wire.Eof -> ()
      | Wire.Frame _ -> Alcotest.fail "connection must close after bad framing"
      | Wire.Fail _ -> ())

(* ------------------------------------------------------------------ *)
(* backpressure: capacity 2 + a held worker => the third submit is
   answered Overloaded immediately and the rejection counter moves *)

let rejected_total tenant =
  Metrics.counter_value
    ~labels:[ ("tenant", tenant) ]
    (Metrics.snapshot ()) "zkml_server_rejected_total"

let test_backpressure () =
  let gate = Mutex.create () in
  Mutex.lock gate;
  let config =
    {
      Server.workers = 1;
      queue_capacity = 2;
      warm = [];
      job_hook =
        Some
          (fun () ->
            (* park the worker until the test releases the gate *)
            Mutex.lock gate;
            Mutex.unlock gate);
    }
  in
  let engine = Server.Engine.create config in
  let t1 =
    match Server.Engine.submit engine ~tenant:"acme" Wire.Ping with
    | `Ticket tk -> tk
    | _ -> Alcotest.fail "first submit must be admitted"
  in
  let t2 =
    match Server.Engine.submit engine ~tenant:"acme" Wire.Ping with
    | `Ticket tk -> tk
    | _ -> Alcotest.fail "second submit must be admitted"
  in
  let before = rejected_total "acme" in
  (match Server.Engine.submit engine ~tenant:"acme" Wire.Ping with
  | `Overloaded -> ()
  | `Ticket _ -> Alcotest.fail "third submit over capacity must be rejected"
  | `Stopping -> Alcotest.fail "engine is not stopping");
  Alcotest.(check int) "zkml_server_rejected_total{tenant=acme} moved once" 1
    (int_of_float (rejected_total "acme" -. before));
  (* release the worker: both admitted jobs complete and answer *)
  Mutex.unlock gate;
  (match Server.Engine.await t1 with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "first ticket must answer Pong");
  (match Server.Engine.await t2 with
  | Wire.Pong -> ()
  | _ -> Alcotest.fail "second ticket must answer Pong");
  Server.Engine.shutdown engine;
  match Server.Engine.submit engine ~tenant:"acme" Wire.Ping with
  | `Stopping -> ()
  | _ -> Alcotest.fail "submit after shutdown must answer Stopping"

(* ------------------------------------------------------------------ *)
(* shutdown over the wire: Stopping comes back and the daemon thread
   actually exits (runs last — it takes the shared daemon down) *)

let test_shutdown () =
  (match roundtrip Wire.Shutdown with
  | Wire.Stopping -> ()
  | _ -> Alcotest.fail "Shutdown must answer Stopping");
  Thread.join (Lazy.force server_thread);
  match addr with
  | Server.Unix_sock path ->
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)
  | Server.Tcp _ -> ()

let () =
  Alcotest.run "server"
    [
      ( "engine",
        [ Alcotest.test_case "backpressure" `Quick test_backpressure ] );
      ( "daemon",
        [
          Alcotest.test_case "byte_identity" `Quick test_byte_identity;
          Alcotest.test_case "tampered_rejected_once" `Quick
            test_tampered_proof_rejected_once;
          Alcotest.test_case "prove_seg_ipa" `Quick test_prove_seg_ipa;
          Alcotest.test_case "malformed_keeps_connection" `Quick
            test_malformed_keeps_connection;
          Alcotest.test_case "bad_framing_drops_connection" `Quick
            test_bad_framing_drops_connection;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
        ] );
    ]
