(* Regression suite for the untrusted-input surface: typed parse errors
   for model files and proof bytes, the hardening satellites (odd pad
   lists, non-finite quantization, canonical integers), a qcheck
   round-trip over randomized graphs, and short fixed-seed runs of the
   deterministic fuzz engine (the long run is `make fuzz`). *)

module T = Zkml_tensor.Tensor
module Fx = Zkml_fixed.Fixed
module G = Zkml_nn.Graph
module S = Zkml_nn.Serialize
module Err = Zkml_util.Err
module Fuzz = Zkml_util.Fuzz
module Zoo = Zkml_models.Zoo
module Opt = Zkml_compiler.Optimizer
module Sim61 = Zkml_ec.Simulated.Make (Zkml_ff.Fp61)
module Kzg = Zkml_commit.Kzg.Make (Sim61)
module Pipe = Zkml_compiler.Pipeline.Make (Kzg)

let kzg_params = Kzg.setup ~max_size:(1 lsl 13) ~seed:"fuzz-inputs"

(* the segmented-proof corpus below proves through the artifact cache;
   keep it hermetic *)
let () =
  Unix.putenv "ZKML_CACHE_DIR"
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "zkml-test-fuzz-inputs-%d" (Unix.getpid ())))

let expect_code name code = function
  | Ok _ -> Alcotest.failf "%s: parsed fine, expected %s" name (Err.code_name code)
  | Error (e : Err.t) ->
      Alcotest.(check string) name (Err.code_name code) (Err.code_name e.Err.code)

let expect_error name = function
  | Ok _ -> Alcotest.failf "%s: parsed fine, expected an error" name
  | Error (_ : Err.t) -> ()

(* ------------------------------------------------------------------ *)
(* Err primitives *)

let test_err_fields () =
  let chk name ok s =
    match Err.int_field ~what:"x" s with
    | Ok _ when ok -> ()
    | Error _ when not ok -> ()
    | Ok v -> Alcotest.failf "%s: %S accepted as %d" name s v
    | Error e -> Alcotest.failf "%s: %S rejected: %s" name s (Err.to_string e)
  in
  chk "plain" true "42";
  chk "zero" true "0";
  chk "negative" true "-17";
  (* the permissive int_of_string grammar re-encodes equal values as
     different bytes; all of it must be refused *)
  chk "leading zeros" false "007";
  chk "negative zero" false "-0";
  chk "plus sign" false "+1";
  chk "hex" false "0x10";
  chk "underscores" false "1_000";
  chk "empty" false "";
  chk "trailing junk" false "12x";
  expect_code "overflow" Err.Bad_field
    (Err.int_field ~what:"x" "99999999999999999999999999");
  expect_code "bound" Err.Out_of_range
    (Err.bounded_int_field ~what:"x" ~min:1 ~max:8 "9");
  expect_code "nan float" Err.Out_of_range
    (Err.finite_float_field ~what:"w" "nan");
  expect_code "inf float" Err.Out_of_range
    (Err.finite_float_field ~what:"w" "inf")

let test_err_reader () =
  let r = Err.Reader.of_string "abcdef" in
  (match Err.Reader.take r ~what:"p" 4 with
  | Ok s -> Alcotest.(check string) "take" "abcd" s
  | Error e -> Alcotest.failf "take: %s" (Err.to_string e));
  expect_code "short take" Err.Truncated (Err.Reader.take r ~what:"p" 3);
  expect_code "trailing" Err.Trailing_data (Err.Reader.expect_end r ~what:"p");
  (match Err.Reader.take r ~what:"p" 2 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "tail take: %s" (Err.to_string e));
  match Err.Reader.expect_end r ~what:"p" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "end: %s" (Err.to_string e)

(* ------------------------------------------------------------------ *)
(* Fixed-point hardening *)

let test_fixed_nonfinite () =
  let cfg = Fx.default in
  Alcotest.(check int)
    "+inf saturates" (Fx.table_max cfg)
    (Fx.quantize cfg infinity);
  Alcotest.(check int)
    "-inf saturates" (Fx.table_min cfg)
    (Fx.quantize cfg neg_infinity);
  (match Fx.quantize cfg nan with
  | exception Fx.Nan_input _ -> ()
  | v -> Alcotest.failf "nan quantized to %d" v);
  (match Fx.apply_real cfg (fun _ -> nan) 0 with
  | exception Fx.Nan_input _ -> ()
  | v -> Alcotest.failf "nan table image %d" v);
  Alcotest.(check int)
    "inf table image saturates" (Fx.table_max cfg)
    (Fx.apply_real cfg (fun _ -> infinity) 0)

(* ------------------------------------------------------------------ *)
(* Model-format regressions *)

let model lines = "zkml-model v1 m\n" ^ String.concat "\n" lines ^ "\n"

let test_model_regressions () =
  let base = S.to_string (Zoo.mnist ()).Zoo.graph in
  (match S.of_string base with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "mnist text: %s" (Err.to_string e));
  expect_code "bad version" Err.Bad_header (S.of_string "zkml-model v2 m\n");
  expect_code "no header" Err.Bad_header (S.of_string "hello\n");
  expect_code "missing outputs" Err.Missing_field
    (S.of_string (model [ "node 0 in= input shape=2" ]));
  expect_code "duplicate outputs" Err.Duplicate_field
    (S.of_string (model [ "node 0 in= input shape=2"; "outputs 0"; "outputs 0" ]));
  expect_code "output out of range" Err.Out_of_range
    (S.of_string (model [ "node 0 in= input shape=2"; "outputs 1" ]));
  (* a duplicated or reordered node line shows up as an id clash *)
  expect_code "id out of sequence" Err.Bad_field
    (S.of_string
       (model
          [ "node 0 in= input shape=2"; "node 0 in= input shape=2";
            "outputs 0" ]));
  expect_code "unknown op" Err.Unknown_variant
    (S.of_string (model [ "node 0 in= warp factor=9"; "outputs 0" ]));
  (* satellite: odd-length pad list must be an error, not a silent drop *)
  expect_code "odd pads" Err.Bad_field
    (S.of_string
       (model
          [ "node 0 in= input shape=2,2"; "node 1 in=0 pad pads=1,2,3";
            "outputs 1" ]));
  expect_code "nan weight" Err.Out_of_range
    (S.of_string (model [ "node 0 in= weight shape=1 data=nan"; "outputs 0" ]));
  expect_code "weight count mismatch" Err.Bad_field
    (S.of_string
       (model [ "node 0 in= weight shape=3 data=0x1p0 0x1p0"; "outputs 0" ]));
  expect_code "zero stride" Err.Out_of_range
    (S.of_string
       (model
          [ "node 0 in= input shape=1,4,4,1";
            "node 1 in=0 avg_pool2d size=2 stride=0"; "outputs 1" ]));
  expect_code "huge shape" Err.Out_of_range
    (S.of_string
       (model [ "node 0 in= input shape=99999999,99999999"; "outputs 0" ]));
  (* truncation anywhere in the text is a typed error *)
  for cut = 0 to String.length base - 1 do
    if cut mod 37 = 0 then
      expect_error
        (Printf.sprintf "truncated model @%d" cut)
        (S.of_string (String.sub base 0 cut))
  done

(* qcheck: random graphs round-trip through the textual format *)
let random_graph seed =
  let rng = Zkml_util.Rng.create seed in
  let g = G.create (Printf.sprintf "q%Ld" (Int64.logand seed 0xffffL)) in
  let width = ref (2 + Zkml_util.Rng.int rng 6) in
  let last = ref (G.input g [| 1; !width |]) in
  let steps = 1 + Zkml_util.Rng.int rng 6 in
  for _ = 1 to steps do
    match Zkml_util.Rng.int rng 6 with
    | 0 -> last := G.relu g !last
    | 1 -> last := G.activation g Zkml_nn.Op.Sigmoid !last
    | 2 ->
        let w' = 1 + Zkml_util.Rng.int rng 5 in
        let wt = G.he_weight g rng [| !width; w' |] ~label:"w" in
        let b = G.zero_weight g [| w' |] ~label:"b" in
        last := G.fully_connected g !last wt b;
        width := w'
    | 3 -> last := G.add_ g !last !last
    | 4 -> last := G.neg g !last
    | _ -> last := G.softmax g !last
  done;
  G.mark_output g !last;
  g

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"random graphs round-trip"
    (QCheck.make
       (QCheck.Gen.map random_graph QCheck.Gen.int64)
       ~print:S.to_string)
    (fun g ->
      let text = S.to_string g in
      match S.of_string text with
      | Error e -> QCheck.Test.fail_reportf "no parse: %s" (Err.to_string e)
      | Ok g2 ->
          S.to_string g2 = text
          && G.num_nodes g2 = G.num_nodes g
          && G.outputs g2 = G.outputs g)

(* short fixed-seed fuzz of the model parser (mirrors `zkml fuzz`) *)
let test_fuzz_models () =
  let corpus =
    [ S.to_string (Zoo.mnist ()).Zoo.graph;
      S.to_string (Zoo.dlrm ()).Zoo.graph ]
  in
  let classify text =
    match S.of_string text with
    | Error e -> Fuzz.Malformed (Err.to_string e)
    | Ok g -> (
        let canonical = S.to_string g in
        match S.of_string canonical with
        | Ok g2 when S.to_string g2 = canonical -> Fuzz.Valid
        | _ -> Fuzz.Accepted)
  in
  let rng = Zkml_util.Rng.create 11L in
  let report = Fuzz.run ~text:true ~rng ~iters:400 ~corpus ~classify () in
  if not (Fuzz.clean report) then
    Alcotest.failf "model fuzz not clean:\n%s"
      (String.concat "\n" (Fuzz.report_lines ~label:"models" report));
  Alcotest.(check bool) "some malformed" true (report.Fuzz.malformed > 0)

(* ------------------------------------------------------------------ *)
(* Proof bytes: prove mnist once, then attack the byte string *)

let mnist_proof =
  lazy
    (let m = Zoo.mnist () in
     let inputs = Zoo.sample_inputs m in
     let r = Pipe.run ~cfg:m.Zoo.cfg ~params:kzg_params m.Zoo.graph inputs in
     assert r.Pipe.verified;
     let bytes = Pipe.Proto.proof_to_bytes r.Pipe.proof in
     let keys =
       Pipe.rebuild_keys kzg_params ~spec:r.Pipe.plan.Opt.spec
         ~ncols:r.Pipe.plan.Opt.ncols ~k:r.Pipe.plan.Opt.k ~cfg:m.Zoo.cfg
         m.Zoo.graph
     in
     (bytes, keys, r.Pipe.instance_ints))

let verdict bytes =
  let proof, keys, instance_ints = Lazy.force mnist_proof in
  ignore proof;
  Pipe.verify_verdict kzg_params keys ~instance_ints bytes

let test_proof_verdicts () =
  let bytes, _, _ = Lazy.force mnist_proof in
  (match verdict bytes with
  | Pipe.Proto.Accepted -> ()
  | v -> Alcotest.failf "valid proof: %s" (Pipe.Proto.verdict_string v));
  (* flipping a low bit of a field element keeps the encoding canonical:
     well-formed proof, false statement *)
  let tampered = Bytes.of_string bytes in
  Bytes.set tampered 100
    (Char.chr (Char.code (Bytes.get tampered 100) lxor 1));
  (match verdict (Bytes.to_string tampered) with
  | Pipe.Proto.Rejected -> ()
  | v -> Alcotest.failf "tampered proof: %s" (Pipe.Proto.verdict_string v));
  (* trailing garbage after a complete proof *)
  (match verdict (bytes ^ "\x00") with
  | Pipe.Proto.Malformed e ->
      Alcotest.(check string) "trailing code" "trailing_data"
        (Err.code_name e.Err.code)
  | v -> Alcotest.failf "trailing garbage: %s" (Pipe.Proto.verdict_string v));
  (* non-canonical field encoding *)
  let hi = Bytes.of_string bytes in
  Bytes.set hi 7 '\xff';
  match verdict (Bytes.to_string hi) with
  | Pipe.Proto.Malformed _ -> ()
  | v -> Alcotest.failf "non-canonical element: %s" (Pipe.Proto.verdict_string v)

(* the ISSUE's acceptance bar: every truncated prefix of a valid mnist
   proof is Malformed (Truncated), never an exception, never accepted *)
let test_proof_prefixes () =
  let bytes, _, _ = Lazy.force mnist_proof in
  let n = String.length bytes in
  for cut = 0 to n - 1 do
    match verdict (String.sub bytes 0 cut) with
    | Pipe.Proto.Malformed e when e.Err.code = Err.Truncated -> ()
    | v ->
        Alcotest.failf "prefix %d/%d: %s" cut n
          (Pipe.Proto.verdict_string v)
  done

(* short fixed-seed binary fuzz of the proof-byte parser + verifier *)
let test_fuzz_proof_bytes () =
  let bytes, _, _ = Lazy.force mnist_proof in
  let classify b =
    match verdict b with
    | Pipe.Proto.Accepted -> Fuzz.Accepted
    | Pipe.Proto.Rejected -> Fuzz.Rejected
    | Pipe.Proto.Malformed e -> Fuzz.Malformed (Err.to_string e)
  in
  let rng = Zkml_util.Rng.create 7L in
  let report = Fuzz.run ~rng ~iters:300 ~corpus:[ bytes ] ~classify () in
  if not (Fuzz.clean report) then
    Alcotest.failf "proof fuzz not clean:\n%s"
      (String.concat "\n" (Fuzz.report_lines ~label:"proof-bytes" report));
  Alcotest.(check bool) "some malformed" true (report.Fuzz.malformed > 0);
  Alcotest.(check bool) "some rejected" true (report.Fuzz.rejected > 0)

(* ------------------------------------------------------------------ *)
(* Wire frames: pinned finds from `zkml fuzz`'s wire corpus, plus a
   short fixed-seed binary fuzz of the frame decoder *)

module Wire = Zkml_serve.Wire
module B = Zkml_serve.Backends

let wire_corpus () =
  let proof = "zkml-proof v3\nmodel mnist\n" in
  List.map Wire.encode_request
    [ Wire.Ping;
      Wire.Prove
        { tenant = "fuzz"; backend = B.Kzg; model = "mnist"; seeds = [ 1L; 2L ] };
      Wire.Prove_seg
        { tenant = "fuzz"; backend = B.Kzg; model = "mnist"; segments = 4;
          seeds = [ 1L; 2L ] };
      Wire.Verify { tenant = "fuzz"; model = "mnist"; proof };
      Wire.Shutdown ]
  @ List.map Wire.encode_response
      [ Wire.Pong; Wire.Proofs [ proof ];
        Wire.Verdict { code = 2; detail = "malformed input" };
        Wire.Overloaded; Wire.Stopping ]

(* pinned mutants: each shape the daemon must classify as a typed error *)
let test_wire_pins () =
  let expect what code bytes = expect_code what code (Wire.decode_any bytes) in
  let ping = Wire.encode_request Wire.Ping in
  expect "empty input" Err.Truncated "";
  expect "truncated header" Err.Truncated (String.sub ping 0 5);
  expect "truncated payload" Err.Truncated "ZKW1\x01\x00\x00\x00\x08zk";
  expect "bad magic" Err.Bad_header ("zkw1" ^ String.sub ping 4 5);
  expect "over-cap length" Err.Out_of_range "ZKW1\x02\xff\xff\xff\xff";
  expect "length just over cap" Err.Out_of_range "ZKW1\x02\x01\x00\x00\x01";
  expect "trailing bytes" Err.Trailing_data (ping ^ "\x00");
  expect "duplicate header" Err.Trailing_data (ping ^ ping);
  expect "unknown request kind" Err.Unknown_variant
    (Wire.encode_frame ~kind:0x00 "");
  expect "unknown response kind" Err.Unknown_variant
    (Wire.encode_frame ~kind:0xff "");
  (* seed count 0: a Prove frame must carry 1..max_batch seeds *)
  expect "zero seeds" Err.Out_of_range
    (Wire.encode_frame ~kind:0x02 "\x00\x04fuzz\x00\x00\x05mnist\x00\x00");
  (* name length field over the cap *)
  expect "oversized tenant" Err.Out_of_range
    (Wire.encode_frame ~kind:0x02 "\xff\xfffuzz");
  (* Prove_seg: the segments byte must be in [1, 16]. Patch it in place
     in a valid frame — it sits just before the u16 seed count and the
     seeds. *)
  let seg_frame =
    Wire.encode_request
      (Wire.Prove_seg
         { tenant = "fuzz"; backend = B.Kzg; model = "mnist"; segments = 4;
           seeds = [ 1L; 2L ] })
  in
  let with_segments v =
    let b = Bytes.of_string seg_frame in
    Bytes.set b (Bytes.length b - (2 + (8 * 2)) - 1) (Char.chr v);
    Bytes.to_string b
  in
  (match Wire.decode_any (with_segments 4) with
  | Ok (`Req (Wire.Prove_seg { segments = 4; _ })) -> ()
  | _ -> Alcotest.fail "segments-byte patch does not hit the segments field");
  expect "zero segments" Err.Out_of_range (with_segments 0);
  expect "17 segments" Err.Out_of_range (with_segments 17)

(* short fixed-seed fuzz: decode must be total, and anything accepted
   must re-encode to exactly the input bytes (canonical encoding) *)
let test_fuzz_wire () =
  let classify bytes =
    match Wire.decode_any bytes with
    | Error e -> Fuzz.Malformed (Err.to_string e)
    | Ok v ->
        if String.equal (Wire.encode_any v) bytes then Fuzz.Valid
        else Fuzz.Accepted
  in
  let rng = Zkml_util.Rng.create 13L in
  let report =
    Fuzz.run ~rng ~iters:400 ~corpus:(wire_corpus ()) ~classify ()
  in
  if not (Fuzz.clean report) then
    Alcotest.failf "wire fuzz not clean:\n%s"
      (String.concat "\n" (Fuzz.report_lines ~label:"wire" report));
  Alcotest.(check bool) "some malformed" true (report.Fuzz.malformed > 0)

(* ------------------------------------------------------------------ *)
(* Segmented proof files (PR 10): pinned finds from `zkml fuzz`'s
   fifth corpus, plus a short fixed-seed fuzz of the strict parser +
   aggregate verdict. The format is covered by a total-decode oracle
   (every mutant is a typed error, a rejected-but-well-formed file, or
   re-encodes byte-identically) just like model text and wire frames. *)

module SPF = Zkml_serve.Seg_proof
module PF = Zkml_serve.Proof_file

let seg_mnist = lazy (Zoo.mnist ())
let seg_honest = lazy (SPF.prove (Lazy.force seg_mnist) B.Kzg 1234 ~segments:3)
let seg_kzg_keys : (string, _) Hashtbl.t = Hashtbl.create 8
let seg_ipa_keys : (string, _) Hashtbl.t = Hashtbl.create 8

let seg_verdict sp =
  SPF.verdict ~kzg_keys:seg_kzg_keys ~ipa_keys:seg_ipa_keys
    (Lazy.force seg_mnist) sp

(* patch one whole line of the canonical text *)
let patch_line text ~from ~to_ =
  let lines = String.split_on_char '\n' text in
  let hit = ref false in
  let lines =
    List.filter_map
      (fun l ->
        if l = from then begin
          hit := true;
          match to_ with None -> None | Some l' -> Some l'
        end
        else Some l)
      lines
  in
  if not !hit then Alcotest.failf "patch_line: no line %S" from;
  String.concat "\n" lines

let test_seg_pins () =
  let text = (Lazy.force seg_honest).SPF.p_text in
  (* honest file: parses, canonical, accepted *)
  let sp =
    match SPF.of_string text with
    | Ok sp -> sp
    | Error e -> Alcotest.failf "honest parse: %s" (Err.to_string e)
  in
  Alcotest.(check string) "canonical" text (SPF.render sp);
  (match seg_verdict sp with
  | `Accepted -> ()
  | `Rejected -> Alcotest.fail "honest segmented proof rejected"
  | `Malformed e ->
      Alcotest.failf "honest segmented proof malformed: %s" (Err.to_string e));
  (* pinned find: every truncated prefix is a typed parse error — the
     parser demands a trailing newline and a complete line script, so
     no strict prefix can decode *)
  for cut = 0 to String.length text - 1 do
    if cut mod 37 = 0 then
      expect_error
        (Printf.sprintf "truncated seg proof @%d" cut)
        (SPF.of_string (String.sub text 0 cut))
  done;
  (* pinned find: dropping the last seam line and decrementing the
     declared count still parses (indices stay sequential), but the
     verdict is malformed — the seam count is pinned by the plan, so a
     prover cannot simply omit a binding *)
  let nseams = Array.length sp.SPF.sp_seams in
  Alcotest.(check bool) "has seams" true (nseams > 0);
  let last_seam =
    Printf.sprintf "seam %d %s" (nseams - 1)
      (Zkml_util.Bytes_util.to_hex sp.SPF.sp_seams.(nseams - 1))
  in
  let dropped =
    patch_line
      (patch_line text ~from:last_seam ~to_:None)
      ~from:(Printf.sprintf "seams %d" nseams)
      ~to_:(Some (Printf.sprintf "seams %d" (nseams - 1)))
  in
  (match SPF.of_string dropped with
  | Error e -> Alcotest.failf "dropped seam should parse: %s" (Err.to_string e)
  | Ok sp' -> (
      match seg_verdict sp' with
      | `Malformed _ -> ()
      | `Accepted -> Alcotest.fail "dropped seam ACCEPTED"
      | `Rejected -> Alcotest.fail "dropped seam: expected malformed"));
  (* pinned find: an uppercase hex digit in a digest must be refused at
     parse time (canonical format is lowercase-only), not silently
     re-encoded differently *)
  let seam0 = Zkml_util.Bytes_util.to_hex sp.SPF.sp_seams.(0) in
  let upper = String.uppercase_ascii seam0 in
  if upper <> seam0 then
    expect_code "uppercase seam hex" Err.Invalid_encoding
      (SPF.of_string
         (patch_line text ~from:("seam 0 " ^ seam0)
            ~to_:(Some ("seam 0 " ^ upper))));
  (* pinned find: the monolithic format shares the decoder, so an
     uppercase proof line of an honest zkml-proof file is refused too,
     where it once parsed and re-rendered as a different text *)
  let pf_text, _, _ = PF.prove (Lazy.force seg_mnist) B.Kzg 1234 in
  let pf =
    match PF.of_string pf_text with
    | Ok pf -> pf
    | Error e -> Alcotest.failf "honest proof file: %s" (Err.to_string e)
  in
  Alcotest.(check string) "proof file canonical" pf_text (PF.render pf);
  let proof_hex = Zkml_util.Bytes_util.to_hex pf.PF.pf_proof in
  expect_code "uppercase proof hex" Err.Invalid_encoding
    (PF.of_string
       (patch_line pf_text ~from:("proof " ^ proof_hex)
          ~to_:(Some ("proof " ^ String.uppercase_ascii proof_hex))));
  (* a flipped digest nibble parses but is rejected by the seam check *)
  let flipped =
    let b = Bytes.of_string seam0 in
    Bytes.set b 0 (if Bytes.get b 0 = '0' then '1' else '0');
    Bytes.to_string b
  in
  (match
     SPF.of_string
       (patch_line text ~from:("seam 0 " ^ seam0)
          ~to_:(Some ("seam 0 " ^ flipped)))
   with
  | Error e -> Alcotest.failf "flipped digest should parse: %s" (Err.to_string e)
  | Ok sp' -> (
      match seg_verdict sp' with
      | `Rejected -> ()
      | `Accepted -> Alcotest.fail "flipped seam digest ACCEPTED"
      | `Malformed e ->
          Alcotest.failf "flipped seam digest: expected rejected, got %s"
            (Err.to_string e)));
  (* segment counts outside [1, max_segments] are refused at parse *)
  let nseg = Array.length sp.SPF.sp_groups in
  let with_count v =
    patch_line text
      ~from:(Printf.sprintf "segments %d" nseg)
      ~to_:(Some (Printf.sprintf "segments %d" v))
  in
  expect_code "zero segments" Err.Out_of_range (SPF.of_string (with_count 0));
  expect_code "over-cap segments" Err.Out_of_range
    (SPF.of_string (with_count 99))

let test_fuzz_seg_proofs () =
  let honest = (Lazy.force seg_honest).SPF.p_text in
  let classify text =
    match SPF.of_string text with
    | Error e -> Fuzz.Malformed (Err.to_string e)
    | Ok sp ->
        if SPF.render sp <> text then Fuzz.Accepted
          (* canonicity violation: decoded but re-encodes differently *)
        else (
          match seg_verdict sp with
          | `Accepted -> if text = honest then Fuzz.Valid else Fuzz.Accepted
          | `Rejected -> Fuzz.Rejected
          | `Malformed e -> Fuzz.Malformed (Err.to_string e))
  in
  let rng = Zkml_util.Rng.create 17L in
  let report =
    Fuzz.run ~text:true ~rng ~iters:150 ~corpus:[ honest ] ~classify ()
  in
  if not (Fuzz.clean report) then
    Alcotest.failf "segmented-proof fuzz not clean:\n%s"
      (String.concat "\n" (Fuzz.report_lines ~label:"segmented" report));
  Alcotest.(check bool) "some malformed" true (report.Fuzz.malformed > 0)

let () =
  Alcotest.run "fuzz_inputs"
    [ ( "err",
        [ Alcotest.test_case "typed fields" `Quick test_err_fields;
          Alcotest.test_case "reader" `Quick test_err_reader;
          Alcotest.test_case "fixed nonfinite" `Quick test_fixed_nonfinite
        ] );
      ( "models",
        [ Alcotest.test_case "regressions" `Quick test_model_regressions;
          QCheck_alcotest.to_alcotest ~long:false prop_roundtrip;
          Alcotest.test_case "fuzz" `Quick test_fuzz_models
        ] );
      ( "proofs",
        [ Alcotest.test_case "verdicts" `Quick test_proof_verdicts;
          Alcotest.test_case "all truncated prefixes" `Quick
            test_proof_prefixes;
          Alcotest.test_case "fuzz" `Quick test_fuzz_proof_bytes
        ] );
      ( "wire",
        [ Alcotest.test_case "pinned mutants" `Quick test_wire_pins;
          Alcotest.test_case "fuzz" `Quick test_fuzz_wire
        ] );
      ( "segmented",
        [ Alcotest.test_case "pinned mutants" `Quick test_seg_pins;
          Alcotest.test_case "fuzz" `Quick test_fuzz_seg_proofs
        ] )
    ]
