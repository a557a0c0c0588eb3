(* Wire-protocol unit tests: qcheck round-trip over the full request and
   response space, exhaustive truncated-prefix totality on concrete
   frames, and pinned classifications for the malformed shapes the
   daemon must answer (never die on): bad magic, over-cap length,
   unknown kind, trailing bytes, duplicated headers. *)

module Wire = Zkml_serve.Wire
module B = Zkml_serve.Backends
module Err = Zkml_util.Err

let code_name e = Err.code_name e.Err.code

(* ------------------------------------------------------------------ *)
(* generators *)

let gen_name =
  QCheck.Gen.(
    let* n = int_range 0 24 in
    string_size ~gen:(char_range 'a' 'z') (return n))

let gen_blob =
  QCheck.Gen.(
    let* n = int_range 0 200 in
    string_size ~gen:(char_range '\000' '\255') (return n))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        return Wire.Ping;
        return Wire.Shutdown;
        (let* tenant = gen_name in
         let* backend = oneofl [ B.Kzg; B.Ipa ] in
         let* model = gen_name in
         let* nseeds = int_range 1 Wire.max_batch in
         let* seeds = list_size (return nseeds) (map Int64.of_int int) in
         return (Wire.Prove { tenant; backend; model; seeds }));
        (let* tenant = gen_name in
         let* model = gen_name in
         let* proof = gen_blob in
         return (Wire.Verify { tenant; model; proof }));
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        return Wire.Pong;
        return Wire.Overloaded;
        return Wire.Stopping;
        (let* n = int_range 0 8 in
         let* texts = list_size (return n) gen_blob in
         return (Wire.Proofs texts));
        (let* code = int_range 0 2 in
         let* detail = gen_name in
         return (Wire.Verdict { code; detail }));
      ])

(* ------------------------------------------------------------------ *)
(* properties *)

let prop_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"decode_request (encode_request r) = r"
    (QCheck.make gen_request)
    (fun r ->
      match Wire.decode_request (Wire.encode_request r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "decode: %s" (Err.to_string e))

let prop_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"decode_response (encode_response r) = r"
    (QCheck.make gen_response)
    (fun r ->
      match Wire.decode_response (Wire.encode_response r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "decode: %s" (Err.to_string e))

(* The encoding is canonical: decoding any bytes that succeed must
   re-encode to exactly those bytes (the fuzz corpus's soundness
   invariant, checked here on the valid side). *)
let prop_canonical =
  QCheck.Test.make ~count:500 ~name:"encode_any (decode_any s) = s"
    (QCheck.make (QCheck.Gen.oneof
                    [ QCheck.Gen.map Wire.encode_request gen_request;
                      QCheck.Gen.map Wire.encode_response gen_response ]))
    (fun s ->
      match Wire.decode_any s with
      | Ok v -> String.equal (Wire.encode_any v) s
      | Error e -> QCheck.Test.fail_reportf "decode: %s" (Err.to_string e))

(* ------------------------------------------------------------------ *)
(* totality: every truncated prefix is a typed error, never an
   exception, and never an accept *)

let concrete_frames () =
  List.map Wire.encode_request
    [ Wire.Ping;
      Wire.Prove
        { tenant = "acme"; backend = B.Ipa; model = "mnist";
          seeds = [ 1L; -7L; Int64.max_int ] };
      Wire.Verify { tenant = "acme"; model = "dlrm"; proof = "\x00\xff\x01" };
      Wire.Shutdown ]
  @ List.map Wire.encode_response
      [ Wire.Pong; Wire.Proofs [ "zkml-proof v3\n"; "" ];
        Wire.Verdict { code = 1; detail = "proof rejected" };
        Wire.Overloaded; Wire.Stopping ]

let test_truncated_prefixes () =
  List.iter
    (fun frame ->
      for len = 0 to String.length frame - 1 do
        let prefix = String.sub frame 0 len in
        match Wire.decode_any prefix with
        | Ok _ ->
            Alcotest.failf "prefix %d/%d of a frame decoded Ok" len
              (String.length frame)
        | Error e ->
            (* every prefix cuts a fixed-width read or the payload *)
            Alcotest.(check string)
              (Printf.sprintf "prefix %d classified" len)
              "truncated" (code_name e)
        | exception exn ->
            Alcotest.failf "prefix %d/%d escaped: %s" len
              (String.length frame) (Printexc.to_string exn)
      done)
    (concrete_frames ())

let test_malformed_shapes () =
  let ping = Wire.encode_request Wire.Ping in
  let expect what want bytes =
    match Wire.decode_any bytes with
    | Ok _ -> Alcotest.failf "%s decoded Ok" what
    | Error e -> Alcotest.(check string) what want (code_name e)
  in
  (* corrupted magic *)
  expect "bad magic" "bad_header"
    ("XKW1" ^ String.sub ping 4 (String.length ping - 4));
  (* length far over the frame cap *)
  expect "oversized length" "out_of_range" "ZKW1\x01\x7f\xff\xff\xff";
  (* header claims more payload than present *)
  expect "short payload" "truncated" "ZKW1\x01\x00\x00\x00\x05ab";
  (* unknown request and response kinds *)
  expect "unknown request kind" "unknown_variant"
    (Wire.encode_frame ~kind:0x0f "");
  expect "unknown response kind" "unknown_variant"
    (Wire.encode_frame ~kind:0x7f "");
  (* a valid frame followed by junk: one message per decode *)
  expect "trailing byte" "trailing_data" (ping ^ "x");
  expect "duplicate header" "trailing_data" (ping ^ ping);
  (* payload longer than the fields it claims *)
  expect "trailing payload bytes" "trailing_data"
    (Wire.encode_frame ~kind:0x01 "junk");
  (* a Prove with a backend tag outside the closed universe *)
  (let buf = Buffer.create 32 in
   Buffer.add_string buf "\x00\x04acme";
   (* tenant *)
   Buffer.add_char buf '\x07';
   (* backend tag 7: not kzg(0) / ipa(1) *)
   Buffer.add_string buf "\x00\x05mnist";
   Buffer.add_string buf "\x00\x01";
   Buffer.add_string buf (String.make 8 '\x00');
   expect "bad backend tag" "unknown_variant"
     (Wire.encode_frame ~kind:0x02 (Buffer.contents buf)));
  (* zero seeds: the batch bounds are 1..max_batch *)
  (let buf = Buffer.create 16 in
   Buffer.add_string buf "\x00\x04acme";
   Buffer.add_char buf '\x00';
   Buffer.add_string buf "\x00\x05mnist";
   Buffer.add_string buf "\x00\x00";
   (* seed count 0 *)
   expect "zero seeds" "out_of_range"
     (Wire.encode_frame ~kind:0x02 (Buffer.contents buf)));
  (* a Verdict with a code outside 0..2 *)
  (let buf = Buffer.create 8 in
   Buffer.add_char buf '\x03';
   Buffer.add_string buf "\x00\x00\x00\x00";
   expect "verdict code 3" "out_of_range"
     (Wire.encode_frame ~kind:0x13 (Buffer.contents buf)))

(* The header parser alone must also be total over short inputs. *)
let test_header_totality () =
  for len = 0 to Wire.header_len - 1 do
    match Wire.parse_header (String.make len 'Z') with
    | Ok _ -> Alcotest.failf "header of %d bytes parsed" len
    | Error _ -> ()
  done

let () =
  Alcotest.run "wire"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_request_roundtrip;
          QCheck_alcotest.to_alcotest ~long:false prop_response_roundtrip;
          QCheck_alcotest.to_alcotest ~long:false prop_canonical;
        ] );
      ( "totality",
        [
          Alcotest.test_case "all truncated prefixes" `Quick
            test_truncated_prefixes;
          Alcotest.test_case "malformed shapes" `Quick test_malformed_shapes;
          Alcotest.test_case "header totality" `Quick test_header_totality;
        ] );
    ]
