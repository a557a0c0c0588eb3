(** The daemon's length-prefixed binary wire protocol.

    One frame per message:

    {v
      +-------+------+----------------+--------------------+
      | magic | kind |     length     |      payload       |
      | "ZKW1"| u8   | u32 big-endian | exactly length B   |
      +-------+------+----------------+--------------------+
    v}

    Payload encodings are canonical by construction — fixed-width
    big-endian integers, exact length-prefixed strings, a closed kind
    set, and a mandatory end-of-payload check — so for every accepted
    string [decode (encode m) = m] AND [encode (decode s) = s]. The
    fuzz harness leans on the second equation: any mutant that decodes
    but does not re-encode to itself is a soundness failure.

    Decoding is total: every malformed frame (truncated, oversized
    length, bad magic, unknown kind, trailing bytes, out-of-range
    field) comes back as a typed {!Zkml_util.Err.t} with a byte offset,
    never as an exception. The daemon answers such frames with verdict
    2, reusing the CLI exit contract. *)

module Err = Zkml_util.Err

let magic = "ZKW1"

(* Caps: a frame an attacker can make us buffer, a name an attacker can
   make us label metrics with, a batch an attacker can make us prove.
   All sit far above real traffic (a vgg16 proof file is ~100 KiB). *)
let max_frame = 1 lsl 24
let max_name = 64
let max_batch = 64

type request =
  | Ping
  | Prove of {
      tenant : string;
      backend : Backends.backend;
      model : string;
      seeds : int64 list;  (** one proof per input-sampling seed *)
    }
  | Prove_seg of {
      tenant : string;
      backend : Backends.backend;
      model : string;
      segments : int;  (** requested segment count, 1..16 *)
      seeds : int64 list;
    }  (** split-and-aggregate prove; answers `zkml-proof-seg v3` texts *)
  | Verify of { tenant : string; model : string; proof : string }
      (** [proof] is a full `zkml-proof v3` or `zkml-proof-seg v3` file
          text; the daemon dispatches on the first line *)
  | Shutdown

type response =
  | Pong
  | Proofs of string list  (** proof-file texts, one per requested seed *)
  | Verdict of { code : int; detail : string }
      (** the CLI exit contract over the wire: 0 accepted, 1 rejected,
          2 malformed (with a one-line diagnostic) *)
  | Overloaded  (** admission control: queue full, retry later *)
  | Stopping  (** daemon is shutting down *)

(* Frame kinds. Requests and responses share one tag space so a single
   total decoder serves the fuzz harness. *)
let k_ping = 0x01
let k_prove = 0x02
let k_verify = 0x03
let k_shutdown = 0x04
let k_prove_seg = 0x05
let k_pong = 0x11
let k_proofs = 0x12
let k_verdict = 0x13
let k_overloaded = 0x14
let k_stopping = 0x15

(* ------------------------------------------------------------------ *)
(* primitive codecs (big-endian, fixed width) *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_u16 buf v =
  put_u8 buf (v lsr 8);
  put_u8 buf v

let put_u32 buf v =
  put_u16 buf (v lsr 16);
  put_u16 buf v

let put_i64 buf v =
  for i = 7 downto 0 do
    put_u8 buf (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

(* short strings (names) carry a u16 length, long ones (proof texts) a
   u32 length; both lengths are exact, so the encoding is canonical *)
let put_str16 buf s =
  put_u16 buf (String.length s);
  Buffer.add_string buf s

let put_str32 buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

open Err

let get_u8 r ~what = Reader.decode r ~what 1 (fun s -> Char.code s.[0])

let get_u16 r ~what =
  Reader.decode r ~what 2 (fun s -> (Char.code s.[0] lsl 8) lor Char.code s.[1])

let get_u32 r ~what =
  let* hi = get_u16 r ~what in
  let* lo = get_u16 r ~what in
  Ok ((hi lsl 16) lor lo)

let get_i64 r ~what =
  Reader.decode r ~what 8 (fun s ->
      let v = ref 0L in
      String.iter
        (fun c ->
          v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c)))
        s;
      !v)

let get_name r ~what =
  let start = Reader.pos r in
  let* n = get_u16 r ~what in
  if n > max_name then
    failf ~offset:(Byte start) Out_of_range "%s: %d bytes exceeds cap %d" what
      n max_name
  else Reader.take r ~what n

let get_blob r ~what =
  let start = Reader.pos r in
  let* n = get_u32 r ~what in
  if n > max_frame then
    failf ~offset:(Byte start) Out_of_range "%s: %d bytes exceeds cap %d" what
      n max_frame
  else Reader.take r ~what n

(* ------------------------------------------------------------------ *)
(* frames *)

let header_len = String.length magic + 1 + 4

let encode_frame ~kind payload =
  let buf = Buffer.create (header_len + String.length payload) in
  Buffer.add_string buf magic;
  put_u8 buf kind;
  put_u32 buf (String.length payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* Parse just the 9 header bytes to (kind, payload length). Shared by
   the pure decoder and the socket reader, so a hostile length field is
   rejected before any payload is buffered. *)
let parse_header s =
  let r = Reader.of_string s in
  let* m = Reader.take r ~what:"magic" (String.length magic) in
  let* () =
    if m = magic then Ok ()
    else fail ~offset:(Byte 0) Bad_header "bad magic (expected \"ZKW1\")"
  in
  let* kind = get_u8 r ~what:"kind" in
  let* len = get_u32 r ~what:"length" in
  let* () =
    if len > max_frame then
      failf ~offset:(Byte (String.length magic + 1)) Out_of_range
        "frame length %d exceeds cap %d" len max_frame
    else Ok ()
  in
  Ok (kind, len)

(** Split one complete frame into (kind, payload). Strict: the string
    must hold exactly the declared frame, no more, no less. *)
let decode_frame s =
  in_context "wire"
  @@
  if String.length s < header_len then
    failf ~offset:(Byte (String.length s)) Truncated
      "frame header needs %d bytes, got %d" header_len (String.length s)
  else
    let* kind, len = parse_header (String.sub s 0 header_len) in
    let body = String.length s - header_len in
    if body < len then
      failf ~offset:(Byte (String.length s)) Truncated
        "payload holds %d of %d bytes" body len
    else if body > len then
      failf
        ~offset:(Byte (header_len + len))
        Trailing_data "%d bytes after frame" (body - len)
    else Ok (kind, String.sub s header_len len)

(* ------------------------------------------------------------------ *)
(* payload codecs *)

(* The one-byte backend tag of the Prove and Prove_seg payloads. *)
let backend_tags = [ (Backends.Kzg, 0); (Backends.Ipa, 1) ]
let backend_tag b = List.assoc b backend_tags

let get_backend r =
  let* t = get_u8 r ~what:"backend" in
  match List.find_opt (fun (_, t') -> t' = t) backend_tags with
  | Some (b, _) -> Ok b
  | None ->
      failf ~offset:(Byte (Reader.pos r - 1)) Unknown_variant "backend tag %d" t

let encode_request req =
  let buf = Buffer.create 64 in
  let kind =
    match req with
    | Ping -> k_ping
    | Prove { tenant; backend; model; seeds } ->
        put_str16 buf tenant;
        put_u8 buf (backend_tag backend);
        put_str16 buf model;
        put_u16 buf (List.length seeds);
        List.iter (put_i64 buf) seeds;
        k_prove
    | Prove_seg { tenant; backend; model; segments; seeds } ->
        put_str16 buf tenant;
        put_u8 buf (backend_tag backend);
        put_str16 buf model;
        put_u8 buf segments;
        put_u16 buf (List.length seeds);
        List.iter (put_i64 buf) seeds;
        k_prove_seg
    | Verify { tenant; model; proof } ->
        put_str16 buf tenant;
        put_str16 buf model;
        put_str32 buf proof;
        k_verify
    | Shutdown -> k_shutdown
  in
  encode_frame ~kind (Buffer.contents buf)

let encode_response resp =
  let buf = Buffer.create 64 in
  let kind =
    match resp with
    | Pong -> k_pong
    | Proofs texts ->
        put_u16 buf (List.length texts);
        List.iter (put_str32 buf) texts;
        k_proofs
    | Verdict { code; detail } ->
        put_u8 buf code;
        put_str32 buf detail;
        k_verdict
    | Overloaded -> k_overloaded
    | Stopping -> k_stopping
  in
  encode_frame ~kind (Buffer.contents buf)

let request_of_payload kind payload =
  in_context "wire"
  @@
  let r = Reader.of_string payload in
  let* req =
    if kind = k_ping then Ok Ping
    else if kind = k_prove then begin
      let* tenant = get_name r ~what:"tenant" in
      let* backend = get_backend r in
      let* model = get_name r ~what:"model" in
      let nstart = Reader.pos r in
      let* n = get_u16 r ~what:"seed count" in
      let* () =
        if n < 1 || n > max_batch then
          failf ~offset:(Byte nstart) Out_of_range
            "seed count %d outside [1, %d]" n max_batch
        else Ok ()
      in
      let rec seeds acc i =
        if i = 0 then Ok (List.rev acc)
        else
          let* s = get_i64 r ~what:"seed" in
          seeds (s :: acc) (i - 1)
      in
      let* seeds = seeds [] n in
      Ok (Prove { tenant; backend; model; seeds })
    end
    else if kind = k_prove_seg then begin
      let* tenant = get_name r ~what:"tenant" in
      let* backend = get_backend r in
      let* model = get_name r ~what:"model" in
      let sstart = Reader.pos r in
      let* segments = get_u8 r ~what:"segment count" in
      let* () =
        if segments < 1 || segments > 16 then
          failf ~offset:(Byte sstart) Out_of_range
            "segment count %d outside [1, 16]" segments
        else Ok ()
      in
      let nstart = Reader.pos r in
      let* n = get_u16 r ~what:"seed count" in
      let* () =
        if n < 1 || n > max_batch then
          failf ~offset:(Byte nstart) Out_of_range
            "seed count %d outside [1, %d]" n max_batch
        else Ok ()
      in
      let rec seeds acc i =
        if i = 0 then Ok (List.rev acc)
        else
          let* s = get_i64 r ~what:"seed" in
          seeds (s :: acc) (i - 1)
      in
      let* seeds = seeds [] n in
      Ok (Prove_seg { tenant; backend; model; segments; seeds })
    end
    else if kind = k_verify then begin
      let* tenant = get_name r ~what:"tenant" in
      let* model = get_name r ~what:"model" in
      let* proof = get_blob r ~what:"proof" in
      Ok (Verify { tenant; model; proof })
    end
    else if kind = k_shutdown then Ok Shutdown
    else failf Unknown_variant "request kind 0x%02x" kind
  in
  let* () = Reader.expect_end r ~what:"request" in
  Ok req

let response_of_payload kind payload =
  in_context "wire"
  @@
  let r = Reader.of_string payload in
  let* resp =
    if kind = k_pong then Ok Pong
    else if kind = k_proofs then begin
      let nstart = Reader.pos r in
      let* n = get_u16 r ~what:"proof count" in
      let* () =
        if n > max_batch then
          failf ~offset:(Byte nstart) Out_of_range "proof count %d exceeds %d"
            n max_batch
        else Ok ()
      in
      let rec texts acc i =
        if i = 0 then Ok (List.rev acc)
        else
          let* t = get_blob r ~what:"proof text" in
          texts (t :: acc) (i - 1)
      in
      let* texts = texts [] n in
      Ok (Proofs texts)
    end
    else if kind = k_verdict then begin
      let cstart = Reader.pos r in
      let* code = get_u8 r ~what:"verdict code" in
      let* () =
        if code > 2 then
          failf ~offset:(Byte cstart) Out_of_range
            "verdict code %d outside [0, 2]" code
        else Ok ()
      in
      let* detail = get_blob r ~what:"detail" in
      Ok (Verdict { code; detail })
    end
    else if kind = k_overloaded then Ok Overloaded
    else if kind = k_stopping then Ok Stopping
    else failf Unknown_variant "response kind 0x%02x" kind
  in
  let* () = Reader.expect_end r ~what:"response" in
  Ok resp

let decode_request s =
  let* kind, payload = decode_frame s in
  request_of_payload kind payload

let decode_response s =
  let* kind, payload = decode_frame s in
  response_of_payload kind payload

(** Decode either direction — the fuzz harness's single entry point. *)
let decode_any s =
  let* kind, payload = decode_frame s in
  if kind < 0x10 then
    let* req = request_of_payload kind payload in
    Ok (`Req req)
  else
    let* resp = response_of_payload kind payload in
    Ok (`Resp resp)

let encode_any = function
  | `Req r -> encode_request r
  | `Resp r -> encode_response r

(* ------------------------------------------------------------------ *)
(* socket I/O *)

type read_outcome =
  | Frame of int * string  (** kind, payload *)
  | Eof  (** clean end of stream at a frame boundary *)
  | Fail of Err.t
      (** framing broken (bad header, over-cap length, mid-frame EOF);
          the stream cannot be resynchronized *)

(* Read exactly [n] bytes; [`Eof k] reports how many arrived first. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then `Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> `Eof off
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(** Read one frame from [fd]. Never raises on malformed input: header
    or length violations come back as [Fail], a clean close between
    frames as [Eof]. *)
let read_frame fd =
  match read_exact fd header_len with
  | `Eof 0 -> Eof
  | `Eof k ->
      Fail
        (Err.make ~offset:(Byte k) ~context:[ "wire" ] Err.Truncated
           (Printf.sprintf "connection closed %d bytes into a frame header" k))
  | `Ok header -> (
      match parse_header header with
      | Error e -> Fail (Err.with_context "wire" e)
      | Ok (kind, len) -> (
          match read_exact fd len with
          | `Ok payload -> Frame (kind, payload)
          | `Eof k ->
              Fail
                (Err.make
                   ~offset:(Byte (header_len + k))
                   ~context:[ "wire" ] Err.Truncated
                   (Printf.sprintf "payload holds %d of %d bytes" k len))))

(* Raises on I/O errors (broken pipe etc.); callers own the socket. *)
let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send_request fd req = write_all fd (encode_request req)
let send_response fd resp = write_all fd (encode_response resp)

(** One blocking request/response round-trip on an open connection. *)
let roundtrip fd req =
  send_request fd req;
  match read_frame fd with
  | Frame (kind, payload) -> response_of_payload kind payload
  | Eof -> fail ~context:[ "wire" ] Truncated "connection closed before reply"
  | Fail e -> Error e
