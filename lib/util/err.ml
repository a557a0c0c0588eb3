(* Structured errors + length-checked binary reader for the
   untrusted-input surface (see err.mli and DESIGN.md "Untrusted
   inputs"). *)

type code =
  | Truncated
  | Trailing_data
  | Invalid_encoding
  | Bad_header
  | Bad_field
  | Missing_field
  | Duplicate_field
  | Unknown_variant
  | Out_of_range
  | Io_error

let code_name = function
  | Truncated -> "truncated"
  | Trailing_data -> "trailing_data"
  | Invalid_encoding -> "invalid_encoding"
  | Bad_header -> "bad_header"
  | Bad_field -> "bad_field"
  | Missing_field -> "missing_field"
  | Duplicate_field -> "duplicate_field"
  | Unknown_variant -> "unknown_variant"
  | Out_of_range -> "out_of_range"
  | Io_error -> "io_error"

type offset = Byte of int | Line of int

type t = {
  code : code;
  msg : string;
  offset : offset option;
  context : string list;
}

let make ?offset ?(context = []) code msg = { code; msg; offset; context }

let with_context frame e = { e with context = frame :: e.context }

let offset_string = function
  | Byte b -> Printf.sprintf "byte %d" b
  | Line l -> Printf.sprintf "line %d" l

let to_string e =
  let b = Buffer.create 64 in
  Buffer.add_string b (code_name e.code);
  (match e.offset with
  | Some o ->
      Buffer.add_string b " at ";
      Buffer.add_string b (offset_string o)
  | None -> ());
  if e.context <> [] then begin
    Buffer.add_string b " in ";
    Buffer.add_string b (String.concat "/" e.context)
  end;
  Buffer.add_string b ": ";
  Buffer.add_string b e.msg;
  Buffer.contents b

let pp fmt e = Format.pp_print_string fmt (to_string e)

exception Error of t

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Zkml_util.Err.Error: " ^ to_string e)
    | _ -> None)

let error_to_string_opt = function
  | Error e -> Some (to_string e)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Result combinators *)

let fail ?offset ?context code msg = Result.error (make ?offset ?context code msg)

let failf ?offset ?context code fmt =
  Printf.ksprintf (fun msg -> fail ?offset ?context code msg) fmt

let get_exn = function Ok x -> x | Error e -> raise (Error e)

let ( let* ) = Result.bind

let map_list f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] xs

let iter_list f xs =
  let rec go = function
    | [] -> Ok ()
    | x :: rest -> ( match f x with Ok () -> go rest | Error _ as e -> e)
  in
  go xs

let in_context frame = function
  | Ok _ as ok -> ok
  | Error e -> Error (with_context frame e)

let guard ?offset code f =
  match f () with
  | x -> Ok x
  | exception Error e -> Error e
  | exception Invalid_argument m -> fail ?offset code m
  | exception Failure m -> fail ?offset code m
  | exception Not_found -> fail ?offset code "not found"
  | exception Division_by_zero -> fail ?offset code "division by zero"

(* ------------------------------------------------------------------ *)
(* Typed text-field parsers *)

(* Only the canonical decimal rendering is admitted: the permissive
   [int_of_string] grammar ("007", "-0", "+1", "0x10", "1_000") lets an
   attacker re-encode a value without changing its meaning, so equal
   value lists would no longer imply equal bytes (the fuzzer found a
   splice that collapsed a run of ",0,0,..." instance values into one
   long "000...0" token the old parser read as a single 0). *)
let canonical_decimal s =
  let n = String.length s in
  let digits_from start =
    n > start
    &&
    let ok = ref true in
    for i = start to n - 1 do
      match s.[i] with '0' .. '9' -> () | _ -> ok := false
    done;
    !ok && (s.[start] <> '0' || n = start + 1)
  in
  if n > 1 && s.[0] = '-' then digits_from 1 && s <> "-0" else digits_from 0

let int_field ?offset ~what s =
  if not (canonical_decimal s) then
    failf ?offset Bad_field "%s: not a canonical decimal integer: %S" what s
  else
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> failf ?offset Bad_field "%s: integer overflows: %S" what s

let bounded_int_field ?offset ~what ~min ~max s =
  let* v = int_field ?offset ~what s in
  if v < min || v > max then
    failf ?offset Out_of_range "%s: %d outside [%d, %d]" what v min max
  else Ok v

let float_field ?offset ~what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> failf ?offset Bad_field "%s: not a float: %S" what s

let finite_float_field ?offset ~what s =
  let* v = float_field ?offset ~what s in
  if Float.is_finite v then Ok v
  else failf ?offset Out_of_range "%s: non-finite value %s" what s

let bool_field ?offset ~what s =
  match bool_of_string_opt s with
  | Some v -> Ok v
  | None -> failf ?offset Bad_field "%s: not a bool: %S" what s

let hex_field ?offset ~what s =
  match Bytes_util.of_hex s with
  | b when s <> "" -> Ok b
  | _ | (exception Invalid_argument _) ->
      failf ?offset Invalid_encoding "%s: invalid lowercase hex" what

(* ------------------------------------------------------------------ *)
(* Length-checked binary reader *)

module Reader = struct
  type error = t

  type nonrec t = { src : string; mutable cursor : int }

  let of_string s = { src = s; cursor = 0 }
  let pos r = r.cursor
  let length r = String.length r.src
  let remaining r = String.length r.src - r.cursor

  let take r ~what n =
    if n < 0 then failf Out_of_range "%s: negative read of %d bytes" what n
    else if r.cursor + n > String.length r.src then
      failf ~offset:(Byte r.cursor) Truncated
        "%s: need %d bytes, %d remain" what n (remaining r)
    else begin
      let s = String.sub r.src r.cursor n in
      r.cursor <- r.cursor + n;
      Ok s
    end

  let decode r ~what n f =
    let start = r.cursor in
    let* s = take r ~what n in
    match f s with
    | v -> Ok v
    | exception Error e -> Error e
    | exception Invalid_argument m ->
        fail ~offset:(Byte start) Invalid_encoding
          (Printf.sprintf "%s: %s" what m)
    | exception Failure m ->
        fail ~offset:(Byte start) Invalid_encoding
          (Printf.sprintf "%s: %s" what m)

  let expect_end r ~what =
    if r.cursor = String.length r.src then Ok ()
    else
      failf ~offset:(Byte r.cursor) Trailing_data
        "%s: %d trailing bytes after a complete parse" what (remaining r)
end
