(** Structured errors for every boundary that consumes bytes we did not
    produce: proof byte strings, proof files, model files. A ZK
    verifier's whole job is judging adversarial input, so malformed
    bytes must surface as a typed, locatable [t] through a [result] —
    never as an escaping [Invalid_argument] or [Failure].

    Conventions used across the codebase:
    - Untrusted-input parsers return [('a, Err.t) result] and are total.
    - Their exception-raising variants keep the historical behaviour
      under an [_exn] suffix (raising {!Error}) for internal callers
      that parse bytes the process itself produced. *)

type code =
  | Truncated  (** input ended before a required read *)
  | Trailing_data  (** well-formed prefix followed by extra bytes *)
  | Invalid_encoding
      (** a scalar/point/hex blob that fails canonical decoding *)
  | Bad_header  (** magic line / version mismatch *)
  | Bad_field  (** a named field holds a malformed value *)
  | Missing_field  (** a required field or attribute is absent *)
  | Duplicate_field  (** a field that must be unique appears twice *)
  | Unknown_variant  (** unrecognised op / enum / backend tag *)
  | Out_of_range  (** numerically valid but outside sane bounds *)
  | Io_error  (** the underlying file could not be read *)

val code_name : code -> string
(** Stable lower-snake name of the code, e.g. ["truncated"]. Used in
    diagnostics and asserted by the fuzz regression suite. *)

(** Where in the input the error was detected. Binary parsers report
    byte offsets; line-oriented parsers report 1-based line numbers. *)
type offset = Byte of int | Line of int

type t = {
  code : code;
  msg : string;  (** human-oriented one-liner, no newlines *)
  offset : offset option;
  context : string list;  (** outermost-first breadcrumb, e.g. ["proof"] *)
}

val make : ?offset:offset -> ?context:string list -> code -> string -> t

val with_context : string -> t -> t
(** Push an outer breadcrumb frame onto [context]. *)

val to_string : t -> string
(** One line: [code at <offset> in <context>: msg]. *)

val pp : Format.formatter -> t -> unit

exception Error of t
(** The only exception the [_exn] wrapper variants raise. *)

val error_to_string_opt : exn -> string option
(** [Some (to_string e)] for {!Error}, [None] otherwise. *)

(** {1 Result combinators} *)

val fail : ?offset:offset -> ?context:string list -> code -> string -> ('a, t) result

val failf :
  ?offset:offset ->
  ?context:string list ->
  code ->
  ('b, unit, string, ('a, t) result) format4 ->
  'b

val get_exn : ('a, t) result -> 'a
(** [Ok x -> x]; [Error e -> raise (Error e)]. *)

val ( let* ) : ('a, t) result -> ('a -> ('b, t) result) -> ('b, t) result

val map_list : ('a -> ('b, t) result) -> 'a list -> ('b list, t) result
(** Left-to-right; stops at the first error. *)

val iter_list : ('a -> (unit, t) result) -> 'a list -> (unit, t) result

val in_context : string -> ('a, t) result -> ('a, t) result
(** Tag the error (if any) with an outer breadcrumb. *)

val guard : ?offset:offset -> code -> (unit -> 'a) -> ('a, t) result
(** Run a legacy validator that signals failure by raising. Catches
    [Invalid_argument], [Failure], [Not_found], [Division_by_zero] and
    {!Error} and wraps them as [code] (an {!Error} keeps its own
    payload); genuinely fatal exceptions (Out_of_memory, Stack_overflow,
    assert failures) still propagate. *)

(** {1 Typed text-field parsers}

    Replacements for bare [int_of_string] & co. with a field name in the
    diagnostic instead of a context-free [Failure "int_of_string"]. *)

val int_field : ?offset:offset -> what:string -> string -> (int, t) result

val bounded_int_field :
  ?offset:offset -> what:string -> min:int -> max:int -> string -> (int, t) result
(** [int_field] plus an inclusive range check ([Out_of_range]). *)

val float_field : ?offset:offset -> what:string -> string -> (float, t) result

val finite_float_field :
  ?offset:offset -> what:string -> string -> (float, t) result
(** [float_field] that additionally rejects nan/inf ([Out_of_range]) —
    for weight data, where a non-finite value would poison the
    fixed-point pipeline downstream. *)

val bool_field : ?offset:offset -> what:string -> string -> (bool, t) result

val hex_field : ?offset:offset -> what:string -> string -> (string, t) result
(** Non-empty lowercase hex decoded to bytes ([Invalid_encoding]
    otherwise). Uppercase is refused, so a decoded field re-renders to
    the text it came from. *)

(** {1 Length-checked binary consumption} *)

module Reader : sig
  type error = t

  type t
  (** A cursor over an immutable byte string. Every read is
      length-checked: consuming past the end yields [Truncated] at the
      current byte offset instead of an [Invalid_argument] from
      [String.sub]. *)

  val of_string : string -> t
  val pos : t -> int
  val length : t -> int
  val remaining : t -> int

  val take : t -> what:string -> int -> (string, error) result
  (** Consume exactly [n] bytes. *)

  val decode : t -> what:string -> int -> (string -> 'a) -> ('a, error) result
  (** [decode r ~what n f] consumes [n] bytes and applies [f] (which may
      signal a bad encoding by raising [Invalid_argument] or [Failure],
      mapped to [Invalid_encoding] at the field's start offset). *)

  val expect_end : t -> what:string -> (unit, error) result
  (** [Trailing_data] unless the cursor is at the end of the input. *)
end
