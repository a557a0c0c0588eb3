(** Byte-string helpers shared by the transcript and serialization code. *)

val to_hex : string -> string
(** Lowercase hex encoding. *)

val of_hex : string -> string
(** Inverse of [to_hex]: lowercase digits only, so every byte string has
    one spelling. Raises [Invalid_argument] on malformed input. *)

val int64_le : int64 -> string
(** 8-byte little-endian encoding. *)

val int64_of_le : string -> int -> int64
(** [int64_of_le s off] reads 8 little-endian bytes at [off]. *)
