(** Unsigned 64-bit helper arithmetic for multi-precision field code.

    OCaml's [Int64] is signed; these helpers provide the unsigned
    primitives that {!Limbs} (full 64x64 -> 128 multiplication) and
    {!Field_extra} (add-with-carry) build on. *)

val umul : int64 -> int64 -> int64 * int64
(** [umul a b] is [(hi, lo)] such that [a * b = hi * 2^64 + lo]
    interpreting all values as unsigned. *)

val addc : int64 -> int64 -> int64 -> int64 * int64
(** [addc a b carry_in] is [(sum, carry_out)] with [carry_in], [carry_out]
    in [{0, 1}]. *)
