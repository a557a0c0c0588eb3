(** Signature of prime fields used throughout the proving stack.

    Two instantiations exist: {!Fp61} (a 62-bit NTT-friendly prime held
    as an immediate Montgomery [int], the production field of every
    proof the CLI and the daemon emit) and the 255-bit Pasta fields in
    {!Pasta} (the real halo2 curve cycle, built on the {!Limb4}
    Montgomery functor). All protocol code is functorized over this
    signature. *)

module type S = sig
  type t

  val name : string

  val modulus_limbs : int64 array
  (** Little-endian 64-bit limbs of the modulus [p]. *)

  val size_bytes : int
  (** Canonical serialized size. *)

  val zero : t
  val one : t

  val of_int : int -> t
  (** Embeds an OCaml integer; negative integers map to [p - |x|]. *)

  val of_int64 : int64 -> t
  (** Embeds a non-negative 64-bit value (interpreted unsigned). *)

  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t
  val square : t -> t

  val inv : t -> t
  (** Multiplicative inverse. Raises [Division_by_zero] on zero. *)

  val div : t -> t -> t
  val equal : t -> t -> bool
  val is_zero : t -> bool

  val compare : t -> t -> int
  (** Total order on canonical representatives (used for sorting);
      not arithmetically meaningful. *)

  val pow_int : t -> int -> t
  (** [pow_int x e] for [e >= 0]. *)

  val pow_limbs : t -> int64 array -> t
  (** Exponentiation by a little-endian multi-limb exponent. *)

  val generator : t
  (** A fixed generator of the multiplicative group. *)

  val two_adicity : int
  (** Largest [s] with [2^s | p - 1]. *)

  val root_of_unity : int -> t
  (** [root_of_unity k] is a primitive [2^k]-th root of unity;
      [k <= two_adicity]. *)

  val to_canonical_limbs : t -> int64 array
  (** Canonical (non-Montgomery) little-endian limbs in [\[0, p)]. *)

  val to_bytes : t -> string
  (** Canonical little-endian encoding, [size_bytes] long. *)

  val of_bytes_exn : string -> t
  (** Inverse of {!to_bytes}; raises [Invalid_argument] if out of range. *)

  val random : Zkml_util.Rng.t -> t
  val to_hex : t -> string
  val pp : Format.formatter -> t -> unit

  (** {1 In-place arithmetic}

      Destination-passing variants of the ring operations for hot loops
      (NTT butterflies, the compiled quotient evaluator). Without
      flambda, every cross-module call that returns a fresh element
      allocates; fields whose representation is a mutable buffer
      ([mutable_repr = true], e.g. the 4-limb Montgomery fields) instead
      expose [op_into dst a b], which overwrites [dst] and allocates
      nothing. [dst] may alias any operand.

      Contract: callers may only write into buffers they own — elements
      obtained from {!scratch} or {!unshare}. Writing into a value
      received from the allocating API (or into [zero]/[one]/table
      entries) is undefined behaviour, because values may be shared
      structurally ([Array.make n zero] aliases one buffer n times).

      Fields with an immutable representation ([mutable_repr = false],
      e.g. {!Fp61}, whose elements are immediate [int]s and whose
      allocating API therefore allocates nothing) raise
      [Invalid_argument] from every [_into] operation; [unshare] is the
      identity there. Generic code must branch on [mutable_repr]. *)

  val mutable_repr : bool
  (** Whether [t] is a caller-mutable buffer and the [_into] ops below
      are implemented. *)

  val scratch : unit -> t
  (** A fresh writable element, initially zero. *)

  val unshare : t -> t
  (** A physically fresh copy the caller may mutate (identity for
      immutable representations). *)

  val set : t -> t -> unit
  (** [set dst src] overwrites [dst] with the value of [src]. *)

  val add_into : t -> t -> t -> unit
  val sub_into : t -> t -> t -> unit
  val neg_into : t -> t -> unit
  val mul_into : t -> t -> t -> unit
  val square_into : t -> t -> unit
end
