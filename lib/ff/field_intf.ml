(** Signature of prime fields used throughout the proving stack.

    Two instantiations exist: {!Fp61} (a 62-bit NTT-friendly prime held
    as an immediate Montgomery [int], the production field of every
    proof the CLI and the daemon emit) and the 255-bit Pasta fields in
    {!Pasta} (the real halo2 curve cycle, built on the {!Mont29}
    Montgomery functor). All protocol code is functorized over this
    signature.

    Elements are values: no operation writes to its operands, so an
    element may be shared between arrays and domains freely. *)

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
end
