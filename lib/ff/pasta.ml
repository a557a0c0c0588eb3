(* The Pasta curve cycle fields used by halo2.

   Fp is the Pallas base field:
     p = 0x40000000000000000000000000000000224698fc094cf91b992d30ed00000001
   Fq is the Pallas scalar field (= Vesta base field):
     q = 0x40000000000000000000000000000000224698fc0994a8dd8c46eb2100000001
   Both have two-adicity 32 and multiplicative generator 5. Their
   kernels are generated from these moduli by the rules in dune. *)

module Fp = Mont29.Make (struct
  let name = "pasta_fp"
  let generator_int = 5
  let two_adicity = 32

  include Pasta_fp_kernel
end)

module Fq = Mont29.Make (struct
  let name = "pasta_fq"
  let generator_int = 5
  let two_adicity = 32

  include Pasta_fq_kernel
end)
