(* Model-zoo tests: every paper model executes under both executors,
   lays out, serializes, and (for the fast subset) proves and verifies
   end to end, including the serialized-proof path used by the CLI. *)

module T = Zkml_tensor.Tensor
module Fx = Zkml_fixed.Fixed
module Zoo = Zkml_models.Zoo
module Sim61 = Zkml_ec.Simulated.Make (Zkml_ff.Fp61)
module Kzg = Zkml_commit.Kzg.Make (Sim61)
module Ipa = Zkml_commit.Ipa.Make (Sim61)
module Pipe = Zkml_compiler.Pipeline.Make (Kzg)
module Pipe_ipa = Zkml_compiler.Pipeline.Make (Ipa)
module Opt = Zkml_compiler.Optimizer

let kzg_params = Kzg.setup ~max_size:(1 lsl 13) ~seed:"test-models"
let ipa_params = Ipa.setup ~max_size:(1 lsl 13) ~seed:"test-models"

let test_all_models_execute () =
  List.iter
    (fun m ->
      let inputs = Zoo.sample_inputs m in
      (* float executor runs *)
      let fv = Zkml_nn.Float_exec.run m.Zoo.graph ~inputs in
      Alcotest.(check bool)
        (m.Zoo.name ^ " float output finite")
        true
        (List.for_all
           (fun out -> T.fold (fun acc v -> acc && Float.is_finite v) true out)
           (List.map (fun id -> fv.(id)) (Zkml_nn.Graph.outputs m.Zoo.graph)));
      (* fixed-point executor runs without saturation *)
      let qinputs = List.map (T.map (Fx.quantize m.Zoo.cfg)) inputs in
      let _ = Zkml_nn.Quant_exec.run m.Zoo.cfg m.Zoo.graph ~inputs:qinputs in
      ())
    (Zoo.all ())

let test_all_models_lay_out () =
  List.iter
    (fun m ->
      let qinputs =
        List.map (T.map (Fx.quantize m.Zoo.cfg)) (Zoo.sample_inputs m)
      in
      let exec = Zkml_nn.Quant_exec.run m.Zoo.cfg m.Zoo.graph ~inputs:qinputs in
      let l =
        Zkml_compiler.Lower.lower ~spec:Zkml_compiler.Layout_spec.default
          ~cfg:m.Zoo.cfg ~ncols:16 ~counting:true m.Zoo.graph exec
      in
      let rows =
        l.Zkml_compiler.Lower.layouter.Zkml_compiler.Layouter.nrows
      in
      Alcotest.(check bool) (m.Zoo.name ^ " has rows") true (rows > 0))
    (Zoo.all ())

let test_all_models_serialize () =
  List.iter
    (fun m ->
      let text = Zkml_nn.Serialize.to_string m.Zoo.graph in
      let g = Zkml_nn.Serialize.of_string_exn text in
      Alcotest.(check int)
        (m.Zoo.name ^ " node count")
        (Zkml_nn.Graph.num_nodes m.Zoo.graph)
        (Zkml_nn.Graph.num_nodes g);
      (* reloaded graph computes the same quantized outputs *)
      let qinputs =
        List.map (T.map (Fx.quantize m.Zoo.cfg)) (Zoo.sample_inputs m)
      in
      let e1 = Zkml_nn.Quant_exec.run m.Zoo.cfg m.Zoo.graph ~inputs:qinputs in
      let e2 = Zkml_nn.Quant_exec.run m.Zoo.cfg g ~inputs:qinputs in
      List.iter2
        (fun a b ->
          Alcotest.(check bool)
            (m.Zoo.name ^ " same outputs")
            true
            (T.equal ( = ) a b))
        (Zkml_nn.Quant_exec.output_values e1 m.Zoo.graph)
        (Zkml_nn.Quant_exec.output_values e2 g))
    (Zoo.all ())

(* Every zoo gate has degree <= 3 and the logUp lookup constraints have
   degree 3, so d_max = 3 and the quotient's extended domain has
   next_pow2 (d_max - 1) = 2 cosets of the 2^k rows, one h commitment
   each. *)
let check_h_count m ~(plan : Opt.plan) ~h_commits =
  Alcotest.(check int)
    (m.Zoo.name ^ " d_max")
    3 plan.Opt.summary.Zkml_compiler.Layouter.max_gate_degree;
  Alcotest.(check int) (m.Zoo.name ^ " h commitments") 2 h_commits

(* the small models prove quickly enough for the unit suite; the full
   Table 6/7 sweep lives in bench/main.exe *)
let prove_model backend m =
  match backend with
  | `Kzg ->
      let r =
        Pipe.run ~cfg:m.Zoo.cfg ~params:kzg_params m.Zoo.graph
          (Zoo.sample_inputs m)
      in
      check_h_count m ~plan:r.Pipe.plan
        ~h_commits:(Array.length r.Pipe.proof.Pipe.Proto.h_commits);
      r.Pipe.verified
  | `Ipa ->
      let r =
        Pipe_ipa.run ~cfg:m.Zoo.cfg ~params:ipa_params m.Zoo.graph
          (Zoo.sample_inputs m)
      in
      check_h_count m ~plan:r.Pipe_ipa.plan
        ~h_commits:(Array.length r.Pipe_ipa.proof.Pipe_ipa.Proto.h_commits);
      r.Pipe_ipa.verified

let test_small_models_prove_kzg () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Zoo.name ^ " kzg") true (prove_model `Kzg m))
    [ Zoo.mnist (); Zoo.dlrm (); Zoo.twitter (); Zoo.gpt2 () ]

let test_small_models_prove_ipa () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Zoo.name ^ " ipa") true (prove_model `Ipa m))
    [ Zoo.dlrm (); Zoo.gpt2 () ]

let test_big_models_prove () =
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Zoo.name ^ " kzg") true (prove_model `Kzg m))
    [ Zoo.resnet18 (); Zoo.mobilenet (); Zoo.vgg16 (); Zoo.diffusion () ]

(* serialized-proof path: prove, write bytes, rebuild keys from the
   public structure, parse, verify; then tamper and expect rejection *)
let test_proof_bytes_roundtrip () =
  let m = Zoo.dlrm () in
  let inputs = Zoo.sample_inputs m in
  let r = Pipe.run ~cfg:m.Zoo.cfg ~params:kzg_params m.Zoo.graph inputs in
  Alcotest.(check bool) "proves" true r.Pipe.verified;
  let bytes = Pipe.Proto.proof_to_bytes r.Pipe.proof in
  (* recover the public instance independently of the run *)
  let qinputs = List.map (T.map (Fx.quantize m.Zoo.cfg)) inputs in
  let exec = Zkml_nn.Quant_exec.run m.Zoo.cfg m.Zoo.graph ~inputs:qinputs in
  let lowered =
    Zkml_compiler.Lower.lower_with ~spec_fn:r.Pipe.plan.Opt.spec_fn
      ~cfg:m.Zoo.cfg ~ncols:r.Pipe.plan.Opt.ncols ~counting:false m.Zoo.graph
      exec
  in
  let built =
    Zkml_compiler.Layouter.finalize lowered.Zkml_compiler.Lower.layouter
      ~blinding:Opt.blinding ~k:r.Pipe.plan.Opt.k
  in
  let instance_ints = built.Zkml_compiler.Layouter.instance_col in
  Alcotest.(check (array int))
    "run carries the instance" instance_ints r.Pipe.instance_ints;
  let keys =
    Pipe.rebuild_keys kzg_params ~spec:r.Pipe.plan.Opt.spec
      ~ncols:r.Pipe.plan.Opt.ncols ~k:r.Pipe.plan.Opt.k ~cfg:m.Zoo.cfg
      m.Zoo.graph
  in
  Alcotest.(check bool)
    "parsed proof verifies" true
    (Pipe.verify_bytes kzg_params keys ~instance_ints bytes);
  (* flip one byte *)
  let tampered = Bytes.of_string bytes in
  Bytes.set tampered 100 (Char.chr (Char.code (Bytes.get tampered 100) lxor 1));
  Alcotest.(check bool)
    "tampered proof rejected" false
    (Pipe.verify_bytes kzg_params keys ~instance_ints
       (Bytes.to_string tampered));
  (* claim a different public value *)
  let forged = Array.copy instance_ints in
  forged.(0) <- forged.(0) + 1;
  Alcotest.(check bool)
    "forged instance rejected" false
    (Pipe.verify_bytes kzg_params keys ~instance_ints:forged bytes);
  (* truncated proof is rejected, not a crash *)
  Alcotest.(check bool)
    "truncated proof rejected" false
    (Pipe.verify_bytes kzg_params keys ~instance_ints
       (String.sub bytes 0 (String.length bytes - 8)))

let test_stats_sane () =
  (* relative ordering of parameter counts mirrors the architectures *)
  let params name =
    (Zkml_nn.Stats.compute (Zoo.by_name name).Zoo.graph).Zkml_nn.Stats.params
  in
  Alcotest.(check bool) "vgg heaviest vision" true
    (params "vgg16" > params "resnet18");
  Alcotest.(check bool) "twitter > dlrm" true
    (params "twitter" > params "dlrm");
  let flops name =
    (Zkml_nn.Stats.compute (Zoo.by_name name).Zoo.graph).Zkml_nn.Stats.flops
  in
  Alcotest.(check bool) "conv nets dominate flops" true
    (flops "resnet18" > flops "gpt2")

let () =
  Alcotest.run "models"
    [ ( "executors",
        [ Alcotest.test_case "all_execute" `Quick test_all_models_execute;
          Alcotest.test_case "all_lay_out" `Quick test_all_models_lay_out;
          Alcotest.test_case "all_serialize" `Quick test_all_models_serialize;
          Alcotest.test_case "stats_sane" `Quick test_stats_sane
        ] );
      ( "proving",
        [ Alcotest.test_case "small_kzg" `Quick test_small_models_prove_kzg;
          Alcotest.test_case "small_ipa" `Quick test_small_models_prove_ipa;
          Alcotest.test_case "big_kzg" `Slow test_big_models_prove;
          Alcotest.test_case "proof_bytes_roundtrip" `Quick
            test_proof_bytes_roundtrip
        ] )
    ]
