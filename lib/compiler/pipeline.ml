(** End-to-end pipeline tying the compiler to the proving system:
    quantize + execute, optimize the layout, build the circuit, keygen,
    prove and verify — the "bash interface" layer of the paper's Figure
    3, functorized over the commitment backend. *)

(** One row of the cost-model accuracy report (paper §9.5): predicted
    seconds for an op class vs the measured span total from a traced
    proving run. *)
type op_accuracy = {
  op : string;
  predicted_s : float;
  measured_s : float;
}

let accuracy_ratio a =
  if a.measured_s > 0.0 then a.predicted_s /. a.measured_s else nan

module Make (Scheme : Zkml_commit.Scheme_intf.S) = struct
  module Proto = Zkml_plonkish.Protocol.Make (Scheme)
  module F = Proto.F
  module P = Proto.P
  module M = Zkml_ec.Msm.Make (Scheme.G)
  module T = Zkml_tensor.Tensor
  module Fx = Zkml_fixed.Fixed

  let backend_name = Scheme.name

  (* ------------------------------------------------------------------ *)
  (* Hardware calibration (BenchmarkOperations, run once per backend) *)

  (* Calibration workloads draw their inputs from a fixed-seed rng so
     the measured kernels run on representative (non-structured) data
     rather than small consecutive integers. *)
  let calibrate ?(ks = [ 8; 10; 12 ]) params =
    let rng = Zkml_util.Rng.create 77L in
    Costmodel.benchmark ~ks
      ~fft_run:(fun k ->
        let d = P.Domain.create k in
        let a = Array.init (P.Domain.size d) (fun _ -> F.random rng) in
        P.ntt d a)
      ~msm_run:(fun k ->
        let n = 1 lsl k in
        let coeffs = Array.init n (fun _ -> F.random rng) in
        ignore (Scheme.commit params coeffs))
      ~lookup_run:(fun k ->
        let n = 1 lsl k in
        let a = Array.init n (fun _ -> F.of_int (Zkml_util.Rng.int rng n)) in
        Array.sort F.compare a)
      ~field_run:(fun n ->
        let x = ref (F.random rng) in
        for _ = 1 to n do
          x := F.add (F.mul !x !x) F.one
        done;
        ignore !x)

  let times_cache : (string, Costmodel.op_times) Hashtbl.t = Hashtbl.create 4

  let calibrated params =
    match Hashtbl.find_opt times_cache Scheme.name with
    | Some t -> t
    | None ->
        let t =
          Zkml_obs.Obs.Span.with_ ~name:"calibrate" (fun () ->
              calibrate params)
        in
        Hashtbl.add times_cache Scheme.name t;
        t

  let backend = if Scheme.name = "kzg" then Costmodel.Kzg else Costmodel.Ipa

  (* ------------------------------------------------------------------ *)
  (* Build: turn a plan into field-typed circuit + witness *)

  type artifacts = {
    keys : Proto.keys;
    advice : F.t array array;
    instance : F.t array array;
    plan : Optimizer.plan;
    built : Layouter.built;
  }

  let to_field_circuit (c : int Zkml_plonkish.Circuit.t) : Proto.circuit =
    {
      Zkml_plonkish.Circuit.k = c.k;
      num_fixed = c.num_fixed;
      is_selector = c.is_selector;
      advice_phases = c.advice_phases;
      num_instance = c.num_instance;
      num_challenges = c.num_challenges;
      gates =
        List.map
          (fun (g : int Zkml_plonkish.Circuit.gate) ->
            {
              Zkml_plonkish.Circuit.gate_name = g.gate_name;
              polys = List.map (Zkml_plonkish.Expr.map_const F.of_int) g.polys;
            })
          c.gates;
      lookups =
        List.map
          (fun (l : int Zkml_plonkish.Circuit.lookup) ->
            {
              Zkml_plonkish.Circuit.lookup_name = l.lookup_name;
              inputs = List.map (Zkml_plonkish.Expr.map_const F.of_int) l.inputs;
              tables = List.map (Zkml_plonkish.Expr.map_const F.of_int) l.tables;
            })
          c.lookups;
      copies = c.copies;
      blinding = c.blinding;
    }

  let build params (plan : Optimizer.plan) ~cfg graph exec =
    let lowered =
      Lower.lower_with ~spec_fn:plan.Optimizer.spec_fn ~cfg
        ~ncols:plan.Optimizer.ncols ~counting:false graph exec
    in
    let built =
      Layouter.finalize lowered.Lower.layouter ~blinding:Optimizer.blinding
        ~k:plan.Optimizer.k
    in
    let circuit = to_field_circuit built.Layouter.circuit in
    let to_f = Array.map (fun col -> Array.map F.of_int col) in
    let fixed = to_f built.Layouter.fixed in
    let advice = to_f built.Layouter.advice in
    let instance = [| Array.map F.of_int built.Layouter.instance_col |] in
    let keys = Proto.keygen params circuit ~fixed in
    { keys; advice; instance; plan; built }

  let prove params artifacts ~rng =
    Proto.prove params artifacts.keys ~instance:artifacts.instance
      ~advice:(fun _ -> Array.map Array.copy artifacts.advice)
      ~rng

  let verify params artifacts proof =
    Proto.verify params artifacts.keys ~instance:artifacts.instance proof

  (* ------------------------------------------------------------------ *)
  (* Verification from serialized artifacts (CLI support). The circuit
     structure depends only on shapes and the plan, so a verifier can
     rebuild the keys from the public model file without the witness. *)

  let zero_inputs graph =
    Zkml_nn.Graph.nodes graph |> Array.to_list
    |> List.filter_map (fun (n : Zkml_nn.Graph.node) ->
           match n.Zkml_nn.Graph.op with
           | Zkml_nn.Op.Input { shape } -> Some (T.create shape 0)
           | _ -> None)

  (** Rebuild proving/verifying keys for a fixed physical layout using a
      dummy (all-zero) execution: structure only, no witness. *)
  let rebuild_keys params ~spec ~ncols ~k ~cfg graph =
    let exec =
      Zkml_nn.Quant_exec.run ~saturate:true cfg graph
        ~inputs:(zero_inputs graph)
    in
    let lowered = Lower.lower ~spec ~cfg ~ncols ~counting:false graph exec in
    let built =
      Layouter.finalize lowered.Lower.layouter ~blinding:Optimizer.blinding ~k
    in
    let circuit = to_field_circuit built.Layouter.circuit in
    let fixed =
      Array.map (fun col -> Array.map F.of_int col) built.Layouter.fixed
    in
    Proto.keygen params circuit ~fixed

  (** Build the per-input witness for a fixed physical layout: advice
      grid, field-typed instance column, and the raw centered-integer
      instance values (what proof files carry). Input-dependent only —
      the circuit structure and keys are those of {!rebuild_keys} for
      the same layout. *)
  type witness = {
    w_advice : F.t array array;
    w_instance : F.t array array;
    w_instance_ints : int array;
  }

  (** {!witness} for callers that already hold quantized integer
      tensors — the segmented prover feeds exact intermediate values of
      the full-model execution into each segment, so no re-quantization
      may happen here. *)
  let witness_ints ~spec ~ncols ~k ~cfg graph (qinputs : int T.t list) =
    Zkml_obs.Obs.Span.with_ ~name:"witness" @@ fun () ->
    let exec = Zkml_nn.Quant_exec.run cfg graph ~inputs:qinputs in
    let lowered = Lower.lower ~spec ~cfg ~ncols ~counting:false graph exec in
    let built =
      Layouter.finalize lowered.Lower.layouter ~blinding:Optimizer.blinding ~k
    in
    {
      w_advice =
        Array.map (fun col -> Array.map F.of_int col) built.Layouter.advice;
      w_instance = [| Array.map F.of_int built.Layouter.instance_col |];
      w_instance_ints = built.Layouter.instance_col;
    }

  let witness ~spec ~ncols ~k ~cfg graph inputs =
    witness_ints ~spec ~ncols ~k ~cfg graph
      (List.map (T.map (Fx.quantize cfg)) inputs)

  let instance_col_of_ints keys instance_ints =
    let module Err = Zkml_util.Err in
    let n = 1 lsl keys.Proto.circuit.Zkml_plonkish.Circuit.k in
    if Array.length instance_ints > n then
      Error
        (Err.make ~context:[ "instance" ] Err.Out_of_range
           (Printf.sprintf "%d public values for a circuit with %d rows"
              (Array.length instance_ints) n))
    else begin
      let col = Array.make n F.zero in
      Array.iteri (fun i v -> col.(i) <- F.of_int v) instance_ints;
      Ok [| col |]
    end

  (** Classify serialized proof bytes against keys and the public values
      (the instance column as centered integers). Total: malformed bytes
      come back as {!Proto.Malformed}, never as an exception. *)
  (* Instance-level parse failures never reach [Proto.verify_bytes], so
     they are tallied here; together the two sites count every judgement
     exactly once. *)
  let tally_malformed v =
    Zkml_obs.Metrics.inc
      ~labels:[ ("verdict", "malformed") ]
      ~help:"Verifier verdicts on untrusted proof bytes"
      "zkml_verify_verdicts_total" 1.0;
    v

  let verify_verdict params keys ~instance_ints bytes =
    match instance_col_of_ints keys instance_ints with
    | Error e -> tally_malformed (Proto.Malformed e)
    | Ok instance -> Proto.verify_bytes params keys ~instance bytes

  (** Batched {!verify_verdict}: one RLC'd final check for the whole
      batch (see {!Proto.verify_many}); any malformed member classifies
      the batch as [Malformed], and the combined check localizes nothing
      — one false proof rejects the batch. *)
  let verify_many_verdict params keys
      ~(batch : (int array * string) list) =
    let module Err = Zkml_util.Err in
    let rec cols acc i = function
      | [] -> Ok (List.rev acc)
      | (instance_ints, bytes) :: rest -> (
          match instance_col_of_ints keys instance_ints with
          | Error e ->
              Error (Err.with_context (Printf.sprintf "batch[%d]" i) e)
          | Ok instance -> cols ((instance, bytes) :: acc) (i + 1) rest)
    in
    match cols [] 0 batch with
    | Error e -> tally_malformed (Proto.Malformed e)
    | Ok batch -> Proto.verify_many_bytes params keys ~batch

  (** Boolean view of {!verify_verdict} for callers that only care
      whether the proof is accepted. *)
  let verify_bytes params keys ~instance_ints bytes =
    match verify_verdict params keys ~instance_ints bytes with
    | Proto.Accepted -> true
    | Proto.Rejected | Proto.Malformed _ -> false

  (* ------------------------------------------------------------------ *)
  (* One-call convenience used by examples, tests and benches *)

  type result = {
    plan : Optimizer.plan;
    proof : Proto.proof;
    verified : bool;
    proof_bytes : int;
    optimize_s : float;
    keygen_s : float;
    prove_s : float;
    verify_s : float;
    outputs : int T.t list;  (** fixed-point model outputs *)
    instance_ints : int array;
        (** the public instance column as centered integers, as proof
            files carry it *)
  }

  (** Compare {!Costmodel} predictions against the measured span totals
      of a traced proving run (the report must come from a run executed
      with the sink enabled). Only spans under "prove" count, matching
      what equation (1) predicts; the residual class is the prover time
      not attributed to ntt/msm/lookup spans. *)
  let cost_accuracy params (plan : Optimizer.plan) report =
    let module Obs = Zkml_obs.Obs in
    let times = calibrated params in
    let b =
      Costmodel.estimate_breakdown times ~backend ~k:plan.Optimizer.k
        plan.Optimizer.summary
    in
    let m_ntt = Obs.total_of ~under:"prove" report "ntt" in
    let m_msm = Obs.total_of ~under:"prove" report "msm" in
    let m_lookup = Obs.total_of ~under:"prove" report "lookup" in
    let m_prove = Obs.total_of report "prove" in
    let m_residual = Float.max 0.0 (m_prove -. m_ntt -. m_msm -. m_lookup) in
    [
      { op = "ntt"; predicted_s = b.Costmodel.b_fft; measured_s = m_ntt };
      { op = "msm"; predicted_s = b.Costmodel.b_msm; measured_s = m_msm };
      {
        op = "lookup";
        predicted_s = b.Costmodel.b_lookup;
        measured_s = m_lookup;
      };
      {
        op = "field-residual";
        predicted_s = b.Costmodel.b_residual;
        measured_s = m_residual;
      };
      {
        op = "total-prove";
        predicted_s = Costmodel.breakdown_total b;
        measured_s = m_prove;
      };
    ]

  let required_srs_size plan =
    (* quotient pieces are the largest committed polynomials: n each *)
    1 lsl plan.Optimizer.k

  let run ?(cfg = Fx.default) ?(objective = Optimizer.Min_time) ?specs
      ?(ncols_min = 4) ?(ncols_max = 40) ?(seed = 42L) ~params graph inputs =
    let qinputs = List.map (T.map (Fx.quantize cfg)) inputs in
    let exec = Zkml_nn.Quant_exec.run cfg graph ~inputs:qinputs in
    let times = calibrated params in
    let k_max =
      let rec lg n acc = if n <= 1 then acc else lg (n / 2) (acc + 1) in
      lg (Scheme.max_size params) 0
    in
    let (plan, _), optimize_s =
      Zkml_util.Timer.time (fun () ->
          Optimizer.optimize ?specs ~ncols_min ~ncols_max ~objective ~k_max
            ~times ~backend ~group_bytes:Scheme.G.size_bytes
            ~field_bytes:F.size_bytes ~cfg graph exec)
    in
    if required_srs_size plan > Scheme.max_size params then
      failwith
        (Printf.sprintf
           "SRS too small: circuit needs 2^%d rows, params support %d"
           plan.Optimizer.k (Scheme.max_size params));
    let artifacts, keygen_s =
      Zkml_util.Timer.time (fun () ->
          Zkml_obs.Obs.Span.with_ ~name:"build" (fun () ->
              build params plan ~cfg graph exec))
    in
    let rng = Zkml_util.Rng.create seed in
    let proof, prove_s =
      Zkml_util.Timer.time (fun () -> prove params artifacts ~rng)
    in
    let verified, verify_s =
      Zkml_util.Timer.time (fun () -> verify params artifacts proof)
    in
    Zkml_obs.Obs.gauge_int "k" plan.Optimizer.k;
    Zkml_obs.Obs.gauge_int "ncols" plan.Optimizer.ncols;
    Zkml_obs.Obs.gauge_int "proof.bytes" (Proto.proof_size_bytes proof);
    {
      plan;
      proof;
      verified;
      proof_bytes = Proto.proof_size_bytes proof;
      optimize_s;
      keygen_s;
      prove_s;
      verify_s;
      outputs = Zkml_nn.Quant_exec.output_values exec graph;
      instance_ints = artifacts.built.Layouter.instance_col;
    }
end
