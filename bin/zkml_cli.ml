(* The zkml command-line interface — the "simple bash interface" of the
   paper's Figure 3. Subcommands:

     zkml models                     list the built-in model zoo
     zkml stats MODEL                parameters / flops / layer count
     zkml export MODEL FILE          write the textual model format
     zkml optimize MODEL             run the layout optimizer, print the plan
     zkml prove MODEL -o PROOF       compile + prove; write a proof file
     zkml verify MODEL PROOF         recheck a proof file
     zkml batch-prove MODEL SEED...  one compile (artifact-cached), one
                                     proof per input seed
     zkml batch-verify MODEL PROOF...
                                     verify N proofs with a single
                                     batched final check
     zkml calibrate                  print the measured op-cost profile
     zkml profile MODEL              traced proving run: span tree,
                                     chrome-trace export, cost-model
                                     accuracy report (paper 9.5)
     zkml fuzz                       deterministic malformed-input fuzzing
                                     of the model / proof-file parsers
     zkml metrics [MODEL]            dump the always-on metrics registry
                                     (optionally after a cached prove+
                                     verify run of MODEL) as a summary,
                                     Prometheus text or JSON
     zkml serve                      persistent proving daemon: binary
                                     wire protocol over unix socket or
                                     loopback TCP, queued multi-tenant
                                     prove/verify jobs, admission control
     zkml loadgen                    seeded deterministic traffic replay
                                     against a daemon; asserts every
                                     answer, reports latency percentiles
                                     and proofs/sec

   `zkml verify` exits 0 when the proof is accepted, 1 when it parses
   but the verifier rejects it, and 2 with a one-line diagnostic when
   any input (model file, proof file, proof bytes) is malformed —
   malformed input never crashes the verifier (see DESIGN.md,
   "Untrusted inputs").

   MODEL is a zoo name (see `zkml models`) or a path to a .zkml file.
   Setting ZKML_TRACE=<path> makes any subcommand record a chrome-trace
   of its whole execution to <path>; ZKML_METRICS=<path> writes the
   metrics registry there at exit (Prometheus text, or JSON for .json
   paths) — the textfile-collector style of exposition; ZKML_LOG routes
   the structured event log. `--jobs N` (or ZKML_JOBS=N) sizes the
   prover's domain pool; proofs are byte-identical at every N. *)

module T = Zkml_tensor.Tensor
module Fx = Zkml_fixed.Fixed
module Zoo = Zkml_models.Zoo
module Opt = Zkml_compiler.Optimizer
module Spec = Zkml_compiler.Layout_spec
module Obs = Zkml_obs.Obs
module Metrics = Zkml_obs.Metrics
module Log = Zkml_obs.Log
(* The scheme instantiations and SRS parameters live in
   [Zkml_serve.Backends] so the daemon, the load generator and this CLI
   provably share one setup — byte-identical proofs across all three.
   Each command selects its backend there once, by the --backend flag. *)
module B = Zkml_serve.Backends
module PF = Zkml_serve.Proof_file
module SPF = Zkml_serve.Seg_proof

module Err = Zkml_util.Err
module Fuzz = Zkml_util.Fuzz

(* Models arrive from outside the process, so loading is total; the
   raising [load_model] below serves the subcommands whose failure mode
   is simply "print the error and die": [main] answers its
   [Bad_model] with one stderr line and exit 2. *)
let load_model_result name =
  if Sys.file_exists name then
    match Zkml_nn.Serialize.of_file name with
    | Error e -> Error e
    | Ok graph ->
        Ok
          {
            Zoo.name = Filename.remove_extension (Filename.basename name);
            paper_name = name;
            graph;
            input_shapes =
              (Zkml_nn.Graph.nodes graph |> Array.to_list
              |> List.filter_map (fun (n : Zkml_nn.Graph.node) ->
                     match n.Zkml_nn.Graph.op with
                     | Zkml_nn.Op.Input { shape } -> Some shape
                     | _ -> None));
            cfg = Zoo.default_cfg;
            description = "loaded from " ^ name;
          }
  else Err.guard Err.Unknown_variant (fun () -> Zoo.by_name name)

exception Bad_model of Err.t

let load_model name =
  match load_model_result name with
  | Ok m -> m
  | Error e -> raise (Bad_model (Err.with_context "model" e))

(* ------------------------------------------------------------------ *)
(* commands *)

let cmd_models () =
  List.iter
    (fun m ->
      Printf.printf "%-12s %-24s %s\n" m.Zoo.name m.Zoo.paper_name
        m.Zoo.description)
    (Zoo.all ());
  0

let cmd_stats model =
  let m = load_model model in
  let st = Zkml_nn.Stats.compute m.Zoo.graph in
  Printf.printf "model:       %s\n" m.Zoo.name;
  Printf.printf "parameters:  %d\n" st.Zkml_nn.Stats.params;
  Printf.printf "flops:       %d\n" st.Zkml_nn.Stats.flops;
  Printf.printf "graph nodes: %d\n" st.Zkml_nn.Stats.num_nodes;
  Printf.printf "fixed-point: scale 2^%d, table 2^%d\n"
    m.Zoo.cfg.Fx.scale_bits m.Zoo.cfg.Fx.table_bits;
  0

let cmd_export model path =
  let m = load_model model in
  Zkml_nn.Serialize.save m.Zoo.graph path;
  Printf.printf "wrote %s\n" path;
  0

let cmd_calibrate backend =
  let (module X) = B.select backend in
  let times = X.Pipe.calibrated (Lazy.force X.params) in
  Printf.printf "backend %s op-cost profile (BenchmarkOperations):\n"
    (B.backend_name backend);
  List.iter
    (fun (k, t) -> Printf.printf "  fft    2^%-2d %12.6f s\n" k t)
    times.Zkml_compiler.Costmodel.fft;
  List.iter
    (fun (k, t) -> Printf.printf "  msm    2^%-2d %12.6f s\n" k t)
    times.Zkml_compiler.Costmodel.msm;
  List.iter
    (fun (k, t) -> Printf.printf "  lookup 2^%-2d %12.6f s\n" k t)
    times.Zkml_compiler.Costmodel.lookup;
  Printf.printf "  field op    %12.3e s\n"
    times.Zkml_compiler.Costmodel.field_op;
  0

(* ------------------------------------------------------------------ *)
(* profile: traced proving run + cost-model accuracy (paper §9.5) *)

let print_accuracy rows =
  Printf.printf "\ncost-model accuracy (predicted vs measured, paper 9.5):\n";
  Printf.printf "  %-16s %12s %12s %8s\n" "op class" "predicted s" "measured s"
    "ratio";
  List.iter
    (fun (a : Zkml_compiler.Pipeline.op_accuracy) ->
      let ratio = Zkml_compiler.Pipeline.accuracy_ratio a in
      Printf.printf "  %-16s %12.4f %12.4f %8s\n" a.op a.predicted_s
        a.measured_s
        (if Float.is_nan ratio then "-" else Printf.sprintf "%.2fx" ratio))
    rows

(* Segmented profile: trace a split-and-aggregate prove and attribute
   the ntt/msm/lookup/commit phase totals to each segment's labelled
   span, so cost-model accuracy is inspectable per segment. *)
let cmd_profile_segmented (m : Zoo.model) backend trace_out json segments =
  (let (module X) = B.select backend in
   ignore (X.Pipe.calibrated (Lazy.force X.params)));
  let p, report =
    Obs.with_enabled (fun () -> SPF.prove m backend 1234 ~segments)
  in
  if json then begin
    print_endline (Obs.summary_json report);
    (match trace_out with
    | Some path -> Obs.write_file path (Obs.chrome_trace report)
    | None -> ());
    0
  end
  else begin
    Printf.printf
      "traced segmented proving run of %s (%s backend, %d segments):\n\n"
      m.Zoo.name (B.backend_name backend) (List.length p.SPF.p_ks);
    print_string (Obs.tree_string report);
    Printf.printf
      "\nprove_s %.4f s; peak segment rows %d vs %d monolithic\n"
      p.SPF.p_prove_s p.SPF.p_peak_rows p.SPF.p_mono_rows;
    Printf.printf "\nper-segment phase breakdown (seconds):\n";
    Printf.printf "  %-12s %4s %10s %10s %10s %10s\n" "segment" "k" "ntt"
      "msm" "lookup" "total";
    List.iteri
      (fun i k ->
        let under = Printf.sprintf "segment-%d" i in
        let t name = Obs.total_of ~under report name in
        Printf.printf "  %-12s %4d %10.4f %10.4f %10.4f %10.4f\n" under k
          (t "ntt") (t "msm") (t "lookup") (Obs.total_of report under))
      p.SPF.p_ks;
    (match trace_out with
    | Some path ->
        Obs.write_file path (Obs.chrome_trace report);
        Printf.printf "\nwrote chrome-trace to %s (open in about:tracing)\n"
          path
    | None -> ());
    0
  end

let cmd_profile model backend trace_out json segments =
  let m = load_model model in
  if segments >= 1 then cmd_profile_segmented m backend trace_out json segments
  else
  let inputs = Zoo.sample_inputs m in
  let (module X) = B.select backend in
  let params = Lazy.force X.params in
  (* calibrate outside the trace so the report holds only the proving
     run *)
  ignore (X.Pipe.calibrated params);
  let r, report =
    Obs.with_enabled (fun () ->
        X.Pipe.run ~cfg:m.Zoo.cfg ~params m.Zoo.graph inputs)
  in
  let prove_s = r.X.Pipe.prove_s in
  let accuracy = X.Pipe.cost_accuracy params r.X.Pipe.plan report in
  if not r.X.Pipe.verified then failwith "profile: self-verification failed";
  if json then begin
    (* scriptable profile: the summary JSON on stdout, nothing else *)
    print_endline (Obs.summary_json report);
    (match trace_out with
    | Some path -> Obs.write_file path (Obs.chrome_trace report)
    | None -> ());
    0
  end
  else begin
  Printf.printf "traced proving run of %s (%s backend):\n\n" m.Zoo.name
    (B.backend_name backend);
  print_string (Obs.tree_string report);
  let span_prove = Obs.total_of report "prove" in
  Printf.printf
    "\ncoarse prove_s %.4f s; prove span total %.4f s (%.1f%% attributed)\n"
    prove_s span_prove
    (100.0 *. span_prove /. Float.max prove_s 1e-9);
  print_accuracy accuracy;
  (let g name = Obs.gauge_of report name in
   match (g "evaluator.ops", g "evaluator.nodes") with
   | Some ops, Some nodes ->
       Printf.printf
         "\ncompiled quotient evaluator: %.0f ops from %.0f expr nodes (%.0f \
          CSE hits), %.0f registers, %.0f interned constants\n"
         ops nodes
         (Option.value ~default:0.0 (g "evaluator.cse_hits"))
         (Option.value ~default:0.0 (g "evaluator.regs"))
         (Option.value ~default:0.0 (g "evaluator.consts"));
       let span = Obs.total_of report "quotient.compiled" in
       let rows = Obs.counter_total report "quotient.rows" in
       if span > 0.0 then
         Printf.printf
           "  quotient.compiled span %.4f s over %.0f rows (%.0f rows/s)\n" span
           rows
           (rows /. Float.max span 1e-9)
   | _ -> ());
  (match trace_out with
  | Some path ->
      Obs.write_file path (Obs.chrome_trace report);
      Printf.printf "\nwrote chrome-trace to %s (open in about:tracing)\n" path
  | None -> ());
  0
  end

let print_plan (plan : Opt.plan) =
  Printf.printf "logical layout:   %s\n" (Spec.to_string plan.Opt.spec);
  Printf.printf "advice columns:   %d\n" plan.Opt.ncols;
  Printf.printf "rows:             2^%d (content %d)\n" plan.Opt.k
    plan.Opt.summary.Zkml_compiler.Layouter.rows_content;
  Printf.printf "lookups:          %d (over %d tables)\n"
    plan.Opt.summary.Zkml_compiler.Layouter.lookup_count
    plan.Opt.summary.Zkml_compiler.Layouter.tables;
  Printf.printf "estimated cost:   %.3f s\n" plan.Opt.est_cost;
  Printf.printf "estimated proof:  %d bytes\n" plan.Opt.est_size

(* The layout optimizer under [backend]'s calibrated cost model. *)
let optimize_for ?objective backend (m : Zoo.model) exec =
  let (module X) = B.select backend in
  Opt.optimize ?objective
    ~times:(X.Pipe.calibrated (Lazy.force X.params))
    ~backend:X.Pipe.backend ~group_bytes:X.Scheme.G.size_bytes
    ~field_bytes:X.Pipe.F.size_bytes ~cfg:m.Zoo.cfg m.Zoo.graph exec

let cmd_optimize model backend objective =
  let m = load_model model in
  let inputs = Zoo.sample_inputs m in
  let qinputs = List.map (T.map (Fx.quantize m.Zoo.cfg)) inputs in
  let exec = Zkml_nn.Quant_exec.run m.Zoo.cfg m.Zoo.graph ~inputs:qinputs in
  let plan, stats = optimize_for ~objective backend m exec in
  Printf.printf "searched %d candidate layouts (%d invalid)\n"
    stats.Opt.candidates stats.Opt.pruned_invalid;
  print_plan plan;
  0

(* ------------------------------------------------------------------ *)
(* check-constraints: the under-constraint detector (DESIGN.md
   "Constraint IR & under-constraint checking") over the gadget
   isolation suite and the zoo models' compiled circuits. *)

module CC = Zkml_compiler.Constraint_check.Make (Zkml_ff.Fp61)

let cmd_check_constraints model backend seed =
  let seed64 = Int64.of_int seed in
  let failures = ref 0 in
  let report name (r : CC.report) =
    let issues = List.length r.CC.r_honest + List.length r.CC.r_findings in
    if issues = 0 then
      Printf.printf "  %-14s OK    (%d cells, %d second-witness candidates)\n"
        name r.CC.r_cells r.CC.r_candidates
    else begin
      incr failures;
      Printf.printf "  %-14s FAIL  (%d cells, %d candidates, %d issues)\n" name
        r.CC.r_cells r.CC.r_candidates issues;
      List.iter
        (fun v ->
          Printf.printf "    honest witness rejected: %s\n"
            (Zkml_plonkish.Cs.violation_to_string v))
        r.CC.r_honest;
      let shown, rest =
        let rec split k = function
          | x :: tl when k > 0 ->
              let a, b = split (k - 1) tl in
              (x :: a, b)
          | tl -> ([], tl)
        in
        split 20 r.CC.r_findings
      in
      List.iter (fun f -> Printf.printf "    %s\n" (CC.pp_finding f)) shown;
      if rest <> [] then
        Printf.printf "    ... and %d more under-constrained cells\n"
          (List.length rest)
    end
  in
  Printf.printf
    "== gadget isolation suite (scale_bits=5, table_bits=9, seed %d) ==\n" seed;
  let gcfg = { Fx.scale_bits = 5; table_bits = 9 } in
  List.iter
    (fun (name, r) -> report name r)
    (CC.gadget_suite ~seed:seed64 ~cfg:gcfg ());
  let models =
    match model with None -> Zoo.all () | Some name -> [ load_model name ]
  in
  Printf.printf "== zoo model circuits ==\n";
  List.iter
    (fun (m : Zoo.model) ->
      let inputs = Zoo.sample_inputs ~seed:seed64 m in
      let qinputs = List.map (T.map (Fx.quantize m.Zoo.cfg)) inputs in
      let exec =
        Zkml_nn.Quant_exec.run m.Zoo.cfg m.Zoo.graph ~inputs:qinputs
      in
      let plan, _ = optimize_for backend m exec in
      let lowered =
        Zkml_compiler.Lower.lower_with ~spec_fn:plan.Opt.spec_fn
          ~cfg:m.Zoo.cfg ~ncols:plan.Opt.ncols ~counting:false m.Zoo.graph exec
      in
      let built =
        Zkml_compiler.Layouter.finalize lowered.Zkml_compiler.Lower.layouter
          ~blinding:Opt.blinding ~k:plan.Opt.k
      in
      report m.Zoo.name (CC.check_built ~seed:seed64 built))
    models;
  if !failures = 0 then begin
    Printf.printf "constraint check clean: no under-constrained cells\n";
    0
  end
  else begin
    Printf.printf "constraint check FAILED: %d circuit(s) with issues\n"
      !failures;
    1
  end

let cmd_prove model backend out seed segments =
  let m = load_model model in
  let name = B.backend_name backend in
  if segments >= 1 then begin
    let p = SPF.prove m backend seed ~segments in
    let oc = open_out out in
    output_string oc p.SPF.p_text;
    close_out oc;
    Printf.printf
      "proved %s with %s in %d segments (k %s; peak rows %d vs %d \
       monolithic) in %.2f s; wrote %s\n"
      m.Zoo.name name (List.length p.SPF.p_ks)
      (String.concat "," (List.map string_of_int p.SPF.p_ks))
      p.SPF.p_peak_rows p.SPF.p_mono_rows p.SPF.p_prove_s out;
    Log.event "prove.done"
      [ ("model", Log.S m.Zoo.name); ("backend", Log.S name);
        ("segments", Log.I (List.length p.SPF.p_ks));
        ("peak_rows", Log.I p.SPF.p_peak_rows);
        ("prove_s", Log.F p.SPF.p_prove_s); ("out", Log.S out) ];
    0
  end
  else begin
    let text, prove_s, proof_bytes =
      PF.prove m backend seed
    in
    let oc = open_out out in
    output_string oc text;
    close_out oc;
    Printf.printf "proved %s with %s in %.2f s (%d B); wrote %s\n" m.Zoo.name
      name prove_s proof_bytes out;
    Log.event "prove.done"
      [ ("model", Log.S m.Zoo.name); ("backend", Log.S name);
        ("prove_s", Log.F prove_s); ("proof_bytes", Log.I proof_bytes);
        ("out", Log.S out) ];
    0
  end

(* Exit contract: 0 accepted, 1 well-formed-but-rejected, 2 malformed
   input (with a one-line diagnostic on stderr). Nothing an outsider
   puts in the model or proof file reaches the user as a backtrace. *)
let cmd_verify model proof_path =
  (* the proof file's first line selects the monolithic or the
     segmented format; both share the 0/1/2 exit contract *)
  let read_text path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | text -> Ok text
    | exception Sys_error msg ->
        Err.fail ~context:[ "proof-file" ] Err.Io_error msg
  in
  let outcome =
    match load_model_result model with
    | Error e -> `Malformed (Err.with_context "model" e)
    | Ok m -> (
        match read_text proof_path with
        | Error e -> `Malformed e
        | Ok text when SPF.looks_segmented text -> (
            match SPF.of_string text with
            | Error e -> `Malformed e
            | Ok sp -> (
                match
                  SPF.verdict ~kzg_keys:(Hashtbl.create 1)
                    ~ipa_keys:(Hashtbl.create 1) m sp
                with
                | `Accepted ->
                    `Accepted (m.Zoo.name, B.backend_name sp.SPF.sp_backend)
                | (`Rejected | `Malformed _) as v -> v))
        | Ok text -> (
            match PF.of_string text with
            | Error e -> `Malformed e
            | Ok pf -> (
                match
                  PF.verdict ~kzg_keys:(Hashtbl.create 1)
                    ~ipa_keys:(Hashtbl.create 1) m pf
                with
                | `Accepted ->
                    `Accepted (m.Zoo.name, B.backend_name pf.PF.pf_backend)
                | (`Rejected | `Malformed _) as v -> v)))
  in
  let log verdict exit_code =
    Log.event "verify.verdict"
      [ ("model", Log.S model); ("proof", Log.S proof_path);
        ("verdict", Log.S verdict); ("exit", Log.I exit_code) ];
    exit_code
  in
  match outcome with
  | `Accepted (name, backend) ->
      Printf.printf "proof VERIFIED against model %s (%s backend)\n" name
        backend;
      log "accepted" 0
  | `Rejected ->
      Printf.printf "proof REJECTED\n";
      log "rejected" 1
  | `Malformed e ->
      Printf.eprintf "malformed input: %s\n" (Err.to_string e);
      log "malformed" 2

(* ------------------------------------------------------------------ *)
(* batch-prove / batch-verify: the serving layer. One compile (loaded
   from the artifact cache after the first run), N proofs; one batched
   final check for N verifications. *)

let cmd_batch_prove model backend out_prefix seeds segments =
  let name = B.backend_name backend in
  if seeds = [] then begin
    Printf.eprintf "batch-prove: at least one input SEED is required\n";
    2
  end
  else if segments >= 1 then begin
    (* segmented batch: per-segment keys ride the artifact cache, so
       after the first seed every later proof skips keygen entirely *)
    let m = load_model model in
    let t0 = Zkml_util.Timer.default_clock () in
    let paths =
      List.map
        (fun seed ->
          let p = SPF.prove m backend seed ~segments in
          let path = Printf.sprintf "%s-%d.zkp" out_prefix seed in
          let oc = open_out path in
          output_string oc p.SPF.p_text;
          close_out oc;
          path)
        seeds
    in
    let total_s = Zkml_util.Timer.default_clock () -. t0 in
    let n = List.length seeds in
    Printf.printf
      "proved %d inputs with %s in %d segments in %.2f s (%.2f s/proof \
       amortized)\n"
      n name segments total_s
      (total_s /. float_of_int n);
    List.iter (fun p -> Printf.printf "wrote %s\n" p) paths;
    Log.event "batch_prove.done"
      [ ("model", Log.S m.Zoo.name); ("backend", Log.S name);
        ("segments", Log.I segments); ("proofs", Log.I n);
        ("prove_s", Log.F total_s) ];
    0
  end
  else begin
    let m = load_model model in
    let jobs =
      List.map
        (fun s -> (Zoo.sample_inputs ~seed:(Int64.of_int s) m, Int64.of_int s))
        seeds
    in
    let now = Zkml_util.Timer.default_clock in
    let t0 = now () in
    let (module X) = B.select backend in
    let params = Lazy.force X.params in
    let entry, status = X.Serve.prepare ~cfg:m.Zoo.cfg params m.Zoo.graph in
    let t1 = now () in
    let pairs =
      X.Serve.prove_batch params entry ~cfg:m.Zoo.cfg m.Zoo.graph jobs
    in
    let t2 = now () in
    let batch =
      List.map
        (fun (w, p) -> (w.X.Pipe.w_instance_ints, X.Proto.proof_to_bytes p))
        pairs
    in
    (match X.Serve.verify_batch params entry ~batch with
    | X.Proto.Accepted -> ()
    | _ -> failwith "batch self-verification failed");
    let paths =
      List.map2
        (fun seed (instance_ints, proof) ->
          let path = Printf.sprintf "%s-%d.zkp" out_prefix seed in
          let oc = open_out path in
          output_string oc
            (PF.to_string ~backend ~model_name:m.Zoo.name ~cfg:m.Zoo.cfg
               ~spec:entry.X.Serve.e_spec ~ncols:entry.X.Serve.e_ncols
               ~k:entry.X.Serve.e_k ~instance_ints
               ~proof_hex:(Zkml_util.Bytes_util.to_hex proof));
          close_out oc;
          path)
        seeds batch
    in
    let prepare_s = t1 -. t0 and prove_s = t2 -. t1 in
    let n = List.length seeds in
    (* aggregate hit/miss/corrupt across every lookup this process made
       (prepare above, plus any earlier ones), from the always-on
       registry rather than the single per-entry status *)
    let snap = Metrics.snapshot () in
    let cache st =
      int_of_float
        (Metrics.counter_value
           ~labels:[ ("status", st) ]
           snap "zkml_cache_lookups_total")
    in
    Printf.printf
      "artifact cache: %s (lookups: %d hit-mem, %d hit-disk, %d miss, %d \
       corrupt)\n"
      (Zkml_serve.Artifacts.status_string status)
      (cache "hit_mem") (cache "hit_disk") (cache "miss") (cache "corrupt");
    Printf.printf
      "proved %d inputs with %s in %.2f s (%.2f s/proof amortized; prepare \
       %.2f s%s)\n"
      n name prove_s
      (prove_s /. float_of_int n)
      prepare_s
      (if Zkml_serve.Artifacts.is_hit status then ", compile skipped" else "");
    List.iter (fun p -> Printf.printf "wrote %s\n" p) paths;
    Log.event "batch_prove.done"
      [ ("model", Log.S m.Zoo.name); ("backend", Log.S name);
        ("proofs", Log.I n); ("prepare_s", Log.F prepare_s);
        ("prove_s", Log.F prove_s);
        ("cache_hit", Log.B (Zkml_serve.Artifacts.is_hit status)) ];
    0
  end

(* Batched verification follows the `verify` exit contract: 0 when every
   proof in the batch is accepted, 1 when the batch is well-formed but
   some member is false (the RLC'd check does not localize which), 2
   when any input is malformed. All members must target the same
   circuit — that is what makes one final check sound. *)
let cmd_batch_verify model proof_paths =
  let outcome =
    match load_model_result model with
    | Error e -> `Malformed (Err.with_context "model" e)
    | Ok m -> (
        let rec parse acc i = function
          | [] -> Ok (List.rev acc)
          | path :: rest -> (
              match PF.read_file path with
              | Error e ->
                  Error (Err.with_context (Printf.sprintf "batch[%d]" i) e)
              | Ok pf -> parse (pf :: acc) (i + 1) rest)
        in
        match parse [] 0 proof_paths with
        | Error e -> `Malformed e
        | Ok [] ->
            `Malformed
              (Err.make Err.Missing_field "at least one PROOF is required")
        | Ok (first :: _ as pfs) ->
            let header (pf : PF.t) =
              ( pf.PF.pf_model, pf.PF.pf_backend, Spec.to_string pf.PF.pf_spec,
                pf.PF.pf_ncols, pf.PF.pf_k, pf.PF.pf_cfg )
            in
            if first.PF.pf_model <> m.Zoo.name then
              `Malformed
                (Err.make ~context:[ "proof-file" ] Err.Bad_field
                   (Printf.sprintf "proofs are for model %S, not %S"
                      first.PF.pf_model m.Zoo.name))
            else if
              not (List.for_all (fun pf -> header pf = header first) pfs)
            then
              `Malformed
                (Err.make ~context:[ "batch" ] Err.Bad_field
                   "batch members target different circuits; batched \
                    verification needs one shared layout")
            else begin
              let batch =
                List.map (fun pf -> (pf.PF.pf_instance, pf.PF.pf_proof)) pfs
              in
              let run () =
                let (module X) = B.select first.PF.pf_backend in
                let params = Lazy.force X.params in
                match
                  X.Serve.prepare_for_header ~spec:first.PF.pf_spec
                    ~ncols:first.PF.pf_ncols ~k:first.PF.pf_k
                    ~cfg:first.PF.pf_cfg params m.Zoo.graph
                with
                | Error e -> `Malformed (Err.with_context "rebuild-keys" e)
                | Ok (entry, status) -> (
                    match X.Serve.verify_batch params entry ~batch with
                    | X.Proto.Accepted -> `Accepted status
                    | X.Proto.Rejected -> `Rejected
                    | X.Proto.Malformed e -> `Malformed e)
              in
              (* run traced so the batched-final-check count is visible *)
              let v, report = Obs.with_enabled run in
              `Verdict
                ( List.length pfs,
                  B.backend_name first.PF.pf_backend,
                  int_of_float (Obs.counter_total report "pcs.final_check"),
                  v )
            end)
  in
  let log n verdict exit_code =
    Log.event "batch_verify.verdict"
      [ ("model", Log.S model); ("proofs", Log.I n);
        ("verdict", Log.S verdict); ("exit", Log.I exit_code) ];
    exit_code
  in
  match outcome with
  | `Verdict (n, backend, checks, `Accepted status) ->
      Printf.printf "artifact cache: %s\n"
        (Zkml_serve.Artifacts.status_string status);
      Printf.printf
        "batch of %d proofs VERIFIED (%s backend, %d batched final check%s)\n"
        n backend checks
        (if checks = 1 then "" else "s");
      log n "accepted" 0
  | `Verdict (n, _, _, `Rejected) ->
      Printf.printf "batch of %d proofs REJECTED (at least one member false)\n"
        n;
      log n "rejected" 1
  | `Verdict (n, _, _, `Malformed e) ->
      Printf.eprintf "malformed input: %s\n" (Err.to_string e);
      log n "malformed" 2
  | `Malformed e ->
      Printf.eprintf "malformed input: %s\n" (Err.to_string e);
      log (List.length proof_paths) "malformed" 2

(* ------------------------------------------------------------------ *)
(* segments-smoke: the split-and-aggregate hard gate in `make check` *)

(* Prove mnist at --segments 1 and 4: both files must verify (and agree
   with each other on the model statement); a flipped seam digest must
   come back verdict 1; a dropped segment group verdict 2. Exits
   non-zero on any miss, like serve-smoke. *)
let cmd_segments_smoke () =
  let m = Zoo.by_name "mnist" in
  let kzg_keys = Hashtbl.create 8 and ipa_keys = Hashtbl.create 8 in
  let verdict_of text =
    match SPF.of_string text with
    | Error e -> `Malformed e
    | Ok sp -> SPF.verdict ~kzg_keys ~ipa_keys m sp
  in
  let verdict_name = function
    | `Accepted -> "accepted"
    | `Rejected -> "rejected"
    | `Malformed _ -> "malformed"
  in
  let failures = ref 0 in
  let expect name want got =
    let ok = want = verdict_name got in
    if not ok then incr failures;
    Printf.printf "  %-44s %-9s %s\n%!" name (verdict_name got)
      (if ok then "ok" else Printf.sprintf "FAIL (expected %s)" want)
  in
  Printf.printf "segments-smoke: proving mnist at --segments 1 and 4...\n%!";
  let p1 = SPF.prove m B.Kzg 1234 ~segments:1 in
  let p4 = SPF.prove m B.Kzg 1234 ~segments:4 in
  Printf.printf "  peak rows: %d (1 seg) / %d (4 segs)\n%!" p1.SPF.p_peak_rows
    p4.SPF.p_peak_rows;
  expect "honest --segments 1" "accepted" (verdict_of p1.SPF.p_text);
  expect "honest --segments 4" "accepted" (verdict_of p4.SPF.p_text);
  (match SPF.of_string p4.SPF.p_text with
  | Error e -> failwith (Err.to_string e)
  | Ok sp ->
      if Array.length sp.SPF.sp_seams = 0 then begin
        incr failures;
        Printf.printf "  FAIL: 4-segment mnist proof has no seams\n%!"
      end
      else begin
        (* seam-digest tamper: well-formed file, false statement *)
        let d = Bytes.of_string sp.SPF.sp_seams.(0) in
        Bytes.set d 0 (Char.chr (Char.code (Bytes.get d 0) lxor 1));
        let orig = sp.SPF.sp_seams.(0) in
        sp.SPF.sp_seams.(0) <- Bytes.to_string d;
        expect "seam-digest tamper" "rejected" (verdict_of (SPF.render sp));
        sp.SPF.sp_seams.(0) <- orig;
        (* seam-value tamper in a consumer segment's import region *)
        let g = sp.SPF.sp_groups.(1) in
        let inst = Array.copy g.SPF.sg_instance in
        inst.(0) <- inst.(0) + 1;
        let groups = Array.copy sp.SPF.sp_groups in
        groups.(1) <- { g with SPF.sg_instance = inst };
        expect "seam-value tamper" "rejected"
          (verdict_of (SPF.render { sp with SPF.sp_groups = groups }));
        (* dropped segment: framing no longer matches the derived plan *)
        let dropped =
          {
            sp with
            SPF.sp_groups =
              Array.sub sp.SPF.sp_groups 0
                (Array.length sp.SPF.sp_groups - 1);
          }
        in
        expect "dropped segment" "malformed" (verdict_of (SPF.render dropped))
      end);
  if !failures = 0 then begin
    Printf.printf "segments-smoke: ok\n";
    0
  end
  else begin
    Printf.eprintf "segments-smoke: %d FAILURES\n" !failures;
    1
  end

(* ------------------------------------------------------------------ *)
(* fuzz: deterministic malformed-input fuzzing of both parse surfaces *)

let log_fuzz_report label (r : Fuzz.report) =
  Log.event "fuzz.report"
    [ ("corpus", Log.S label); ("iters", Log.I r.Fuzz.iters);
      ("malformed", Log.I r.Fuzz.malformed);
      ("rejected", Log.I r.Fuzz.rejected); ("valid", Log.I r.Fuzz.valid);
      ("unchanged", Log.I r.Fuzz.unchanged);
      ("accepted", Log.I (List.length r.Fuzz.accepted_mutants));
      ("escaped", Log.I (List.length r.Fuzz.escaped)) ]

let cmd_fuzz iters seed =
  let rng = Zkml_util.Rng.create (Int64.of_int seed) in
  Printf.printf "fuzz: %d mutants per corpus, seed %d\n%!" iters seed;
  (* corpus 1: every zoo model in the textual format. No soundness claim
     here — a mutant is a failure only if parsing throws, or accepts
     input that breaks the canonical round-trip invariant. *)
  let model_corpus =
    List.map (fun m -> Zkml_nn.Serialize.to_string m.Zoo.graph) (Zoo.all ())
  in
  let classify_model text =
    match Zkml_nn.Serialize.of_string text with
    | Error e -> Fuzz.Malformed (Err.to_string e)
    | Ok g -> (
        let canonical = Zkml_nn.Serialize.to_string g in
        match Zkml_nn.Serialize.of_string canonical with
        | Ok g2 when Zkml_nn.Serialize.to_string g2 = canonical -> Fuzz.Valid
        | _ -> Fuzz.Accepted)
  in
  let model_report =
    Fuzz.run ~text:true ~rng ~iters ~corpus:model_corpus
      ~classify:classify_model ()
  in
  List.iter print_endline (Fuzz.report_lines ~label:"models" model_report);
  log_fuzz_report "models" model_report;
  (* corpus 2: real proof files for the two smallest models, one per
     backend. Soundness claim: no mutant may verify, and a parsed file
     must re-render to itself (the same oracle as corpus 5). *)
  Printf.printf "building proof corpus (mnist/kzg, dlrm/ipa)...\n%!";
  let m_mnist = Zoo.by_name "mnist" and m_dlrm = Zoo.by_name "dlrm" in
  let p_mnist, _, _ = PF.prove m_mnist B.Kzg 1234 in
  let p_dlrm, _, _ = PF.prove m_dlrm B.Ipa 1234 in
  let kzg_keys = Hashtbl.create 16 and ipa_keys = Hashtbl.create 16 in
  let classify_proof text =
    match PF.of_string text with
    | Error e -> Fuzz.Malformed (Err.to_string e)
    | Ok pf -> (
        let m =
          if pf.PF.pf_model = "mnist" then Some m_mnist
          else if pf.PF.pf_model = "dlrm" then Some m_dlrm
          else None
        in
        match m with
        | None -> Fuzz.Malformed "unknown model name"
        | Some _ when PF.render pf <> text ->
            (* parsed but not canonical: a parser soundness failure *)
            Fuzz.Accepted
        | Some m -> (
            match PF.verdict ~kzg_keys ~ipa_keys m pf with
            | `Accepted -> Fuzz.Accepted
            | `Rejected -> Fuzz.Rejected
            | `Malformed e -> Fuzz.Malformed (Err.to_string e)))
  in
  let proof_report =
    Fuzz.run ~text:true ~rng ~iters ~corpus:[ p_mnist; p_dlrm ]
      ~classify:classify_proof ()
  in
  List.iter print_endline (Fuzz.report_lines ~label:"proofs" proof_report);
  log_fuzz_report "proofs" proof_report;
  (* corpus 3: artifact-cache entries (the serving layer's disk format,
     binary mutators). The digest-guarded payload means every effective
     mutation must classify as malformed — Marshal never sees unverified
     bytes. Digesting a multi-megabyte payload per mutant is the cost,
     so this corpus runs at a capped iteration count. *)
  Printf.printf "building artifact-cache corpus (mnist/kzg)...\n%!";
  let (module X) = B.select B.Kzg in
  let cache_key, cache_text =
    let params = Lazy.force X.params in
    let entry, _ =
      X.Serve.prepare ~cfg:m_mnist.Zoo.cfg params m_mnist.Zoo.graph
    in
    let key = X.Serve.cache_key ~cfg:m_mnist.Zoo.cfg m_mnist.Zoo.graph in
    (key, X.Serve.entry_to_string ~key entry)
  in
  let classify_cache text =
    match X.Serve.entry_of_string ~key:cache_key text with
    | Error e -> Fuzz.Malformed (Err.to_string e)
    | Ok _ ->
        (* strict: the digest + field checks admit only the exact
           canonical bytes, so any changed mutant that parses is a
           soundness failure *)
        if String.equal text cache_text then Fuzz.Valid else Fuzz.Accepted
  in
  let cache_report =
    Fuzz.run ~rng ~iters:(min iters 120) ~corpus:[ cache_text ]
      ~classify:classify_cache ()
  in
  List.iter print_endline
    (Fuzz.report_lines ~label:"artifact-cache" cache_report);
  log_fuzz_report "artifact-cache" cache_report;
  (* corpus 4: wire-protocol frames (the daemon's network surface,
     binary mutators). The encoding is canonical — fixed-width
     big-endian integers, exact length prefixes, a closed kind set and
     an end-of-payload check — so a decoded mutant must re-encode to
     the very same bytes; a mutant that decodes but re-encodes
     differently (e.g. a non-canonical length) would be a parser
     soundness failure. Truncated frames, over-cap lengths, zero/short
     lengths, duplicated headers and trailing bytes all land here via
     the generic mutators. *)
  let wire_corpus =
    let module W = Zkml_serve.Wire in
    List.map W.encode_request
      [ W.Ping;
        W.Prove
          { tenant = "fuzz"; backend = B.Kzg; model = "mnist";
            seeds = [ 1L; 2L; 3L ] };
        W.Prove_seg
          { tenant = "fuzz"; backend = B.Kzg; model = "mnist"; segments = 4;
            seeds = [ 1L; 2L ] };
        W.Verify { tenant = "fuzz"; model = "mnist"; proof = p_mnist };
        W.Shutdown ]
    @ List.map W.encode_response
        [ W.Pong; W.Proofs [ p_mnist; p_dlrm ];
          W.Verdict { code = 2; detail = "malformed input" }; W.Overloaded;
          W.Stopping ]
  in
  let classify_wire text =
    let module W = Zkml_serve.Wire in
    match W.decode_any text with
    | Error e -> Fuzz.Malformed (Err.to_string e)
    | Ok v -> if String.equal (W.encode_any v) text then Fuzz.Valid else Fuzz.Accepted
  in
  let wire_report =
    Fuzz.run ~rng ~iters ~corpus:wire_corpus ~classify:classify_wire ()
  in
  List.iter print_endline (Fuzz.report_lines ~label:"wire" wire_report);
  log_fuzz_report "wire" wire_report;
  (* corpus 5: segmented proof files. Soundness claim: no mutant may be
     accepted, and an accepted (i.e. unchanged) file must re-render to
     itself — the canonical re-encode oracle over the seam digests and
     per-segment groups. *)
  Printf.printf "building segmented proof corpus (mnist/kzg, 3 segments)...\n%!";
  let p_seg = (SPF.prove m_mnist B.Kzg 1234 ~segments:3).SPF.p_text in
  let seg_kzg_keys = Hashtbl.create 16 and seg_ipa_keys = Hashtbl.create 16 in
  let classify_seg text =
    match SPF.of_string text with
    | Error e -> Fuzz.Malformed (Err.to_string e)
    | Ok sp ->
        if sp.SPF.sp_model <> "mnist" then Fuzz.Malformed "unknown model name"
        else if SPF.render sp <> text then
          (* parsed but not canonical: a parser soundness failure *)
          Fuzz.Accepted
        else begin
          match
            SPF.verdict ~kzg_keys:seg_kzg_keys ~ipa_keys:seg_ipa_keys m_mnist
              sp
          with
          | `Accepted -> if text = p_seg then Fuzz.Valid else Fuzz.Accepted
          | `Rejected -> Fuzz.Rejected
          | `Malformed e -> Fuzz.Malformed (Err.to_string e)
        end
  in
  let seg_report =
    Fuzz.run ~text:true ~rng ~iters:(min iters 250) ~corpus:[ p_seg ]
      ~classify:classify_seg ()
  in
  List.iter print_endline
    (Fuzz.report_lines ~label:"segmented-proofs" seg_report);
  log_fuzz_report "segmented-proofs" seg_report;
  if
    Fuzz.clean model_report && Fuzz.clean proof_report
    && Fuzz.clean cache_report && Fuzz.clean wire_report
    && Fuzz.clean seg_report
  then begin
    Printf.printf "fuzz: clean (0 escaped exceptions, 0 accepted mutants)\n";
    0
  end
  else begin
    Printf.eprintf "fuzz: FAILURES found\n";
    1
  end

(* ------------------------------------------------------------------ *)
(* metrics: dump the always-on registry, optionally after exercising a
   cached prove + batched verify so every pipeline instrument fires *)

let print_metrics_summary snap =
  let label_str = function
    | [] -> ""
    | ls ->
        "{"
        ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
        ^ "}"
  in
  List.iter
    (fun (f : Metrics.family_snap) ->
      List.iter
        (fun (srs : Metrics.series_snap) ->
          let name = f.Metrics.f_name ^ label_str srs.Metrics.s_labels in
          match srs.Metrics.s_value with
          | Metrics.Counter_v v | Metrics.Gauge_v v ->
              Printf.printf "%-52s %14s\n" name (Obs.json_float v)
          | Metrics.Hist_v h ->
              if h.Metrics.h_count > 0 then
                Printf.printf
                  "%-52s count %-6d sum %11.4f  p50 %9.3g  p90 %9.3g  p99 \
                   %9.3g\n"
                  name h.Metrics.h_count h.Metrics.h_sum
                  (Metrics.quantile h 0.50) (Metrics.quantile h 0.90)
                  (Metrics.quantile h 0.99))
        f.Metrics.f_series)
    snap

let cmd_metrics model backend seed fmt =
  (match model with
  | None -> ()
  | Some name ->
      (* one cached prove + one batched verify: exercises the phase
         histograms, cache counters, batch-size histograms, verdict and
         final-check counters in a single run. Progress goes to stderr
         so stdout stays machine-parseable. *)
      let m = load_model name in
      Printf.eprintf "collecting telemetry from a %s prove+verify run...\n%!"
        m.Zoo.name;
      let jobs =
        [ (Zoo.sample_inputs ~seed:(Int64.of_int seed) m, Int64.of_int seed) ]
      in
      let (module X) = B.select backend in
      let params = Lazy.force X.params in
      let entry, _ = X.Serve.prepare ~cfg:m.Zoo.cfg params m.Zoo.graph in
      let pairs =
        X.Serve.prove_batch params entry ~cfg:m.Zoo.cfg m.Zoo.graph jobs
      in
      let batch =
        List.map
          (fun (w, p) -> (w.X.Pipe.w_instance_ints, X.Proto.proof_to_bytes p))
          pairs
      in
      match X.Serve.verify_batch params entry ~batch with
      | X.Proto.Accepted -> ()
      | _ -> failwith "metrics: self-verification failed");
  let snap = Metrics.snapshot () in
  (match fmt with
  | `Prom -> print_string (Metrics.prometheus_string snap)
  | `Json -> print_endline (Metrics.json_string snap)
  | `Summary -> print_metrics_summary snap);
  0

(* ------------------------------------------------------------------ *)
(* serve / loadgen: the proving daemon and its seeded traffic replayer *)

module Server = Zkml_serve.Server

let addr_of_flags socket port =
  match (socket, port) with
  | Some path, None -> Ok (Server.Unix_sock path)
  | None, Some p when p > 0 && p < 65536 -> Ok (Server.Tcp p)
  | None, Some _ -> Error "--port must be in 1..65535"
  | Some _, Some _ -> Error "--socket and --port are mutually exclusive"
  | None, None -> Error "one of --socket PATH or --port PORT is required"

(* --warm all / --warm mnist,dlrm → zoo names to pre-compile *)
let warm_names = function
  | "" -> []
  | "all" -> List.map (fun m -> m.Zoo.name) (Zoo.all ())
  | s -> List.filter (fun x -> x <> "") (String.split_on_char ',' s)

let cmd_serve socket port workers queue warm =
  match addr_of_flags socket port with
  | Error msg ->
      Printf.eprintf "serve: %s\n" msg;
      2
  | Ok addr ->
      if workers < 1 || queue < 1 then begin
        Printf.eprintf "serve: --workers and --queue must be positive\n";
        2
      end
      else begin
        let config =
          {
            Server.workers;
            queue_capacity = queue;
            warm = warm_names warm;
            job_hook = None;
          }
        in
        Printf.printf "zkml serve: listening on %s (%d worker(s), queue %d)\n%!"
          (Server.addr_string addr) workers queue;
        Server.run ~config addr;
        0
      end

let cmd_loadgen socket port spawn seed requests concurrency models bench
    bench_out workers queue =
  match addr_of_flags socket port with
  | Error msg ->
      Printf.eprintf "loadgen: %s\n" msg;
      2
  | Ok addr ->
      let models = warm_names (if models = "" then "mnist,dlrm" else models) in
      let unknown =
        List.filter
          (fun name ->
            match Err.guard Err.Unknown_variant (fun () -> Zoo.by_name name) with
            | Ok _ -> false
            | Error _ -> true)
          models
      in
      if unknown <> [] then begin
        Printf.eprintf "loadgen: unknown model(s): %s\n"
          (String.concat ", " unknown);
        2
      end
      else begin
        let bench_out =
          match (bench_out, bench) with
          | Some path, _ -> Some path
          | None, true ->
              let dir =
                match Sys.getenv_opt "ZKML_BENCH_DIR" with
                | Some d when d <> "" -> d
                | _ -> "."
              in
              (try Unix.mkdir dir 0o755
               with Unix.Unix_error (Unix.EEXIST, _, _) | Unix.Unix_error (Unix.ENOENT, _, _) -> ());
              Some (Filename.concat dir "BENCH_PR9.json")
          | None, false -> None
        in
        let opts =
          {
            Zkml_serve.Loadgen.lg_addr = addr;
            lg_seed = seed;
            lg_requests = requests;
            lg_concurrency = concurrency;
            lg_models = models;
            lg_spawn =
              (if spawn then
                 Some
                   {
                     Server.workers;
                     queue_capacity = queue;
                     (* warm everything the schedule can touch, so
                        measured latencies are serve-time, not
                        compile-time *)
                     warm = models;
                     job_hook = None;
                   }
               else None);
            lg_bench_out = bench_out;
          }
        in
        Zkml_serve.Loadgen.run opts
      end

(* ------------------------------------------------------------------ *)
(* cmdliner wiring *)

open Cmdliner

let model_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"MODEL" ~doc:"Zoo model name or path to a .zkml file.")

let backend_arg =
  let alts = List.map (fun b -> (B.backend_name b, b)) B.all in
  Arg.(
    value
    & opt (enum alts) B.Kzg
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:("Commitment backend: " ^ doc_alts_enum alts ^ "."))

(* Worker-domain count for the parallel prover. The flag (or the
   ZKML_JOBS environment variable, which the pool also reads on its
   own) only changes wall-clock time: proof bytes are identical at
   every job count. *)
let jobs_term =
  let arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~env:(Cmd.Env.info "ZKML_JOBS")
          ~doc:
            "Worker domains for the parallel prover (default 1, i.e. \
             sequential). Output is bit-for-bit identical regardless of \
             $(docv).")
  in
  let apply = function
    | Some n -> Zkml_util.Pool.set_jobs n
    | None -> ()
  in
  Term.(const apply $ arg)

(* --metrics-out FILE on the prove/verify/batch family: write the
   metrics snapshot at process exit. Format by extension: .json gets
   the JSON snapshot, anything else Prometheus text. *)
let metrics_out = ref None

let metrics_out_term =
  let arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the metrics registry to $(docv) at exit (Prometheus \
             text exposition; JSON when $(docv) ends in .json).")
  in
  let apply = function Some _ as p -> metrics_out := p | None -> () in
  Term.(const apply $ arg)

(* --segments N on the prove family: 0 (the default) keeps the
   monolithic pipeline; N >= 1 switches to split-and-aggregate
   proving (N layer-boundary segments, seam-digest binding, one
   aggregated final check). *)
let segments_term =
  Arg.(
    value & opt int 0
    & info [ "segments" ] ~docv:"N"
        ~doc:
          "Prove in $(docv) independently-proved segments cut at layer \
           boundaries (0 = monolithic, the default). Segment proofs are \
           bound by seam digests over the shared boundary values and \
           verified with one aggregated final check; acceptance is \
           identical to the monolithic pipeline.")

let models_cmd =
  Cmd.v (Cmd.info "models" ~doc:"List the built-in model zoo.")
    Term.(const cmd_models $ const ())

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print parameters, flops and node count.")
    Term.(const cmd_stats $ model_arg)

let export_cmd =
  let path =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Serialize a zoo model to the textual format.")
    Term.(const cmd_export $ model_arg $ path)

let calibrate_cmd =
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Benchmark FFT/MSM/lookup/field costs (cost-model inputs).")
    Term.(const (fun () b -> cmd_calibrate b) $ jobs_term $ backend_arg)

let optimize_cmd =
  let objective =
    let alts = [ ("time", Opt.Min_time); ("size", Opt.Min_size) ] in
    Arg.(
      value
      & opt (enum alts) Opt.Min_time
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:("Optimizer objective: " ^ doc_alts_enum alts ^ "."))
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Run the circuit-layout optimizer (Algorithm 1).")
    Term.(
      const (fun () m b o -> cmd_optimize m b o)
      $ jobs_term $ model_arg $ backend_arg $ objective)

let check_constraints_cmd =
  let model =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"MODEL" ~doc:"Zoo model or .zkml path (default: all).")
  in
  let seed =
    Arg.(
      value & opt int 1234
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Deterministic seed for inputs and perturbation candidates.")
  in
  Cmd.v
    (Cmd.info "check-constraints"
       ~doc:
         "Run the under-constraint detector: every gadget in isolation plus \
          each zoo model's compiled circuit; perturb tracked advice cells \
          and search for a second witness the constraints accept. Exits 1 \
          if any cell is not pinned down.")
    Term.(
      const (fun () m b s -> cmd_check_constraints m b s)
      $ jobs_term $ model $ backend_arg $ seed)

let profile_cmd =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a chrome-trace JSON of the proving run to $(docv).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the profile report as summary JSON on stdout instead of \
             the pretty-printed tree (scriptable).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a traced prove; print the span tree and the predicted-vs-actual \
          cost-model report (paper 9.5). With --segments N, trace a \
          split-and-aggregate prove and print the per-segment phase \
          breakdown instead.")
    Term.(
      const (fun () () m b t j s -> cmd_profile m b t j s)
      $ jobs_term $ metrics_out_term $ model_arg $ backend_arg $ trace $ json
      $ segments_term)

let prove_cmd =
  let out =
    Arg.(
      value & opt string "proof.zkp"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Proof output file.")
  in
  let seed =
    Arg.(
      value & opt int 1234
      & info [ "seed" ] ~docv:"SEED" ~doc:"Input sampling seed.")
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Compile, optimize, prove; write a proof file. With --segments N, \
          cut the circuit at layer boundaries into N independently-proved \
          segments bound by seam digests and write a `zkml-proof-seg v3` \
          file instead.")
    Term.(
      const (fun () () m b o s n -> cmd_prove m b o s n)
      $ jobs_term $ metrics_out_term $ model_arg $ backend_arg $ out $ seed
      $ segments_term)

let verify_cmd =
  let proof =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"PROOF" ~doc:"Proof file from `zkml prove`.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Verify a proof file against a model. Exits 0 when the proof is \
          accepted, 1 when it is well-formed but rejected, 2 when any input \
          is malformed.")
    Term.(
      const (fun () () m p -> cmd_verify m p)
      $ jobs_term $ metrics_out_term $ model_arg $ proof)

let batch_prove_cmd =
  let out =
    Arg.(
      value & opt string "proof"
      & info [ "o"; "out" ] ~docv:"PREFIX"
          ~doc:"Proof output prefix; writes $(docv)-<seed>.zkp per input.")
  in
  let seeds =
    Arg.(
      value & pos_right 0 int []
      & info [] ~docv:"SEED" ~doc:"Input sampling seeds, one proof each.")
  in
  Cmd.v
    (Cmd.info "batch-prove"
       ~doc:
         "Prove one input per SEED against a single compiled circuit. \
          Compilation artifacts (layout, keys, fixed commitments) are cached \
          per model content hash under ZKML_CACHE_DIR (default \
          ~/.cache/zkml), so a second run skips compilation. Proof bytes are \
          identical to `zkml prove` runs with the same seeds.")
    Term.(
      const (fun () () m b o s n -> cmd_batch_prove m b o s n)
      $ jobs_term $ metrics_out_term $ model_arg $ backend_arg $ out $ seeds
      $ segments_term)

let batch_verify_cmd =
  let proofs =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"PROOF" ~doc:"Proof files from `zkml prove`/`batch-prove`.")
  in
  Cmd.v
    (Cmd.info "batch-verify"
       ~doc:
         "Verify N proof files against one model with a single batched final \
          check (a random linear combination of the per-proof checks). Exits \
          0 when every proof is accepted, 1 when the batch is well-formed but \
          some member is false, 2 when any input is malformed. All members \
          must share the proof-file header (same circuit layout).")
    Term.(
      const (fun () () m p -> cmd_batch_verify m p)
      $ jobs_term $ metrics_out_term $ model_arg $ proofs)

let fuzz_cmd =
  let iters =
    Arg.(
      value & opt int 500
      & info [ "iters" ] ~docv:"N" ~doc:"Mutants per corpus.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Fuzz seed; a (seed, iters) pair replays exactly.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Deterministically fuzz the untrusted-input surface: mutate valid \
          model and proof files (truncation, bit flips, splices, \
          duplicated/reordered lines, numeric overflows) and check every \
          mutant is cleanly classified — no escaped exception, no accepted \
          mutant.")
    Term.(const (fun () i s -> cmd_fuzz i s) $ jobs_term $ iters $ seed)

let segments_smoke_cmd =
  Cmd.v
    (Cmd.info "segments-smoke"
       ~doc:
         "End-to-end smoke test for split-and-aggregate proving: prove \
          mnist monolithically and at --segments 4, check both are \
          accepted, then check a seam-tampered and a truncated variant \
          are rejected. Exits non-zero on any failure.")
    Term.(const (fun () -> cmd_segments_smoke ()) $ jobs_term)

let metrics_cmd =
  let model =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"MODEL"
          ~doc:
            "Optional zoo model (or .zkml path): run one cached prove and \
             one batched verify of it first, so the dump shows live \
             pipeline telemetry.")
  in
  let seed =
    Arg.(
      value & opt int 1234
      & info [ "seed" ] ~docv:"SEED" ~doc:"Input sampling seed.")
  in
  let fmt =
    Arg.(
      value
      & opt
          (enum [ ("summary", `Summary); ("prom", `Prom); ("json", `Json) ])
          `Summary
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: summary (human table with p50/p90/p99), prom \
             (Prometheus text exposition) or json.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Dump the always-on metrics registry: per-phase latency histograms \
          (ntt, msm, commit, quotient, opening), cache/verdict/batch \
          counters. With MODEL, exercises the full pipeline first.")
    Term.(
      const (fun () () m b s f -> cmd_metrics m b s f)
      $ jobs_term $ metrics_out_term $ model $ backend_arg $ seed $ fmt)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on (or connect to) a unix-domain socket at $(docv).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on (or connect to) loopback TCP port $(docv).")

let serve_cmd =
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~env:(Cmd.Env.info "ZKML_SERVE_WORKERS")
          ~doc:"Proving worker threads draining the job queue.")
  in
  let queue =
    Arg.(
      value & opt int 16
      & info [ "queue" ] ~docv:"N"
          ~env:(Cmd.Env.info "ZKML_SERVE_QUEUE")
          ~doc:
            "Admission-control capacity: queued plus in-flight jobs. A \
             request arriving at a full queue is answered Overloaded \
             immediately, never parked.")
  in
  let warm =
    Arg.(
      value & opt string ""
      & info [ "warm" ] ~docv:"MODELS"
          ~env:(Cmd.Env.info "ZKML_SERVE_WARM")
          ~doc:
            "Comma-separated zoo models (or 'all') whose artifacts are \
             compiled before the listener opens, so first requests hit a \
             warm cache.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent proving daemon: a length-prefixed binary \
          protocol over a unix socket (--socket) or loopback TCP (--port); \
          prove and verify requests from concurrent tenants are queued, \
          proved by worker threads against the shared artifact cache, and \
          answered with the `verify` 0/1/2 verdict contract. Malformed \
          frames are answered with verdict 2 — the daemon never dies on \
          bad input. A Shutdown frame stops it cleanly.")
    Term.(
      const (fun () s p w q wa -> cmd_serve s p w q wa)
      $ jobs_term $ socket_arg $ port_arg $ workers $ queue $ warm)

let loadgen_cmd =
  let spawn =
    Arg.(
      value & flag
      & info [ "spawn" ]
          ~doc:
            "Fork the daemon on the given address first, drive it, shut it \
             down over the wire and check its exit status — a \
             self-contained smoke/bench run.")
  in
  let seed =
    Arg.(
      value & opt int 9
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Schedule seed; a (seed, requests, models) triple replays \
             exactly.")
  in
  let requests =
    Arg.(
      value & opt int 30
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "Total requests: one warm-up prove per model, then a seeded \
             mixed schedule of proves, verifications (genuine and \
             tampered), pings and malformed frames.")
  in
  let concurrency =
    Arg.(
      value & opt int 4
      & info [ "concurrency" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let models =
    Arg.(
      value & opt string "mnist,dlrm"
      & info [ "models" ] ~docv:"MODELS"
          ~doc:"Comma-separated zoo models (or 'all') to draw traffic from.")
  in
  let bench =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:
            "Write the serve benchmark (per-kind p50/p90/p99 latency, \
             proofs/sec) as BENCH_PR9.json under ZKML_BENCH_DIR (default \
             the current directory).")
  in
  let bench_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench-out" ] ~docv:"FILE"
          ~doc:"Write the serve benchmark JSON to $(docv) (overrides --bench).")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker threads for the spawned daemon (with --spawn).")
  in
  let queue =
    Arg.(
      value & opt int 16
      & info [ "queue" ] ~docv:"N"
          ~doc:"Queue capacity for the spawned daemon (with --spawn).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay a deterministic seeded mix of prove/verify/ping/malformed \
          traffic against a running daemon (or --spawn one), assert every \
          answer — proofs for proves, verdict 0/1/2 for \
          genuine/tampered/malformed — and report per-kind latency \
          percentiles and proofs/sec. Exits 1 if any request was \
          misanswered.")
    Term.(
      const (fun () s p sp se r c m b bo w q ->
          cmd_loadgen s p sp se r c m b bo w q)
      $ jobs_term $ socket_arg $ port_arg $ spawn $ seed $ requests
      $ concurrency $ models $ bench $ bench_out $ workers $ queue)

let main =
  Cmd.group
    (Cmd.info "zkml" ~version:"1.0.0"
       ~doc:"Optimizing compiler from ML models to ZK-SNARK circuits."
       ~envs:
         [
           Cmd.Env.info "ZKML_JOBS"
             ~doc:
               "Worker domains for the parallel prover (same as --jobs; \
                default 1). Proof bytes are identical at every job count.";
           Cmd.Env.info "ZKML_TRACE"
             ~doc:
               "If set to a path, record a chrome-trace of the whole \
                command there at exit.";
           Cmd.Env.info "ZKML_METRICS"
             ~doc:
               "If set to a path, write the always-on metrics registry \
                there at exit (Prometheus text; JSON when the path ends \
                in .json) — textfile-collector style exposition.";
           Cmd.Env.info "ZKML_LOG"
             ~doc:
               "Structured JSON-lines event log destination: a file path \
                (append), 'stderr', or unset to disable.";
           Cmd.Env.info "ZKML_LOG_LEVEL"
             ~doc:
               "Event-log threshold: debug, info (default), warn or \
                error.";
           Cmd.Env.info "ZKML_SERVE_WORKERS"
             ~doc:
               "Proving worker threads for `zkml serve` (same as \
                --workers; default 2).";
           Cmd.Env.info "ZKML_SERVE_QUEUE"
             ~doc:
               "Admission-control capacity for `zkml serve` (same as \
                --queue; default 16): queued plus in-flight jobs before \
                new requests are answered Overloaded.";
           Cmd.Env.info "ZKML_SERVE_WARM"
             ~doc:
               "Models `zkml serve` pre-compiles before listening (same \
                as --warm): comma-separated zoo names or 'all'.";
         ])
    [ models_cmd; stats_cmd; export_cmd; calibrate_cmd; optimize_cmd;
      prove_cmd; verify_cmd; batch_prove_cmd; batch_verify_cmd; profile_cmd;
      check_constraints_cmd; fuzz_cmd; segments_smoke_cmd; metrics_cmd;
      serve_cmd; loadgen_cmd ]

let write_metrics_file path =
  let snap = Metrics.snapshot () in
  let data =
    if Filename.check_suffix path ".json" then Metrics.json_string snap ^ "\n"
    else Metrics.prometheus_string snap
  in
  Obs.write_file path data

let () =
  (* ZKML_TRACE=<path>: trace any subcommand end to end and dump the
     chrome-trace at exit. *)
  (match Sys.getenv_opt "ZKML_TRACE" with
  | Some path when path <> "" ->
      Obs.enable ();
      at_exit (fun () ->
          match Obs.snapshot () with
          | Some report -> Obs.write_file path (Obs.chrome_trace report)
          | None -> ())
  | _ -> ());
  (* metrics exposition at exit: --metrics-out FILE and/or
     ZKML_METRICS=<path> (both may be set; each gets a copy) *)
  at_exit (fun () ->
      (match !metrics_out with
      | Some path when path <> "" -> write_metrics_file path
      | _ -> ());
      match Sys.getenv_opt "ZKML_METRICS" with
      | Some path when path <> "" && !metrics_out <> Some path ->
          write_metrics_file path
      | _ -> ());
  (* A model input whose activations leave a lookup table's range, or a
     model that cannot be loaded, is refused, not an internal error: one
     stderr line and exit 2, from every command. Any other escaped
     exception keeps cmdliner's report and exit code. *)
  exit
    (match Cmd.eval' ~catch:false main with
    | code -> code
    | exception Zkml_nn.Quant_exec.Out_of_range msg ->
        Printf.eprintf "zkml: input refused: %s\n%!" msg;
        2
    | exception Bad_model e ->
        Printf.eprintf "zkml: %s\n%!" (Err.to_string e);
        2
    | exception e ->
        Printf.eprintf "zkml: internal error, uncaught exception:\n%s\n%s%!"
          (Printexc.to_string e) (Printexc.get_backtrace ());
        Cmd.Exit.internal_error)
