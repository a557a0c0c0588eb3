(** The `zkml-proof-seg v3` file format: writer, total parser, the
    split-and-aggregate prover and the aggregate verdict classifier.

    A segmented proof carries one (k, instance, proof) group per
    segment plus one digest per seam. The segmentation plan itself never
    travels: prover and verifier both derive it deterministically from
    (model graph, spec, ncols, cfg, segment count), so a file claiming a
    plan the model does not produce is [`Malformed]. Seam tampering —
    editing a digest, splicing groups from two honest runs, feeding a
    consumer segment different values than the producer exposed — is a
    well-formed-but-false statement and classifies as [`Rejected]
    (verdict 1). Like {!Proof_file}, the format is line-oriented and
    strict: fields in writer order, canonical decimals, lowercase hex,
    trailing newline mandatory — parsing then re-rendering an accepted
    file reproduces it byte-for-byte (the fuzz oracle). *)

module T = Zkml_tensor.Tensor
module Fx = Zkml_fixed.Fixed
module Zoo = Zkml_models.Zoo
module Opt = Zkml_compiler.Optimizer
module Seg = Zkml_compiler.Segment
module Spec = Zkml_compiler.Layout_spec
module Err = Zkml_util.Err
module Obs = Zkml_obs.Obs
module Metrics = Zkml_obs.Metrics
module B = Backends

type seg_group = { sg_k : int; sg_instance : int array; sg_proof : string }

type t = {
  sp_model : string;
  sp_backend : Backends.backend;
  sp_spec : Spec.t;
  sp_ncols : int;
  sp_cfg : Fx.config;
  sp_seams : string array;  (** raw 32-byte seam digests, plan order *)
  sp_groups : seg_group array;  (** one per segment, segment order *)
}

let magic = "zkml-proof-seg v3"
let max_seams = 4096

let seam_digest (slice : int array) =
  Zkml_util.Sha256.digest
    (String.concat "," (List.map string_of_int (Array.to_list slice)))

let to_string ~backend ~model_name ~(cfg : Fx.config) ~spec ~ncols
    ~(seams : string array) ~(groups : seg_group array) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "%s\n" magic;
  Printf.bprintf buf "model %s\n" model_name;
  Printf.bprintf buf "backend %s\n" (Backends.backend_name backend);
  Printf.bprintf buf "spec %s\n" (Spec.to_string spec);
  Printf.bprintf buf "ncols %d\n" ncols;
  Printf.bprintf buf "scale_bits %d\n" cfg.Fx.scale_bits;
  Printf.bprintf buf "table_bits %d\n" cfg.Fx.table_bits;
  Printf.bprintf buf "segments %d\n" (Array.length groups);
  Printf.bprintf buf "seams %d\n" (Array.length seams);
  Array.iteri
    (fun i d ->
      Printf.bprintf buf "seam %d %s\n" i (Zkml_util.Bytes_util.to_hex d))
    seams;
  Array.iteri
    (fun i g ->
      Printf.bprintf buf "segment %d\n" i;
      Printf.bprintf buf "k %d\n" g.sg_k;
      Printf.bprintf buf "instance %s\n"
        (String.concat ","
           (List.map string_of_int (Array.to_list g.sg_instance)));
      Printf.bprintf buf "proof %s\n" (Zkml_util.Bytes_util.to_hex g.sg_proof))
    groups;
  Buffer.contents buf

(** Canonical text of a parsed (or deliberately edited) record — the
    inverse of {!of_string} on well-formed files. *)
let render sp =
  to_string ~backend:sp.sp_backend ~model_name:sp.sp_model ~cfg:sp.sp_cfg
    ~spec:sp.sp_spec ~ncols:sp.sp_ncols ~seams:sp.sp_seams ~groups:sp.sp_groups

(* Total parser: a strict line cursor in writer order. Any deviation —
   missing line, wrong key, non-canonical number, out-of-sequence seam
   or segment index — is a typed error with the offending line. *)
let of_string text =
  let open Err in
  in_context "seg-proof-file"
  @@
  let n = String.length text in
  if n = 0 || text.[n - 1] <> '\n' then
    fail Truncated "file does not end with a newline"
  else begin
    let lines = Array.of_list (String.split_on_char '\n' text) in
    let nlines = Array.length lines - 1 in
    (* drop the final newline's empty tail *)
    let pos = ref 0 in
    let next what =
      if !pos >= nlines then failf Truncated "missing %s line" what
      else begin
        let ln = !pos + 1 in
        let line = lines.(!pos) in
        incr pos;
        Ok (ln, line)
      end
    in
    let field what =
      let* ln, line = next what in
      match String.index_opt line ' ' with
      | None ->
          failf ~offset:(Line ln) Bad_field "expected '%s <value>', got %S"
            what
            (String.sub line 0 (min 24 (String.length line)))
      | Some i ->
          let k = String.sub line 0 i in
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          if k = what then Ok (ln, v)
          else
            failf ~offset:(Line ln) Bad_field "expected field %s, got %S" what
              k
    in
    let int_get what ~min ~max =
      let* ln, v = field what in
      bounded_int_field ~offset:(Line ln) ~what ~min ~max v
    in
    let* hln, header = next "header" in
    let* () =
      if header = magic then Ok ()
      else failf ~offset:(Line hln) Bad_header "expected %S" magic
    in
    let* _, sp_model = field "model" in
    let* bln, backend_s = field "backend" in
    let* sp_backend =
      match Backends.backend_of_string backend_s with
      | Some b -> Ok b
      | None ->
          failf ~offset:(Line bln) Unknown_variant "backend %S" backend_s
    in
    let* sln, spec_s = field "spec" in
    let* sp_spec =
      guard ~offset:(Line sln) Bad_field (fun () -> Spec.of_string spec_s)
    in
    let* sp_ncols = int_get "ncols" ~min:1 ~max:256 in
    let* scale_bits = int_get "scale_bits" ~min:1 ~max:30 in
    let* table_bits = int_get "table_bits" ~min:1 ~max:20 in
    let* segments = int_get "segments" ~min:1 ~max:Seg.max_segments in
    let* seams = int_get "seams" ~min:0 ~max:max_seams in
    let rec seam_lines acc i =
      if i = seams then Ok (List.rev acc)
      else
        let* ln, v = field "seam" in
        match String.index_opt v ' ' with
        | None -> failf ~offset:(Line ln) Bad_field "expected 'seam <i> <hex>'"
        | Some sp ->
            let idx = String.sub v 0 sp in
            let hex = String.sub v (sp + 1) (String.length v - sp - 1) in
            let* () =
              if idx = string_of_int i then Ok ()
              else
                failf ~offset:(Line ln) Bad_field "seam index %S, expected %d"
                  idx i
            in
            let* () =
              if String.length hex = 64 then Ok ()
              else
                failf ~offset:(Line ln) Invalid_encoding
                  "seam digest must be 64 hex chars"
            in
            let* d = hex_field ~offset:(Line ln) ~what:"seam" hex in
            seam_lines (d :: acc) (i + 1)
    in
    let* seam_list = seam_lines [] 0 in
    let rec group_lines acc i =
      if i = segments then Ok (List.rev acc)
      else
        let* ln, v = field "segment" in
        let* () =
          if v = string_of_int i then Ok ()
          else
            failf ~offset:(Line ln) Bad_field "segment index %S, expected %d" v
              i
        in
        let* sg_k = int_get "k" ~min:1 ~max:B.srs_k in
        let* iln, inst_s = field "instance" in
        let* inst =
          if inst_s = "" then Ok []
          else
            map_list
              (int_field ~offset:(Line iln) ~what:"instance")
              (String.split_on_char ',' inst_s)
        in
        let* () =
          if List.length inst > 1 lsl B.srs_k then
            failf ~offset:(Line iln) Out_of_range
              "instance holds %d values; SRS caps circuits at %d rows"
              (List.length inst) (1 lsl B.srs_k)
          else Ok ()
        in
        let* pln, hex = field "proof" in
        let* sg_proof = hex_field ~offset:(Line pln) ~what:"proof" hex in
        group_lines
          ({ sg_k; sg_instance = Array.of_list inst; sg_proof } :: acc)
          (i + 1)
    in
    let* group_list = group_lines [] 0 in
    let* () =
      if !pos = nlines then Ok ()
      else
        failf
          ~offset:(Line (!pos + 1))
          Trailing_data "unexpected line after last segment"
    in
    Ok
      {
        sp_model;
        sp_backend;
        sp_spec;
        sp_ncols;
        sp_cfg = { Fx.scale_bits; table_bits };
        sp_seams = Array.of_list seam_list;
        sp_groups = Array.of_list group_list;
      }
  end

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string text
  | exception Sys_error m ->
      Err.fail ~context:[ "seg-proof-file" ] Err.Io_error m

(** Sniff: does this text claim to be a segmented proof file? Used by
    `zkml verify` and the daemon to dispatch between the two formats. *)
let looks_segmented text =
  let ml = String.length magic in
  String.length text > ml
  && String.sub text 0 ml = magic
  && text.[ml] = '\n'

(* ------------------------------------------------------------------ *)
(* Prover *)

type proved = {
  p_text : string;
  p_prove_s : float;
  p_peak_rows : int;  (** largest per-segment content-row count *)
  p_mono_rows : int;  (** content rows of the monolithic circuit *)
  p_ks : int list;  (** per-segment k actually used *)
}

(* Layout search shared with the monolithic path: same optimizer, same
   calibrated cost model, so spec/ncols match what `zkml prove` would
   pick for this model — segments only shrink k. *)
let plan_for ~times ~backend ~group_bytes ~field_bytes (m : Zoo.model) exec =
  let plan, _ =
    Opt.optimize ~k_max:B.srs_k ~times ~backend ~group_bytes ~field_bytes
      ~cfg:m.Zoo.cfg m.Zoo.graph exec
  in
  plan

(** Prove [m] under [backend] at [segments] segments; returns the
    rendered file plus the measurements the bench reports. The effective
    segment count may be lower for tiny graphs (see {!Seg.plan}). *)
let prove (m : Zoo.model) backend seed ~segments =
  let cfg = m.Zoo.cfg in
  let inputs = Zoo.sample_inputs ~seed:(Int64.of_int seed) m in
  let qinputs = List.map (T.map (Fx.quantize cfg)) inputs in
  let exec = Zkml_nn.Quant_exec.run cfg m.Zoo.graph ~inputs:qinputs in
  let finish ~spec ~ncols ~splan ~mono_rows ~ks ~groups ~prove_s =
    let seams =
      Array.map
        (fun (sm : Seg.seam) ->
          let si, off = sm.Seg.sm_src in
          match
            Seg.slice_copy groups.(si).sg_instance ~off ~numel:sm.Seg.sm_numel
          with
          | Some slice -> seam_digest slice
          | None -> failwith "seam outside instance column")
        splan.Seg.p_seams
    in
    let peak = Seg.peak_rows splan in
    Obs.count "segments.peak_rows" peak;
    Metrics.set_gauge
      ~help:"Content rows of the largest segment in the last segmented prove"
      "zkml_segment_peak_rows" (float_of_int peak);
    {
      p_text =
        to_string ~backend ~model_name:m.Zoo.name ~cfg ~spec ~ncols ~seams
          ~groups;
      p_prove_s = prove_s;
      p_peak_rows = peak;
      p_mono_rows = mono_rows;
      p_ks = ks;
    }
  in
  let (module X) = B.select backend in
  let params = Lazy.force X.params in
  let times = X.Pipe.calibrated params in
  let plan =
    plan_for ~times ~backend:X.Pipe.backend ~group_bytes:X.Scheme.G.size_bytes
      ~field_bytes:X.Pipe.F.size_bytes m exec
  in
  let spec = plan.Opt.spec and ncols = plan.Opt.ncols in
  let splan = Seg.plan ~spec ~ncols ~cfg ~segments m.Zoo.graph in
  let prepared =
    Array.map
      (fun (sg : Seg.seg) ->
        Obs.Span.with_ ~name:(Printf.sprintf "segment-%d" sg.Seg.sg_index)
        @@ fun () ->
        let rec keys_at k =
          if k > B.srs_k then failwith "segment does not fit the SRS at any k"
          else
            match
              X.Serve.prepare_for_header ~spec ~ncols ~k ~cfg params
                sg.Seg.sg_graph
            with
            | Ok (entry, _) -> (entry, k)
            | Error _ -> keys_at (k + 1)
        in
        let entry, k = keys_at sg.Seg.sg_k in
        let w =
          X.Pipe.witness_ints ~spec ~ncols ~k ~cfg sg.Seg.sg_graph
            (List.map
               (fun id -> exec.Zkml_nn.Quant_exec.values.(id))
               sg.Seg.sg_imports)
        in
        (sg, entry, k, w))
      splan.Seg.p_segments
  in
  let jobs =
    Array.to_list prepared
    |> List.mapi (fun i (_, entry, _, w) ->
           ( entry.X.Serve.e_keys,
             {
               X.Proto.job_instance = w.X.Pipe.w_instance;
               job_advice = (fun _ -> Array.map Array.copy w.X.Pipe.w_advice);
               job_rng =
                 Zkml_util.Rng.create
                   (Int64.add (Int64.of_int seed) (Int64.of_int i));
             } ))
  in
  let proofs, prove_s =
    Zkml_util.Timer.time (fun () -> X.Proto.prove_segmented params jobs)
  in
  let ok =
    X.Proto.verify_segmented params
      ~batch:
        (List.map2
           (fun (keys, job) proof -> (keys, job.X.Proto.job_instance, proof))
           jobs proofs)
  in
  if not ok then failwith "segmented self-verification failed";
  let groups =
    Array.of_list
      (List.map2
         (fun (_, _, k, w) proof ->
           {
             sg_k = k;
             sg_instance = w.X.Pipe.w_instance_ints;
             sg_proof = X.Proto.proof_to_bytes proof;
           })
         (Array.to_list prepared) proofs)
  in
  finish ~spec ~ncols ~splan
    ~mono_rows:plan.Opt.summary.Zkml_compiler.Layouter.rows_content
    ~ks:(Array.to_list (Array.map (fun (_, _, k, _) -> k) prepared))
    ~groups ~prove_s

(* ------------------------------------------------------------------ *)
(* Verdict *)

(* Early (pre-protocol) judgements tally through the same counter the
   protocol layer uses, so every segmented verdict is counted exactly
   once. *)
let tally code v =
  Metrics.inc
    ~labels:[ ("verdict", code) ]
    ~help:"Verifier verdicts on untrusted proof bytes"
    "zkml_verify_verdicts_total" 1.0;
  v

let malformed msg =
  tally "malformed"
    (`Malformed (Err.make ~context:[ "seg-proof-file" ] Err.Bad_field msg))

(* Structure against the derived plan: segment and seam counts must
   match, every seam slice must exist. Mismatched counts mean the file
   was never a proof for this model at this segmentation — malformed
   framing — whereas wrong seam *values* are a false statement. *)
let structural_and_seam_check splan sp =
  let nseg = Array.length splan.Seg.p_segments in
  if Array.length sp.sp_groups <> nseg then
    `Structural
      (Printf.sprintf "file carries %d segments; the model splits into %d"
         (Array.length sp.sp_groups) nseg)
  else if Array.length sp.sp_seams <> Array.length splan.Seg.p_seams then
    `Structural
      (Printf.sprintf "file carries %d seams; the plan has %d"
         (Array.length sp.sp_seams)
         (Array.length splan.Seg.p_seams))
  else begin
    let verdict = ref `Seams_ok in
    Array.iteri
      (fun j (sm : Seg.seam) ->
        if !verdict = `Seams_ok then begin
          let slice_at (si, off) =
            Seg.slice_copy sp.sp_groups.(si).sg_instance ~off
              ~numel:sm.Seg.sm_numel
          in
          match slice_at sm.Seg.sm_src with
          | None ->
              verdict :=
                `Structural
                  (Printf.sprintf "seam %d outside segment instance" j)
          | Some src ->
              if seam_digest src <> sp.sp_seams.(j) then
                verdict := `Seam_false
              else
                List.iter
                  (fun dst ->
                    match slice_at dst with
                    | None ->
                        verdict :=
                          `Structural
                            (Printf.sprintf "seam %d outside segment instance"
                               j)
                    | Some d -> if d <> src then verdict := `Seam_false)
                  sm.Seg.sm_dsts
        end)
      splan.Seg.p_seams;
    !verdict
  end

(** Classify a parsed segmented proof file against a model: [`Accepted],
    [`Rejected] (well-formed but false — includes any seam violation) or
    [`Malformed of Err.t]. Total. [kzg_keys]/[ipa_keys] memoize rebuilt
    per-segment keys across calls (the fuzzer's mutants share headers). *)
let verdict ~kzg_keys ~ipa_keys (m : Zoo.model) sp =
  if sp.sp_model <> m.Zoo.name then
    tally "malformed"
      (`Malformed
         (Err.make ~context:[ "seg-proof-file" ] Err.Bad_field
            (Printf.sprintf "proof is for model %S, not %S" sp.sp_model
               m.Zoo.name)))
  else begin
    let segments = Array.length sp.sp_groups in
    match
      Err.guard Err.Bad_field (fun () ->
          Seg.plan ~spec:sp.sp_spec ~ncols:sp.sp_ncols ~cfg:sp.sp_cfg ~segments
            m.Zoo.graph)
    with
    | Error e ->
        tally "malformed" (`Malformed (Err.with_context "segment-plan" e))
    | Ok splan -> (
        match structural_and_seam_check splan sp with
        | `Structural msg -> malformed msg
        | `Seam_false -> tally "rejected" `Rejected
        | `Seams_ok -> (
            let header i k =
              Printf.sprintf "seg|%s|%s|%s|%d|%d|%d|%d|%d/%d" m.Zoo.name
                (Backends.backend_name sp.sp_backend)
                (Spec.to_string sp.sp_spec) sp.sp_ncols k
                sp.sp_cfg.Fx.scale_bits sp.sp_cfg.Fx.table_bits i segments
            in
            let (module X) = B.select sp.sp_backend in
            let params = Lazy.force X.params in
            let cache = X.pick_keys ~kzg:kzg_keys ~ipa:ipa_keys in
            let rec build acc i =
              if i = segments then Ok (List.rev acc)
              else
                let sg = splan.Seg.p_segments.(i) in
                let g = sp.sp_groups.(i) in
                match
                  B.memo_keys cache (header i g.sg_k) (fun () ->
                      X.Pipe.rebuild_keys params ~spec:sp.sp_spec
                        ~ncols:sp.sp_ncols ~k:g.sg_k ~cfg:sp.sp_cfg
                        sg.Seg.sg_graph)
                with
                | Error e -> Error (Err.with_context "rebuild-keys" e)
                | Ok keys -> (
                    match X.Pipe.instance_col_of_ints keys g.sg_instance with
                    | Error e -> Error e
                    | Ok instance ->
                        build ((keys, instance, g.sg_proof) :: acc) (i + 1))
            in
            match build [] 0 with
            | Error e -> tally "malformed" (`Malformed e)
            | Ok batch -> (
                match X.Proto.verify_segmented_bytes params ~batch with
                | X.Proto.Accepted -> `Accepted
                | X.Proto.Rejected -> `Rejected
                | X.Proto.Malformed e -> `Malformed e)))
  end
