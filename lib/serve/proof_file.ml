(** The `zkml-proof v3` file format: writer, total parser, prover and
    verdict classifier.

    One implementation serves every entry point — `zkml prove`/`verify`,
    the batch commands, the fuzz harness, the proving daemon and the
    load generator — so "byte-identical proof files" is a property of
    this module, not a convention between copies. The format is
    line-oriented and strict: fields appear exactly once in writer
    order, numbers are canonical decimals, the file ends in a newline
    (see DESIGN.md "Untrusted inputs"). *)

module Fx = Zkml_fixed.Fixed
module Zoo = Zkml_models.Zoo
module Opt = Zkml_compiler.Optimizer
module Spec = Zkml_compiler.Layout_spec
module Err = Zkml_util.Err
module B = Backends

type t = {
  pf_model : string;
  pf_backend : Backends.backend;
  pf_spec : Spec.t;
  pf_ncols : int;
  pf_k : int;
  pf_cfg : Fx.config;
  pf_instance : int array;
  pf_proof : string;
}

let magic = "zkml-proof v3"

(* Sanity bounds on header fields, so a hostile header cannot demand a
   huge circuit rebuild before the proof is even looked at. The zoo's
   real plans sit far inside all of them. *)
let max_ncols = 256
let max_scale_bits = 30
let max_table_bits = 20

let to_string ~backend ~model_name ~(cfg : Fx.config) ~spec ~ncols ~k
    ~instance_ints ~proof_hex =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%s\n" magic;
  Printf.bprintf buf "model %s\n" model_name;
  Printf.bprintf buf "backend %s\n" (Backends.backend_name backend);
  Printf.bprintf buf "spec %s\n" (Spec.to_string spec);
  Printf.bprintf buf "ncols %d\n" ncols;
  Printf.bprintf buf "k %d\n" k;
  Printf.bprintf buf "scale_bits %d\n" cfg.Fx.scale_bits;
  Printf.bprintf buf "table_bits %d\n" cfg.Fx.table_bits;
  Printf.bprintf buf "instance %s\n"
    (String.concat "," (List.map string_of_int (Array.to_list instance_ints)));
  Printf.bprintf buf "proof %s\n" proof_hex;
  Buffer.contents buf

(** Canonical text of a parsed (or deliberately edited) record — the
    inverse of {!of_string} on well-formed files. *)
let render pf =
  to_string ~backend:pf.pf_backend ~model_name:pf.pf_model ~cfg:pf.pf_cfg
    ~spec:pf.pf_spec ~ncols:pf.pf_ncols ~k:pf.pf_k
    ~instance_ints:pf.pf_instance
    ~proof_hex:(Zkml_util.Bytes_util.to_hex pf.pf_proof)

(* Total parser for the proof-file format. Line-oriented and strict:
   the file must end with a newline (so byte-level truncation is always
   detectable — [proof] is the last line), every line is a known
   [key value] pair, no key repeats, every numeric field is bounded. *)
let of_string text =
  let open Err in
  in_context "proof-file"
  @@
  let n = String.length text in
  if n = 0 || text.[n - 1] <> '\n' then
    fail Truncated "file does not end with a newline"
  else
    match String.split_on_char '\n' text with
    | [] -> fail Bad_header "empty file"
    | header :: rest ->
        let* () =
          if header = magic then Ok ()
          else failf ~offset:(Line 1) Bad_header "expected %S" magic
        in
        (* fields must appear exactly once, in the writer's order — a
           key-value map would classify reordered lines as equal to the
           original, hiding tampering from byte-level comparison *)
        let known =
          [ "model"; "backend"; "spec"; "ncols"; "k"; "scale_bits";
            "table_bits"; "instance"; "proof" ]
        in
        let rec collect ln expect acc = function
          | [] | [ "" ] -> (
              (* the final newline's empty tail *)
              match expect with
              | [] -> Ok (List.rev acc)
              | k :: _ -> failf Missing_field "missing field %s" k)
          | "" :: _ -> fail ~offset:(Line ln) Bad_field "blank line"
          | line :: rest -> (
              match String.index_opt line ' ' with
              | None ->
                  failf ~offset:(Line ln) Bad_field
                    "expected '<key> <value>', got %S"
                    (String.sub line 0 (min 24 (String.length line)))
              | Some i -> (
                  let k = String.sub line 0 i in
                  let v =
                    String.sub line (i + 1) (String.length line - i - 1)
                  in
                  match expect with
                  | e :: expect' when k = e ->
                      collect (ln + 1) expect' ((k, (ln, v)) :: acc) rest
                  | [] ->
                      failf ~offset:(Line ln) Trailing_data
                        "unexpected line after proof"
                  | e :: _ ->
                      if List.mem_assoc k acc then
                        failf ~offset:(Line ln) Duplicate_field
                          "field %s repeated" k
                      else if List.mem k known then
                        failf ~offset:(Line ln) Bad_field
                          "field %s out of order (expected %s)" k e
                      else failf ~offset:(Line ln) Unknown_variant "field %S" k))
        in
        let* fields = collect 2 known [] rest in
        let get k = Ok (List.assoc k fields) in
        let int_get what ~min ~max =
          let* ln, v = get what in
          bounded_int_field ~offset:(Line ln) ~what ~min ~max v
        in
        let* _, pf_model = get "model" in
        let* bln, backend_s = get "backend" in
        let* pf_backend =
          match Backends.backend_of_string backend_s with
          | Some b -> Ok b
          | None -> failf ~offset:(Line bln) Unknown_variant "backend %S" backend_s
        in
        let* sln, spec_s = get "spec" in
        let* pf_spec =
          guard ~offset:(Line sln) Bad_field (fun () -> Spec.of_string spec_s)
        in
        let* pf_ncols = int_get "ncols" ~min:1 ~max:max_ncols in
        let* pf_k = int_get "k" ~min:1 ~max:B.srs_k in
        let* scale_bits = int_get "scale_bits" ~min:1 ~max:max_scale_bits in
        let* table_bits = int_get "table_bits" ~min:1 ~max:max_table_bits in
        let* iln, inst_s = get "instance" in
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
        let* pln, hex = get "proof" in
        let* pf_proof = hex_field ~offset:(Line pln) ~what:"proof" hex in
        Ok
          {
            pf_model;
            pf_backend;
            pf_spec;
            pf_ncols;
            pf_k;
            pf_cfg = { Fx.scale_bits; table_bits };
            pf_instance = Array.of_list inst;
            pf_proof;
          }

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string text
  | exception Sys_error m -> Err.fail ~context:[ "proof-file" ] Err.Io_error m

(* Prove and render the proof file; shared by `zkml prove`, the fuzz
   corpus builder and the daemon determinism tests. Returns (file text,
   prove seconds, proof bytes). *)
let prove (m : Zoo.model) backend seed =
  let inputs = Zoo.sample_inputs ~seed:(Int64.of_int seed) m in
  let (module X) = B.select backend in
  let params = Lazy.force X.params in
  let r =
    X.Pipe.run ~cfg:m.Zoo.cfg ~params m.Zoo.graph inputs
      ~seed:(Int64.of_int seed)
  in
  if not r.X.Pipe.verified then failwith "self-verification failed";
  let bytes = X.Proto.proof_to_bytes r.X.Pipe.proof in
  let plan = r.X.Pipe.plan in
  ( to_string ~backend ~model_name:m.Zoo.name ~cfg:m.Zoo.cfg ~spec:plan.Opt.spec
      ~ncols:plan.Opt.ncols ~k:plan.Opt.k ~instance_ints:r.X.Pipe.instance_ints
      ~proof_hex:(Zkml_util.Bytes_util.to_hex bytes),
    r.X.Pipe.prove_s,
    r.X.Pipe.proof_bytes )

(* Classify a parsed proof file against a model: [`Accepted], [`Rejected]
   (well-formed but false) or [`Malformed of Err.t]. Total — a hostile
   header that breaks the circuit rebuild surfaces as [`Malformed].
   [kzg_keys]/[ipa_keys] memoize rebuilt keys per header so the fuzzer
   does not re-run keygen for every mutant. *)
let verdict ~kzg_keys ~ipa_keys (m : Zoo.model) pf =
  if pf.pf_model <> m.Zoo.name then
    `Malformed
      (Err.make ~context:[ "proof-file" ] Err.Bad_field
         (Printf.sprintf "proof is for model %S, not %S" pf.pf_model
            m.Zoo.name))
  else begin
    let header =
      Printf.sprintf "%s|%s|%s|%d|%d|%d|%d" m.Zoo.name
        (Backends.backend_name pf.pf_backend)
        (Spec.to_string pf.pf_spec) pf.pf_ncols pf.pf_k
        pf.pf_cfg.Fx.scale_bits pf.pf_cfg.Fx.table_bits
    in
    let (module X) = B.select pf.pf_backend in
    let params = Lazy.force X.params in
    match
      B.memo_keys (X.pick_keys ~kzg:kzg_keys ~ipa:ipa_keys) header (fun () ->
          X.Pipe.rebuild_keys params ~spec:pf.pf_spec ~ncols:pf.pf_ncols
            ~k:pf.pf_k ~cfg:pf.pf_cfg m.Zoo.graph)
    with
    | Error e -> `Malformed (Err.with_context "rebuild-keys" e)
    | Ok keys -> (
        match
          X.Pipe.verify_verdict params keys ~instance_ints:pf.pf_instance
            pf.pf_proof
        with
        | X.Proto.Accepted -> `Accepted
        | X.Proto.Rejected -> `Rejected
        | X.Proto.Malformed e -> `Malformed e)
  end
