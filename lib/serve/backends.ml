(** The process-wide backend instantiations shared by the CLI, the
    proving daemon and the load generator, and the one place a caller
    chooses between them.

    Proof bytes depend on the scheme modules AND the SRS (setup seed +
    size), so every entry point that promises byte-identical proofs —
    `zkml prove`, `zkml batch-prove`, the daemon's Prove handler — must
    draw from one shared instantiation. This module is that single
    source: the simulated-pairing curve over Fp61, the KZG and IPA
    schemes on top of it, the artifact-cache functors, and the lazily
    forced CLI parameters (seed ["zkml-cli"], 2^{!srs_k} rows).

    Callers never name a backend's modules: they write
    [let (module X) = Backends.select b in ...] once and go through
    [X.Serve] / [X.Pipe] / [X.Proto] from there. *)

module Sim61 = Zkml_ec.Simulated.Make (Zkml_ff.Fp61)
module Kzg = Zkml_commit.Kzg.Make (Sim61)
module Ipa = Zkml_commit.Ipa.Make (Sim61)

(* [Artifacts.Make] and [Pipeline.Make] hold process state (the
   in-memory artifact LRU, the calibration cache), so each is applied
   exactly once per scheme, here. *)
module Serve_kzg = Artifacts.Make (Kzg)
module Serve_ipa = Artifacts.Make (Ipa)

(* Applicative functors: [Serve_*.Pipe] IS [Zkml_compiler.Pipeline.Make]
   applied to the same scheme, so all pipeline types line up. *)
module Pipe_kzg = Serve_kzg.Pipe
module Pipe_ipa = Serve_ipa.Pipe

let srs_k = 15
let kzg_params = lazy (Kzg.setup ~max_size:(1 lsl srs_k) ~seed:"zkml-cli")
let ipa_params = lazy (Ipa.setup ~max_size:(1 lsl srs_k) ~seed:"zkml-cli")

(** The closed backend universe. The wire protocol and the proof-file
    header both range over exactly these two. *)
type backend = Kzg | Ipa

let all = [ Kzg; Ipa ]
let backend_name = function Kzg -> "kzg" | Ipa -> "ipa"

let backend_of_string s =
  List.find_opt (fun b -> backend_name b = s) all

(** A verifier's memo of rebuilt keys per proof header; a header whose
    rebuild failed keeps its error, so it is not retried. *)
type 'keys memo = (string, ('keys, Zkml_util.Err.t) result) Hashtbl.t

let memo_keys (cache : _ memo) header rebuild =
  match Hashtbl.find_opt cache header with
  | Some keys -> keys
  | None ->
      let keys = Zkml_util.Err.guard Zkml_util.Err.Bad_field rebuild in
      Hashtbl.add cache header keys;
      keys

(** One backend, packed: its tag, its scheme, the shared artifact-cache
    instance (and through it the pipeline and the protocol) and its
    lazily built parameters. *)
module type S = sig
  val backend : backend

  module Scheme : Zkml_commit.Scheme_intf.S
  module Serve : module type of struct include Artifacts.Make (Scheme) end
  module Pipe = Serve.Pipe
  module Proto = Serve.Proto

  val params : Scheme.params Lazy.t

  val pick_keys :
    kzg:Pipe_kzg.Proto.keys memo ->
    ipa:Pipe_ipa.Proto.keys memo ->
    Proto.keys memo
  (** This backend's table out of a caller's pair of verifier-key memo
      tables — the one backend-typed value that crosses the dispatch. *)
end

module Kzg_backend : S = struct
  let backend = Kzg

  module Scheme = Kzg
  module Serve = Serve_kzg
  module Pipe = Serve.Pipe
  module Proto = Serve.Proto

  let params = kzg_params
  let pick_keys ~kzg ~ipa:_ = kzg
end

module Ipa_backend : S = struct
  let backend = Ipa

  module Scheme = Ipa
  module Serve = Serve_ipa
  module Pipe = Serve.Pipe
  module Proto = Serve.Proto

  let params = ipa_params
  let pick_keys ~kzg:_ ~ipa = ipa
end

let select : backend -> (module S) = function
  | Kzg -> (module Kzg_backend)
  | Ipa -> (module Ipa_backend)
