(** The serving layer's per-model artifact cache.

    A proving service re-proves the same fixed model for a stream of
    inputs, but everything the optimizer and keygen produce — the layout
    plan, the compiled circuit, the fixed/selector column commitments,
    the permutation sigmas, the verifying key — depends only on the
    model and its fixed-point config, not on the input. This module
    caches that bundle, keyed by a content hash of the serialized model
    plus the layout-relevant config, so the Nth proof (or verification)
    for a model skips compilation and fixed-commitment work entirely.

    Two cache levels:
    - an in-process LRU (capacity {!mem_capacity}) holding deserialized
      entries, hit on repeated calls within one process;
    - a disk cache under [ZKML_CACHE_DIR] (default
      [$XDG_CACHE_HOME/zkml], falling back to [~/.cache/zkml]), hit on
      the second run of a CLI command.

    Disk entries carry a header and a SHA-256 digest of the marshalled
    payload; loading is total — a truncated, bit-flipped or otherwise
    corrupt cache file surfaces as a typed {!Zkml_util.Err.t} (and the
    caller falls back to recompiling), never as an exception or a
    silently wrong key set. Invalidation is by key: any change to the
    model bytes, the fixed-point config, the backend or the cache format
    version changes the hash and orphans the old entry. *)

module Spec = Zkml_compiler.Layout_spec
module Optimizer = Zkml_compiler.Optimizer
module Fx = Zkml_fixed.Fixed
module Err = Zkml_util.Err
module Obs = Zkml_obs.Obs

open Err

(* Bumping this invalidates every cached artifact (the version feeds the
   content hash as well as the file header). The payload is marshalled,
   so any change to the in-memory layout of the cached keys — such as
   the field's representation — needs a bump too: v7 holds Fp61
   elements as immediate ints, where v6 held boxed [int64]s. *)
let cache_version = "zkml-artifact v7"

let cache_dir () =
  match Sys.getenv_opt "ZKML_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> Filename.concat d "zkml"
      | _ ->
          let home = Option.value (Sys.getenv_opt "HOME") ~default:"." in
          Filename.concat (Filename.concat home ".cache") "zkml")

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** Where a [prepare]d entry came from. *)
type status =
  | Hit_mem  (** in-process LRU *)
  | Hit_disk  (** disk cache *)
  | Miss  (** no cached entry; compiled from scratch *)
  | Corrupt of Err.t
      (** a disk entry existed but failed validation; recompiled and
          overwritten *)

let status_string = function
  | Hit_mem -> "hit (memory)"
  | Hit_disk -> "hit (disk)"
  | Miss -> "miss (compiled)"
  | Corrupt e -> "corrupt (recompiled): " ^ Err.to_string e

let is_hit = function Hit_mem | Hit_disk -> true | Miss | Corrupt _ -> false

(* Stable short code for metric labels / log fields (unlike
   [status_string], which is a human-facing diagnostic). *)
let status_code = function
  | Hit_mem -> "hit_mem"
  | Hit_disk -> "hit_disk"
  | Miss -> "miss"
  | Corrupt _ -> "corrupt"

(* Every lookup lands here exactly once: counter for the exposition,
   debug event for the log. *)
let tally_status status =
  let code = status_code status in
  Zkml_obs.Metrics.inc
    ~labels:[ ("status", code) ]
    ~help:"Artifact-cache lookups by result" "zkml_cache_lookups_total" 1.0;
  Zkml_obs.Log.event ~level:Zkml_obs.Log.Debug "cache.lookup"
    [ ("status", Zkml_obs.Log.S code) ]

module Make (Scheme : Zkml_commit.Scheme_intf.S) = struct
  module Pipe = Zkml_compiler.Pipeline.Make (Scheme)
  module Proto = Pipe.Proto

  (** Everything input-independent about proving one model: the layout
      the optimizer chose and the full key set (circuit, fixed/sigma
      values, polys and commitments, extended domain). *)
  type entry = {
    e_spec : Spec.t;
    e_ncols : int;
    e_k : int;
    e_keys : Proto.keys;
  }

  (* ---------------------------------------------------------------- *)
  (* Cache keys. [params_id] names the SRS (setup seed + size) so two
     processes with different parameters never share artifacts —
     commitments are SRS-specific. *)

  let hash_parts parts = Zkml_util.Sha256.hex_digest (String.concat "\x00" parts)

  let cache_key ?(params_id = "default") ~(cfg : Fx.config) graph =
    hash_parts
      [
        cache_version; Scheme.name; params_id; "model";
        string_of_int cfg.Fx.scale_bits; string_of_int cfg.Fx.table_bits;
        Zkml_nn.Serialize.to_string graph;
      ]

  (* A verifier rebuilding keys for a proof-file header caches under the
     explicit layout instead of the optimizer's choice, so proofs from
     older plans stay cheap to re-verify. *)
  let header_key ?(params_id = "default") ~spec ~ncols ~k ~(cfg : Fx.config)
      graph =
    hash_parts
      [
        cache_version; Scheme.name; params_id; "header"; Spec.to_string spec;
        string_of_int ncols; string_of_int k;
        string_of_int cfg.Fx.scale_bits; string_of_int cfg.Fx.table_bits;
        Zkml_nn.Serialize.to_string graph;
      ]

  (* ---------------------------------------------------------------- *)
  (* In-process LRU *)

  let mem_capacity = 8
  let lru : (string * entry) list ref = ref []

  let mem_find key =
    match List.assoc_opt key !lru with
    | None -> None
    | Some e ->
        lru := (key, e) :: List.remove_assoc key !lru;
        Some e

  let mem_add key e =
    let rest = List.remove_assoc key !lru in
    let rest =
      if List.length rest >= mem_capacity then
        List.filteri (fun i _ -> i < mem_capacity - 1) rest
      else rest
    in
    lru := (key, e) :: rest

  let reset_memory () = lru := []

  (* ---------------------------------------------------------------- *)
  (* Disk format: a line-oriented header followed by the marshalled
     entry, length-prefixed and digest-protected:

       zkml-artifact v7
       backend <name>
       key <hex>
       payload <length> <sha256-hex>
       <length raw bytes>

     Marshal is not robust against hostile or damaged bytes, so the
     payload is only unmarshalled after its length and digest check out;
     every earlier failure is a typed [Err.t]. *)

  let path_for key = Filename.concat (cache_dir ()) (key ^ ".zka")

  let entry_to_string ~key (e : entry) =
    let payload = Marshal.to_string (e.e_spec, e.e_ncols, e.e_k, e.e_keys) [] in
    String.concat ""
      [
        cache_version; "\n";
        "backend "; Scheme.name; "\n";
        "key "; key; "\n";
        Printf.sprintf "payload %d %s\n" (String.length payload)
          (Zkml_util.Sha256.hex_digest payload);
        payload;
      ]

  let entry_of_string ~key text : (entry, Err.t) result =
    in_context "artifact-cache"
    @@
    (* split the first [n] header lines off without touching the binary
       payload *)
    let next_line pos what =
      match String.index_from_opt text pos '\n' with
      | None -> fail Truncated ("missing line: " ^ what)
      | Some nl -> Ok (String.sub text pos (nl - pos), nl + 1)
    in
    let field ~ln line what =
      let prefix = what ^ " " in
      let pl = String.length prefix in
      if String.length line >= pl && String.sub line 0 pl = prefix then
        Ok (String.sub line pl (String.length line - pl))
      else failf ~offset:(Line ln) Bad_field "expected '%s <value>'" what
    in
    let* magic, pos = next_line 0 "magic" in
    let* () =
      if magic = cache_version then Ok ()
      else
        failf ~offset:(Line 1) Bad_header "expected %S, got %S" cache_version
          (String.sub magic 0 (min 24 (String.length magic)))
    in
    let* bline, pos = next_line pos "backend" in
    let* backend = field ~ln:2 bline "backend" in
    let* () =
      if backend = Scheme.name then Ok ()
      else
        failf ~offset:(Line 2) Bad_field "entry is for backend %S, not %S"
          backend Scheme.name
    in
    let* kline, pos = next_line pos "key" in
    let* stored_key = field ~ln:3 kline "key" in
    let* () =
      if stored_key = key then Ok ()
      else
        fail ~offset:(Line 3) Bad_field
          "entry key does not match its file name"
    in
    let* pline, pos = next_line pos "payload" in
    let* pfield = field ~ln:4 pline "payload" in
    let* len, digest =
      match String.index_opt pfield ' ' with
      | Some i ->
          let* len =
            bounded_int_field ~offset:(Line 4) ~what:"payload length" ~min:0
              ~max:max_int (String.sub pfield 0 i)
          in
          Ok (len, String.sub pfield (i + 1) (String.length pfield - i - 1))
      | None ->
          fail ~offset:(Line 4) Bad_field "expected 'payload <len> <sha256>'"
    in
    let* () =
      if String.length text - pos < len then
        failf ~offset:(Byte pos) Truncated
          "payload holds %d of %d bytes" (String.length text - pos) len
      else if String.length text - pos > len then
        failf ~offset:(Byte (pos + len)) Trailing_data
          "%d bytes after payload" (String.length text - pos - len)
      else Ok ()
    in
    let payload = String.sub text pos len in
    let* () =
      if Zkml_util.Sha256.hex_digest payload = digest then Ok ()
      else fail ~offset:(Byte pos) Invalid_encoding "payload digest mismatch"
    in
    (* digest verified: the bytes are exactly what [entry_to_string]
       wrote, so unmarshalling is safe; guard anyway so a version skew
       inside the payload classifies instead of crashing *)
    let* spec, ncols, k, keys =
      guard ~offset:(Byte pos) Invalid_encoding (fun () ->
          (Marshal.from_string payload 0
            : Spec.t * int * int * Proto.keys))
    in
    Ok { e_spec = spec; e_ncols = ncols; e_k = k; e_keys = keys }

  (** [None] when no cache file exists; [Some (Error _)] for a file that
      failed validation. Never raises: filesystem errors surface as
      [Io_error]. *)
  let load_entry key : (entry, Err.t) result option =
    let path = path_for key in
    if not (Sys.file_exists path) then None
    else
      Some
        (match
           let ic = open_in_bin path in
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic))
         with
        | text -> entry_of_string ~key text
        | exception Sys_error m ->
            Err.fail ~context:[ "artifact-cache" ] Io_error m)

  (** Atomic best-effort write (temp file + rename), so a concurrent
      reader never observes a torn entry. *)
  let store_entry key (e : entry) : (unit, Err.t) result =
    match
      let dir = cache_dir () in
      mkdir_p dir;
      let path = path_for key in
      let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (entry_to_string ~key e));
      Sys.rename tmp path
    with
    | () -> Ok ()
    | exception Sys_error m ->
        Err.fail ~context:[ "artifact-cache" ] Io_error m
    | exception Unix.Unix_error (err, _, _) ->
        Err.fail ~context:[ "artifact-cache" ] Io_error
          (Unix.error_message err)

  (* ---------------------------------------------------------------- *)
  (* Compilation (cache miss path) *)

  let log2_floor n =
    let rec go n acc = if n <= 1 then acc else go (n / 2) (acc + 1) in
    go n 0

  let compile params ~objective ~(cfg : Fx.config) graph =
    Obs.Span.with_ ~name:"serve.compile" @@ fun () ->
    (* the layout depends only on shapes, so a zero-input execution
       drives the optimizer — the cache key must not depend on inputs *)
    let exec =
      Zkml_nn.Quant_exec.run ~saturate:true cfg graph
        ~inputs:(Pipe.zero_inputs graph)
    in
    let times = Pipe.calibrated params in
    let plan, _ =
      Optimizer.optimize ~ncols_min:4 ~ncols_max:40 ~objective
        ~k_max:(log2_floor (Scheme.max_size params))
        ~times ~backend:Pipe.backend ~group_bytes:Scheme.G.size_bytes
        ~field_bytes:Proto.F.size_bytes ~cfg graph exec
    in
    let keys =
      Pipe.rebuild_keys params ~spec:plan.Optimizer.spec
        ~ncols:plan.Optimizer.ncols ~k:plan.Optimizer.k ~cfg graph
    in
    {
      e_spec = plan.Optimizer.spec;
      e_ncols = plan.Optimizer.ncols;
      e_k = plan.Optimizer.k;
      e_keys = keys;
    }

  (* Common LRU -> disk -> build sequence with hit/miss counters. *)
  let lookup_or key build =
    match mem_find key with
    | Some e ->
        Obs.count "cache.hit.mem" 1;
        tally_status Hit_mem;
        (e, Hit_mem)
    | None -> (
        let finish status e =
          (* cache write is best-effort: a read-only cache dir degrades
             to recompilation, not failure *)
          ignore (store_entry key e : (unit, Err.t) result);
          mem_add key e;
          (e, status)
        in
        match load_entry key with
        | Some (Ok e) ->
            Obs.count "cache.hit.disk" 1;
            tally_status Hit_disk;
            mem_add key e;
            (e, Hit_disk)
        | Some (Error err) ->
            Obs.count "cache.corrupt" 1;
            tally_status (Corrupt err);
            finish (Corrupt err) (build ())
        | None ->
            Obs.count "cache.miss" 1;
            tally_status Miss;
            finish Miss (build ()))

  (** The serving entry point: artifacts for proving [graph], from the
      fastest cache level that has them (compiling and populating both
      levels otherwise). *)
  let prepare ?(objective = Optimizer.Min_time) ?params_id ~(cfg : Fx.config)
      params graph =
    Obs.Span.with_ ~name:"serve.prepare" @@ fun () ->
    lookup_or
      (cache_key ?params_id ~cfg graph)
      (fun () -> compile params ~objective ~cfg graph)

  (** Artifacts for verifying against an explicit proof-file header.
      Total: a hostile header that breaks circuit rebuilding comes back
      as a typed error, and nothing is cached for it. *)
  let prepare_for_header ?params_id ~spec ~ncols ~k ~(cfg : Fx.config) params
      graph : (entry * status, Err.t) result =
    Obs.Span.with_ ~name:"serve.prepare" @@ fun () ->
    let key = header_key ?params_id ~spec ~ncols ~k ~cfg graph in
    match mem_find key with
    | Some e ->
        Obs.count "cache.hit.mem" 1;
        tally_status Hit_mem;
        Ok (e, Hit_mem)
    | None -> (
        let build status =
          let* keys =
            Err.guard Err.Bad_field (fun () ->
                Pipe.rebuild_keys params ~spec ~ncols ~k ~cfg graph)
          in
          let e = { e_spec = spec; e_ncols = ncols; e_k = k; e_keys = keys } in
          ignore (store_entry key e : (unit, Err.t) result);
          mem_add key e;
          Ok (e, status)
        in
        match load_entry key with
        | Some (Ok e) ->
            Obs.count "cache.hit.disk" 1;
            tally_status Hit_disk;
            mem_add key e;
            Ok (e, Hit_disk)
        | Some (Error err) ->
            Obs.count "cache.corrupt" 1;
            tally_status (Corrupt err);
            build (Corrupt err)
        | None ->
            Obs.count "cache.miss" 1;
            tally_status Miss;
            build Miss)

  (* ---------------------------------------------------------------- *)
  (* Batch proving / verification against a cached entry *)

  let witness entry ~cfg graph inputs =
    Pipe.witness ~spec:entry.e_spec ~ncols:entry.e_ncols ~k:entry.e_k ~cfg
      graph inputs

  (** Prove one witness per input list, sharing the cached keys (and
      through them the domain and twiddle tables) across the batch.
      [seeds] gives each proof its blinding rng; proofs are bit-for-bit
      what standalone [prove] calls would produce. *)
  let prove_batch params entry ~cfg graph (jobs : (float Zkml_tensor.Tensor.t list * int64) list) =
    let witnesses =
      List.map (fun (inputs, _) -> witness entry ~cfg graph inputs) jobs
    in
    let proofs =
      Proto.prove_many params entry.e_keys
        (List.map2
           (fun w (_, seed) ->
             {
               Proto.job_instance = w.Pipe.w_instance;
               job_advice =
                 (fun _ -> Array.map Array.copy w.Pipe.w_advice);
               job_rng = Zkml_util.Rng.create seed;
             })
           witnesses jobs)
    in
    List.map2 (fun w p -> (w, p)) witnesses proofs

  let verify_batch params entry ~(batch : (int array * string) list) =
    Pipe.verify_many_verdict params entry.e_keys ~batch
end
