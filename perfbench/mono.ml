(** Monolithic proving from the benchmark's own code: one op mirrors the
    daemon's prove path without the wire (artifact-cache lookup,
    witness, [Protocol.prove], proof bytes), then verifies the bytes.
    Each step is a call into the layer's public function, timed here. *)

module Zoo = Zkml_models.Zoo
module B = Zkml_serve.Backends
module Artifacts = Zkml_serve.Artifacts
module Optimizer = Zkml_compiler.Optimizer
module Spec = Zkml_compiler.Layout_spec

type op = {
  backend : B.backend;
  input : Sched.input;
  hit : bool;  (** the cache lookup was an in-process LRU hit *)
  prepare_s : float;
  witness_s : float;
  prove_s : float;  (** [Protocol.prove] alone *)
  bytes_s : float;
  verify_s : float;  (** [Pipeline.verify_verdict]: decode, then verdict *)
  instance : int array;
  proof : string;
  verdict : int;  (** 0 accepted, 1 rejected, 2 malformed *)
}

(* A verify takes 1 to 100 ms, short enough that one timing is mostly
   scheduler noise; each op verifies its proof this many times and
   reports the median. *)
let verify_reps = 3

(** What the benchmark times as one prove. *)
let prove_latency o = o.prepare_s +. o.witness_s +. o.prove_s +. o.bytes_s

(** The layout a cached entry or a fresh optimizer run chose. *)
type plan = { spec : string; k : int; ncols : int }

let plan_string p = Printf.sprintf "spec=%s k=%d ncols=%d" p.spec p.k p.ncols

(** One cold compile: the optimizer's plan plus the timings of the
    calls that produced it. *)
type compiled = {
  c_model : string;
  c_plan : plan;
  c_rows : int;
  c_est_s : float;  (** the plan's [est_cost] *)
  c_optimize_s : float;
  c_keygen_s : float;
}

module Make
    (Scheme : Zkml_commit.Scheme_intf.S)
    (P : sig
      val backend : B.backend
      val params : Scheme.params Lazy.t
    end) =
struct
  module Serve = Artifacts.Make (Scheme)
  module Pipe = Serve.Pipe
  module Proto = Pipe.Proto

  let backend = P.backend
  let params () = Lazy.force P.params

  let code = function
    | Proto.Accepted -> 0
    | Proto.Rejected -> 1
    | Proto.Malformed _ -> 2

  let prepare (m : Zoo.model) =
    Serve.prepare ~cfg:m.Zoo.cfg (params ()) m.Zoo.graph

  let cached_plan m =
    let e, _ = prepare m in
    {
      spec = Spec.to_string e.Serve.e_spec;
      k = e.Serve.e_k;
      ncols = e.Serve.e_ncols;
    }

  let op (i : Sched.input) ~seed =
    let m = Sched.model i.Sched.model in
    let p = params () in
    let (entry, status), prepare_s = Stats.time (fun () -> prepare m) in
    let w, witness_s =
      Stats.time (fun () ->
          Serve.witness entry ~cfg:m.Zoo.cfg m.Zoo.graph i.Sched.inputs)
    in
    let proof, prove_s =
      Stats.time (fun () ->
          Proto.prove p entry.Serve.e_keys ~instance:w.Pipe.w_instance
            ~advice:(fun _ -> Array.map Array.copy w.Pipe.w_advice)
            ~rng:(Zkml_util.Rng.create seed))
    in
    let bytes, bytes_s = Stats.time (fun () -> Proto.proof_to_bytes proof) in
    let verdict, verify_s =
      Stats.repeat verify_reps (fun () ->
          Pipe.verify_verdict p entry.Serve.e_keys
            ~instance_ints:w.Pipe.w_instance_ints bytes)
    in
    {
      backend;
      input = i;
      hit = (match status with Artifacts.Hit_mem -> true | _ -> false);
      prepare_s;
      witness_s;
      prove_s;
      bytes_s;
      verify_s;
      instance = w.Pipe.w_instance_ints;
      proof = bytes;
      verdict = code verdict;
    }

  (** The verdict on [o]'s proof with its first public value bumped by
      one: a well-formed but false statement, so 1 is the right answer. *)
  let tampered_verdict o =
    let entry, _ = prepare (Sched.model o.input.Sched.model) in
    let inst = Array.copy o.instance in
    inst.(0) <- inst.(0) + 1;
    code
      (Pipe.verify_verdict (params ()) entry.Serve.e_keys ~instance_ints:inst
         o.proof)

  (** Element-wise median of [n] calibrations, printed as the table
      {!Costs} pins. *)
  let calibration_median n =
    let runs = List.init n (fun _ -> Pipe.calibrate (params ())) in
    let med f = Stats.median (List.map f runs) in
    let curve f =
      List.map (fun (k, _) -> (k, med (fun r -> List.assoc k (f r)))) (f (List.hd runs))
    in
    {
      Zkml_compiler.Costmodel.fft = curve (fun r -> r.Zkml_compiler.Costmodel.fft);
      msm = curve (fun r -> r.Zkml_compiler.Costmodel.msm);
      lookup = curve (fun r -> r.Zkml_compiler.Costmodel.lookup);
      field_op = med (fun r -> r.Zkml_compiler.Costmodel.field_op);
    }

  (** Make [times] the calibration every later [Pipe.calibrated] call
      (and so every optimizer run) of this process sees. *)
  let pin_times times = Hashtbl.replace Pipe.times_cache Scheme.name times

  (** Cold compile of [models] in this process, mirroring the cache-miss
      path of [Artifacts.prepare]: calibrate (unless [times] is given),
      optimize, keygen. The entries land in the in-process LRU, so later
      ops hit it; with [~store:true] they are also written to the disk
      cache. *)
  let cold_compile ?times ?(store = false) models =
    Hashtbl.reset Pipe.times_cache;
    Option.iter pin_times times;
    Serve.reset_memory ();
    let p = params () in
    let times, calibrate_s = Stats.time (fun () -> Pipe.calibrated p) in
    let per =
      List.map
        (fun (m : Zoo.model) ->
          let cfg = m.Zoo.cfg in
          let exec =
            Zkml_nn.Quant_exec.run ~saturate:true cfg m.Zoo.graph
              ~inputs:(Pipe.zero_inputs m.Zoo.graph)
          in
          let (plan, _), optimize_s =
            Stats.time (fun () ->
                Optimizer.optimize ~ncols_min:4 ~ncols_max:40
                  ~objective:Optimizer.Min_time
                  ~k_max:(Serve.log2_floor (Scheme.max_size p))
                  ~times ~backend:Pipe.backend
                  ~group_bytes:Scheme.G.size_bytes
                  ~field_bytes:Proto.F.size_bytes ~cfg m.Zoo.graph exec)
          in
          let keys, keygen_s =
            Stats.time (fun () ->
                Pipe.rebuild_keys p ~spec:plan.Optimizer.spec
                  ~ncols:plan.Optimizer.ncols ~k:plan.Optimizer.k ~cfg
                  m.Zoo.graph)
          in
          let key = Serve.cache_key ~cfg m.Zoo.graph in
          let entry =
            {
              Serve.e_spec = plan.Optimizer.spec;
              e_ncols = plan.Optimizer.ncols;
              e_k = plan.Optimizer.k;
              e_keys = keys;
            }
          in
          Serve.mem_add key entry;
          if store then
            Result.iter_error
              (fun e -> failwith (Zkml_util.Err.to_string e))
              (Serve.store_entry key entry);
          {
            c_model = m.Zoo.name;
            c_plan =
              {
                spec = Spec.to_string plan.Optimizer.spec;
                k = plan.Optimizer.k;
                ncols = plan.Optimizer.ncols;
              };
            c_rows = plan.Optimizer.summary.Zkml_compiler.Layouter.rows_content;
            c_est_s = plan.Optimizer.est_cost;
            c_optimize_s = optimize_s;
            c_keygen_s = keygen_s;
          })
        models
    in
    (calibrate_s, per)

  (** Median seconds of one forward [Polynomial.ntt] at size 2^k. *)
  let ntt_probe ~k ~reps =
    let d = Proto.P.Domain.create k in
    let rng = Zkml_util.Rng.create 7L in
    let base = Array.init (Proto.P.Domain.size d) (fun _ -> Proto.F.random rng) in
    Stats.median
      (List.init reps (fun _ ->
           let a = Array.copy base in
           snd (Stats.time (fun () -> Proto.P.ntt d a))))
end

module Kzg =
  Make
    (B.Kzg)
    (struct
      let backend = B.Kzg
      let params = B.kzg_params
    end)

module Ipa =
  Make
    (B.Ipa)
    (struct
      let backend = B.Ipa
      let params = B.ipa_params
    end)

let op backend i ~seed =
  match backend with B.Kzg -> Kzg.op i ~seed | B.Ipa -> Ipa.op i ~seed

let tampered_verdict o =
  match o.backend with
  | B.Kzg -> Kzg.tampered_verdict o
  | B.Ipa -> Ipa.tampered_verdict o

let cached_plan backend m =
  match backend with B.Kzg -> Kzg.cached_plan m | B.Ipa -> Ipa.cached_plan m

let backends = [ B.Kzg; B.Ipa ]

(** Compile every model of [names] under [backend] with the pinned
    calibration of {!Costs} into the in-process LRU (and the disk cache
    with [~store:true]). The daemon-side instantiation that
    [Seg_proof] plans with is pinned too. Returns
    ["<model>/<backend>", plan] per model. *)
let compile_pinned ?store backend names =
  let models = List.map Sched.model names in
  let per =
    match backend with
    | B.Kzg ->
        Hashtbl.replace B.Pipe_kzg.times_cache B.Kzg.name Costs.kzg;
        snd (Kzg.cold_compile ~times:Costs.kzg ?store models)
    | B.Ipa ->
        Hashtbl.replace B.Pipe_ipa.times_cache B.Ipa.name Costs.ipa;
        snd (Ipa.cold_compile ~times:Costs.ipa ?store models)
  in
  List.map
    (fun c -> (c.c_model ^ "/" ^ B.backend_name backend, plan_string c.c_plan))
    per
