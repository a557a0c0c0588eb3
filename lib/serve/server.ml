(** The persistent proving daemon behind `zkml serve`.

    Layered so the interesting policy is testable without sockets:

    - {!Engine}: a bounded job queue drained by worker threads.
      Admission control counts outstanding work (queued + running);
      a submit over capacity is answered [Overloaded] immediately —
      the 429 of the wire protocol — and never blocks the caller.
      Proving inside a worker still fans out over the {!Zkml_util.Pool}
      domains, so one request can use every core while admission
      stays bounded.
    - the socket layer: one acceptor (unix socket or loopback TCP),
      one thread per connection, one request in flight per connection.
      Framing-level corruption (bad magic, oversized length, mid-frame
      EOF) is answered with verdict 2 and the connection closed — the
      stream cannot be resynchronized; payload-level decode errors are
      answered with verdict 2 on a connection that stays usable.

    Per-tenant observability: every request lands in
    [zkml_server_requests_total{tenant,kind,outcome}], latencies in
    [zkml_server_request_seconds{kind}], rejections in
    [zkml_server_rejected_total{tenant}], and the queue depth in the
    [zkml_server_queue_depth] gauge, all through the always-on
    registry (lib/obs). *)

module Zoo = Zkml_models.Zoo
module Err = Zkml_util.Err
module Metrics = Zkml_obs.Metrics
module Log = Zkml_obs.Log
module B = Backends

type config = {
  workers : int;  (** worker threads draining the job queue *)
  queue_capacity : int;  (** max outstanding (queued + running) jobs *)
  warm : string list;  (** zoo models to pre-compile before listening *)
  job_hook : (unit -> unit) option;
      (** test seam: runs in the worker after a job is claimed, before
          it is processed — lets tests hold a worker mid-job *)
}

let default_config =
  { workers = 2; queue_capacity = 16; warm = []; job_hook = None }

type addr = Unix_sock of string | Tcp of int

let addr_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp p -> Printf.sprintf "tcp:127.0.0.1:%d" p

(* Tenant strings come off the wire, and metric label sets live for the
   process lifetime — so hostile tenants must not mint unbounded or
   unprintable label values. *)
let sanitize_tenant t =
  if t = "" then "anon"
  else
    String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> c | _ -> '.')
      (if String.length t > 32 then String.sub t 0 32 else t)

let request_kind = function
  | Wire.Ping -> "ping"
  | Wire.Prove _ -> "prove"
  | Wire.Prove_seg _ -> "prove_seg"
  | Wire.Verify _ -> "verify"
  | Wire.Shutdown -> "shutdown"

let response_outcome = function
  | Wire.Pong | Wire.Proofs _ -> "ok"
  | Wire.Verdict { code = 0; _ } -> "accepted"
  | Wire.Verdict { code = 1; _ } -> "rejected"
  | Wire.Verdict _ -> "malformed"
  | Wire.Overloaded -> "overloaded"
  | Wire.Stopping -> "stopping"

(* ------------------------------------------------------------------ *)
(* request processing (worker side) *)

(* The artifact cache's in-process LRU is a plain list ref, and
   [prepare] may run the optimizer + keygen; both are serialized under
   one lock. Proving and verifying against an immutable entry runs
   outside it, so distinct requests overlap everywhere but compilation. *)
let prepare_mu = Mutex.create ()

let zoo_model name =
  match Err.guard Err.Unknown_variant (fun () -> Zoo.by_name name) with
  | Ok m -> Ok m
  | Error e -> Error (Err.with_context "model" e)

(* Split-and-aggregate prove. [Seg_proof.prove] interleaves artifact-
   cache lookups (per-segment keys) with proving, so the whole call runs
   under [prepare_mu] — segmented proves serialize against each other
   and against compilation, while each segment's prover still fans out
   over the domain pool. *)
let handle_prove_seg ~backend ~model ~segments ~seeds =
  match zoo_model model with
  | Error e -> Wire.Verdict { code = 2; detail = Err.to_string e }
  | Ok m ->
      Wire.Proofs
        (List.map
           (fun seed ->
             let p =
               Mutex.protect prepare_mu (fun () ->
                   Seg_proof.prove m backend (Int64.to_int seed) ~segments)
             in
             p.Seg_proof.p_text)
           seeds)

let handle_prove ~backend ~model ~seeds =
  match zoo_model model with
  | Error e -> Wire.Verdict { code = 2; detail = Err.to_string e }
  | Ok m ->
      let (module X) = B.select backend in
      let params = Lazy.force X.params in
      let jobs = List.map (fun s -> (Zoo.sample_inputs ~seed:s m, s)) seeds in
      let entry, _ =
        Mutex.protect prepare_mu (fun () ->
            X.Serve.prepare ~cfg:m.Zoo.cfg params m.Zoo.graph)
      in
      Wire.Proofs
        (List.map
           (fun (w, p) ->
             Proof_file.to_string ~backend ~model_name:m.Zoo.name
               ~cfg:m.Zoo.cfg ~spec:entry.X.Serve.e_spec
               ~ncols:entry.X.Serve.e_ncols ~k:entry.X.Serve.e_k
               ~instance_ints:w.X.Pipe.w_instance_ints
               ~proof_hex:
                 (Zkml_util.Bytes_util.to_hex (X.Proto.proof_to_bytes p)))
           (X.Serve.prove_batch params entry ~cfg:m.Zoo.cfg m.Zoo.graph jobs))

(* Verify through the artifact cache ([prepare_for_header]) so repeat
   verifications of one circuit skip keygen. The pipeline's
   [verify_verdict] tallies zkml_verify_verdicts_total exactly once per
   judgement; pre-pipeline failures (unknown model, parse error, header
   rebuild failure) are the daemon's own malformed answers and do not
   touch the verifier's verdict counter. *)
(* Segmented-verify memoization: rebuilt per-segment keys are shared
   across requests. The tables (and the segment-plan derivation inside
   [Seg_proof.verdict]) are not thread-safe, so the whole verdict runs
   under [prepare_mu]. *)
let seg_kzg_keys = Hashtbl.create 16
let seg_ipa_keys = Hashtbl.create 16

let handle_verify_seg ~model ~proof =
  match zoo_model model with
  | Error e -> Wire.Verdict { code = 2; detail = Err.to_string e }
  | Ok m -> (
      match Seg_proof.of_string proof with
      | Error e -> Wire.Verdict { code = 2; detail = Err.to_string e }
      | Ok sp -> (
          match
            Mutex.protect prepare_mu (fun () ->
                Seg_proof.verdict ~kzg_keys:seg_kzg_keys
                  ~ipa_keys:seg_ipa_keys m sp)
          with
          | `Accepted -> Wire.Verdict { code = 0; detail = "" }
          | `Rejected -> Wire.Verdict { code = 1; detail = "" }
          | `Malformed e ->
              Wire.Verdict { code = 2; detail = Err.to_string e }))

let handle_verify ~model ~proof =
  if Seg_proof.looks_segmented proof then handle_verify_seg ~model ~proof
  else
  match zoo_model model with
  | Error e -> Wire.Verdict { code = 2; detail = Err.to_string e }
  | Ok m -> (
      match Proof_file.of_string proof with
      | Error e -> Wire.Verdict { code = 2; detail = Err.to_string e }
      | Ok pf ->
          if pf.Proof_file.pf_model <> m.Zoo.name then
            Wire.Verdict
              {
                code = 2;
                detail =
                  Printf.sprintf "proof-file: proof is for model %S, not %S"
                    pf.Proof_file.pf_model m.Zoo.name;
              }
          else begin
            let open Proof_file in
            let (module X) = B.select pf.pf_backend in
            let params = Lazy.force X.params in
            match
              Mutex.protect prepare_mu (fun () ->
                  X.Serve.prepare_for_header ~spec:pf.pf_spec
                    ~ncols:pf.pf_ncols ~k:pf.pf_k ~cfg:pf.pf_cfg params
                    m.Zoo.graph)
            with
            | Error e ->
                Wire.Verdict
                  {
                    code = 2;
                    detail = Err.to_string (Err.with_context "rebuild-keys" e);
                  }
            | Ok (entry, _status) -> (
                match
                  X.Pipe.verify_verdict params entry.X.Serve.e_keys
                    ~instance_ints:pf.pf_instance pf.pf_proof
                with
                | X.Proto.Accepted -> Wire.Verdict { code = 0; detail = "" }
                | X.Proto.Rejected -> Wire.Verdict { code = 1; detail = "" }
                | X.Proto.Malformed e ->
                    Wire.Verdict { code = 2; detail = Err.to_string e })
          end)

(* Total: no request — however hostile — kills a worker. Anything that
   escapes the typed paths above is answered as malformed. *)
let process req =
  match
    match req with
    | Wire.Ping -> Wire.Pong
    | Wire.Shutdown -> Wire.Stopping
    | Wire.Prove { backend; model; seeds; _ } ->
        handle_prove ~backend ~model ~seeds
    | Wire.Prove_seg { backend; model; segments; seeds; _ } ->
        handle_prove_seg ~backend ~model ~segments ~seeds
    | Wire.Verify { model; proof; _ } -> handle_verify ~model ~proof
  with
  | resp -> resp
  | exception Err.Error e -> Wire.Verdict { code = 2; detail = Err.to_string e }
  | exception exn ->
      Wire.Verdict { code = 2; detail = "internal: " ^ Printexc.to_string exn }

(* ------------------------------------------------------------------ *)
(* the bounded-queue engine *)

module Engine = struct
  type ticket = {
    t_mu : Mutex.t;
    t_cv : Condition.t;
    mutable t_resp : Wire.response option;
    t_req : Wire.request;
    t_tenant : string;
    t_submitted : float;
  }

  type t = {
    cfg : config;
    mu : Mutex.t;
    cv : Condition.t;
    q : ticket Queue.t;
    mutable outstanding : int;
    mutable closed : bool;
    mutable threads : Thread.t list;
  }

  let queue_gauge = Metrics.gauge ~help:"Jobs queued or running" "zkml_server_queue_depth"

  let complete tk resp =
    Mutex.protect tk.t_mu (fun () ->
        tk.t_resp <- Some resp;
        Condition.broadcast tk.t_cv)

  (** Block until the job's worker answers. *)
  let await tk =
    Mutex.protect tk.t_mu (fun () ->
        let rec go () =
          match tk.t_resp with
          | Some resp -> resp
          | None ->
              Condition.wait tk.t_cv tk.t_mu;
              go ()
        in
        go ())

  let worker_loop t =
    let rec next () =
      let claimed =
        Mutex.protect t.mu (fun () ->
            let rec wait () =
              if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
              else if t.closed then None
              else begin
                Condition.wait t.cv t.mu;
                wait ()
              end
            in
            wait ())
      in
      match claimed with
      | None -> ()
      | Some tk ->
          (match t.cfg.job_hook with Some h -> h () | None -> ());
          let resp = process tk.t_req in
          Mutex.protect t.mu (fun () ->
              t.outstanding <- t.outstanding - 1;
              Metrics.set queue_gauge (float_of_int t.outstanding));
          let kind = request_kind tk.t_req in
          let dt = Zkml_obs.Mclock.elapsed_s ~since:tk.t_submitted in
          Metrics.observe_in
            ~labels:[ ("kind", kind) ]
            ~help:"Request latency from admission to response"
            "zkml_server_request_seconds" dt;
          Metrics.inc
            ~labels:
              [ ("tenant", tk.t_tenant); ("kind", kind);
                ("outcome", response_outcome resp) ]
            ~help:"Requests answered, by tenant/kind/outcome"
            "zkml_server_requests_total" 1.0;
          Log.event ~level:Log.Debug "server.request"
            [ ("tenant", Log.S tk.t_tenant); ("kind", Log.S kind);
              ("outcome", Log.S (response_outcome resp));
              ("seconds", Log.F dt) ];
          complete tk resp;
          next ()
    in
    next ()

  let create cfg =
    let t =
      {
        cfg;
        mu = Mutex.create ();
        cv = Condition.create ();
        q = Queue.create ();
        outstanding = 0;
        closed = false;
        threads = [];
      }
    in
    t.threads <-
      List.init (max 1 cfg.workers) (fun _ -> Thread.create worker_loop t);
    t

  (** Admission control: immediate [`Overloaded] over capacity — the
      caller never blocks on a full queue. *)
  let submit t ~tenant req =
    let tenant = sanitize_tenant tenant in
    let decision =
      Mutex.protect t.mu (fun () ->
          if t.closed then `Stopping
          else if t.outstanding >= t.cfg.queue_capacity then `Overloaded
          else begin
            let tk =
              {
                t_mu = Mutex.create ();
                t_cv = Condition.create ();
                t_resp = None;
                t_req = req;
                t_tenant = tenant;
                t_submitted = Zkml_obs.Mclock.now_s ();
              }
            in
            t.outstanding <- t.outstanding + 1;
            Metrics.set queue_gauge (float_of_int t.outstanding);
            Queue.push tk t.q;
            Condition.signal t.cv;
            `Ticket tk
          end)
    in
    (match decision with
    | `Overloaded ->
        Metrics.inc
          ~labels:[ ("tenant", tenant) ]
          ~help:"Requests rejected by admission control"
          "zkml_server_rejected_total" 1.0;
        Log.event ~level:Log.Warn "server.reject" [ ("tenant", Log.S tenant) ]
    | _ -> ());
    decision

  (** Stop accepting, drain the queue, join the workers. Outstanding
      jobs complete and their awaiters get answers. *)
  let shutdown t =
    Mutex.protect t.mu (fun () ->
        t.closed <- true;
        Condition.broadcast t.cv);
    List.iter Thread.join t.threads
end

(* ------------------------------------------------------------------ *)
(* cache warming *)

let warm_models names =
  List.iter
    (fun name ->
      match zoo_model name with
      | Error e ->
          Log.event ~level:Log.Warn "server.warm"
            [ ("model", Log.S name); ("error", Log.S (Err.to_string e)) ]
      | Ok m ->
          let (module X) = B.select B.Kzg in
          let params = Lazy.force X.params in
          let t0 = Zkml_obs.Mclock.now_s () in
          let _, status =
            Mutex.protect prepare_mu (fun () ->
                X.Serve.prepare ~cfg:m.Zoo.cfg params m.Zoo.graph)
          in
          Log.event "server.warm"
            [ ("model", Log.S name);
              ("status", Log.S (Artifacts.status_code status));
              ("seconds", Log.F (Zkml_obs.Mclock.elapsed_s ~since:t0)) ])
    names

(* ------------------------------------------------------------------ *)
(* socket layer *)

let listen_socket addr =
  match addr with
  | Unix_sock path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (* loopback only: the daemon speaks an unauthenticated protocol *)
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 64;
      fd

(** Client-side connect to a daemon address (used by the load generator,
    the tests, and the daemon's own shutdown wake-up). *)
let connect addr =
  match addr with
  | Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      fd

type conn_state = {
  cs_engine : Engine.t;
  cs_stop : unit -> unit;
  cs_fds : Unix.file_descr list ref;
  cs_fds_mu : Mutex.t;
}

let conn_loop st fd =
  let send resp = try Wire.send_response fd resp with _ -> () in
  let rec loop () =
    match Wire.read_frame fd with
    | Wire.Eof -> ()
    | Wire.Fail e ->
        (* framing broken: answer, then drop the connection — there is
           no frame boundary left to resynchronize on *)
        Metrics.inc
          ~labels:[ ("kind", "frame"); ("tenant", "anon"); ("outcome", "malformed") ]
          ~help:"Requests answered, by tenant/kind/outcome"
          "zkml_server_requests_total" 1.0;
        send (Wire.Verdict { code = 2; detail = Err.to_string e })
    | Wire.Frame (kind, payload) -> (
        match Wire.request_of_payload kind payload with
        | Error e ->
            (* the frame itself was well-delimited: answer malformed
               and keep serving this connection *)
            Metrics.inc
              ~labels:
                [ ("kind", "frame"); ("tenant", "anon");
                  ("outcome", "malformed") ]
              ~help:"Requests answered, by tenant/kind/outcome"
              "zkml_server_requests_total" 1.0;
            send (Wire.Verdict { code = 2; detail = Err.to_string e });
            loop ()
        | Ok Wire.Ping ->
            Metrics.inc
              ~labels:[ ("kind", "ping"); ("tenant", "anon"); ("outcome", "ok") ]
              ~help:"Requests answered, by tenant/kind/outcome"
              "zkml_server_requests_total" 1.0;
            send Wire.Pong;
            loop ()
        | Ok Wire.Shutdown ->
            send Wire.Stopping;
            st.cs_stop ()
        | Ok
            ((Wire.Prove { tenant; _ } | Wire.Prove_seg { tenant; _ }
             | Wire.Verify { tenant; _ }) as req) ->
            (match Engine.submit st.cs_engine ~tenant req with
            | `Ticket tk -> send (Engine.await tk)
            | `Overloaded -> send Wire.Overloaded
            | `Stopping -> send Wire.Stopping);
            loop ())
  in
  (try loop () with _ -> ());
  (try Unix.close fd with _ -> ());
  Mutex.protect st.cs_fds_mu (fun () ->
      st.cs_fds := List.filter (fun f -> f <> fd) !(st.cs_fds))

(** Run the daemon: warm the artifact cache, listen on [addr], serve
    until a [Shutdown] request arrives, then drain and return. Blocks
    the calling thread for the server's lifetime. *)
let run ?(config = default_config) addr =
  (* a peer closing mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  warm_models config.warm;
  let engine = Engine.create config in
  let listener = listen_socket addr in
  let stopping = Atomic.make false in
  let stop () =
    if Atomic.compare_and_set stopping false true then
      (* Wake the accept loop. Closing the listener fd would NOT unblock
         a thread already parked in accept(2) on Linux — a throwaway
         self-connection always does. The loop sees the flag, drops the
         wake-up connection and exits; the listener is closed there, on
         the thread that owns it. *)
      try Unix.close (connect addr) with _ -> ()
  in
  let st =
    { cs_engine = engine; cs_stop = stop; cs_fds = ref []; cs_fds_mu = Mutex.create () }
  in
  Log.event "server.start"
    [ ("addr", Log.S (addr_string addr));
      ("workers", Log.I config.workers);
      ("queue", Log.I config.queue_capacity);
      ("warmed", Log.I (List.length config.warm)) ];
  let conn_threads = ref [] in
  let rec accept_loop () =
    match Unix.accept listener with
    | client, _ when Atomic.get stopping ->
        (* the stop() wake-up connection (or a late arrival) *)
        (try Unix.close client with _ -> ())
    | client, _ ->
        Metrics.inc ~help:"Accepted connections" "zkml_server_connections_total"
          1.0;
        Mutex.protect st.cs_fds_mu (fun () -> st.cs_fds := client :: !(st.cs_fds));
        conn_threads := Thread.create (conn_loop st) client :: !conn_threads;
        accept_loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      when Atomic.get stopping ->
        ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ();
  (try Unix.close listener with _ -> ());
  (* teardown: no new jobs (engine refuses), existing jobs drain, idle
     connections are unblocked by shutting their sockets down *)
  Engine.shutdown engine;
  Mutex.protect st.cs_fds_mu (fun () ->
      List.iter
        (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
        !(st.cs_fds));
  List.iter Thread.join !conn_threads;
  (match addr with
  | Unix_sock path -> ( try Unix.unlink path with _ -> ())
  | Tcp _ -> ());
  Log.event "server.stop" [ ("addr", Log.S (addr_string addr)) ]
