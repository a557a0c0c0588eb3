(** Structured tracing and metrics for the prover pipeline.

    One global sink records hierarchical wall-clock spans, per-span
    counters and global gauges. Every recording entry point checks a
    single ref and records nothing while disabled, so instrumentation
    can stay in the hot path permanently. Spans are also the only phase
    timer: every closed span feeds {!Metrics}, traced or not. Reports
    export to chrome-trace JSON (about:tracing / Perfetto), a flat
    summary JSON, or a pretty-printed tree. *)

type clock = unit -> float

val enable : ?clock:clock -> unit -> unit
(** Install a fresh sink. [clock] defaults to the monotonic
    {!Mclock.now_s} (wall clocks can step backwards mid-trace); tests
    inject a fake clock for deterministic traces. *)

val disable : unit -> unit

val enabled : unit -> bool
(** One ref read; code that computes values only for a counter
    branches on this to skip the work while disabled. *)

module Span : sig
  val with_ : name:string -> (unit -> 'a) -> 'a
  (** [with_ ~name f] runs [f] inside a span nested under the current
      one, recording wall time even if [f] raises. The span reads its
      clock once at each end — the sink's clock when tracing, else
      {!Mclock} — and observes that one duration into
      [zkml_phase_seconds{phase=name}] whether or not tracing is on;
      when the sink is disabled nothing else is recorded. *)
end

val count : string -> int -> unit
(** Add to a named counter on the innermost open span. *)

val countf : string -> float -> unit

val gauge : string -> float -> unit
(** Set a global named gauge (last write wins). *)

val gauge_int : string -> int -> unit

(** {1 Snapshots} *)

type node = {
  name : string;
  start_s : float;  (** seconds since trace start *)
  dur_s : float;
  counters : (string * float) list;
  children : node list;
}

type report = {
  spans : node list;
  root_counters : (string * float) list;
  gauges : (string * float) list;
  total_s : float;
}

val snapshot : unit -> report option
(** Freeze the current trace (open spans are closed at "now"). [None]
    when disabled. *)

val with_enabled : ?clock:clock -> (unit -> 'a) -> 'a * report
(** Run [f] under a fresh sink and return its report; restores the
    previous sink state. *)

(** {1 Aggregation} *)

type agg = {
  agg_name : string;
  agg_calls : int;
  agg_total_s : float;
  agg_counters : (string * float) list;
}

val totals : ?under:string -> report -> agg list
(** Aggregate spans by name (spans nested under a same-named ancestor
    are not double counted). [?under] restricts to subtrees rooted at
    spans with that name. *)

val total_of : ?under:string -> report -> string -> float
(** Aggregated seconds for one span name; 0 if absent. *)

val counter_total : report -> string -> float
(** Sum of a named counter over the whole tree. *)

val gauge_of : report -> string -> float option
(** Last recorded value of a named gauge, if any. *)

(** {1 Parallel-region capture}

    The sink is domain-local, so worker domains record nothing unless
    bridged. A thread pool calls [fork n] on the domain that owns the
    trace, wraps each worker body in [worker_run h i], and calls
    [join h] back on the owning domain: every span, counter and gauge
    the workers recorded is spliced into the innermost open span of the
    main trace, in worker-index order (deterministic regardless of
    scheduling). All three are no-ops while tracing is disabled. *)

module Par : sig
  type handle

  val fork : int -> handle option
  (** [fork n] prepares capture slots for [n] workers; [None] (free)
      when the sink is disabled. *)

  val worker_run : handle option -> int -> (unit -> 'a) -> 'a
  (** [worker_run h i f] runs [f] with a private capture sink installed
      in the calling domain for slot [i]; captures even if [f] raises. *)

  val join : handle option -> unit
  (** Merge all captured slots into the current trace. Call on the
      domain that called [fork], after all workers finished. *)
end

(** {1 Exporters} *)

val chrome_trace : report -> string
(** JSON array of ["ph":"X"] complete events with microsecond
    timestamps. *)

val summary_json : report -> string

val tree_string : report -> string

val write_file : string -> string -> unit

(**/**)

val json_escape : string -> string
val json_float : float -> string
