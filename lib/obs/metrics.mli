(** Process-wide, always-on metrics registry.

    Unlike the trace sink in {!Obs} — which records only inside an
    explicit [enable]d trace and is domain-local — this registry is one
    shared, mutex-protected structure that every domain writes into
    directly, so Pool worker domains record safely with no fork/join
    bridging and nothing is ever dropped. It is always on: recording
    does not depend on [Obs.enabled], costs one mutex round-trip per
    update, and never changes observable program output (proof bytes
    are identical with or without scraping).

    Three instrument kinds, each identified by a metric name plus a
    (sorted) label set:

    - {b counters}: monotonically increasing floats ([inc]);
    - {b gauges}: last-write-wins floats ([set]);
    - {b histograms}: log-linear buckets (8 sub-buckets per power of
      two, spanning 2{^-30}..2{^30}) with exact count/sum and
      deterministic p50/p90/p99 estimation — bucket assignment depends
      only on the observed value, so quantiles are identical regardless
      of observation order or domain interleaving.

    Hot paths resolve a {!handle} once (one registry lookup) and then
    update through it. Exposition: {!prometheus_string} (text format,
    scrape- or textfile-collector-ready) and {!json_string}. *)

type labels = (string * string) list
(** Label key/value pairs. Stored sorted by key; order at call sites is
    irrelevant. *)

type handle
(** A pre-resolved series (one metric name + label set). Updating
    through a handle skips the name/label lookup. *)

(** {1 Registration and updates} *)

val counter : ?labels:labels -> ?help:string -> string -> handle
val gauge : ?labels:labels -> ?help:string -> string -> handle
val histogram : ?labels:labels -> ?help:string -> string -> handle
(** Find-or-create a series. Re-registering the same name/labels
    returns the same underlying cell; registering a name under two
    different kinds raises [Invalid_argument]. *)

val add : handle -> float -> unit
(** Counter add ([v >= 0]; negative deltas raise [Invalid_argument]). *)

val set : handle -> float -> unit
(** Gauge set. *)

val observe : handle -> float -> unit
(** Histogram observation. Phase durations arrive only from closed
    {!Obs.Span}s; the one duration observed directly is the daemon's
    request latency, which starts and ends on different threads. *)

val inc : ?labels:labels -> ?help:string -> string -> float -> unit
(** [inc name v]: one-shot counter add (lookup + add). *)

val set_gauge : ?labels:labels -> ?help:string -> string -> float -> unit
val observe_in : ?labels:labels -> ?help:string -> string -> float -> unit

val reset : unit -> unit
(** Zero every registered value in place (counts, sums, buckets).
    Registration and outstanding handles stay valid — for tests. *)

(** {1 Snapshots} *)

type hist_snap = {
  h_count : int;  (** total observations, including out-of-range *)
  h_sum : float;
  h_buckets : (float * int) list;
      (** non-empty finite buckets as (upper_bound, cumulative_count),
          ascending; the implicit +Inf bucket equals [h_count] *)
}

type value_snap = Counter_v of float | Gauge_v of float | Hist_v of hist_snap

type series_snap = { s_labels : labels; s_value : value_snap }

type kind = Counter_k | Gauge_k | Histogram_k

type family_snap = {
  f_name : string;
  f_kind : kind;
  f_help : string;
  f_series : series_snap list;  (** sorted by labels *)
}

val snapshot : unit -> family_snap list
(** Consistent copy of the whole registry, families sorted by name. *)

val quantile : hist_snap -> float -> float
(** [quantile h q] (0 < q <= 1): upper bound of the bucket holding the
    ceil(q*count)-th smallest observation — a deterministic
    overestimate within one bucket width (<= 12.5% relative error).
    [nan] on an empty histogram; [0.] when the rank falls among
    observations below the first bucket (v <= 0 or underflow). *)

val counter_value : ?labels:labels -> family_snap list -> string -> float
(** Value of one counter/gauge series in a snapshot; [0.] if absent. *)

val find_series :
  ?labels:labels -> family_snap list -> string -> value_snap option

(** {1 Exposition} *)

val prometheus_string : family_snap list -> string
(** Prometheus text exposition format 0.0.4: [# HELP]/[# TYPE] headers,
    one line per sample, histograms as cumulative [_bucket{le=...}]
    plus [_sum]/[_count]. Deterministic (families and series sorted). *)

val json_string : family_snap list -> string
(** One-line JSON snapshot:
    [{"schema_version":1,"metrics":[...]}], histograms carry count,
    sum, p50/p90/p99 and the non-empty cumulative buckets. *)

(**/**)

(* Bucket geometry, exposed for the boundary unit tests. *)

val bucket_index : float -> int option
(** Bucket holding [v]: [None] for v <= 0, non-finite or underflow;
    values at or above the top edge clamp into the last bucket. Buckets
    cover [lower, upper). *)

val bucket_upper : int -> float
(** Upper bound of bucket [i]. *)

(* JSON encoding shared with Obs and Log; Obs re-exports both. *)

val json_escape : string -> string
val json_float : float -> string
