(** Service observability: query counts by purity class, latency
    percentiles (fixed-footprint log-bucketed histograms, exact for
    the first 512 samples), per-phase latency breakdowns, scheduler
    queue depth, applied-∆ accounting. Thread-safe; dumped as JSON. *)

type t

(** [windows] (default true) maintains rolling 1s/10s/60s views of
    the query stream (rate, windowed percentiles, error and
    SLO-violation fractions) alongside the since-boot counters;
    [false] is the telemetry-off baseline of bench E22. The SLO
    targets drive the [slow] classification and burn-rate gauges:
    [slo_p99_ms] (default 250) is the latency target, [slo_err_pct]
    (default 1) the allowed error percentage. *)
val create :
  ?windows:bool -> ?slo_p99_ms:float -> ?slo_err_pct:float -> unit -> t

(** [(slo_p99_ms, slo_err_pct)]. *)
val slo : t -> float * float

val record_query :
  t ->
  purity:Core.Static.purity ->
  ok:bool ->
  latency_ns:float ->
  unit

(** A submission rejected at compile time (no purity class). *)
val record_compile_error : t -> unit

(** Count a failed query against its taxonomy kind (the [errors]
    total is maintained by {!record_query} / {!record_compile_error};
    this is only the breakdown). *)
val record_error : t -> Service_error.kind -> unit

(** Per-kind failed-query counts, in a fixed kind order. *)
val errors_by_kind : t -> (Service_error.kind * int) list

val record_queue_depth : t -> int -> unit

(** One pipeline-phase observation: span name, nanoseconds. *)
val record_phase : t -> string -> float -> unit

(** Fold a traced job's {!Xqb_obs.Trace.phase_totals} into the
    per-phase histograms. *)
val record_phase_totals : t -> (string * int) list -> unit

(** Wire into a session engine's [Context.on_apply]. *)
val record_delta : t -> Core.Update.delta -> unit

(** [(queries, errors)]. Concurrency figures live on the footprint
    gate ({!Rwlock.peak}, the service's [concurrency_json]). *)
val counts : t -> int * int

val json_escape : string -> string

(** [extra] is appended to the object verbatim as pre-rendered
    [key:json] members (the service adds its in-flight job listing). *)
val to_json :
  ?cache:Plan_cache.stats ->
  ?docs:(string * int * int) list ->
  ?extra:(string * string) list ->
  t ->
  string

(** Append the same counters to a shared {!Xqb_obs.Prom} page
    (counters as [_total] with [# HELP]/[# TYPE], latency /
    per-phase distributions as summaries, rolling windows and SLO
    burn rates as gauges). The service composes the full METRICS
    PROM payload from this plus the WAL / gate / replica
    contributions on the same emitter. *)
val to_prom : ?cache:Plan_cache.stats -> t -> Xqb_obs.Prom.t -> unit

(** Rolling-window snapshots + SLO targets as one JSON object (the
    STATS ["windows"] member). *)
val windows_json : t -> string

(** [(window name, snapshot)] for each rolling window ([[]] when
    windows are off). *)
val window_snaps : t -> (string * Xqb_obs.Window.snap) list
