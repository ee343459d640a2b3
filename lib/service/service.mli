(** The query service: multi-client sessions over one shared store,
    with a cross-session prepared-plan cache, a footprint-gated
    parallel scheduler (jobs with provably disjoint static effects
    footprints run concurrently — including updating jobs over
    disjoint documents) and per-query resource governance (deadlines,
    fuel, pending-∆ caps, cooperative cancellation, admission
    control). See docs/SERVICE.md for the architecture. *)

type t

(** Session handles are plain ints (they cross the wire protocol).

    Governance knobs (all optional; service-wide, applied per query):
    [deadline_ms] wall-clock budget (also spawns the deadline
    watchdog), [fuel] evaluation-step budget, [max_delta] cap on one
    snap frame's pending updates, [max_queue] scheduler admission
    watermark. With none set the service is ungoverned except that
    {!cancel} always works.

    Durability ([durability]): recover the store from [cfg.dir]
    (latest valid snapshot + WAL tail replay) and append every
    committed write to the WAL before acknowledging it — see
    docs/DURABILITY.md. Replication: [replica] makes the service a
    read-only replica whose store is fed by {!replica_ingest};
    [replica_of] ("HOST:PORT") additionally names the leader for
    {!start_replication}'s polling thread. A replica keeps no WAL of
    its own: [durability] and replica mode are mutually exclusive
    (@raise Failure).

    Continuous profiling: [profile_hz] arms the process-global
    sampling profiler ({!Xqb_obs.Profile}) at boot — without it the
    profiler stays off until a wire [PROFILE START], which uses this
    service's configured rate (default 97). [gc_pause_warn_ms]
    (default 50) degrades health ([gc-pause], 4× = critical) when
    the GC's p99 pause over the sliding 10s window exceeds it. Both
    must be positive (@raise Invalid_argument).

    Health telemetry: [slo_p99_ms] (default 250) / [slo_err_pct]
    (default 1) set the SLO targets behind the rolling-window burn
    rates; [trace_ring] (default 32) the TRACE ring capacity;
    [stall_ms] (default 1000) the no-progress bound the stall
    watchdog and HEALTH check against; [fsync_warn_ms] (default 100)
    degrades health when the fsync p99 exceeds it; [lag_warn_frames]
    (default 256) degrades health when a replica falls that far
    behind (4× = critical; 0 disables). [telemetry] (default true)
    switches the event log, rolling windows and monitor thread on;
    [false] is bench E22's baseline. [events_cap] bounds the
    in-memory event ring (default 512). *)
val create :
  ?domains:int ->
  ?cache_capacity:int ->
  ?seed:int ->
  ?deadline_ms:int ->
  ?fuel:int ->
  ?max_delta:int ->
  ?max_queue:int ->
  ?tracing:bool ->
  ?slow_apply_ms:int ->
  ?durability:Xqb_wal.Durable.config ->
  ?replica:bool ->
  ?replica_of:string ->
  ?slo_p99_ms:float ->
  ?slo_err_pct:float ->
  ?trace_ring:int ->
  ?stall_ms:int ->
  ?fsync_warn_ms:int ->
  ?lag_warn_frames:int ->
  ?telemetry:bool ->
  ?events_cap:int ->
  ?profile_hz:int ->
  ?gc_pause_warn_ms:int ->
  unit ->
  t

val catalog : t -> Catalog.t
val scheduler : t -> Scheduler.t
val metrics : t -> Metrics.t

(** A fresh session: its own engine (functions, globals, snap
    semantics) over the shared catalog store. *)
val open_session : t -> int

(** Releases the session's catalog references. Idempotent. *)
val close_session : t -> int -> unit

val session_count : t -> int

(** Load [xml] into the shared catalog under [uri] (load-once;
    subsequent sessions reuse the resident tree) and attach it to the
    session: resolvable via [fn:doc(uri)] and bound to [$uri].
    @raise Failure on an unknown session. *)
val load_document : t -> int -> uri:string -> string -> unit

(** Submit a query; returns the job id (usable with {!cancel} while
    the job is queued or running) and a future resolving to the
    serialized result or a structured error. Every program runs on
    the session itself, under the session lock, concurrently with
    every job whose static footprint is provably disjoint from its
    own (a pure read's footprint writes nothing); ∆ applications
    serialize on the global apply mutex (each top-level snap is
    transactional: an apply-time failure rolls back before the WAL
    sees it). Effecting programs hold ⊤ and run exclusively under
    whole-job rollback. On a replica, a program that could change
    the store — judged with the recorded classification of the
    functions it calls — is rejected.
    @raise Failure on an unknown session. *)
val submit_job :
  t -> int -> string -> int * (string, Service_error.t) result Scheduler.future

(** {!submit_job} without the job id. *)
val submit :
  t -> int -> string -> (string, Service_error.t) result Scheduler.future

(** Await a submission, folding scheduler-level failures (queue
    expiry, shutdown) into the structured taxonomy. *)
val await :
  (string, Service_error.t) result Scheduler.future ->
  (string, Service_error.t) result

(** Synchronous [submit] + {!await}. *)
val query : t -> int -> string -> (string, Service_error.t) result

(** EXPLAIN ANALYZE (wire [EXPLAIN]): run the query through the
    algebraic compiler with per-operator profiling and return the
    annotated plan tree. Executes for real (side effects included) under
    a ⊤ footprint and the usual governance; bypasses the plan
    cache. *)
val explain_job :
  t -> int -> string -> int * (string, Service_error.t) result Scheduler.future

(** Synchronous {!explain_job}. *)
val explain : t -> int -> string -> (string, Service_error.t) result

(** Chrome trace-event JSON of job [jid], or of the most recent
    traced job when [None]. Returns the job id with the JSON; [None]
    when tracing is off, the job was never traced, or it has fallen
    out of the bounded ring. *)
val trace_json : t -> int option -> (int * string) option

(** Request cancellation of an in-flight job (wire [CANCEL]). True
    if the job was found; it fails with kind [Cancelled] at its next
    budget poll. *)
val cancel : t -> int -> bool

val inflight_count : t -> int

(** The message part of a classified exception (compat helper). *)
val error_message : exn -> string

val cache_stats : t -> Plan_cache.stats

(** Footprint-gate gauges as JSON: currently admitted jobs (all /
    holding write regions) and their high-water marks since boot. Also embedded in
    {!stats_json} under ["concurrency"]. *)
val concurrency_json : t -> string

(** Metrics + plan-cache + catalog + in-flight jobs + rolling windows
    + health + telemetry gauges as JSON. *)
val stats_json : t -> string

(** Wire [METRICS PROM]: every layer's contribution (service
    counters, windows and SLO burn rates, gate / trace-ring / event
    gauges, WAL and checkpoint gauges, replica lag, health status) on
    one shared {!Xqb_obs.Prom} emitter, so [# HELP]/[# TYPE]
    discipline and counter naming hold page-wide. *)
val metrics_prometheus : t -> string

(** {1 Wire-edge gauges}

    The TCP edge ({!Edge}) registers a snapshot source here so
    STATS/HEALTH/metrics surface connection counts and backpressure
    state; the service itself never depends on the edge module. *)

type edge_gauges = {
  eg_mode : string;  (** ["fiber"] | ["threads"] *)
  eg_open : int;  (** connections open now *)
  eg_peak : int;  (** peak concurrently open since boot *)
  eg_accepted : int;  (** connections accepted since boot *)
  eg_conn_rejects : int;  (** connections refused at [--max-conns] *)
  eg_suspended : int;  (** connections currently read-suspended *)
  eg_suspensions : int;  (** read-suspension episodes since boot *)
  eg_overload_rejects : int;  (** requests rejected at the hard watermark *)
  eg_requests : int;  (** requests parsed off the wire *)
  eg_batches : int;  (** readiness-cycle admission batches *)
  eg_max_conns : int;  (** configured cap; 0 = unlimited *)
}

val set_edge_source : t -> (unit -> edge_gauges) option -> unit
val edge_gauges : t -> edge_gauges option

(** {1 Service health telemetry} *)

(** The structured event log (lifecycle, WAL commits/checkpoints,
    overload, slow queries, replica and stall events). *)
val events : t -> Xqb_obs.Events.t

(** Wire [EVENTS]: the last [n] retained events at [level] (default
    all) or above as a JSON array, oldest first. *)
val events_json : ?level:Xqb_obs.Events.severity -> t -> int -> string

(** Wire [HEALTH]: overall status + machine-readable reasons, e.g.
    [{"status":"degraded","reasons":[{"code":"queue-depth",...}]}].
    Checks: queue depth against the admission watermark, edge
    connection saturation and read-suspension backpressure,
    10s-window SLO burn rates, fsync p99 / in-flight fsync age,
    apply-mutex hold time, queue-head age, replica lag and link
    state (both sides). *)
val health_json : t -> string

(** Just the status: ["ok"] | ["degraded"] | ["critical"]. *)
val health_status : t -> string

(** (occupancy, capacity, evictions since boot) of the TRACE ring. *)
val trace_ring_stats : t -> int * int * int

(** Write a flight-recorder dump (event tail, in-flight jobs, gate +
    queue + health state) to [flight-<ts>.json] under the data
    directory; [None] without one (or when the write fails). *)
val write_flight : t -> reason:string -> string option

(** The dump {!write_flight} would write, as JSON. *)
val flight_json : t -> reason:string -> string

(** Path of the flight dump the boot wrote after detecting an unclean
    prior shutdown (the events sink did not end in
    [lifecycle.shutdown]); [None] on a clean boot. *)
val boot_flight : t -> string option

(** Install the serve-process crash hooks: a SIGTERM handler and an
    [at_exit] guard, each writing one flight dump if the service is
    not shutting down cleanly. Library embedders should not call
    this — it takes over process signals. *)
val install_crash_hooks : t -> unit

(** Fault injection for tests: stall every WAL fsync by [secs]
    (see {!Xqb_wal.Wal.inject_fsync_delay}); no-op without
    durability. *)
val inject_fsync_delay : t -> float -> unit

(** Fault injection for tests: floor the GC telemetry's reported 10s
    p99 pause at [ms], deterministically tripping the [gc-pause]
    health reason; {!clear_gc_pause_injection} reverts it. No-op
    when telemetry is off. *)
val inject_gc_pause : t -> int -> unit

val clear_gc_pause_injection : t -> unit

(** Wire [PROFILE]: drive the process-global continuous profiler.
    [`Start] arms it at this service's [profile_hz] (idempotent),
    [`Stop] disarms keeping the samples, [`Dump] returns the folded
    flamegraph text, [`Dump_json] the same as JSON, [`Stat] a status
    document. *)
val profile_command :
  t -> [ `Start | `Stop | `Dump | `Dump_json | `Stat ] -> string

(** The last updating job's ∆ statistics as JSON (requests by
    kind, snap-depth histogram, conflicts checked, apply-phase wall
    time) — the wire [DELTA] payload. [None] before any updating
    job ran. *)
val delta_json : t -> string option

(** The slow-effect log as a JSON array, newest first: updating
    jobs whose ∆-apply phase exceeded [slow_apply_ms], each with its
    ∆ summary and trace id (wire [SLOWLOG]). *)
val slowlog_json : t -> string

val slowlog_length : t -> int

(** {1 Durability and replication} *)

(** True in replica mode: updating/effecting queries, EXPLAIN and
    fresh document loads are rejected with a one-line error; reads
    (and LOAD of an already-replicated URI) serve normally. *)
val read_only : t -> bool

(** Durability gauges as JSON; [None] without [durability]. *)
val durability_json : t -> string option

(** Wire [JOURNAL STAT]: in-memory journal length, node count, the
    canonical store digest (equal across leader, replicas and a
    recovered store iff their states agree) and the durable/applied
    LSN. *)
val journal_stat_json : t -> string

(** Wire [REPLICA STAT]. On a replica: applied/received/leader LSNs,
    lag in frames, bytes (received-but-unapplied) and ms, status. On
    the leader: [{"replica":false,...}] with the per-peer lag table
    fed by SHIP replica ids. *)
val replica_stat_json : t -> string

(** Wire [CHECKPOINT]: force a snapshot now (write lock; flushes the
    journal tail first). Returns the checkpoint LSN. *)
val checkpoint_now : t -> (int, string) result

(** Wire [SHIP]: committed WAL frames from [from_lsn] (at most [max])
    as [(leader last LSN, concatenated raw frames)]. [replica_id]
    (SHIP's optional third argument) updates the leader's per-peer
    lag table — requesting from [from_lsn] acknowledges everything
    below it. [Error] when the service is not durable or [from_lsn]
    predates the last checkpoint (the replica must re-bootstrap). *)
val ship_frames :
  ?replica_id:string -> t -> from_lsn:int -> max:int -> (int * string, string) result

(** Wire [SNAPSHOT]: a serialized snapshot of the current state for
    replica bootstrap, [(lsn, blob)]. *)
val snapshot_blob : t -> (int * string, string) result

(** Replica side: restore a {!snapshot_blob} into the (empty) store
    and register its documents. Returns the snapshot LSN. *)
val replica_bootstrap : t -> string -> (int, string) result

(** Replica side: apply a batch of shipped frames (idempotent —
    already-seen LSNs are skipped; a cut transaction span buffers
    until its remainder arrives). Returns frames applied. *)
val replica_ingest : t -> leader_lsn:int -> string -> (int, string) result

(** Start the leader-polling thread when [replica_of] was given
    (bootstrap via SNAPSHOT, then SHIP forever). No-op otherwise. *)
val start_replication : t -> unit

(** Stop the service. Without [deadline] drain queued jobs; with
    [deadline] (seconds) give them that long, then abandon the queue
    and cancel in-flight budgets. Closes the WAL (final fsync) and
    stops the replication thread. *)
val shutdown : ?deadline:float -> t -> unit
