(** Footprint-gated scheduler: a fixed pool of OCaml 5 domains plus a
    FIFO footprint gate ({!Rwlock}). Every job runs concurrently with
    everything provably disjoint from its static footprint — a pure
    read's footprint writes nothing, so reads share the gate freely;
    ⊤-footprint jobs (Effecting programs, inconclusive analysis,
    document loads) run alone. ∆ application is *not* covered by the
    gate — concurrent jobs serialize their apply phase on
    {!with_apply}. [domains = 0] executes synchronously
    in the caller (still gate-admitted) — the "scheduler off"
    baseline.

    Admission control: the queue is bounded ([max_queue]); over the
    watermark, {!submit} raises {!Overloaded} instead of queuing.
    Jobs may carry a queue-time deadline on the monotonic
    {!Xqb_obs.Clock} scale — expired jobs are never run, their future
    completes with {!Expired_in_queue}; the synchronous configuration
    performs the same check before executing. Submission after
    {!shutdown} raises {!Shut_down} uniformly for the pooled and the
    synchronous configuration. *)

(** Raised by {!submit} when the queue is at its high watermark. *)
exception Overloaded

(** Raised by {!submit} after {!shutdown}; also completes the futures
    of jobs abandoned by a deadlined shutdown. *)
exception Shut_down

(** Completes the future of a job whose queue-time deadline passed
    before a worker picked it up (or, with [domains = 0], before the
    synchronous execution started). *)
exception Expired_in_queue

type t

type 'a future

val create : ?domains:int -> ?max_queue:int -> unit -> t
val domains : t -> int
val queue_depth : t -> int

(** The admission watermark, [None] when unbounded. *)
val max_queue : t -> int option

(** Age (monotonic ns) of the oldest job admitted to the queue but
    not yet started — the stall watchdog's "admitted-but-not-started"
    signal. 0 when the queue is empty. *)
val oldest_queued_age_ns : t -> int

(** How long the global apply mutex has been held by its current
    owner (monotonic ns); 0 when free. Read without locking — stale
    by at most the caller's poll period. *)
val apply_held_ns : t -> int

(** Submit a job. [deadline] (absolute, monotonic {!Xqb_obs.Clock}
    nanoseconds — immune to wall-clock steps) bounds its time in the
    queue; [on_abort] is called (before the future completes) if the
    job is abandoned without running — queue expiry or shutdown
    drain. [footprint] admits the job against the gate (default: ⊤
    when [exclusive], read-everything otherwise). [trace] makes the
    scheduler record the two waits only it can see: "queue.wait"
    (submit → dequeue; tagged ["expired" = "true"] when the job was
    aborted at dequeue) and "lock.wait" (blocked on the gate).
    @raise Shut_down after {!shutdown}
    @raise Overloaded when the queue is full. *)
val submit :
  t ->
  ?deadline:int ->
  ?on_abort:(exn -> unit) ->
  ?trace:Xqb_obs.Trace.t ->
  ?footprint:Core.Static.Footprint.t ->
  exclusive:bool ->
  (unit -> 'a) ->
  'a future

(** Blocks until the job has run (or was aborted). *)
val await : 'a future -> ('a, exn) result

val await_exn : 'a future -> 'a

(** [on_complete fut cb] registers a completion callback instead of
    blocking: a pending future runs [cb result] (outside the future's
    lock) on the thread that completes it — a worker domain — and an
    already-completed future runs it immediately in the caller. The
    fiber edge uses this to wake a connection's event loop when a
    pipelined job finishes; callbacks must therefore be cheap and
    must not submit work recursively. Exceptions from [cb] are
    swallowed. *)
val on_complete : 'a future -> (('a, exn) result -> unit) -> unit

(** [peek fut] is the result if the future has completed, without
    blocking. *)
val peek : 'a future -> ('a, exn) result option

(** An already-completed future holding [v]. *)
val ready : 'a -> 'a future

(** An already-failed future holding [e]. *)
val failed : exn -> 'a future

(** Run [f] under the gate directly, bypassing the queue (used for
    synchronous shared-state operations such as catalog loads). *)
val with_write : t -> (unit -> 'a) -> 'a

val with_read : t -> (unit -> 'a) -> 'a

(** Gate admission with an explicit footprint, bypassing the queue. *)
val with_footprint : t -> Core.Static.Footprint.t -> (unit -> 'a) -> 'a

(** The global apply mutex: concurrent jobs evaluate in parallel
    but run their snap-apply + WAL append inside [with_apply]. *)
val with_apply : t -> (unit -> 'a) -> 'a

(** The underlying footprint gate (metrics: running/peak counts). *)
val gate : t -> Rwlock.t

(** Stop accepting work and wind the pool down. Without [deadline],
    drain: queued jobs still run. With [deadline] (seconds, measured
    on the monotonic clock), wait at most that long for queued +
    running jobs; then abandon still-queued jobs (futures complete
    with {!Shut_down}) and call [on_deadline] — the service cancels
    in-flight budgets there so running jobs die at their next poll —
    before joining workers. *)
val shutdown : ?deadline:float -> ?on_deadline:(unit -> unit) -> t -> unit
