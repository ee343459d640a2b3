(* The query service: multi-client sessions over one shared store.

   Putting the pieces together:

   - every session wraps a [Core.Engine.t] sharing the catalog's
     store, so [fn:doc]/bound documents are loaded once and visible
     to all sessions, while functions and globals stay per-session;
   - prepared plans are cached across sessions ({!Plan_cache}),
     keyed on literal-aware whitespace-normalized source — a hit
     skips parse → normalize → static-check → rewrite entirely;
   - execution goes through the footprint-gated {!Scheduler}: every
     plan carries a static effects footprint
     ({!Core.Static.Footprint}) and jobs with provably disjoint
     footprints run concurrently. A pure read is just a footprint
     with no writes, so reads overlap each other and every writer
     whose regions they miss. Inconclusive footprints (dynamic
     [fn:doc] URIs, upward axes, calls to updating functions) widen
     to ⊤ and serialize, with the paper's §4.1 runtime conflict check
     still validating every ∆ at apply time;
   - every job runs under a {!Xqb_governor.Budget}: the service-wide
     deadline / fuel / pending-∆ limits if configured, plus a cancel
     token always, so [CANCEL] works even on an unlimited service.
     Budget violations surface as structured {!Service_error}s
     ([timeout] / [cancelled]), admission control as [overloaded];
   - {!Metrics} aggregates per-query latency, queue depth, purity
     counts, plan-cache counters, applied-∆ counts and failed
     queries by taxonomy kind.

   Concurrency protocol, in one place:

   - there is one job path. Every query is compiled (or found in the
     plan cache) at submit time under the session's prepare lock,
     then runs on the session engine under the session lock, after
     the gate admitted its footprint. One session's queries run one
     at a time. Submitting never waits for the session's running
     job: compiling reads only the function table and the globals,
     both persistent maps replaced whole (a declaration takes effect
     when its query is submitted, a global when it runs), and its
     spans go to the new job's own tracer;
   - the purity, allocation and footprint judgements take a call to a
     function declared by an earlier query at the classification
     recorded when it was declared (§5's updating flag), also on a
     plan-cache hit — so a call to an updating function is never
     judged Pure;
   - the store is only mutated at snap-apply time (evaluation never
     touches it — §3.3, the basis of the whole scheme): jobs
     *evaluate* in parallel under the footprint gate, while every ∆
     application — and the WAL append recording it — serializes on
     the scheduler's global apply mutex ({!Scheduler.with_apply},
     installed per job as the context's [apply_wrap]), keeping
     journal transaction spans contiguous and WAL order equal to
     apply order. An empty ∆ (every pure read's top-level snap)
     applies nothing and takes neither the mutex nor a transaction.
     The [Always]-policy fsync wait happens *outside* the mutex, so
     concurrent writers share one group-commit fsync instead of
     queueing full syncs;
   - Effecting programs (nested snap semantics), EXPLAIN, document
     loads and checkpoints take a ⊤ footprint — fully exclusive —
     with whole-job [Store.transactionally] plus an inline durable
     flush, so a query killed mid-update leaves the store exactly as
     it found it even if nested snaps had already applied. For every
     other job the rollback unit is one top-level snap: the apply
     itself is transactional (a failure during apply rolls back
     before the WAL sees it), but a job that fails *after* its snap
     applied — e.g. a budget kill during result serialization —
     reports an error for an update that committed, the same
     guarantee class as a connection dropped between commit and
     acknowledgment;
   - on a replica, the write fence is {!Core.Static.prog_parallel_safe}
     (Pure and allocation-free, with the same recorded classification
     for called functions): anything else could change the store. *)

module Engine = Core.Engine
module Budget = Xqb_governor.Budget
module Trace = Xqb_obs.Trace
module Durable = Xqb_wal.Durable
module Wcodec = Xqb_wal.Codec
module FP = Core.Static.Footprint
module Clock = Xqb_obs.Clock
module Events = Xqb_obs.Events
module Window = Xqb_obs.Window
module Prom = Xqb_obs.Prom

type plan = {
  compiled : Engine.compiled;
  purity : Core.Static.purity;  (* of the whole program *)
  footprint : FP.t;
    (* static effects footprint: what the scheduler gates on.
       Computed against the catalog's documents at first compile;
       cached plans keep it (the var_docs question "is $v a document
       root?" is stable for a given URI — documents are load-once) *)
}

type session = {
  sid : int;
  engine : Engine.t;
  slock : Mutex.t;
    (* held by the session's running job (and by document attach):
       one query of a session runs at a time *)
  plock : Mutex.t;
    (* held while a submission is prepared (compile, declarations),
       and by an EXPLAIN run, which compiles. Never held across any
       other run, so submitting a query waits only for an EXPLAIN of
       its session *)
  mutable docs_held : string list;
}

(* One in-flight (queued or running) governed job, registered so the
   wire [CANCEL], the deadline watchdog and [STATS] can reach it. *)
type inflight = {
  jid : int;
  jsid : int;
  cancel : Budget.cancel;
  started : float;  (* wall clock, for display only *)
  job_deadline : int;
    (* absolute, monotonic Clock ns ([max_int] when ungoverned) — the
       watchdog and the scheduler queue check share one scale that
       wall-clock steps (NTP, VM suspend) cannot move *)
  src : string;
}

(* Wire-edge gauges, pulled (not pushed) from whichever edge is
   serving TCP — see [Edge]. The service only holds a snapshot
   closure so STATS/HEALTH/metrics can surface connection counts and
   backpressure state without depending on the edge module. *)
type edge_gauges = {
  eg_mode : string;  (* "fiber" | "threads" *)
  eg_open : int;  (* connections open now *)
  eg_peak : int;  (* peak concurrently open since boot *)
  eg_accepted : int;  (* connections accepted since boot *)
  eg_conn_rejects : int;  (* connections refused at --max-conns *)
  eg_suspended : int;  (* connections currently read-suspended *)
  eg_suspensions : int;  (* read-suspension episodes since boot *)
  eg_overload_rejects : int;  (* requests rejected at the hard watermark *)
  eg_requests : int;  (* requests parsed off the wire *)
  eg_batches : int;  (* readiness-cycle admission batches *)
  eg_max_conns : int;  (* configured cap; 0 = unlimited *)
}

type t = {
  catalog : Catalog.t;
  cache : plan Plan_cache.t;
  sched : Scheduler.t;
  metrics : Metrics.t;
  sessions : (int, session) Hashtbl.t;
  smutex : Mutex.t;
  mutable next_sid : int;
  seed : int;
  (* governance config (service-wide; applied to every query) *)
  deadline_ms : int option;
  fuel : int option;
  max_delta : int option;
  (* in-flight job registry *)
  jobs : (int, inflight) Hashtbl.t;
  jmutex : Mutex.t;
  mutable next_jid : int;
  (* deadline watchdog (spawned only when a deadline is configured) *)
  mutable watchdog : Thread.t option;
  mutable stopping : bool;
  (* tracing: when on, every job records a per-query span trace
     (queue wait, lock wait, compile phases, execution, snap apply),
     kept in a bounded ring for the wire [TRACE] command. Off = each
     instrumentation point costs one branch. *)
  tracing : bool;
  tr_mutex : Mutex.t;
  mutable recent_traces : (int * Trace.t) list;  (* newest first, bounded *)
  trace_cap : int;  (* ring capacity (serve --trace-ring) *)
  mutable trace_evictions : int;  (* traces dropped off the ring *)
  (* service health telemetry: the structured event log (ring +
     per-event-flushed JSONL sink when durable — the sink's tail is
     what the crash flight recorder reconstructs from), the stall
     thresholds the monitor thread and HEALTH check against, and the
     monitor thread itself (stall rising edges + health transitions;
     spawned only when telemetry is on). *)
  events : Events.t;
  data_dir : string option;
  stall_ns : int;  (* no-progress bound: apply held / fsync / queue age *)
  fsync_warn_ns : int;  (* fsync p99 above this degrades health *)
  lag_warn_frames : int;  (* replica lag above this degrades health *)
  mutable monitor : Thread.t option;
  (* leader-side per-replica tracking, keyed on the id the replica
     sends with SHIP *)
  peers : (string, peer) Hashtbl.t;
  pmutex : Mutex.t;
  (* effect observability: per-job ∆ statistics (wire DELTA) and the
     slow-effect log — updating jobs (programs that are not Pure)
     whose apply phase exceeded [slow_ns] leave a ∆ summary + trace
     id in a bounded ring (wire SLOWLOG). *)
  slow_ns : int;
  sl_mutex : Mutex.t;
  mutable slowlog : slow_entry list;  (* newest first, bounded *)
  mutable last_delta : string option;  (* rendered ∆-stats JSON *)
  (* durability (leader side): the WAL/checkpoint manager, plus the
     journal seq of the first in-memory entry not yet appended to
     disk. [wal_seq] is only touched under the scheduler's apply
     mutex or a ⊤ footprint (catalog loads, checkpoints, Effecting
     jobs — which exclude every concurrent apply), so it needs no
     mutex of its own. *)
  durable : Durable.t option;
  mutable wal_seq : int;
  mutable commit_seq : int;  (* commits since boot — wal.commit event sampling *)
  (* replica side: reject write traffic, apply shipped frames *)
  read_only : bool;
  repl : repl option;
  (* wire edge, when one is attached (serve --port) *)
  mutable edge_src : (unit -> edge_gauges) option;
  (* continuous profiling + GC telemetry: the profiler itself is
     process-global (lib/obs Profile); the service carries its
     configured rate (PROFILE START / serve --profile-hz), whether
     boot armed it (so shutdown disarms it), whether this instance
     holds a Gc_tel refcount, and the gc-pause health threshold. *)
  profile_hz : int;
  profile_owned : bool;
  gc_tel : bool;
  gc_pause_warn_ns : int;
  boot_wall : float;  (* process-identity gauges: uptime *)
}

and slow_entry = {
  sl_jid : int;
  sl_sid : int;
  sl_src : string;
  sl_apply_ns : int;
  sl_snaps : int;
  sl_requests : int;
  sl_trace : string option;
  sl_gc_ns : int;  (* GC pause observed during the job (poll-lagged) *)
  sl_samples : (string * int) list;  (* profiler samples by phase *)
}

(* Replica state. [rm] guards every field; the polling thread and
   the wire STAT/ingest paths are the only writers. The entry buffer
   holds the tail of a transaction span whose remainder has not
   shipped yet (the leader's poll window can cut a span in half) —
   entries apply to the store only in complete spans, so a replica
   never serves a half-applied update. *)
and repl = {
  r_leader : string;  (* "host:port", or "" when pumped manually *)
  rm : Mutex.t;
  mutable r_received_lsn : int;  (* highest LSN accepted from the leader *)
  mutable r_applied_lsn : int;  (* highest LSN applied / registered *)
  mutable r_leader_lsn : int;  (* leader's last LSN as of the last SHIP *)
  mutable r_pending : (int * Xqb_store.Store.mj_entry * int) list;
    (* oldest first: lsn, entry, frame bytes — the byte size feeds the
       received-but-not-applied lag gauge *)
  mutable r_frames : int;  (* frames applied since boot *)
  mutable r_status : string;
  mutable r_last_apply : float;
  mutable r_thread : Thread.t option;
  mutable r_sock : Unix.file_descr option;
  mutable r_stop : bool;
}

(* One replica as the leader sees it: [p_acked] is the LSN the
   replica's last SHIP request acknowledged (from_lsn - 1 — it asks
   for what it does not have), [p_shipped] the last LSN we handed it. *)
and peer = {
  mutable p_acked : int;
  mutable p_shipped : int;
  mutable p_last_seen : float;  (* wall clock, for staleness display *)
}

let slowlog_cap = 64

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The watchdog is belt-and-braces on top of the budget's own clock
   polls: it marks the cancel token of any overdue job, catching
   jobs that are stuck somewhere that never reaches a poll point
   (e.g. blocked behind the write lock). First reason wins, so a
   job that already died of its own deadline is unaffected. *)
let watchdog_loop t () =
  while not t.stopping do
    Thread.delay 0.02;
    let now = Clock.now_ns () in
    locked t.jmutex (fun () ->
        Hashtbl.iter
          (fun _ j ->
            if j.job_deadline <> max_int && now > j.job_deadline then
              Budget.request j.cancel Budget.Deadline)
          t.jobs)
  done

(* -- service health -------------------------------------------------

   [health_reasons] is the single source of truth behind the wire
   HEALTH verb, the monitor thread's transition events and the
   xqbang_health_status gauge: every check yields a machine-readable
   reason (code + level + data fields), and the overall status is the
   worst level present. *)

let field_json = function
  | Events.S s -> Printf.sprintf "\"%s\"" (Xqb_obs.Json.escape s)
  | Events.I i -> string_of_int i
  | Events.F f ->
    if Float.is_finite f then Printf.sprintf "%g" f
    else Printf.sprintf "\"%g\"" f
  | Events.B b -> string_of_bool b

(* Minimum samples before a window's burn rate is trusted: a single
   failed request on an idle service must not flap health. *)
let burn_min_count = 5

(* Burn-rate factor separating "degraded" (>= 1: consuming budget
   faster than sustainable) from "critical" (>= 4: the classic
   fast-burn page threshold). *)
let burn_critical = 4.

let health_reasons t =
  let reasons = ref [] in
  let add code level data = reasons := (code, level, data) :: !reasons in
  (* queue depth against the admission watermark *)
  let depth = Scheduler.queue_depth t.sched in
  let deg_q, crit_q =
    match Scheduler.max_queue t.sched with
    | Some m -> ((m + 1) / 2, Stdlib.max 1 (m * 9 / 10))
    | None -> (128, 1024)
  in
  if depth >= crit_q then
    add "queue-depth" `Critical
      [ ("depth", Events.I depth); ("critical_at", Events.I crit_q) ]
  else if depth >= deg_q then
    add "queue-depth" `Degraded
      [ ("depth", Events.I depth); ("degraded_at", Events.I deg_q) ];
  (* wire edge: connection saturation and read-suspension backpressure *)
  (match t.edge_src with
  | None -> ()
  | Some src ->
    let e = src () in
    if e.eg_max_conns > 0 && e.eg_open >= e.eg_max_conns then
      add "edge-saturated" `Critical
        [ ("open", Events.I e.eg_open); ("max_conns", Events.I e.eg_max_conns) ]
    else if e.eg_max_conns > 0 && e.eg_open * 10 >= e.eg_max_conns * 9 then
      add "edge-saturated" `Degraded
        [ ("open", Events.I e.eg_open); ("max_conns", Events.I e.eg_max_conns) ];
    if e.eg_suspended > 0 then
      add "edge-backpressure" `Degraded
        [
          ("read_suspended", Events.I e.eg_suspended);
          ("queue_depth", Events.I depth);
        ]);
  (* SLO burn over the 10s window (1s is too twitchy for alerting,
     60s too slow to notice an incident starting) *)
  let _, slo_err_pct = Metrics.slo t.metrics in
  List.iter
    (fun (name, (s : Window.snap)) ->
      if name = "10s" && s.Window.count >= burn_min_count then begin
        let avail =
          Window.burn ~frac:s.Window.err_frac ~budget_frac:(slo_err_pct /. 100.)
        in
        let lat = Window.burn ~frac:s.Window.slow_frac ~budget_frac:0.01 in
        let burn code frac burn_rate =
          if burn_rate >= burn_critical then
            add code `Critical
              [ ("burn_rate", Events.F burn_rate); ("frac", Events.F frac) ]
          else if burn_rate >= 1. then
            add code `Degraded
              [ ("burn_rate", Events.F burn_rate); ("frac", Events.F frac) ]
        in
        burn "error-burn" s.Window.err_frac avail;
        burn "latency-burn" s.Window.slow_frac lat
      end)
    (Metrics.window_snaps t.metrics);
  (* durability: a stuck fsync is critical, a merely slow one degrades *)
  (match t.durable with
  | None -> ()
  | Some d ->
    let inflight = Durable.fsync_in_progress_ns d in
    if inflight > t.stall_ns then
      add "fsync-stall" `Critical
        [ ("in_progress_ms", Events.F (float_of_int inflight /. 1e6)) ]
    else begin
      let p99 = Durable.fsync_p99_ns d in
      if p99 > float_of_int t.fsync_warn_ns then
        add "fsync-latency" `Degraded
          [ ("p99_ms", Events.F (p99 /. 1e6)) ]
    end);
  (* GC: a p99 pause over the 10s window past --gc-pause-warn-ms
     degrades (the latency SLO is being eaten by the collector);
     4x past it is the classic fast-burn page threshold. *)
  (if t.gc_tel && Xqb_obs.Gc_tel.enabled () then begin
     let p99 = Xqb_obs.Gc_tel.pause_p99_10s_ns () in
     let warn = float_of_int t.gc_pause_warn_ns in
     let data () =
       [
         ("p99_ms", Events.F (p99 /. 1e6));
         ("warn_ms", Events.F (warn /. 1e6));
       ]
     in
     if p99 >= 4. *. warn then add "gc-pause" `Critical (data ())
     else if p99 >= warn then add "gc-pause" `Degraded (data ())
   end);
  (* no-progress: apply mutex held too long / queue head not started *)
  let held = Scheduler.apply_held_ns t.sched in
  if held > t.stall_ns then
    add "apply-stall" `Critical
      [ ("held_ms", Events.F (float_of_int held /. 1e6)) ];
  let age = Scheduler.oldest_queued_age_ns t.sched in
  if age > t.stall_ns then
    add "queue-stall" `Critical
      [ ("oldest_queued_ms", Events.F (float_of_int age /. 1e6)) ];
  (* replica side: apply lag behind the leader, or a dead link *)
  (match t.repl with
  | None -> ()
  | Some r ->
    locked r.rm (fun () ->
        let lag = Stdlib.max 0 (r.r_leader_lsn - r.r_applied_lsn) in
        if t.lag_warn_frames > 0 && lag >= 4 * t.lag_warn_frames then
          add "replica-lag" `Critical
            [ ("lag_frames", Events.I lag) ]
        else if t.lag_warn_frames > 0 && lag >= t.lag_warn_frames then
          add "replica-lag" `Degraded
            [ ("lag_frames", Events.I lag) ];
        let pre p = String.length r.r_status >= String.length p
                    && String.sub r.r_status 0 (String.length p) = p in
        if pre "stale" then
          add "replica-stale" `Critical [ ("status", Events.S r.r_status) ]
        else if pre "disconnected" then
          add "replica-disconnected" `Degraded
            [ ("status", Events.S r.r_status) ]));
  (* leader side: replicas falling behind the WAL head *)
  (match t.durable with
  | Some d when t.lag_warn_frames > 0 ->
    let last = Durable.last_lsn d in
    locked t.pmutex (fun () ->
        Hashtbl.iter
          (fun id p ->
            let lag = Stdlib.max 0 (last - p.p_acked) in
            if lag >= 4 * t.lag_warn_frames then
              add "peer-lag" `Critical
                [ ("replica", Events.S id); ("lag_frames", Events.I lag) ]
            else if lag >= t.lag_warn_frames then
              add "peer-lag" `Degraded
                [ ("replica", Events.S id); ("lag_frames", Events.I lag) ])
          t.peers)
  | _ -> ());
  List.rev !reasons

let health_level reasons =
  if List.exists (fun (_, l, _) -> l = `Critical) reasons then `Critical
  else if reasons <> [] then `Degraded
  else `Ok

let health_level_string = function
  | `Ok -> "ok"
  | `Degraded -> "degraded"
  | `Critical -> "critical"

let health_status t = health_level_string (health_level (health_reasons t))

let health_json t =
  let reasons = health_reasons t in
  let reason_json (code, level, data) =
    "{"
    ^ String.concat ","
        (Printf.sprintf "\"code\":\"%s\"" code
         :: Printf.sprintf "\"level\":\"%s\""
              (health_level_string (level :> [ `Ok | `Degraded | `Critical ]))
         :: List.map
              (fun (k, v) ->
                Printf.sprintf "\"%s\":%s" (Xqb_obs.Json.escape k) (field_json v))
              data)
    ^ "}"
  in
  Printf.sprintf "{\"status\":\"%s\",\"reasons\":[%s]}"
    (health_level_string (health_level reasons))
    (String.concat "," (List.map reason_json reasons))

(* The monitor thread: poll the stall signals and the health status,
   emitting an event on each rising edge / transition (the continuous
   values are already visible as gauges; events capture the changes).
   Spawned only when telemetry is on. *)
let monitor_loop t () =
  let prev_health = ref "ok" in
  let prev_apply = ref false and prev_fsync = ref false and prev_queue = ref false in
  let edge prev now kind data =
    if now && not !prev then Events.critical t.events ~kind (data ());
    prev := now
  in
  while not t.stopping do
    (* 250ms tick: 4x finer than the 1s stall bound it polices, and
       coarse enough that polling (3 window snapshots + WAL probes)
       stays invisible in the request path even on one core *)
    Thread.delay 0.25;
    if not t.stopping then begin
      (* drain the queued Debug sink backlog off the commit hot path *)
      Events.pump t.events;
      edge prev_apply
        (Scheduler.apply_held_ns t.sched > t.stall_ns)
        "stall.apply"
        (fun () ->
          [ ( "held_ms",
              Events.F (float_of_int (Scheduler.apply_held_ns t.sched) /. 1e6) )
          ]);
      edge prev_fsync
        (match t.durable with
        | Some d -> Durable.fsync_in_progress_ns d > t.stall_ns
        | None -> false)
        "stall.fsync"
        (fun () ->
          [ ( "in_progress_ms",
              Events.F
                (match t.durable with
                | Some d -> float_of_int (Durable.fsync_in_progress_ns d) /. 1e6
                | None -> 0.) )
          ]);
      edge prev_queue
        (Scheduler.oldest_queued_age_ns t.sched > t.stall_ns)
        "stall.queue"
        (fun () ->
          [ ( "oldest_queued_ms",
              Events.F
                (float_of_int (Scheduler.oldest_queued_age_ns t.sched) /. 1e6) )
          ]);
      let reasons = health_reasons t in
      let status = health_level_string (health_level reasons) in
      if status <> !prev_health then begin
        let log =
          match health_level reasons with
          | `Ok -> Events.info
          | `Degraded -> Events.warn
          | `Critical -> Events.error
        in
        log t.events ~kind:"health.state"
          ([ ("from", Events.S !prev_health); ("to", Events.S status) ]
          @ List.map (fun (code, _, _) -> ("reason", Events.S code)) reasons);
        prev_health := status
      end
    end
  done

(* -- the crash flight recorder --------------------------------------

   The events sink is flushed per event, so its tail survives any
   crash the page cache survives (SIGKILL included — no handler gets
   to run, but the already-flushed lines are in the file). On the
   next durable boot, an events.jsonl whose last record is not
   lifecycle.shutdown means the previous process died unclean: its
   events are spliced verbatim into flight-<ts>.json next to what
   recovery just reconstructed, giving the post-mortem both "what the
   service was doing" and "what the disk still had". The sink is
   consumed either way so each run's log starts fresh. *)

let flight_splice_cap = 512

let events_sink_name = "events.jsonl"

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (if String.trim line = "" then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Debug sink lines are buffered (see Events), so a SIGKILL can tear
   the file mid-line; splicing a torn line into flight-<ts>.json would
   make the whole dump unparseable. An intact line is one full event
   object: starts with '{', ends with '}'. *)
let intact_line l =
  let n = String.length l in
  n >= 2 && l.[0] = '{' && l.[n - 1] = '}'

let detect_unclean_shutdown ~dir (recovered : Durable.recovered option) =
  let path = Filename.concat dir events_sink_name in
  if not (Sys.file_exists path) then None
  else begin
    let lines =
      List.filter intact_line (try read_lines path with Sys_error _ -> [])
    in
    let clean =
      match List.rev lines with
      | [] -> true
      | last :: _ -> contains_substring last "\"kind\":\"lifecycle.shutdown\""
    in
    (try Sys.remove path with Sys_error _ -> ());
    if clean then None
    else begin
      let wall = Unix.gettimeofday () in
      let flight =
        Filename.concat dir
          (* ms + pid so rapid restarts never overwrite a prior dump *)
          (Printf.sprintf "flight-%d-%d.json"
             (int_of_float (wall *. 1000.))
             (Unix.getpid ()))
      in
      let dropped = Stdlib.max 0 (List.length lines - flight_splice_cap) in
      let kept = List.filteri (fun i _ -> i >= dropped) lines in
      let recovery_json =
        match recovered with
        | None -> "null"
        | Some r ->
          Printf.sprintf
            "{\"lsn\":%d,\"snapshot_lsn\":%d,\"wal_frames\":%d,\"truncated_bytes\":%d}"
            r.Durable.lsn r.Durable.snapshot_lsn r.Durable.wal_frames
            r.Durable.truncated_bytes
      in
      let content =
        Printf.sprintf
          "{\"reason\":\"unclean-shutdown\",\"detected_wall_s\":%.3f,\"events_dropped\":%d,\"recovery\":%s,\"events\":[%s]}"
          wall dropped recovery_json (String.concat "," kept)
      in
      match open_out flight with
      | oc ->
        output_string oc content;
        output_char oc '\n';
        close_out_noerr oc;
        Some flight
      | exception Sys_error _ -> None
    end
  end

let create ?(domains = 4) ?(cache_capacity = 128) ?(seed = 0x5eed) ?deadline_ms
    ?fuel ?max_delta ?max_queue ?(tracing = false) ?(slow_apply_ms = 10)
    ?durability ?(replica = false) ?replica_of ?slo_p99_ms ?slo_err_pct
    ?(trace_ring = 32) ?(stall_ms = 1000)
    ?(fsync_warn_ms = 100) ?(lag_warn_frames = 256) ?(telemetry = true)
    ?events_cap ?profile_hz ?(gc_pause_warn_ms = 50) () =
  (match profile_hz with
  | Some hz when hz <= 0 -> invalid_arg "Service.create: profile_hz <= 0"
  | _ -> ());
  if gc_pause_warn_ms <= 0 then
    invalid_arg "Service.create: gc_pause_warn_ms <= 0";
  let replica = replica || replica_of <> None in
  if replica && durability <> None then
    failwith "a replica has no WAL of its own: --replica-of excludes --data-dir";
  if trace_ring < 1 then invalid_arg "Service.create: trace_ring < 1";
  (* Durable boot: recover the store (snapshot + WAL tail replay),
     hang the catalog off it, and (re)start the in-memory mutation
     journal — everything replayed is already on disk, so the WAL
     appender's cursor starts at seq 0 of a fresh journal. *)
  let durable, catalog, recovered =
    match durability with
    | None -> (None, Catalog.create (), None)
    | Some cfg ->
      let d, (rec_ : Durable.recovered) = Durable.recover cfg in
      let catalog = Catalog.create ~store:rec_.store () in
      List.iter
        (fun (uri, root, bytes) -> Catalog.register catalog ~uri ~root ~bytes)
        rec_.docs;
      Xqb_store.Store.journal_start rec_.store;
      (Some d, catalog, Some rec_)
  in
  let data_dir =
    Option.map (fun (cfg : Durable.config) -> cfg.Durable.dir) durability
  in
  (* Flight recorder, boot half: inspect (and consume) the previous
     run's event sink before this run opens its own. *)
  let flight =
    match data_dir with
    | Some dir when telemetry -> detect_unclean_shutdown ~dir recovered
    | _ -> None
  in
  let events =
    if telemetry then
      Events.create ?cap:events_cap
        ?sink_path:(Option.map (fun d -> Filename.concat d events_sink_name) data_dir)
        ()
    else Events.disabled ()
  in
  let repl =
    if not replica then None
    else
      Some
        {
          r_leader = Option.value replica_of ~default:"";
          rm = Mutex.create ();
          r_received_lsn = 0;
          r_applied_lsn = 0;
          r_leader_lsn = 0;
          r_pending = [];
          r_frames = 0;
          r_status = "idle";
          r_last_apply = 0.;
          r_thread = None;
          r_sock = None;
          r_stop = false;
        }
  in
  let t =
    {
      catalog;
      cache = Plan_cache.create ~capacity:cache_capacity ();
      sched = Scheduler.create ~domains ?max_queue ();
      metrics = Metrics.create ~windows:telemetry ?slo_p99_ms ?slo_err_pct ();
      sessions = Hashtbl.create 16;
      smutex = Mutex.create ();
      next_sid = 1;
      seed;
      deadline_ms;
      fuel;
      max_delta;
      jobs = Hashtbl.create 16;
      jmutex = Mutex.create ();
      next_jid = 1;
      watchdog = None;
      stopping = false;
      tracing;
      tr_mutex = Mutex.create ();
      recent_traces = [];
      trace_cap = trace_ring;
      trace_evictions = 0;
      events;
      data_dir;
      stall_ns = stall_ms * 1_000_000;
      fsync_warn_ns = fsync_warn_ms * 1_000_000;
      lag_warn_frames;
      monitor = None;
      peers = Hashtbl.create 4;
      pmutex = Mutex.create ();
      slow_ns = slow_apply_ms * 1_000_000;
      sl_mutex = Mutex.create ();
      slowlog = [];
      last_delta = None;
      durable;
      wal_seq = 0;
      commit_seq = 0;
      read_only = replica;
      repl;
      edge_src = None;
      profile_hz = Option.value profile_hz ~default:97;
      profile_owned = profile_hz <> None;
      gc_tel = telemetry;
      gc_pause_warn_ns = gc_pause_warn_ms * 1_000_000;
      boot_wall = Unix.gettimeofday ();
    }
  in
  (* GC telemetry rides on the telemetry switch: the Runtime_events
     consumer is a process-wide refcounted singleton, released in
     [shutdown]. *)
  if t.gc_tel then Xqb_obs.Gc_tel.start ();
  (* --profile-hz arms the continuous profiler at boot; a service
     created without it still honors wire PROFILE START. *)
  (match profile_hz with
  | Some hz ->
    Xqb_obs.Profile.configure ~hz;
    ignore (Xqb_obs.Profile.start ~hz ())
  | None -> ());
  if deadline_ms <> None then t.watchdog <- Some (Thread.create (watchdog_loop t) ());
  Events.info events ~kind:"lifecycle.boot"
    [
      ("read_only", Events.B replica);
      ("domains", Events.I domains);
      ("durable", Events.B (durable <> None));
    ];
  (match recovered with
  | Some r ->
    Events.info events ~kind:"lifecycle.recovery"
      [
        ("lsn", Events.I r.Durable.lsn);
        ("snapshot_lsn", Events.I r.Durable.snapshot_lsn);
        ("wal_frames", Events.I r.Durable.wal_frames);
        ("truncated_bytes", Events.I r.Durable.truncated_bytes);
      ]
  | None -> ());
  (match flight with
  | Some path ->
    Events.warn events ~kind:"lifecycle.unclean-shutdown"
      [ ("flight", Events.S path) ]
  | None -> ());
  if Events.enabled events then
    t.monitor <- Some (Thread.create (monitor_loop t) ());
  t

(* Path of the flight-recorder dump the boot wrote after detecting an
   unclean shutdown, surfaced from the unclean-shutdown event. *)
let boot_flight t =
  match Events.tail ~level:Events.Warn t.events 64 with
  | events ->
    List.find_map
      (fun (e : Events.event) ->
        if e.Events.kind = "lifecycle.unclean-shutdown" then
          List.find_map
            (function "flight", Events.S p -> Some p | _ -> None)
            e.Events.data
        else None)
      events

let catalog t = t.catalog
let scheduler t = t.sched
let metrics t = t.metrics
let read_only t = t.read_only
let events t = t.events
let durability_json t = Option.map Durable.stats_json t.durable

let events_json ?level t n =
  Events.events_json (Events.tail ?level t.events n)

(* Fault injection for tests (no-op without --data-dir). *)
let inject_fsync_delay t secs =
  match t.durable with
  | Some d -> Durable.inject_fsync_delay d secs
  | None -> ()

(* Deterministic gc-pause health (same pattern as
   [inject_fsync_delay]): floor the telemetry's reported 10s p99 at
   [ms] until cleared. No-op when telemetry is off. *)
let inject_gc_pause t ms =
  if t.gc_tel then Xqb_obs.Gc_tel.inject_pause ~ns:(ms * 1_000_000)

let clear_gc_pause_injection t =
  if t.gc_tel then Xqb_obs.Gc_tel.clear_injected ()

(* -- the continuous profiler (wire PROFILE) ------------------------- *)

let profile_command t (cmd : [ `Start | `Stop | `Dump | `Dump_json | `Stat ])
    =
  match cmd with
  | `Start ->
    if Xqb_obs.Profile.start ~hz:t.profile_hz () then begin
      Events.info t.events ~kind:"profile.start"
        [ ("hz", Events.I t.profile_hz) ];
      Printf.sprintf "started at %d Hz" t.profile_hz
    end
    else Printf.sprintf "already running at %d Hz" (Xqb_obs.Profile.hz ())
  | `Stop ->
    if Xqb_obs.Profile.stop () then begin
      Events.info t.events ~kind:"profile.stop"
        [ ("samples", Events.I (Xqb_obs.Profile.samples ())) ];
      "stopped"
    end
    else "not running"
  | `Dump -> Xqb_obs.Profile.dump_folded ()
  | `Dump_json -> Xqb_obs.Profile.dump_json ()
  | `Stat -> Xqb_obs.Profile.stat_json ()

(* -- durability (leader side) --------------------------------------- *)

(* Append the in-memory journal tail to the WAL and, under the Always
   policy, block until durable — this is the acknowledgment barrier:
   it runs after the snap applied but before the client sees OK, so
   recovery reproduces every acknowledged commit. Caller holds a ⊤
   footprint (Effecting jobs, EXPLAIN, loads, checkpoints), which
   excludes every concurrent apply — so [wal_seq] is stable. Every
   other job commits through [writer_apply_wrap] instead. *)
(* wal.commit events are emitted only after the durability barrier:
   the flight recorder's consistency check relies on every logged
   lsn being recoverable under fsync=always. At full load that is
   one Debug record per committed write — tens of thousands a second
   — so sample 1-in-32 (always the first after boot): the sampled
   lsns carry the same invariant, and the commits in between are
   visible as xqbang_wal_frames counters rather than events. The
   counter read/increment may race between concurrent writers; the
   worst case is an extra or a skipped sample. *)
let commit_event_mask = 31

let log_commit t lsn data =
  let n = t.commit_seq in
  t.commit_seq <- n + 1;
  if n land commit_event_mask = 0 then
    Events.debug t.events ~kind:"wal.commit" (("lsn", Events.I lsn) :: data)

let durable_commit t =
  match t.durable with
  | None -> ()
  | Some d ->
    Xqb_obs.Profile.with_phase "wal" @@ fun () ->
    let store = Catalog.store t.catalog in
    let entries = Xqb_store.Store.journal_entries_from store t.wal_seq in
    if entries <> [] then begin
      t.wal_seq <- t.wal_seq + List.length entries;
      let lsn = Durable.commit_entries d entries in
      log_commit t lsn [ ("entries", Events.I (List.length entries)) ]
    end

(* After a checkpoint the snapshot covers the whole journal: restart
   it so the in-memory list (and the seq counter feeding [wal_seq])
   doesn't grow without bound. Write lock held. *)
let after_checkpoint t =
  Xqb_store.Store.journal_start (Catalog.store t.catalog);
  t.wal_seq <- 0

let durable_maybe_checkpoint t =
  match t.durable with
  | None -> ()
  | Some d -> (
    match
      Durable.maybe_checkpoint d ~docs:(Catalog.roots t.catalog)
        (Catalog.store t.catalog)
    with
    | Some lsn ->
      after_checkpoint t;
      Events.info t.events ~kind:"wal.checkpoint" [ ("lsn", Events.I lsn) ]
    | None -> ())

(* The per-write-job durability hook: flush the journal tail (even on
   failure — an aborted span is a no-op on replay but keeps the audit
   trail complete), then maybe checkpoint. A disk error here surfaces
   as the job's error: the in-memory state has committed, but the
   client is never acknowledged a write the disk didn't take. *)
let durable_publish t =
  durable_commit t;
  durable_maybe_checkpoint t

(* The concurrent-writer commit path, installed per-job as the
   context's [apply_wrap]: each top-level snap's ∆ applies under the
   scheduler's global apply mutex — journal transaction spans stay
   contiguous and WAL byte order equals apply order — with the WAL
   append in the same critical section, and the [Always]-policy
   durability wait *outside* it, so writers blocked on fsync(2) share
   one group-commit leader pass instead of serializing full syncs.
   The apply runs under [Store.transactionally]: a conflict (§4.1
   R1–R7) or any other apply-time failure rolls the span back before
   its entries reach the WAL. Evaluation needs no rollback — it
   never mutates the store (§3.3); its only traces are fresh node
   allocations, unreachable from any document.

   No checkpoint here: a checkpoint resets the in-memory journal,
   which would orphan the allocation entries of writers still
   mid-evaluation. Checkpoints run only under a ⊤ footprint (loads,
   Effecting jobs, CHECKPOINT), where nothing else is in flight. *)
let writer_apply_wrap t apply =
  let pending =
    Scheduler.with_apply t.sched (fun () ->
        let store = Catalog.store t.catalog in
        Xqb_store.Store.transactionally store apply;
        match t.durable with
        | None -> None
        | Some d ->
          Xqb_obs.Profile.with_phase "wal" @@ fun () ->
          let entries = Xqb_store.Store.journal_entries_from store t.wal_seq in
          if entries = [] then None
          else begin
            t.wal_seq <- t.wal_seq + List.length entries;
            Some (d, Durable.append_entries d entries)
          end)
  in
  match pending with
  | Some (d, lsn) ->
    Xqb_obs.Profile.with_phase "wal" (fun () -> Durable.wait_durable d lsn);
    log_commit t lsn []
  | None -> ()

let checkpoint_now t =
  match t.durable with
  | None -> Error "service is not durable (started without --data-dir)"
  | Some d ->
    Scheduler.with_write t.sched (fun () ->
        durable_commit t;
        let lsn =
          Durable.checkpoint d ~docs:(Catalog.roots t.catalog)
            (Catalog.store t.catalog)
        in
        after_checkpoint t;
        Events.info t.events ~kind:"wal.checkpoint"
          [ ("lsn", Events.I lsn); ("forced", Events.B true) ];
        Ok lsn)

(* Committed WAL frames for a replica, as one concatenated blob. A
   [replica_id] (the optional third SHIP argument) updates the
   leader's per-peer lag table: asking from [from_lsn] acknowledges
   everything below it. *)
let note_peer t id ~acked ~shipped =
  locked t.pmutex (fun () ->
      let p =
        match Hashtbl.find_opt t.peers id with
        | Some p -> p
        | None ->
          let p = { p_acked = 0; p_shipped = 0; p_last_seen = 0. } in
          Hashtbl.replace t.peers id p;
          Events.info t.events ~kind:"replica.peer"
            [ ("id", Events.S id); ("from_lsn", Events.I (acked + 1)) ];
          p
      in
      p.p_acked <- Stdlib.max p.p_acked acked;
      p.p_shipped <- Stdlib.max p.p_shipped shipped;
      p.p_last_seen <- Unix.gettimeofday ())

let ship_frames ?replica_id t ~from_lsn ~max =
  match t.durable with
  | None -> Error "service is not durable (started without --data-dir)"
  | Some d -> (
    match Durable.ship d ~from_lsn ~max with
    | Ok (last, frames) ->
      (match replica_id with
      | Some id -> note_peer t id ~acked:(Stdlib.max 0 (from_lsn - 1)) ~shipped:last
      | None -> ());
      Ok (last, String.concat "" frames)
    | Error `Too_old ->
      Error "too-old: frames before the last checkpoint are gone; re-bootstrap from SNAPSHOT")

let peers_json t =
  let last = match t.durable with Some d -> Durable.last_lsn d | None -> 0 in
  let now = Unix.gettimeofday () in
  let entries =
    locked t.pmutex (fun () ->
        Hashtbl.fold
          (fun id p acc ->
            Printf.sprintf
              "{\"id\":\"%s\",\"acked_lsn\":%d,\"shipped_lsn\":%d,\"lag_frames\":%d,\"last_seen_age_s\":%.3f}"
              (Metrics.json_escape id) p.p_acked p.p_shipped
              (Stdlib.max 0 (last - p.p_acked))
              (now -. p.p_last_seen)
            :: acc)
          t.peers [])
  in
  "[" ^ String.concat "," entries ^ "]"

let snapshot_blob t =
  match t.durable with
  | None -> Error "service is not durable (started without --data-dir)"
  | Some d ->
    Ok
      (Scheduler.with_write t.sched (fun () ->
           durable_commit t;
           Durable.snapshot_blob d ~docs:(Catalog.roots t.catalog)
             (Catalog.store t.catalog)))

(* -- replication (replica side) ------------------------------------- *)

let replica_bootstrap t blob =
  match t.repl with
  | None -> Error "not a replica"
  | Some r -> (
    let store = Catalog.store t.catalog in
    if Xqb_store.Store.node_count store > 0 then
      Error "replica already holds data; bootstrap needs a fresh store"
    else
      match
        Scheduler.with_write t.sched (fun () -> Wcodec.restore store blob)
      with
      | lsn, docs ->
        List.iter
          (fun (uri, root, bytes) ->
            Catalog.register t.catalog ~uri ~root ~bytes)
          docs;
        locked r.rm (fun () ->
            r.r_received_lsn <- lsn;
            r.r_applied_lsn <- lsn;
            r.r_leader_lsn <- max r.r_leader_lsn lsn;
            r.r_last_apply <- Unix.gettimeofday ();
            r.r_status <- "bootstrapped");
        Ok lsn
      | exception Wcodec.Corrupt msg -> Error ("corrupt snapshot: " ^ msg))

(* Apply a batch of shipped frames. Already-seen LSNs are skipped
   (idempotent re-delivery); entries buffer until their transaction
   span completes, then apply behind the write lock so concurrent
   read queries never observe a half-applied update. Returns the
   number of frames applied (entries + doc registrations). *)
let replica_ingest t ~leader_lsn blob =
  match t.repl with
  | None -> Error "not a replica"
  | Some r ->
    let frames, valid = Wcodec.scan blob in
    if valid <> String.length blob then Error "corrupt frame batch"
    else
      locked r.rm (fun () ->
          r.r_leader_lsn <- max r.r_leader_lsn leader_lsn;
          let fresh =
            List.filter (fun (lsn, _, _) -> lsn > r.r_received_lsn) frames
          in
          let applied = ref 0 in
          let pending_rev = ref (List.rev r.r_pending) in
          let flush () =
            let pairs = List.rev !pending_rev in
            let complete, _ =
              Xqb_store.Journal.split_complete
                (List.map (fun (_, e, _) -> e) pairs)
            in
            let n = List.length complete in
            if n > 0 then begin
              Scheduler.with_write t.sched (fun () ->
                  Xqb_store.Journal.apply (Catalog.store t.catalog) complete);
              List.iteri
                (fun i (lsn, _, _) ->
                  if i < n then r.r_applied_lsn <- max r.r_applied_lsn lsn)
                pairs;
              r.r_frames <- r.r_frames + n;
              r.r_last_apply <- Unix.gettimeofday ();
              applied := !applied + n;
              pending_rev := List.rev (List.filteri (fun i _ -> i >= n) pairs)
            end
          in
          List.iter
            (fun (lsn, record, size) ->
              r.r_received_lsn <- lsn;
              match record with
              | Wcodec.R_entry e -> pending_rev := (lsn, e, size) :: !pending_rev
              | Wcodec.R_doc { uri; root; bytes } ->
                (* the leader appends the registration only after the
                   load's span committed, so the buffer is complete *)
                flush ();
                Catalog.register t.catalog ~uri ~root ~bytes;
                r.r_applied_lsn <- max r.r_applied_lsn lsn;
                r.r_frames <- r.r_frames + 1;
                r.r_last_apply <- Unix.gettimeofday ();
                incr applied)
            fresh;
          flush ();
          r.r_pending <- List.rev !pending_rev;
          r.r_status <- "streaming";
          Ok !applied)

(* Replica-side lag, three units: frames behind the leader's head,
   bytes received-but-not-applied (a buffered half span), and
   milliseconds since the last apply while behind. *)
let replica_lag r =
  let lag = max 0 (r.r_leader_lsn - r.r_applied_lsn) in
  let lag_bytes =
    List.fold_left (fun acc (_, _, size) -> acc + size) 0 r.r_pending
  in
  let lag_ms =
    if lag > 0 && r.r_last_apply > 0. then
      (Unix.gettimeofday () -. r.r_last_apply) *. 1e3
    else 0.
  in
  (lag, lag_bytes, lag_ms)

let replica_stat_json t =
  match t.repl with
  | None ->
    (* leader side: the per-peer table SHIP ids populate *)
    Printf.sprintf "{\"replica\":false,\"last_lsn\":%d,\"peers\":%s}"
      (match t.durable with Some d -> Durable.last_lsn d | None -> 0)
      (peers_json t)
  | Some r ->
    locked r.rm (fun () ->
        let lag, lag_bytes, lag_ms = replica_lag r in
        Printf.sprintf
          "{\"replica\":true,\"leader\":\"%s\",\"status\":\"%s\",\"applied_lsn\":%d,\"received_lsn\":%d,\"leader_lsn\":%d,\"lag\":%d,\"lag_bytes\":%d,\"lag_ms\":%.0f,\"frames_applied\":%d,\"pending_entries\":%d,\"last_apply_age_s\":%s}"
          (Metrics.json_escape r.r_leader)
          (Metrics.json_escape r.r_status)
          r.r_applied_lsn r.r_received_lsn r.r_leader_lsn lag lag_bytes lag_ms
          r.r_frames
          (List.length r.r_pending)
          (if r.r_last_apply = 0. then "null"
           else Printf.sprintf "%.3f" (Unix.gettimeofday () -. r.r_last_apply)))

(* [JOURNAL STAT]: in-memory journal length + the canonical store
   digest — the cross-node consistency check (leader, replicas and a
   recovered store all agree on it). Takes the read lock so the
   digest never observes a half-applied update. *)
let journal_stat_json t =
  (* the replica mutex is taken before the scheduler lock elsewhere
     (ingest holds [rm] across its write-side apply), so read it
     outside the read lock to keep the order consistent *)
  let lsn =
    match t.durable with
    | Some d -> Durable.last_lsn d
    | None -> (
      match t.repl with
      | Some r -> locked r.rm (fun () -> r.r_applied_lsn)
      | None -> 0)
  in
  Scheduler.with_read t.sched (fun () ->
      let store = Catalog.store t.catalog in
      Printf.sprintf
        "{\"recording\":%b,\"length\":%d,\"nodes\":%d,\"digest\":\"%s\",\"lsn\":%d}"
        (Xqb_store.Store.journal_active store)
        (Xqb_store.Store.journal_length store)
        (Xqb_store.Store.node_count store)
        (Wcodec.store_digest_hex store)
        lsn)

(* -- the replication client ----------------------------------------- *)

(* Poll loop behind `serve --replica-of HOST:PORT`: connect to the
   leader over the ordinary line protocol, bootstrap from a SNAPSHOT
   blob when the local store is empty, then SHIP committed frames
   forever (blobs travel base64 on the wire). Connection failures
   back off and reconnect; a `too-old` reply (the leader checkpointed
   past this replica's position) is terminal — an already-populated
   store cannot re-bootstrap, the operator restarts the replica. *)

let repl_poll_s = 0.02
let repl_batch = 512

exception Repl_stale

let parse_reply line =
  if String.length line >= 3 && String.sub line 0 3 = "OK " then
    Ok (Protocol.unescape (String.sub line 3 (String.length line - 3)))
  else if line = "OK" then Ok ""
  else Error line

let replication_loop t r host port () =
  let resolve () =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> failwith ("cannot resolve host " ^ host))
  in
  let session () =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        locked r.rm (fun () -> r.r_sock <- None);
        try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect sock (Unix.ADDR_INET (resolve (), port));
        locked r.rm (fun () ->
            r.r_sock <- Some sock;
            r.r_status <- "connected");
        let ic = Unix.in_channel_of_descr sock in
        let oc = Unix.out_channel_of_descr sock in
        let rpc line =
          output_string oc line;
          output_char oc '\n';
          flush oc;
          parse_reply (input_line ic)
        in
        (if
           locked r.rm (fun () -> r.r_received_lsn) = 0
           && Xqb_store.Store.node_count (Catalog.store t.catalog) = 0
         then
           match rpc "SNAPSHOT" with
           | Ok payload -> (
             match replica_bootstrap t (Xqb_wal.B64.decode payload) with
             | Ok lsn ->
               Events.info t.events ~kind:"replica.bootstrap"
                 [ ("lsn", Events.I lsn) ]
             | Error e -> failwith e)
           | Error e -> failwith ("SNAPSHOT: " ^ e));
        (* the id lets the leader track this replica's shipped/acked
           position; host+pid is unique enough per poll loop *)
        let my_id = Printf.sprintf "r-%d" (Unix.getpid ()) in
        while not r.r_stop do
          let from = locked r.rm (fun () -> r.r_received_lsn + 1) in
          match rpc (Printf.sprintf "SHIP %d %d %s" from repl_batch my_id) with
          | Ok payload ->
            let leader_w, b64 =
              match String.index_opt payload ' ' with
              | None -> (payload, "")
              | Some i ->
                ( String.sub payload 0 i,
                  String.trim
                    (String.sub payload (i + 1) (String.length payload - i - 1))
                )
            in
            let leader_lsn =
              match int_of_string_opt leader_w with
              | Some l -> l
              | None -> failwith ("bad SHIP reply: " ^ payload)
            in
            if b64 = "" then begin
              locked r.rm (fun () ->
                  r.r_leader_lsn <- max r.r_leader_lsn leader_lsn;
                  if r.r_leader_lsn <= r.r_applied_lsn then
                    r.r_status <- "caught-up");
              Thread.delay repl_poll_s
            end
            else begin
              match replica_ingest t ~leader_lsn (Xqb_wal.B64.decode b64) with
              | Ok _ -> ()
              | Error e -> failwith e
            end
          | Error e ->
            let stale =
              (* "ERR too-old: ..." — substring match keeps the wire
                 format free to evolve *)
              let n = String.length e in
              let rec find i =
                i + 7 <= n && (String.sub e i 7 = "too-old" || find (i + 1))
              in
              find 0
            in
            if stale then raise Repl_stale else failwith ("SHIP: " ^ e)
        done)
  in
  let stale = ref false in
  while (not r.r_stop) && not !stale do
    try session () with
    | Repl_stale ->
      stale := true;
      Events.error t.events ~kind:"replica.stale"
        [ ("leader", Events.S r.r_leader) ];
      locked r.rm (fun () ->
          r.r_status <-
            "stale: leader checkpointed past this replica; restart it with an empty store")
    | e ->
      if not r.r_stop then begin
        Events.warn t.events ~kind:"replica.disconnect"
          [
            ("leader", Events.S r.r_leader);
            ("error", Events.S (Printexc.to_string e));
          ];
        locked r.rm (fun () ->
            r.r_status <- "disconnected: " ^ Printexc.to_string e);
        Thread.delay 0.3
      end
  done

(* Start the polling thread (serve does this right after [create]
   when --replica-of was given). No-op for manually-pumped replicas
   (tests drive {!replica_ingest} directly). *)
let start_replication t =
  match t.repl with
  | Some r when r.r_leader <> "" && r.r_thread = None ->
    let host, port =
      match String.rindex_opt r.r_leader ':' with
      | Some i -> (
        let h = String.sub r.r_leader 0 i in
        let p = String.sub r.r_leader (i + 1) (String.length r.r_leader - i - 1) in
        match int_of_string_opt p with
        | Some p when h <> "" -> (h, p)
        | _ ->
          failwith
            (Printf.sprintf "bad --replica-of %S (expected HOST:PORT)" r.r_leader))
      | None ->
        failwith
          (Printf.sprintf "bad --replica-of %S (expected HOST:PORT)" r.r_leader)
    in
    r.r_thread <- Some (Thread.create (replication_loop t r host port) ())
  | _ -> ()

(* -- sessions ------------------------------------------------------- *)

let open_session t =
  locked t.smutex (fun () ->
      let sid = t.next_sid in
      t.next_sid <- sid + 1;
      let engine =
        Engine.create ~seed:(t.seed + sid) ~store:(Catalog.store t.catalog) ()
      in
      (* fn:doc falls back to the shared catalog (lookup only) *)
      (Engine.context engine).Core.Context.doc_lookup <-
        Some (fun uri -> Catalog.find t.catalog uri);
      (* applied-∆ accounting; only non-empty ∆s are interesting *)
      (Engine.context engine).Core.Context.on_apply <-
        Some
          (fun delta _mode ->
            if delta <> [] then Metrics.record_delta t.metrics delta);
      Hashtbl.replace t.sessions sid
        {
          sid;
          engine;
          slock = Mutex.create ();
          plock = Mutex.create ();
          docs_held = [];
        };
      sid)

let find_session t sid =
  match locked t.smutex (fun () -> Hashtbl.find_opt t.sessions sid) with
  | Some s -> s
  | None -> failwith (Printf.sprintf "unknown session %d" sid)

let close_session t sid =
  match locked t.smutex (fun () ->
      let s = Hashtbl.find_opt t.sessions sid in
      Hashtbl.remove t.sessions sid;
      s)
  with
  | None -> ()
  | Some s ->
    locked s.slock (fun () ->
        List.iter (Catalog.release t.catalog) s.docs_held;
        s.docs_held <- [])

let session_count t = locked t.smutex (fun () -> Hashtbl.length t.sessions)

(* Load a document into the shared catalog (under the scheduler's
   write lock — loading parses XML into the shared store) and attach
   it to the session: registered for [fn:doc(uri)] and bound to
   [$uri]. Load-once: a second session attaching the same URI reuses
   the resident tree. *)
let load_document t sid ~uri xml =
  let s = find_session t sid in
  let root =
    match Catalog.acquire t.catalog uri with
    | Some root -> root
    | None when t.read_only ->
      failwith
        (Printf.sprintf
           "read-only replica: %S is not resident (documents replicate from the leader)"
           uri)
    | None ->
      Scheduler.with_write t.sched (fun () ->
          (* transactional so the load's journal entries form one
             span: recovery and replicas either get the whole
             document or none of it (and a parse failure rolls the
             partially-built tree back) *)
          let root =
            Xqb_store.Store.transactionally (Catalog.store t.catalog)
              (fun () -> Catalog.load t.catalog ~uri xml)
          in
          ignore (Catalog.acquire t.catalog uri);
          (match t.durable with
          | Some d ->
            durable_commit t;
            Durable.commit_doc d ~uri ~root ~bytes:(String.length xml);
            durable_maybe_checkpoint t
          | None -> ());
          root)
  in
  locked s.slock (fun () ->
      if not (List.mem uri s.docs_held) then s.docs_held <- uri :: s.docs_held;
      Core.Context.register_doc (Engine.context s.engine) uri root;
      Engine.bind_node s.engine uri root)

(* -- query submission ----------------------------------------------- *)

let error_message e = (Service_error.classify e).Service_error.message

(* Prepared plan for [src]: cache hit or full compile. On a hit the
   program's function declarations are still installed into the
   session (cheap), so cross-session hits behave like a local
   compile. A program that calls functions it does not declare is
   judged again on a hit: its purity and footprint follow what this
   session declared for the callees. Compile spans go to the job's
   own tracer [tr]. Caller holds the session's prepare lock. *)
let prepare t s tr src =
  let key = Plan_cache.normalize_key src in
  (* host-bound free variables that name catalog documents: the
     service binds every loaded document to [$uri], so a variable
     that is a catalog URI *is* that document's root. Anything else
     widens to "any document" inside the analysis. *)
  let var_docs v = if Catalog.find t.catalog v <> None then Some v else None in
  let judge compiled =
    {
      compiled;
      purity = Engine.purity ~within:s.engine compiled;
      footprint = Engine.footprint ~var_docs ~within:s.engine compiled;
    }
  in
  match Plan_cache.find t.cache key with
  | Some plan ->
    Option.iter (fun tr -> Trace.instant tr "plan.cache.hit") tr;
    Engine.install_functions s.engine plan.compiled;
    if plan.compiled.Engine.calls_out then judge plan.compiled else plan
  | None ->
    let plan = judge (Engine.compile ~tracer:tr s.engine src) in
    Plan_cache.add t.cache key plan;
    plan

(* -- the in-flight registry ----------------------------------------- *)

let register_job t sid ~deadline ~cancel ~started src =
  locked t.jmutex (fun () ->
      let jid = t.next_jid in
      t.next_jid <- jid + 1;
      let src =
        if String.length src <= 120 then src else String.sub src 0 120 ^ "…"
      in
      Hashtbl.replace t.jobs jid
        { jid; jsid = sid; cancel; started; job_deadline = deadline; src };
      jid)

let unregister_job t jid = locked t.jmutex (fun () -> Hashtbl.remove t.jobs jid)

(* Request cancellation of an in-flight job. True if the job was
   found (still queued or running); the job itself observes the
   token at its next budget poll and fails with [cancelled]. *)
let cancel t jid =
  match locked t.jmutex (fun () -> Hashtbl.find_opt t.jobs jid) with
  | None -> false
  | Some j ->
    Budget.request j.cancel Budget.Cancelled;
    true

let inflight_count t = locked t.jmutex (fun () -> Hashtbl.length t.jobs)

(* -- the recent-trace ring ------------------------------------------ *)

let push_trace t jid tr =
  locked t.tr_mutex (fun () ->
      let others = List.filter (fun (j, _) -> j <> jid) t.recent_traces in
      let keep = List.filteri (fun i _ -> i < t.trace_cap - 1) others in
      t.trace_evictions <-
        t.trace_evictions + (List.length others - List.length keep);
      t.recent_traces <- (jid, tr) :: keep)

(* (occupancy, capacity, evictions since boot) — the ring gauges. *)
let trace_ring_stats t =
  locked t.tr_mutex (fun () ->
      (List.length t.recent_traces, t.trace_cap, t.trace_evictions))

(* Chrome trace-event JSON for job [jid], or the most recent traced
   job when [jid] is [None]. *)
let trace_json t jid =
  locked t.tr_mutex (fun () ->
      match jid with
      | Some j ->
        Option.map
          (fun tr -> (j, Trace.to_chrome_json tr))
          (List.assoc_opt j t.recent_traces)
      | None -> (
        match t.recent_traces with
        | (j, tr) :: _ -> Some (j, Trace.to_chrome_json tr)
        | [] -> None))

(* -- effect observability ------------------------------------------- *)

(* Rendered ∆-statistics JSON for one updating job: requests by
   kind, snap-depth histogram, conflicts checked, apply-phase wall
   time. This is the wire DELTA payload. *)
let delta_stats_json ~jid ~apply_ns (st : Core.Update.stats) =
  Printf.sprintf
    "{\"jid\":%d,\"snaps\":%d,\"requests\":{\"insert\":%d,\"delete\":%d,\"rename\":%d,\"set_value\":%d},\"total_requests\":%d,\"conflicts_checked\":%d,\"max_snap_depth\":%d,\"snap_depth_hist\":[%s],\"apply_ns\":%d}"
    jid st.Core.Update.snaps st.Core.Update.inserts st.Core.Update.deletes
    st.Core.Update.renames st.Core.Update.set_values
    (Core.Update.stats_requests st)
    st.Core.Update.conflicts_checked st.Core.Update.max_snap_depth
    (String.concat ","
       (Array.to_list (Array.map string_of_int st.Core.Update.depth_hist)))
    apply_ns

(* Per-job attribution bracket: GC pause delta (poll-lagged; short
   jobs read 0) and profiler samples by phase, captured around the
   job body for SLOWLOG and EXPLAIN ANALYZE. *)
let attribution_begin () =
  ( Xqb_obs.Gc_tel.total_pause_ns (),
    if Xqb_obs.Profile.running () then Some (Xqb_obs.Profile.phase_counts ())
    else None )

let attribution_end (gc0, ph0) =
  ( Stdlib.max 0 (Xqb_obs.Gc_tel.total_pause_ns () - gc0),
    match ph0 with
    | Some before ->
      Xqb_obs.Profile.diff_counts before (Xqb_obs.Profile.phase_counts ())
    | None -> [] )

(* EXPLAIN ANALYZE footer lines (after the Runner's own ddo/footprint
   footers): per-phase sample counts while the profiler runs, and the
   job's GC pause delta while telemetry is on. *)
let attribution_suffix t att =
  let gc_ns, samples = attribution_end att in
  let buf = Buffer.create 64 in
  if Xqb_obs.Profile.running () then begin
    Buffer.add_string buf "\n-- profile samples:";
    (match samples with
    | [] -> Buffer.add_string buf " none"
    | l ->
      List.iter
        (fun (k, n) -> Buffer.add_string buf (Printf.sprintf " %s=%d" k n))
        l);
    Buffer.add_string buf (Printf.sprintf " (%d Hz)" (Xqb_obs.Profile.hz ()))
  end;
  if t.gc_tel && Xqb_obs.Gc_tel.enabled () then
    Buffer.add_string buf
      (Printf.sprintf "\n-- gc: pause_ms=%.2f" (float_of_int gc_ns /. 1e6));
  Buffer.contents buf

(* Called right after an updating job finishes (session lock held):
   snapshot the job's ∆ statistics for the wire DELTA command, and
   ring-buffer a slow-effect entry when the apply phase crossed the
   threshold. *)
let note_effects t ~jid ~sid ~src ~trace ?(gc_ns = 0) ?(samples = []) ctx =
  let st = ctx.Core.Context.delta_stats in
  let apply_ns = ctx.Core.Context.apply_ns in
  let snaps = st.Core.Update.snaps in
  let requests = Core.Update.stats_requests st in
  let json = delta_stats_json ~jid ~apply_ns st in
  let slow = apply_ns >= t.slow_ns && snaps > 0 in
  locked t.sl_mutex (fun () ->
      t.last_delta <- Some json;
      if slow then begin
        let entry =
          {
            sl_jid = jid;
            sl_sid = sid;
            sl_src =
              (if String.length src <= 120 then src
               else String.sub src 0 120 ^ "…");
            sl_apply_ns = apply_ns;
            sl_snaps = snaps;
            sl_requests = requests;
            sl_trace = trace;
            sl_gc_ns = gc_ns;
            sl_samples = samples;
          }
        in
        t.slowlog <-
          entry :: List.filteri (fun i _ -> i < slowlog_cap - 1) t.slowlog
      end);
  if slow then
    Events.warn t.events ~kind:"query.slow"
      [
        ("jid", Events.I jid);
        ("apply_ms", Events.F (float_of_int apply_ns /. 1e6));
        ("snaps", Events.I snaps);
      ]

(* Last updating job's ∆ statistics; [None] before any updating
   query ran. *)
let delta_json t = locked t.sl_mutex (fun () -> t.last_delta)

let slowlog_json t =
  let entries = locked t.sl_mutex (fun () -> t.slowlog) in
  "["
  ^ String.concat ","
      (List.map
         (fun e ->
           Printf.sprintf
             "{\"jid\":%d,\"sid\":%d,\"apply_ns\":%d,\"snaps\":%d,\"requests\":%d,\"gc_pause_ns\":%d,\"profile_samples\":{%s},\"trace\":%s,\"src\":\"%s\"}"
             e.sl_jid e.sl_sid e.sl_apply_ns e.sl_snaps e.sl_requests
             e.sl_gc_ns
             (String.concat ","
                (List.map
                   (fun (k, n) ->
                     Printf.sprintf "\"%s\":%d" (Metrics.json_escape k) n)
                   e.sl_samples))
             (match e.sl_trace with
             | Some id -> Printf.sprintf "\"%s\"" (Metrics.json_escape id)
             | None -> "null")
             (Metrics.json_escape e.sl_src))
         entries)
  ^ "]"

let slowlog_length t = locked t.sl_mutex (fun () -> List.length t.slowlog)

let inflight_json t =
  let now = Unix.gettimeofday () in
  let entries =
    locked t.jmutex (fun () ->
        Hashtbl.fold
          (fun _ j acc ->
            Printf.sprintf "{\"jid\":%d,\"sid\":%d,\"running_ms\":%.0f,\"src\":\"%s\"}"
              j.jid j.jsid
              ((now -. j.started) *. 1e3)
              (Metrics.json_escape j.src)
            :: acc)
          t.jobs [])
  in
  "[" ^ String.concat "," entries ^ "]"

(* -- submission ----------------------------------------------------- *)

(* Map a future's exception side into the structured taxonomy. *)
let await fut =
  match Scheduler.await fut with
  | Ok r -> r
  | Error e -> Error (Service_error.classify e)

(* Submit a query; returns the job id (usable with [cancel]) and a
   future resolving to the serialized result or a structured error.
   There is one path: the plan is prepared now under the session's
   prepare lock, and the job runs on the session engine, under the
   session lock, once the gate admits its footprint. Effecting
   programs hold ⊤ and run inside one [Store.transactionally], so a
   query killed by its budget leaves the store unchanged; every other
   program applies each top-level snap under [writer_apply_wrap]. *)
let submit_job t sid src :
    int * (string, Service_error.t) result Scheduler.future =
  let s = find_session t sid in
  let t0 = Clock.now_ns () in
  Metrics.record_queue_depth t.metrics (Scheduler.queue_depth t.sched);
  (* One tracer per job: it gets the compile spans here, and is
     installed on the session engine, under the session lock, only
     around the run. *)
  let tr = if t.tracing then Some (Trace.create ()) else None in
  match
    locked s.plock (fun () ->
        let plan = prepare t s tr src in
        (* the replica's write fence: only programs that cannot change
           the store, called functions included *)
        ( plan,
          t.read_only
          && not (Engine.parallel_safe ~within:s.engine plan.compiled) ))
  with
  | exception e ->
    Metrics.record_compile_error t.metrics;
    let err = Service_error.classify e in
    Metrics.record_error t.metrics err.Service_error.kind;
    (0, Scheduler.ready (Error err))
  | _, true ->
    let err =
      Service_error.classify
        (Failure
           "read-only replica: updating/effecting queries must run on the leader")
    in
    Metrics.record_error t.metrics err.Service_error.kind;
    (0, Scheduler.ready (Error err))
  | plan, false ->
    (* one deadline scale, one boundary: the budget's polls, the
       scheduler queue check and the watchdog all use the same
       absolute monotonic Clock ns derived from --deadline-ms right
       here — wall-clock steps (NTP, VM suspend) can neither expire a
       job early nor keep one alive. *)
    let deadline_ns =
      match t.deadline_ms with
      | None -> max_int
      | Some ms -> Clock.now_ns () + (ms * 1_000_000)
    in
    let budget =
      Budget.create
        ?deadline_ns:(if deadline_ns = max_int then None else Some deadline_ns)
        ?fuel:t.fuel ?max_delta:t.max_delta ()
    in
    let jid =
      register_job t sid ~deadline:deadline_ns
        ~cancel:(Budget.cancel_token budget) ~started:(Unix.gettimeofday ())
        src
    in
    let finish ok =
      let latency_ns = float_of_int (Clock.now_ns () - t0) in
      Metrics.record_query t.metrics ~purity:plan.purity ~ok ~latency_ns;
      match tr with
      | Some tr ->
        (* fold the job's span totals into the per-phase latency
           histograms and keep the trace for the wire [TRACE] *)
        Metrics.record_phase_totals t.metrics (Trace.phase_totals tr);
        push_trace t jid tr
      | None -> ()
    in
    let effecting = plan.purity = Core.Static.Effecting in
    let job () =
      Fun.protect ~finally:(fun () -> unregister_job t jid) @@ fun () ->
      (* Two commit disciplines. Effecting jobs (nested snaps) hold ⊤:
         whole-job [transactionally] (a budget kill rolls back even
         mid-way through nested applies), then the inline durable
         flush + checkpoint (on failure it still flushes the aborted
         span, but its own errors must not mask the job's). Every
         other job evaluates alongside the footprint-disjoint jobs
         and commits each top-level snap through [writer_apply_wrap]
         — the durable acknowledgment barrier sits inside the wrap,
         before this future resolves. *)
      let run ctx () =
        Engine.with_tracer s.engine tr @@ fun () ->
        Engine.with_budget s.engine (Some budget) @@ fun () ->
        let eval () =
          Engine.serialize s.engine (Engine.run_compiled s.engine plan.compiled)
        in
        if effecting then
          Xqb_store.Store.transactionally (Catalog.store t.catalog) eval
        else begin
          ctx.Core.Context.apply_wrap <- Some (writer_apply_wrap t);
          Fun.protect
            ~finally:(fun () -> ctx.Core.Context.apply_wrap <- None)
            eval
        end
      in
      match
        match
          locked s.slock (fun () ->
              let ctx = Engine.context s.engine in
              if plan.purity = Core.Static.Pure then run ctx ()
              else begin
                (* the job's ∆ statistics, apply-phase wall time and
                   attribution, snapshotted for DELTA / the
                   slow-effect log even when it fails *)
                Core.Update.stats_reset ctx.Core.Context.delta_stats;
                ctx.Core.Context.apply_ns <- 0;
                let att = attribution_begin () in
                Fun.protect
                  ~finally:(fun () ->
                    let gc_ns, samples = attribution_end att in
                    note_effects t ~jid ~sid ~src
                      ~trace:(Option.map Trace.id tr)
                      ~gc_ns ~samples ctx)
                  (run ctx)
              end)
        with
        | out ->
          if effecting then durable_publish t;
          out
        | exception e ->
          if effecting then (try durable_publish t with _ -> ());
          raise e
      with
      | out ->
        finish true;
        Ok out
      | exception e ->
        finish false;
        let err = Service_error.classify e in
        Metrics.record_error t.metrics err.Service_error.kind;
        Events.warn t.events ~kind:"query.error"
          [
            ("jid", Events.I jid);
            ("kind", Events.S (Service_error.kind_to_string err.Service_error.kind));
          ];
        Error err
    in
    (* Abandoned without running (queue-time expiry, shutdown drain):
       still counts as a failed query of the appropriate kind. *)
    let on_abort e =
      unregister_job t jid;
      finish false;
      Metrics.record_error t.metrics (Service_error.classify e).Service_error.kind
    in
    (match
       Scheduler.submit t.sched ~deadline:deadline_ns ~on_abort ?trace:tr
         ~footprint:(if effecting then FP.top else plan.footprint)
         ~exclusive:effecting job
     with
    | fut -> (jid, fut)
    | exception ((Scheduler.Overloaded | Scheduler.Shut_down) as e) ->
      (match e with
      | Scheduler.Overloaded ->
        Events.warn t.events ~kind:"sched.overload"
          [
            ("jid", Events.I jid);
            ("queue_depth", Events.I (Scheduler.queue_depth t.sched));
          ]
      | _ -> ());
      on_abort e;
      (jid, Scheduler.ready (Error (Service_error.classify e))))

let submit t sid src = snd (submit_job t sid src)

(* Synchronous submit-and-await. *)
let query t sid src = await (submit t sid src)

(* EXPLAIN ANALYZE (wire [EXPLAIN]): compile through the algebraic
   [Runner] and execute with per-operator profiling, returning the
   annotated plan tree. Always under a ⊤ footprint — the query runs
   for real, side effects included, which is the only honest way to
   report actual cardinalities for a language with side effects —
   under the same governance (budget, registry, CANCEL) as a normal
   submission. Bypasses the plan cache: profiling wants the full
   compile path and the algebraic plan. *)
let explain_job t sid src :
    int * (string, Service_error.t) result Scheduler.future =
  let s = find_session t sid in
  if t.read_only then begin
    (* EXPLAIN executes for real, side effects included — never on a
       replica *)
    let err =
      Service_error.classify
        (Failure "read-only replica: EXPLAIN executes the query; run it on the leader")
    in
    Metrics.record_error t.metrics err.Service_error.kind;
    (0, Scheduler.ready (Error err))
  end
  else begin
  let t0 = Unix.gettimeofday () in
  let deadline_ns =
    match t.deadline_ms with
    | None -> max_int
    | Some ms -> Clock.now_ns () + (ms * 1_000_000)
  in
  let budget =
    Budget.create
      ?deadline_ns:(if deadline_ns = max_int then None else Some deadline_ns)
      ?fuel:t.fuel ?max_delta:t.max_delta ()
  in
  let jid =
    register_job t sid ~deadline:deadline_ns
      ~cancel:(Budget.cancel_token budget) ~started:t0
      ("EXPLAIN " ^ src)
  in
  let tr = if t.tracing then Some (Trace.create ()) else None in
  let flush_trace () =
    match tr with
    | Some tr ->
      Metrics.record_phase_totals t.metrics (Trace.phase_totals tr);
      push_trace t jid tr
    | None -> ()
  in
  let job () =
    Fun.protect ~finally:(fun () -> unregister_job t jid) @@ fun () ->
    let run () =
      (* the Runner compiles inside the run, installing declarations:
         hold the prepare lock too, as a submission would *)
      locked s.slock @@ fun () ->
      locked s.plock (fun () ->
          let ctx = Engine.context s.engine in
          Core.Update.stats_reset ctx.Core.Context.delta_stats;
          ctx.Core.Context.apply_ns <- 0;
          let att = attribution_begin () in
          Fun.protect
            ~finally:(fun () ->
              let gc_ns, samples = attribution_end att in
              note_effects t ~jid ~sid ~src ~trace:(Option.map Trace.id tr)
                ~gc_ns ~samples ctx)
          @@ fun () ->
          Engine.with_tracer s.engine tr (fun () ->
              Engine.with_budget s.engine (Some budget) (fun () ->
                  Xqb_store.Store.transactionally (Catalog.store t.catalog)
                    (fun () ->
                      let _, rendered =
                        (* the algebraic path doesn't go through
                           Engine.run_compiled, so label it here *)
                        Xqb_obs.Profile.with_phase "run" @@ fun () ->
                        Xqb_algebra.Runner.analyze s.engine src
                      in
                      (* same footer style as the ddo/footprint lines:
                         sampling + GC attribution, present only when
                         the corresponding collector is on *)
                      rendered ^ attribution_suffix t att))))
    in
    match
      match run () with
      | out ->
        durable_publish t;
        out
      | exception e ->
        (try durable_publish t with _ -> ());
        raise e
    with
    | rendered ->
      flush_trace ();
      Ok rendered
    | exception e ->
      flush_trace ();
      let err = Service_error.classify e in
      Metrics.record_error t.metrics err.Service_error.kind;
      Error err
  in
  let on_abort e =
    unregister_job t jid;
    Metrics.record_error t.metrics (Service_error.classify e).Service_error.kind
  in
  match
    Scheduler.submit t.sched ~deadline:deadline_ns ~on_abort ?trace:tr
      ~exclusive:true job
  with
  | fut -> (jid, fut)
  | exception ((Scheduler.Overloaded | Scheduler.Shut_down) as e) ->
    on_abort e;
    (jid, Scheduler.ready (Error (Service_error.classify e)))
  end

let explain t sid src = await (snd (explain_job t sid src))

let cache_stats t = Plan_cache.stats t.cache

(* Concurrent-writer gauges off the footprint gate: how many jobs are
   admitted right now (and how many of those hold write regions), plus
   the high-water marks since boot — the observable proof that
   disjoint writers actually overlap. *)
let concurrency_json t =
  let g = Scheduler.gate t.sched in
  Printf.sprintf
    "{\"running\":%d,\"running_writers\":%d,\"peak\":%d,\"writer_peak\":%d}"
    (Rwlock.running g)
    (Rwlock.running_writers g)
    (Rwlock.peak g) (Rwlock.writer_peak g)

(* Wire [METRICS PROM]: every layer's contribution on one shared
   {!Prom} emitter — service counters and windows, footprint-gate
   gauges, trace-ring and event-log gauges, durability (WAL /
   checkpoint / fsync), replica lag (both sides) and the health
   status — so # HELP/# TYPE discipline and counter naming hold for
   the whole page (test_service.ml lints it end to end). *)
(* -- wire-edge gauges ----------------------------------------------- *)

let set_edge_source t src = t.edge_src <- src
let edge_gauges t = Option.map (fun src -> src ()) t.edge_src

let edge_json (e : edge_gauges) =
  Printf.sprintf
    "{\"mode\":\"%s\",\"open\":%d,\"peak\":%d,\"accepted\":%d,\"conn_rejects\":%d,\"read_suspended\":%d,\"suspensions\":%d,\"overload_rejects\":%d,\"requests\":%d,\"batches\":%d,\"max_conns\":%d}"
    e.eg_mode e.eg_open e.eg_peak e.eg_accepted e.eg_conn_rejects e.eg_suspended
    e.eg_suspensions e.eg_overload_rejects e.eg_requests e.eg_batches
    e.eg_max_conns

(* Process identity for STATS / METRICS PROM: build info plus the
   three gauges every dashboard wants first (memory, descriptors,
   uptime). *)
let build_version = "1.0.0"

let process_json t =
  Printf.sprintf
    "{\"pid\":%d,\"rss_bytes\":%d,\"open_fds\":%d,\"uptime_s\":%.1f,\"version\":\"%s\",\"ocaml\":\"%s\"}"
    (Unix.getpid ())
    (Xqb_obs.Procstat.rss_bytes ())
    (Xqb_obs.Procstat.fd_count ())
    (Unix.gettimeofday () -. t.boot_wall)
    build_version Sys.ocaml_version

let metrics_prometheus t =
  let p = Prom.create () in
  Metrics.to_prom ~cache:(Plan_cache.stats t.cache) t.metrics p;
  let g = Scheduler.gate t.sched in
  let inflight = "Jobs currently admitted by the footprint gate." in
  Prom.gauge_i p ~help:inflight ~labels:[ ("side", "all") ]
    "xqbang_gate_inflight" (Rwlock.running g);
  Prom.gauge_i p ~help:inflight ~labels:[ ("side", "writer") ]
    "xqbang_gate_inflight" (Rwlock.running_writers g);
  let peak = "Peak concurrently admitted jobs since boot." in
  Prom.gauge_i p ~help:peak ~labels:[ ("side", "all") ]
    "xqbang_gate_inflight_peak" (Rwlock.peak g);
  Prom.gauge_i p ~help:peak ~labels:[ ("side", "writer") ]
    "xqbang_gate_inflight_peak" (Rwlock.writer_peak g);
  let size, cap, evicted = trace_ring_stats t in
  Prom.gauge_i p ~help:"Traces resident in the TRACE ring."
    "xqbang_trace_ring_size" size;
  Prom.gauge_i p ~help:"TRACE ring capacity (serve --trace-ring)."
    "xqbang_trace_ring_capacity" cap;
  Prom.counter p ~help:"Traces evicted from the TRACE ring."
    "xqbang_trace_ring_evictions_total" evicted;
  if Events.enabled t.events then begin
    Prom.counter p ~help:"Events logged since boot." "xqbang_events_total"
      (Events.total t.events);
    let at_least l = Events.count_at_least t.events l in
    List.iter
      (fun (name, exact) ->
        Prom.counter p ~help:"Events logged since boot, by severity."
          ~labels:[ ("level", name) ]
          "xqbang_events_by_level_total" exact)
      [
        ("debug", at_least Events.Debug - at_least Events.Info);
        ("info", at_least Events.Info - at_least Events.Warn);
        ("warn", at_least Events.Warn - at_least Events.Error);
        ("error", at_least Events.Error - at_least Events.Critical);
        ("critical", at_least Events.Critical);
      ]
  end;
  (match t.durable with Some d -> Durable.stats_prom d p | None -> ());
  (match t.repl with
  | None -> ()
  | Some r ->
    let applied, leader, lag, lag_bytes, lag_ms, frames =
      locked r.rm (fun () ->
          let lag, lag_bytes, lag_ms = replica_lag r in
          (r.r_applied_lsn, r.r_leader_lsn, lag, lag_bytes, lag_ms, r.r_frames))
    in
    Prom.gauge_i p ~help:"Highest LSN applied by this replica."
      "xqbang_replica_applied_lsn" applied;
    Prom.gauge_i p ~help:"Leader's last LSN as of the last SHIP."
      "xqbang_replica_leader_lsn" leader;
    Prom.gauge_i p ~help:"Frames this replica is behind the leader."
      "xqbang_replica_lag_frames" lag;
    Prom.gauge_i p ~help:"Bytes received but not yet applied (buffered half span)."
      "xqbang_replica_lag_bytes" lag_bytes;
    Prom.gauge p ~help:"Milliseconds since the last apply while behind the leader."
      "xqbang_replica_lag_ms" lag_ms;
    Prom.counter p ~help:"Frames applied by this replica since boot."
      "xqbang_replica_frames_applied_total" frames);
  (* leader side: one lag gauge per known replica *)
  (match t.durable with
  | Some d when locked t.pmutex (fun () -> Hashtbl.length t.peers) > 0 ->
    let last = Durable.last_lsn d in
    let peers =
      locked t.pmutex (fun () ->
          Hashtbl.fold (fun id pr acc -> (id, pr.p_acked) :: acc) t.peers [])
    in
    List.iter
      (fun (id, acked) ->
        Prom.gauge_i p ~help:"Last LSN each replica acknowledged."
          ~labels:[ ("replica", id) ]
          "xqbang_peer_acked_lsn" acked;
        Prom.gauge_i p ~help:"Frames each replica is behind the WAL head."
          ~labels:[ ("replica", id) ]
          "xqbang_peer_lag_frames"
          (Stdlib.max 0 (last - acked)))
      peers
  | _ -> ());
  (match edge_gauges t with
  | None -> ()
  | Some e ->
    let lbl = [ ("mode", e.eg_mode) ] in
    Prom.gauge_i p ~help:"Connections open on the wire edge." ~labels:lbl
      "xqbang_edge_open_connections" e.eg_open;
    Prom.gauge_i p ~help:"Peak concurrently open connections since boot."
      ~labels:lbl "xqbang_edge_open_connections_peak" e.eg_peak;
    Prom.counter p ~help:"Connections accepted since boot." ~labels:lbl
      "xqbang_edge_accepted_total" e.eg_accepted;
    Prom.counter p ~help:"Connections refused at --max-conns." ~labels:lbl
      "xqbang_edge_conn_rejects_total" e.eg_conn_rejects;
    Prom.gauge_i p
      ~help:"Connections read-suspended by scheduler backpressure right now."
      ~labels:lbl "xqbang_edge_read_suspended" e.eg_suspended;
    Prom.counter p ~help:"Read-suspension episodes since boot." ~labels:lbl
      "xqbang_edge_suspensions_total" e.eg_suspensions;
    Prom.counter p
      ~help:"Requests rejected with [overloaded] at the hard watermark."
      ~labels:lbl "xqbang_edge_overload_rejects_total" e.eg_overload_rejects;
    Prom.counter p ~help:"Requests parsed off the wire." ~labels:lbl
      "xqbang_edge_requests_total" e.eg_requests;
    Prom.counter p ~help:"Readiness-cycle admission batches." ~labels:lbl
      "xqbang_edge_batches_total" e.eg_batches);
  (* process identity + continuous profiling + GC telemetry *)
  Prom.gauge p
    ~help:"Build metadata; the value is always 1."
    ~labels:
      [ ("version", build_version); ("ocaml_version", Sys.ocaml_version) ]
    "xqbang_build_info" 1.;
  Prom.gauge_i p ~help:"Resident set size in bytes."
    "xqbang_process_resident_memory_bytes"
    (Xqb_obs.Procstat.rss_bytes ());
  Prom.gauge_i p ~help:"Open file descriptors."
    "xqbang_process_open_fds"
    (Xqb_obs.Procstat.fd_count ());
  Prom.gauge p ~help:"Seconds since service boot."
    "xqbang_process_uptime_seconds"
    (Unix.gettimeofday () -. t.boot_wall);
  Prom.gauge_i p
    ~help:"Continuous profiler state: 1 = sampling, 0 = stopped."
    "xqbang_profile_running"
    (if Xqb_obs.Profile.running () then 1 else 0);
  Prom.gauge_i p ~help:"Profiler sampling rate (Hz)."
    "xqbang_profile_hz" (Xqb_obs.Profile.hz ());
  Prom.counter p ~help:"Profiler samples aggregated since start/reset."
    "xqbang_profile_samples_total"
    (Xqb_obs.Profile.samples ());
  Prom.counter p
    ~help:"Profiler samples dropped (handler lock contention or table cap)."
    "xqbang_profile_dropped_total"
    (Xqb_obs.Profile.dropped ());
  if t.gc_tel && Xqb_obs.Gc_tel.enabled () then Xqb_obs.Gc_tel.to_prom p;
  Prom.gauge_i p
    ~help:"Service health: 0 = ok, 1 = degraded, 2 = critical (see HEALTH)."
    "xqbang_health_status"
    (match health_level (health_reasons t) with
    | `Ok -> 0
    | `Degraded -> 1
    | `Critical -> 2);
  Prom.contents p

let telemetry_json t =
  let size, cap, evicted = trace_ring_stats t in
  Printf.sprintf
    "{\"events\":{\"enabled\":%b,\"total\":%d,\"warn_or_above\":%d},\"trace_ring\":{\"size\":%d,\"capacity\":%d,\"evictions\":%d}}"
    (Events.enabled t.events)
    (Events.total t.events)
    (Events.count_at_least t.events Events.Warn)
    size cap evicted

let stats_json t =
  let extra =
    [
      ("windows", Metrics.windows_json t.metrics);
      ("health", health_json t);
      ("telemetry", telemetry_json t);
      ("concurrency", concurrency_json t);
      ("inflight", inflight_json t);
      ("process", process_json t);
      ("profiler", Xqb_obs.Profile.stat_json ());
    ]
  in
  let extra =
    if t.gc_tel && Xqb_obs.Gc_tel.enabled () then
      ("gc", Xqb_obs.Gc_tel.stats_json ()) :: extra
    else extra
  in
  let extra =
    match edge_gauges t with
    | Some e -> ("edge", edge_json e) :: extra
    | None -> extra
  in
  let extra =
    match durability_json t with
    | Some j -> ("durability", j) :: extra
    | None -> extra
  in
  let extra =
    match t.repl with
    | None -> extra
    | Some _ -> ("replica", replica_stat_json t) :: extra
  in
  Metrics.to_json
    ~cache:(Plan_cache.stats t.cache)
    ~docs:(Catalog.list t.catalog)
    ~extra t.metrics

(* -- the crash flight recorder (live half) --------------------------

   A dump of "what the service is doing right now": the event tail,
   the in-flight job table, gate + queue state. Written on SIGTERM
   and from the [at_exit] guard when the process exits without a
   clean {!shutdown} — the SIGKILL case is covered by the boot half
   ({!detect_unclean_shutdown}) instead, which reconstructs from the
   per-event-flushed sink. *)

let flight_json t ~reason =
  let size, cap, evicted = trace_ring_stats t in
  let g = Scheduler.gate t.sched in
  Printf.sprintf
    "{\"reason\":\"%s\",\"wall_s\":%.3f,\"queue_depth\":%d,\"gate\":{\"running\":%d,\"running_writers\":%d},\"trace_ring\":{\"size\":%d,\"capacity\":%d,\"evictions\":%d},\"last_lsn\":%s,\"health\":%s,\"inflight\":%s,\"events\":%s}"
    (Metrics.json_escape reason)
    (Unix.gettimeofday ())
    (Scheduler.queue_depth t.sched)
    (Rwlock.running g) (Rwlock.running_writers g) size cap evicted
    (match t.durable with
    | Some d -> string_of_int (Durable.last_lsn d)
    | None -> "null")
    (health_json t) (inflight_json t)
    (Events.events_json (Events.tail t.events flight_splice_cap))

let write_flight t ~reason =
  match t.data_dir with
  | None -> None
  | Some dir -> (
    let path =
      Filename.concat dir
        (Printf.sprintf "flight-%d-%d.json"
           (int_of_float (Unix.gettimeofday () *. 1000.))
           (Unix.getpid ()))
    in
    match open_out path with
    | oc ->
      output_string oc (flight_json t ~reason);
      output_char oc '\n';
      close_out_noerr oc;
      Some path
    | exception Sys_error _ -> None)

(* Called by `serve` (and only serve: a library embedder owns its own
   signals). The [at_exit] guard fires on any exit path that skipped
   {!shutdown} — including an uncaught exception unwinding main. *)
let install_crash_hooks t =
  let dumped = ref false in
  let dump reason =
    if (not !dumped) && not t.stopping then begin
      dumped := true;
      ignore (write_flight t ~reason)
    end
  in
  at_exit (fun () -> dump "exit-without-shutdown");
  try
    ignore
      (Sys.signal Sys.sigterm
         (Sys.Signal_handle
            (fun _ ->
              dump "sigterm";
              exit 143)))
  with Invalid_argument _ | Sys_error _ -> ()

(* Stop the service. Without [deadline], drain: queued jobs still
   run to completion. With [deadline] (seconds), give queued +
   running work that long, then abandon the queue ([overloaded]
   futures) and cancel every in-flight budget so running jobs die at
   their next poll. *)
let shutdown ?deadline t =
  t.stopping <- true;
  (* stop the replication client first: close its socket to unblock a
     read in flight, then join *)
  (match t.repl with
  | Some r ->
    r.r_stop <- true;
    (match locked r.rm (fun () -> r.r_sock) with
    | Some fd -> (
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    | None -> ());
    (match r.r_thread with
    | Some th ->
      Thread.join th;
      r.r_thread <- None
    | None -> ())
  | None -> ());
  (match t.watchdog with
  | Some th ->
    Thread.join th;
    t.watchdog <- None
  | None -> ());
  (match t.monitor with
  | Some th ->
    Thread.join th;
    t.monitor <- None
  | None -> ());
  let cancel_inflight () =
    locked t.jmutex (fun () ->
        Hashtbl.iter
          (fun _ j -> Budget.request j.cancel Budget.Cancelled)
          t.jobs)
  in
  Scheduler.shutdown ?deadline ~on_deadline:cancel_inflight t.sched;
  (* the pool is drained: one final fsync and the WAL closes *)
  (match t.durable with Some d -> Durable.close d | None -> ());
  (* disarm the profiler this boot armed (a wire PROFILE START on an
     unowned service outlives it deliberately — the profiler is
     process-global), release the GC-telemetry refcount *)
  if t.profile_owned then ignore (Xqb_obs.Profile.stop ());
  if t.gc_tel then Xqb_obs.Gc_tel.stop ();
  (* last event in the sink: its presence is how the next boot knows
     this run ended clean (no flight dump) *)
  Events.info t.events ~kind:"lifecycle.shutdown" [];
  Events.close t.events
