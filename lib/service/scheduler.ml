(* The footprint-gated scheduler: a fixed pool of OCaml 5 domains
   draining one job queue, with a FIFO footprint gate (Rwlock) as the
   admission control. Every job carries a static effects footprint
   and runs concurrently with everything provably disjoint from it
   (other documents, other subtrees): a pure read's footprint writes
   nothing, so reads overlap each other and every writer whose
   regions they miss; an updating job holds its inferred regions;
   jobs the analysis can't pin down (and document loads, EXPLAIN,
   maintenance) enter with ⊤ and run alone. Within one query,
   evaluation order is exactly the paper's: a job never migrates
   between domains.

   ∆ application, WAL appends and wal_seq advancement are *not*
   covered by the gate — jobs evaluate in parallel but apply
   serially under {!with_apply}, the global apply mutex, which
   keeps the mutation journal's transaction spans contiguous and the
   WAL byte order deterministic.

   [domains = 0] degenerates to synchronous in-caller execution
   (still gate-admitted) — the "scheduler off" baseline in bench E15.

   Admission control: the queue is bounded ([max_queue], default
   unbounded); a submission over the high watermark raises
   [Overloaded] in the caller instead of queuing. Each job may carry
   a queue-time [deadline] in *monotonic* Clock nanoseconds — wall
   clock steps (NTP, VM suspend) must not expire queued jobs, and
   must not keep expired ones alive. A worker that dequeues an
   already-expired job completes its future with [Expired_in_queue]
   without running it; the synchronous path performs the same check
   before executing. Submission after [shutdown] raises [Shut_down]
   uniformly in both configurations. *)

module FP = Core.Static.Footprint
module Clock = Xqb_obs.Clock

exception Overloaded
exception Shut_down
exception Expired_in_queue

type 'a state = Pending | Done of ('a, exn) result

type 'a future = {
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable state : 'a state;
  mutable callbacks : (('a, exn) result -> unit) list;
    (* run once, outside the lock, on the thread that fills the
       future (a worker domain) — or immediately in the caller when
       registered on an already-completed future *)
}

type job = {
  footprint : FP.t;
  deadline : int;  (* absolute queue-time deadline, Clock ns; max_int = none *)
  run : unit -> unit;
  abort : exn -> unit;  (* complete the future without running *)
  trace : Xqb_obs.Trace.t option;
    (* the job's tracer, for the two waits only this layer can see:
       time in the queue and time blocked on the footprint gate *)
  submitted_ns : int;
    (* Clock scale; always set — the stall watchdog reads the queue
       head's age through {!oldest_queued_age_ns} *)
}

type t = {
  rw : Rwlock.t;
  apply_mu : Mutex.t;  (* serializes snap-apply + WAL append *)
  mutable apply_since_ns : int;
    (* Clock ns when the current apply-mutex holder entered; 0 = free.
       Written only by the holder; read unlocked by the stall
       watchdog — a torn read is impossible (tagged int) and a stale
       one only shifts a detection by a poll period. *)
  queue : job Queue.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  mutable stopping : bool;
  mutable active : int;  (* pool jobs currently executing *)
  mutable workers : unit Domain.t array;
  domains : int;
  max_queue : int;
}

let new_future () =
  {
    fmutex = Mutex.create ();
    fcond = Condition.create ();
    state = Pending;
    callbacks = [];
  }

let fill fut result =
  Mutex.lock fut.fmutex;
  fut.state <- Done result;
  let cbs = List.rev fut.callbacks in
  fut.callbacks <- [];
  Condition.broadcast fut.fcond;
  Mutex.unlock fut.fmutex;
  List.iter (fun cb -> try cb result with _ -> ()) cbs

(* Register a completion callback. A pending future runs it (outside
   the lock) on the thread that fills it; a completed future runs it
   immediately in the caller. The fiber edge hangs connection wakeups
   here instead of parking an OS thread in [await]. *)
let on_complete fut cb =
  Mutex.lock fut.fmutex;
  match fut.state with
  | Done r ->
    Mutex.unlock fut.fmutex;
    (try cb r with _ -> ())
  | Pending ->
    fut.callbacks <- cb :: fut.callbacks;
    Mutex.unlock fut.fmutex

let await fut =
  Mutex.lock fut.fmutex;
  while fut.state = Pending do
    Condition.wait fut.fcond fut.fmutex
  done;
  let r = match fut.state with Done r -> r | Pending -> assert false in
  Mutex.unlock fut.fmutex;
  r

let await_exn fut = match await fut with Ok v -> v | Error e -> raise e

(* An already-completed future (e.g. a submission rejected at compile
   time: there is nothing to schedule but callers still get the
   uniform future interface). *)
let ready v =
  let fut = new_future () in
  fut.state <- Done (Ok v);
  fut

let failed e =
  let fut = new_future () in
  fut.state <- Done (Error e);
  fut

let peek fut =
  Mutex.lock fut.fmutex;
  let r = match fut.state with Done r -> Some r | Pending -> None in
  Mutex.unlock fut.fmutex;
  r

let expired job = job.deadline <> max_int && Clock.now_ns () > job.deadline

(* Run [job.run] with its footprint admitted. With a tracer, the gap
   between requesting admission and the body starting is recorded as
   "lock.wait" — for a conflicting job behind long independent work
   this is exactly the gate blocking the trace should show. *)
let execute t job =
  let body =
    match job.trace with
    | None -> job.run
    | Some tr ->
      let requested_ns = Clock.now_ns () in
      fun () ->
        Xqb_obs.Trace.add_span ~cat:"sched"
          ~args:
            [
              ( "side",
                if FP.writes_nothing job.footprint then "read" else "write" );
            ]
          tr ~name:"lock.wait" ~start_ns:requested_ns
          ~dur_ns:(Clock.now_ns () - requested_ns)
          ();
        job.run ()
  in
  Rwlock.with_footprint t.rw job.footprint body

(* The dequeue-side deadline check and its trace span. An expired job
   is aborted without running; its queue.wait span (the only span the
   job will ever have) is tagged ["expired" = "true"] so traces can't
   be read as phantom execution of work that never ran. *)
let run_or_expire t job =
  let was_expired = expired job in
  (match job.trace with
  | Some tr ->
    Xqb_obs.Trace.add_span ~cat:"sched"
      ~args:(if was_expired then [ ("expired", "true") ] else [])
      tr ~name:"queue.wait" ~start_ns:job.submitted_ns
      ~dur_ns:(Clock.now_ns () - job.submitted_ns)
      ()
  | None -> ());
  if was_expired then (try job.abort Expired_in_queue with _ -> ())
  else execute t job

let worker_loop t () =
  let rec next () =
    Mutex.lock t.qmutex;
    let rec wait () =
      match Queue.take_opt t.queue with
      | Some job ->
        t.active <- t.active + 1;
        Mutex.unlock t.qmutex;
        Some job
      | None ->
        if t.stopping then begin
          Mutex.unlock t.qmutex;
          None
        end
        else begin
          Condition.wait t.qcond t.qmutex;
          wait ()
        end
    in
    match wait () with
    | None -> ()
    | Some job ->
      run_or_expire t job;
      Mutex.lock t.qmutex;
      t.active <- t.active - 1;
      Mutex.unlock t.qmutex;
      next ()
  in
  next ()

let create ?(domains = 4) ?(max_queue = max_int) () =
  if domains < 0 then invalid_arg "Scheduler.create: negative domain count";
  if max_queue < 1 then invalid_arg "Scheduler.create: max_queue < 1";
  let t =
    {
      rw = Rwlock.create ();
      apply_mu = Mutex.create ();
      apply_since_ns = 0;
      queue = Queue.create ();
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      stopping = false;
      active = 0;
      workers = [||];
      domains;
      max_queue;
    }
  in
  t.workers <- Array.init domains (fun _ -> Domain.spawn (worker_loop t));
  t

let domains t = t.domains

let queue_depth t =
  Mutex.lock t.qmutex;
  let d = Queue.length t.queue in
  Mutex.unlock t.qmutex;
  d

let max_queue t = if t.max_queue = max_int then None else Some t.max_queue

(* Age of the oldest job admitted to the queue but not yet started —
   the watchdog's "admitted-but-not-started" signal. 0 when empty. *)
let oldest_queued_age_ns t =
  Mutex.lock t.qmutex;
  let age =
    match Queue.peek_opt t.queue with
    | Some j -> Clock.now_ns () - j.submitted_ns
    | None -> 0
  in
  Mutex.unlock t.qmutex;
  age

(* Submit [f]; the future completes with its result or exception.
   [deadline] (absolute, monotonic Clock ns) bounds time *in the
   queue* — an expired job is aborted at dequeue, and [on_abort]
   (called before the future is filled) lets the submitter observe
   abandonment (queue expiry, shutdown drain) for metrics/cleanup.
   [footprint] defaults to the binary extremes: [exclusive:true] = ⊤,
   [exclusive:false] = read-everything.
   @raise Shut_down after [shutdown] (both pooled and synchronous)
   @raise Overloaded when the queue is at [max_queue]. *)
let submit t ?(deadline = max_int) ?(on_abort = fun _ -> ()) ?trace ?footprint
    ~exclusive (f : unit -> 'a) : 'a future =
  let footprint =
    match footprint with
    | Some fp -> fp
    | None -> if exclusive then FP.top else FP.read_all
  in
  let fut = new_future () in
  let run () =
    let result = try Ok (f ()) with e -> Error e in
    fill fut result
  in
  let abort e =
    (try on_abort e with _ -> ());
    fill fut (Error e)
  in
  let job =
    { footprint; deadline; run; abort; trace; submitted_ns = Clock.now_ns () }
  in
  if t.domains = 0 then begin
    (* Synchronous path: must agree with the pool on shutdown and on
       deadlines — work submitted after [shutdown] returned must not
       execute, and neither must a job whose deadline already passed
       (the pool would abort it at dequeue). *)
    Mutex.lock t.qmutex;
    let stopping = t.stopping in
    Mutex.unlock t.qmutex;
    if stopping then raise Shut_down;
    run_or_expire t job
  end
  else begin
    Mutex.lock t.qmutex;
    if t.stopping then begin
      Mutex.unlock t.qmutex;
      raise Shut_down
    end;
    if Queue.length t.queue >= t.max_queue then begin
      Mutex.unlock t.qmutex;
      raise Overloaded
    end;
    Queue.add job t.queue;
    Condition.signal t.qcond;
    Mutex.unlock t.qmutex
  end;
  fut

(* Direct access to the gate, for operations that bypass the queue
   (the service loads documents under ⊤ synchronously). *)
let with_write t f = Rwlock.with_write t.rw f
let with_read t f = Rwlock.with_read t.rw f
let with_footprint t fp f = Rwlock.with_footprint t.rw fp f

(* The global apply mutex: concurrent jobs evaluate in parallel
   under the footprint gate but serialize their snap-apply (and the
   WAL append the service performs inside the same critical section)
   here. *)
let with_apply t f =
  Mutex.lock t.apply_mu;
  t.apply_since_ns <- Clock.now_ns ();
  Fun.protect
    ~finally:(fun () ->
      t.apply_since_ns <- 0;
      Mutex.unlock t.apply_mu)
    f

(* How long the apply mutex has been held by its current owner; 0
   when free. Unlocked read — see [apply_since_ns]. *)
let apply_held_ns t =
  match t.apply_since_ns with 0 -> 0 | since -> Clock.now_ns () - since

let gate t = t.rw

(* Stop accepting work and wind the pool down. Without [deadline]:
   drain — queued jobs still execute, then workers exit. With
   [deadline] (seconds, converted to the monotonic scale here so a
   wall-clock step can't cut the drain short or stretch it): wait
   that long for queue + running jobs to finish; past it, abandon
   still-queued jobs (their futures complete with [Shut_down]) and
   call [on_deadline] — the service uses it to cancel in-flight
   budgets so running jobs die at their next poll — then join the
   workers. *)
let shutdown ?deadline ?(on_deadline = fun () -> ()) t =
  Mutex.lock t.qmutex;
  t.stopping <- true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmutex;
  (match deadline with
  | None -> ()
  | Some secs ->
    let until_ns = Clock.now_ns () + int_of_float (secs *. 1e9) in
    let busy () =
      Mutex.lock t.qmutex;
      let b = (not (Queue.is_empty t.queue)) || t.active > 0 in
      Mutex.unlock t.qmutex;
      b
    in
    while busy () && Clock.now_ns () < until_ns do
      Unix.sleepf 0.005
    done;
    if busy () then begin
      Mutex.lock t.qmutex;
      let abandoned = List.of_seq (Queue.to_seq t.queue) in
      Queue.clear t.queue;
      Mutex.unlock t.qmutex;
      List.iter (fun j -> try j.abort Shut_down with _ -> ()) abandoned;
      on_deadline ()
    end);
  Array.iter Domain.join t.workers;
  t.workers <- [||]
