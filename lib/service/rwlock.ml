(* The scheduler's admission gate, generalized from a binary
   readers-writer lock to a *footprint gate*: every job enters with a
   static effects footprint (Static.Footprint) and runs concurrently
   with every other job it is provably independent of — read/read
   always, read/write and write/write when their document regions
   don't overlap. A pure query is just a footprint with no writes.
   The two extreme footprints, [read_all] (reads everything, writes
   nothing) and [top] (conflicts with everyone), are what
   {!with_read} / {!with_write} request for operations without a
   plan (catalog loads, checkpoints, replica ingest).

   Admission is FIFO-ticketed: a job may start iff it is independent
   of every *running* job and of every *earlier-ticketed waiter*. The
   second clause prevents barging (a stream of readers can't starve a
   writer — the old lock's writer preference, generalized) and keeps
   conflicting writers in submission order, which makes same-document
   update interleavings deterministic. Independent jobs overtake
   freely. Deadlock-free: a waiter only ever waits on running jobs
   and strictly earlier tickets, so the wait graph follows ticket
   order and is acyclic. *)

module FP = Core.Static.Footprint

type ticket = { tk : int; fp : FP.t }

type t = {
  mutex : Mutex.t;
  turn : Condition.t;
  mutable next : int;
  mutable running : ticket list;
  mutable waiting : ticket list;  (* ascending ticket order *)
  mutable peak : int;  (* max simultaneous holders, for metrics *)
  mutable writer_peak : int;  (* same, counting writing holders only *)
}

let create () =
  {
    mutex = Mutex.create ();
    turn = Condition.create ();
    next = 0;
    running = [];
    waiting = [];
    peak = 0;
    writer_peak = 0;
  }

let conflicts a b = not (FP.independent a b)

let acquire t fp =
  Mutex.lock t.mutex;
  let e = { tk = t.next; fp } in
  t.next <- t.next + 1;
  t.waiting <- t.waiting @ [ e ];
  let blocked () =
    List.exists (fun r -> conflicts r.fp fp) t.running
    || List.exists (fun w -> w.tk < e.tk && conflicts w.fp fp) t.waiting
  in
  while blocked () do
    Condition.wait t.turn t.mutex
  done;
  t.waiting <- List.filter (fun w -> w.tk <> e.tk) t.waiting;
  t.running <- e :: t.running;
  t.peak <- max t.peak (List.length t.running);
  let writers =
    List.length (List.filter (fun r -> not (FP.writes_nothing r.fp)) t.running)
  in
  t.writer_peak <- max t.writer_peak writers;
  Mutex.unlock t.mutex;
  e

let release t e =
  Mutex.lock t.mutex;
  t.running <- List.filter (fun r -> r.tk <> e.tk) t.running;
  (* waiters blocked on [e] (running or earlier-waiting) may now pass *)
  Condition.broadcast t.turn;
  Mutex.unlock t.mutex

let with_footprint t fp f =
  let e = acquire t fp in
  Fun.protect ~finally:(fun () -> release t e) f

(* The legacy binary gate, as footprints. *)
let with_read t f = with_footprint t FP.read_all f
let with_write t f = with_footprint t FP.top f

let running t =
  Mutex.lock t.mutex;
  let n = List.length t.running in
  Mutex.unlock t.mutex;
  n

let running_writers t =
  Mutex.lock t.mutex;
  let n =
    List.length (List.filter (fun r -> not (FP.writes_nothing r.fp)) t.running)
  in
  Mutex.unlock t.mutex;
  n

let peak t = t.peak
let writer_peak t = t.writer_peak
