(* Sample statistics and closed-loop request accounting. Kept free of
   any dependency on the system under test so the rules the reported
   numbers rest on are unit-tested on their own (perfbench/test). *)

(* A reported percentile must have at least this many samples beyond
   it, or it says nothing about the tail it names. *)
let min_beyond = 10

(* Nearest-rank percentile, 1-based: the smallest rank r with
   r >= pct% of n. Integer arithmetic, so p99 of 1000 samples is rank
   990 exactly (float ceil(0.99 *. 1000.) gives 991). *)
let rank ~pct n = max 1 (((pct * n) + 99) / 100)

(* Samples strictly above the reported one. *)
let beyond ~pct n = n - rank ~pct n

let reportable ~pct n = n > 0 && beyond ~pct n >= min_beyond

(* The fewest samples a [pct] percentile can be reported from. *)
let samples_needed ~pct =
  let rec go n = if reportable ~pct n then n else go (n + 1) in
  go 1

(* [sorted] ascending, non-empty. *)
let percentile ~pct sorted = sorted.(rank ~pct (Array.length sorted) - 1)

(* Midpoint median of a non-empty array of floats. *)
let median a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.median: empty";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* -- closed-loop accounting --------------------------------------------

   Every request sent is attempted exactly once and ends exactly once:
   completed (an OK reply the check accepted) or failed (an ERR reply,
   no reply, a reply the check rejected). An acknowledged write that a
   restart does not recover is moved from completed to failed after
   the fact, so attempted = completed + failed holds throughout. *)

type tally = {
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
}

let tally () = { attempted = 0; completed = 0; failed = 0 }

let complete t =
  t.attempted <- t.attempted + 1;
  t.completed <- t.completed + 1

let fail t =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1

(* [k] acknowledged writes were not recovered; returns how many were
   moved (never more than were completed). *)
let lose t k =
  let k = max 0 (min k t.completed) in
  t.completed <- t.completed - k;
  t.failed <- t.failed + k;
  k

let balanced t = t.attempted = t.completed + t.failed

let failed_ratio t =
  if t.attempted = 0 then 0. else float t.failed /. float t.attempted

(* The end-to-end form: never 0 unless every request failed. *)
let ok_ratio t = 1. -. failed_ratio t

(* Divide, reading an empty base as 0 (a per-layer ratio whose base
   did not occur on this workload, e.g. fsyncs per write on a
   read-only stream). *)
let ratio a b = if b = 0. then 0. else a /. b

(* -- slices of the timed window ---------------------------------------------

   The timed window is cut into one-second slices. A slice records
   how long it lasted, the CPU time the host stole from this machine
   during it (the time other guests ran while this one wanted to),
   the server's CPU time during it, and the latencies of the replies
   that completed in it. Every figure is over the whole window: total
   replies over total time, percentiles of all latencies pooled. The
   slices show in the report how the rate moved. *)

type slice = { dur_s : float; steal_s : float; cpu_s : float; lat : int array }

(* Replies per second over the slices' total length. *)
let rate slices =
  let n = Array.fold_left (fun acc s -> acc + Array.length s.lat) 0 slices in
  ratio (float n) (Array.fold_left (fun acc s -> acc +. s.dur_s) 0. slices)

(* The slices' latencies pooled, sorted. *)
let pooled slices =
  let a = Array.concat (Array.to_list (Array.map (fun s -> s.lat) slices)) in
  Array.sort compare a;
  a

(* Server CPU time per reply over the slices. *)
let cpu_per_reply slices =
  let cpu = Array.fold_left (fun acc s -> acc +. s.cpu_s) 0. slices in
  let n = Array.fold_left (fun acc s -> acc + Array.length s.lat) 0 slices in
  ratio cpu (float n)
