(* Service observability: per-query latency, scheduler queue depth,
   purity-class counts and applied-∆ counts (fed by each session
   engine's [Context.on_apply] hook), dumped as JSON. All counters
   live behind one mutex — recording is a few stores, and queries are
   milliseconds.

   Latencies go into fixed-footprint log-bucketed histograms
   ([Xqb_obs.Hist]) rather than a growing reservoir: a long-lived
   server no longer accumulates one float per query forever, and
   percentiles are exact for the first 512 samples, ~19%-bucketed
   after. The same histogram type backs the per-phase breakdowns fed
   from each traced job's span totals. *)

module Hist = Xqb_obs.Hist
module Window = Xqb_obs.Window
module Prom = Xqb_obs.Prom

(* The three health windows: 1s (10×100ms) answers "is it on fire",
   10s and 60s (1s slots) smooth burn-rate alerting. *)
let window_specs = [ ("1s", 100, 10); ("10s", 1000, 10); ("60s", 1000, 60) ]

type t = {
  mutex : Mutex.t;
  mutable queries : int;
  mutable errors : int;
  (* failed queries by taxonomy kind (Service_error) *)
  mutable err_timeout : int;
  mutable err_cancelled : int;
  mutable err_overloaded : int;
  mutable err_conflict : int;
  mutable err_dynamic : int;
  mutable pure : int;
  mutable updating : int;
  mutable effecting : int;
  (* per-query wall time, ns *)
  lat : Hist.t;
  (* per-pipeline-phase wall time, ns, keyed by span name; fed from
     traced jobs' [Trace.phase_totals] *)
  phases : (string, Hist.t) Hashtbl.t;
  mutable phase_order : string list;  (* first-recorded order, reversed *)
  (* scheduler queue depth sampled at each submit *)
  mutable depth_sum : int;
  mutable depth_samples : int;
  mutable depth_max : int;
  (* ∆ accounting from Context.on_apply *)
  mutable deltas_applied : int;  (* snap applications *)
  mutable update_requests : int;  (* total requests across all ∆s *)
  (* rolling 1s/10s/60s views of the same query stream ([] when
     telemetry is off — bench E22's baseline). Windows carry their
     own locks; recording happens outside [mutex]. *)
  windows : (string * Window.t) list;
  slo_p99_ms : float;  (* latency SLO target: p99 under this *)
  slo_err_pct : float;  (* availability SLO: error % under this *)
}

let create ?(windows = true) ?(slo_p99_ms = 250.) ?(slo_err_pct = 1.0) () =
  {
    mutex = Mutex.create ();
    queries = 0;
    errors = 0;
    err_timeout = 0;
    err_cancelled = 0;
    err_overloaded = 0;
    err_conflict = 0;
    err_dynamic = 0;
    pure = 0;
    updating = 0;
    effecting = 0;
    lat = Hist.create ();
    phases = Hashtbl.create 16;
    phase_order = [];
    depth_sum = 0;
    depth_samples = 0;
    depth_max = 0;
    deltas_applied = 0;
    update_requests = 0;
    windows =
      (if windows then
         List.map
           (fun (name, slot_ms, slots) -> (name, Window.create ~slot_ms ~slots ()))
           window_specs
       else []);
    slo_p99_ms;
    slo_err_pct;
  }

let slo t = (t.slo_p99_ms, t.slo_err_pct)

let record_windows t ~ok latency_ns =
  match t.windows with
  | [] -> ()
  | ws ->
      let slow = latency_ns > t.slo_p99_ms *. 1e6 in
      let now_ns = Xqb_obs.Clock.now_ns () in
      List.iter
        (fun (_, w) -> Window.record ~now_ns w ~ok ~slow (int_of_float latency_ns))
        ws

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record_query t ~purity ~ok ~latency_ns =
  locked t (fun () ->
      t.queries <- t.queries + 1;
      if not ok then t.errors <- t.errors + 1;
      (match (purity : Core.Static.purity) with
      | Core.Static.Pure -> t.pure <- t.pure + 1
      | Core.Static.Updating -> t.updating <- t.updating + 1
      | Core.Static.Effecting -> t.effecting <- t.effecting + 1);
      Hist.record t.lat latency_ns);
  record_windows t ~ok latency_ns

(* One pipeline-phase observation (span name, summed ns within one
   job). Histograms are created on first sight of a phase name. *)
let record_phase t name ns =
  locked t (fun () ->
      let h =
        match Hashtbl.find_opt t.phases name with
        | Some h -> h
        | None ->
          let h = Hist.create () in
          Hashtbl.add t.phases name h;
          t.phase_order <- name :: t.phase_order;
          h
      in
      Hist.record h ns)

(* Fold a traced job's span totals ([Trace.phase_totals]) in. *)
let record_phase_totals t totals =
  List.iter (fun (name, ns) -> record_phase t name (float_of_int ns)) totals

(* A submission that failed before reaching the scheduler (parse or
   static error): counts as a query and an error, no purity class. *)
let record_compile_error t =
  locked t (fun () ->
      t.queries <- t.queries + 1;
      t.errors <- t.errors + 1);
  record_windows t ~ok:false 0.

(* Count a failed query against its taxonomy kind. The [errors]
   total is maintained by [record_query]/[record_compile_error]; this
   only does the per-kind breakdown. *)
let record_error t (kind : Service_error.kind) =
  locked t (fun () ->
      match kind with
      | Service_error.Timeout -> t.err_timeout <- t.err_timeout + 1
      | Service_error.Cancelled -> t.err_cancelled <- t.err_cancelled + 1
      | Service_error.Overloaded -> t.err_overloaded <- t.err_overloaded + 1
      | Service_error.Conflict -> t.err_conflict <- t.err_conflict + 1
      | Service_error.Dynamic -> t.err_dynamic <- t.err_dynamic + 1)

let errors_by_kind t =
  locked t (fun () ->
      [
        (Service_error.Timeout, t.err_timeout);
        (Service_error.Cancelled, t.err_cancelled);
        (Service_error.Overloaded, t.err_overloaded);
        (Service_error.Conflict, t.err_conflict);
        (Service_error.Dynamic, t.err_dynamic);
      ])

let record_queue_depth t d =
  locked t (fun () ->
      t.depth_sum <- t.depth_sum + d;
      t.depth_samples <- t.depth_samples + 1;
      if d > t.depth_max then t.depth_max <- d)

let counts t = locked t (fun () -> (t.queries, t.errors))

(* Wired into each session engine's [Context.on_apply]. *)
let record_delta t delta =
  locked t (fun () ->
      t.deltas_applied <- t.deltas_applied + 1;
      t.update_requests <- t.update_requests + List.length delta)

(* -- JSON dump ------------------------------------------------------

   Percentiles come from [Hist], whose nearest-rank definition uses
   ceil(p*n) — the previous reservoir truncated p*n, which
   under-reports high percentiles (p95 of 10 samples picked the 9th,
   not the 10th). *)

let json_escape = Xqb_obs.Json.escape

(* The full dump. [cache] carries the plan cache's counters; [docs]
   the catalog listing; [extra] pre-rendered key/JSON pairs appended
   verbatim (the service adds its in-flight job listing). *)
let to_json ?(cache : Plan_cache.stats option)
    ?(docs : (string * int * int) list = []) ?(extra : (string * string) list = [])
    t =
  locked t (fun () ->
      let buf = Buffer.create 512 in
      let obj fields =
        "{" ^ String.concat "," fields ^ "}"
      in
      let fint k v = Printf.sprintf "\"%s\":%d" k v in
      let ffloat k v = Printf.sprintf "\"%s\":%.1f" k v in
      Buffer.add_string buf "{";
      Buffer.add_string buf
        (String.concat ","
           ([
             Printf.sprintf "\"queries\":%s"
               (obj
                  [
                    fint "total" t.queries;
                    fint "errors" t.errors;
                    fint "pure" t.pure;
                    fint "updating" t.updating;
                    fint "effecting" t.effecting;
                  ]);
             Printf.sprintf "\"errors_by_kind\":%s"
               (obj
                  [
                    fint "timeout" t.err_timeout;
                    fint "cancelled" t.err_cancelled;
                    fint "overloaded" t.err_overloaded;
                    fint "conflict" t.err_conflict;
                    fint "dynamic" t.err_dynamic;
                  ]);
             Printf.sprintf "\"latency_ns\":{%s}" (Hist.to_json_fields t.lat);
             Printf.sprintf "\"phases_ns\":%s"
               (obj
                  (List.rev_map
                     (fun name ->
                       Printf.sprintf "\"%s\":{%s}" (json_escape name)
                         (Hist.to_json_fields (Hashtbl.find t.phases name)))
                     t.phase_order));
             Printf.sprintf "\"queue_depth\":%s"
               (obj
                  [
                    ffloat "mean"
                      (if t.depth_samples = 0 then 0.
                       else float_of_int t.depth_sum /. float_of_int t.depth_samples);
                    fint "max" t.depth_max;
                  ]);
             Printf.sprintf "\"deltas\":%s"
               (obj
                  [
                    fint "applied" t.deltas_applied;
                    fint "update_requests" t.update_requests;
                  ]);
             (match cache with
             | None -> "\"plan_cache\":null"
             | Some c ->
               Printf.sprintf "\"plan_cache\":%s"
                 (obj
                    [
                      fint "hits" c.Plan_cache.hits;
                      fint "misses" c.Plan_cache.misses;
                      fint "evictions" c.Plan_cache.evictions;
                      fint "size" c.Plan_cache.size;
                      fint "capacity" c.Plan_cache.capacity;
                    ]));
             Printf.sprintf "\"documents\":[%s]"
               (String.concat ","
                  (List.map
                     (fun (uri, rc, bytes) ->
                       obj
                         [
                           Printf.sprintf "\"uri\":\"%s\"" (json_escape uri);
                           fint "refcount" rc;
                           fint "bytes" bytes;
                         ])
                     docs));
           ]
           @ List.map
               (fun (k, v) -> Printf.sprintf "\"%s\":%s" (json_escape k) v)
               extra));
      Buffer.add_string buf "}";
      Buffer.contents buf)

(* -- Prometheus text exposition -------------------------------------

   The same counters as [to_json], rendered through the shared
   [Xqb_obs.Prom] emitter (format 0.0.4): counters as _total with
   # HELP/# TYPE lines, latency and per-phase distributions as
   summaries with quantile labels, and the rolling windows as
   gauges. The service composes this page with the WAL, gate,
   trace-ring and replica contributions on one emitter, so family
   headers dedupe across layers. *)

let prom_summary p ~help ?labels name (h : Hist.t) =
  Prom.summary p ~help ?labels name
    ~quantiles:(List.map (fun q -> (q, Hist.percentile h q)) [ 0.5; 0.9; 0.99 ])
    ~sum:(Hist.sum h) ~count:(Hist.count h)

let windows_to_prom t p =
  List.iter
    (fun (name, w) ->
      let s = Window.snapshot w in
      let labels = [ ("window", name) ] in
      Prom.gauge p ~labels "xqbang_window_rate"
        ~help:"Requests per second over the rolling window." s.Window.rate;
      Prom.gauge p ~labels "xqbang_window_p50_ns"
        ~help:"Rolling-window median latency (bucket estimate, ns)." s.Window.p50_ns;
      Prom.gauge p ~labels "xqbang_window_p99_ns"
        ~help:"Rolling-window p99 latency (bucket estimate, ns)." s.Window.p99_ns;
      Prom.gauge p ~labels "xqbang_window_error_ratio"
        ~help:"Failed fraction of requests in the rolling window." s.Window.err_frac;
      Prom.gauge p ~labels "xqbang_window_slow_ratio"
        ~help:"Fraction of rolling-window requests over the p99 SLO target."
        s.Window.slow_frac;
      Prom.gauge p
        ~labels:(labels @ [ ("slo", "availability") ])
        "xqbang_slo_burn_rate"
        ~help:
          "Error-budget consumption rate: 1 = exactly on SLO target, >1 = burning ahead."
        (Window.burn ~frac:s.Window.err_frac ~budget_frac:(t.slo_err_pct /. 100.));
      Prom.gauge p
        ~labels:(labels @ [ ("slo", "latency") ])
        "xqbang_slo_burn_rate"
        ~help:
          "Error-budget consumption rate: 1 = exactly on SLO target, >1 = burning ahead."
        (Window.burn ~frac:s.Window.slow_frac ~budget_frac:0.01))
    t.windows

let to_prom ?(cache : Plan_cache.stats option) t p =
  locked t (fun () ->
      let counter name ~help ?labels v = Prom.counter p ~help ?labels name v in
      counter "xqbang_queries_total" ~help:"Queries submitted since boot." t.queries;
      let by_purity = "Queries by static purity class." in
      counter "xqbang_queries_by_purity_total" ~help:by_purity
        ~labels:[ ("purity", "pure") ] t.pure;
      counter "xqbang_queries_by_purity_total" ~help:by_purity
        ~labels:[ ("purity", "updating") ] t.updating;
      counter "xqbang_queries_by_purity_total" ~help:by_purity
        ~labels:[ ("purity", "effecting") ] t.effecting;
      counter "xqbang_query_errors_total" ~help:"Failed queries since boot." t.errors;
      List.iter
        (fun (kind, n) ->
          counter "xqbang_query_errors_by_kind_total"
            ~help:"Failed queries by taxonomy kind."
            ~labels:[ ("kind", Service_error.kind_to_string kind) ]
            n)
        [
          (Service_error.Timeout, t.err_timeout);
          (Service_error.Cancelled, t.err_cancelled);
          (Service_error.Overloaded, t.err_overloaded);
          (Service_error.Conflict, t.err_conflict);
          (Service_error.Dynamic, t.err_dynamic);
        ];
      counter "xqbang_deltas_applied_total" ~help:"Snap (delta) applications."
        t.deltas_applied;
      counter "xqbang_update_requests_total"
        ~help:"Update requests across all applied deltas." t.update_requests;
      Prom.gauge_i p "xqbang_queue_depth_max"
        ~help:"Peak scheduler queue depth sampled at submits." t.depth_max;
      (match cache with
      | None -> ()
      | Some c ->
        let cache_help = "Plan-cache events." in
        counter "xqbang_plan_cache_total" ~help:cache_help
          ~labels:[ ("event", "hit") ] c.Plan_cache.hits;
        counter "xqbang_plan_cache_total" ~help:cache_help
          ~labels:[ ("event", "miss") ] c.Plan_cache.misses;
        counter "xqbang_plan_cache_total" ~help:cache_help
          ~labels:[ ("event", "eviction") ]
          c.Plan_cache.evictions;
        Prom.gauge_i p "xqbang_plan_cache_size" ~help:"Plans resident in the cache."
          c.Plan_cache.size);
      prom_summary p "xqbang_query_latency_ns"
        ~help:"Per-query wall time (ns)." t.lat;
      (* declared even with no phases yet (tracing off, or before the
         first job) so the family is always present on the page *)
      Prom.declare p ~name:"xqbang_phase_ns" ~typ:"summary"
        ~help:"Per-pipeline-phase wall time (ns).";
      List.iter
        (fun name ->
          prom_summary p "xqbang_phase_ns" ~help:"Per-pipeline-phase wall time (ns)."
            ~labels:[ ("phase", name) ]
            (Hashtbl.find t.phases name))
        (List.rev t.phase_order));
  (* windows carry their own locks; snapshot outside [t.mutex] *)
  windows_to_prom t p

(* -- Rolling-window JSON (the STATS "windows" member) -------------- *)

let windows_json t =
  let ws =
    List.map
      (fun (name, w) ->
        Printf.sprintf "\"%s\":%s" name (Window.snap_json (Window.snapshot w)))
      t.windows
  in
  let slo =
    Printf.sprintf "\"slo\":{\"p99_ms\":%g,\"err_pct\":%g}" t.slo_p99_ms t.slo_err_pct
  in
  "{" ^ String.concat "," (ws @ [ slo ]) ^ "}"

let window_snaps t = List.map (fun (name, w) -> (name, Window.snapshot w)) t.windows
