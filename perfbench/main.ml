(* The repository benchmark. Run from the repository root:

     bash perfbench/run.sh --workload point-lookup --seed 1 --seconds 10 --trace 0

   builds `xqbang` and this program, starts `xqbang serve` as a child,
   drives it over TCP with two closed-loop sessions, checks every
   reply, restarts the server from its data directory and reads every
   acknowledged write back. --trace 0 reports the end-to-end metrics,
   --trace 1 the per-layer ones. The last line of standard output is
   one JSON object; see README.md for every metric. *)

module Stats = Perfbench.Stats
module Json = Xqb_obs.Json

let bin = "_build/default/bin/xqbang.exe"
let warmup_s = 1.0

let usage () =
  Printf.eprintf "usage: main.exe --workload %s --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map fst Work.names));
  exit 2

let args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := List.assoc_opt v Work.names;
      if !workload = None then usage ();
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs > 0. -> (w, s, secs, t)
  | _ -> usage ()

(* -- files: everything under .perfbench/ in the working directory -------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Run [f k] for k = 0, 1, ... at least [min] times, then on while
   fewer than [max] runs have taken under [budget_s] seconds; the
   results in order. setup_s and recovery_s are medians of such
   repeats, so a cheap step is sampled many times and a slow one at
   least [min] times. *)
let repeat ~min ~max ~budget_s f =
  let t0 = Wire.now_ns () in
  let rec go k acc =
    let acc = f k :: acc in
    let k = k + 1 in
    if k < min || (k < max && Wire.secs_since t0 < budget_s) then go k acc
    else Array.of_list (List.rev acc)
  in
  go 0 []

(* -- set-up --------------------------------------------------------------------- *)

type live = { srv : Wire.server; conns : Wire.conn list; data_dir : string }

(* From exec to ready: the server listens, both sessions are open,
   the documents are LOADed in each, the §2 module is declared in
   each. *)
let set_up (work : Work.t) ~dir ~k =
  let data_dir = Filename.concat dir (Printf.sprintf "data-%d" k) in
  let t0 = Wire.now_ns () in
  let srv =
    Wire.start ~bin ~data_dir ~log:(Filename.concat dir (Printf.sprintf "server-%d.log" k))
  in
  let conns = [ Wire.connect srv.Wire.port; Wire.connect srv.Wire.port ] in
  List.iter
    (fun c ->
      Wire.open_session c;
      List.iter
        (fun (uri, _) ->
          Wire.expect_ok ("LOAD " ^ uri)
            (Wire.call c
               (Printf.sprintf "LOAD %d %s %s" c.Wire.sid uri
                  (Filename.concat dir (uri ^ ".xml")))))
        work.Work.docs;
      Option.iter
        (fun m -> Wire.expect_ok "module" (Wire.call c (Wire.query_line c m)))
        work.Work.session_module)
    conns;
  (Wire.secs_since t0, { srv; conns; data_dir })

let shut_down l =
  List.iter Wire.close l.conns;
  Wire.stop l.srv

(* -- restart and read back ---------------------------------------------------------- *)

type recovery = {
  recovery_s : float option;  (** None: a restart did not come up *)
  lost : int;
  notes : string list;
  consistent : bool;
}

(* Restart from the run's data directory, [repeat]ed up to [max]
   times; the first restart also reads every acknowledged write back.
   A restart that does not come up ends the repeats and makes the run
   incorrect, and no time is reported for it: the time until a server
   gave up is not a recovery. If it was the first, every acknowledged
   write is lost. *)
let recover (work : Work.t) ~dir ~data_dir ~max =
  let lost = ref 0 and notes = ref [] and consistent = ref true in
  let read_back = ref false in
  let restart k =
    let t0 = Wire.now_ns () in
    let srv =
      Wire.start ~bin ~data_dir ~log:(Filename.concat dir (Printf.sprintf "restart-%d.log" k))
    in
    let c = Wire.connect srv.Wire.port in
    Fun.protect ~finally:(fun () ->
        Wire.close c;
        Wire.stop srv)
    @@ fun () ->
    Wire.open_session c;
    Wire.expect_ok "first query" (Wire.call c (Wire.query_line c "1"));
    let dt = Wire.secs_since t0 in
    if k = 0 then begin
      List.iter
        (fun (p : Work.probe) ->
          match Work.payload (Wire.call c (Wire.query_line c p.Work.query)) with
          | Some got ->
            let missing, note, ok = p.Work.lost got in
            lost := !lost + missing;
            notes := note :: !notes;
            if not ok then consistent := false
          | None ->
            consistent := false;
            notes := ("read-back failed: " ^ p.Work.query) :: !notes)
        (Work.durability_probes work);
      read_back := true
    end;
    dt
  in
  let recovery_s =
    match repeat ~min:(min 5 max) ~max ~budget_s:3. restart with
    | times -> Some (Stats.median times)
    | exception ((Failure _ | Unix.Unix_error _) as e) ->
      let why = match e with Failure why -> why | e -> Printexc.to_string e in
      consistent := false;
      if not !read_back then lost := Work.acked_writes work;
      notes :=
        Printf.sprintf "a restart did not come up%s: %s"
          (if !read_back then "" else Printf.sprintf ", all %d acknowledged writes lost" !lost)
          why
        :: !notes;
      None
  in
  { recovery_s; lost = !lost; notes = List.rev !notes; consistent = !consistent }

(* -- reporting ------------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let print_report ~work ~seed ~trace (st : Wire.stats) ~extra metrics =
  Printf.printf "workload %s  seed %d  trace %d\n" (Work.to_string work.Work.name) seed
    (if trace then 1 else 0);
  List.iter (fun l -> Printf.printf "  %s\n" l) extra;
  List.iter (fun w -> Printf.printf "  rejected reply: %s\n" w) (List.rev st.Wire.wrong);
  List.iter
    (fun (e, n) -> Printf.printf "  %d x %s\n" n e)
    (List.sort (fun (_, a) (_, b) -> compare b a) st.Wire.errors);
  List.iter (fun x -> Printf.printf "  %-28s %14.4f %s\n" x.name x.value x.unit_) metrics;
  let t = st.Wire.tally in
  let json_metrics =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (st.Wire.wrong_n = 0) t.Stats.attempted t.Stats.failed
    (String.concat ", " json_metrics)

let slice_line slices =
  "req/s (host steal s) per slice: "
  ^ String.concat " "
      (Array.to_list
         (Array.map (fun x -> Printf.sprintf "%.0f(%.2f)" (Stats.rate [| x |]) x.Stats.steal_s) slices))

(* -- STATS / JOURNAL STAT of the running server ------------------------------------------- *)

let server_json c line =
  match Work.payload (Wire.call c line) with
  | Some s -> Json.parse_exn s
  | None -> failwith (line ^ " failed")

let num j path =
  match Json.path j path with
  | Some v -> Option.value (Json.to_float_opt v) ~default:0.
  | None -> 0.

type server_snapshot = { stats : Json.v; journal : Json.v }

let snapshot c = { stats = server_json c "STATS"; journal = server_json c "JOURNAL STAT" }

(* -- the two run kinds ---------------------------------------------------------------------- *)

(* A percentile of the timed window's latencies, in µs. A window too
   short to hold [Stats.min_beyond] samples beyond it fails the run:
   no figure is better than a tail read from a handful of replies. *)
let percentile_us ~pct lat =
  let n = Array.length lat in
  if not (Stats.reportable ~pct n) then
    failwith
      (Printf.sprintf
         "%d latency samples in the timed window: p%d needs at least %d beyond it; \
          run longer"
         n pct Stats.min_beyond);
  float (Stats.percentile ~pct lat) /. 1e3

let end_to_end (work : Work.t) ~dir ~seconds =
  let st = Wire.stats () in
  let earlier =
    repeat ~min:5 ~max:20 ~budget_s:2.5 (fun k ->
        let dt, l = set_up work ~dir ~k in
        shut_down l;
        rm_rf l.data_dir;
        dt)
  in
  let last, l = set_up work ~dir ~k:(Array.length earlier) in
  let setup_times = Array.append earlier [| last |] in
  let pid = l.srv.Wire.pid in
  Wire.closed_loop work st l.conns ~seconds:warmup_s;
  let w = Wire.window ~pid in
  Wire.closed_loop ~w ~at_least:(Stats.samples_needed ~pct:99) work st l.conns ~seconds;
  let rss = Wire.hwm_mb pid in
  shut_down l;
  let r = recover work ~dir ~data_dir:l.data_dir ~max:20 in
  let lost = Stats.lose st.Wire.tally r.lost in
  if not r.consistent then st.Wire.wrong_n <- st.Wire.wrong_n + 1;
  let slices = Wire.slices w in
  let lat = Stats.pooled slices in
  let sum f = Array.fold_left (fun acc x -> acc +. f x) 0. slices in
  let extra =
    [
      Printf.sprintf "timed window %.2fs, %d requests answered and accepted" (sum (fun x -> x.Stats.dur_s))
        w.Wire.n;
      Printf.sprintf "%d one-second slices; server CPU %.2fs; host steal %.2fs"
        (Array.length slices) (sum (fun x -> x.Stats.cpu_s)) (sum (fun x -> x.Stats.steal_s));
      slice_line slices;
      Printf.sprintf "%d latency samples, %d beyond p99" (Array.length lat)
        (Stats.beyond ~pct:99 (Array.length lat));
      Printf.sprintf "failed_ratio %.6f (%d of %d attempted; %d acknowledged writes lost)"
        (Stats.failed_ratio st.Wire.tally) st.Wire.tally.Stats.failed
        st.Wire.tally.Stats.attempted lost;
    ]
    @ r.notes
  in
  ( st,
    extra,
    [
      m "throughput_rps" "req/s" (Stats.rate slices);
      m "p50_us" "us" (percentile_us ~pct:50 lat);
      m "p99_us" "us" (percentile_us ~pct:99 lat);
      m "ok_ratio" "ratio" (Stats.ok_ratio st.Wire.tally);
      m "setup_s" "s" (Stats.median setup_times);
    ]
    (* no recovery time when a restart did not come up; the run is
       then incorrect *)
    @ Option.to_list (Option.map (m "recovery_s" "s") r.recovery_s)
    @ [
        m "rss_mb" "MB" rss;
        m "cpu_us_per_req" "us" (Stats.cpu_per_reply slices *. 1e6);
      ] )

let per_layer (work : Work.t) ~dir ~seconds =
  let st = Wire.stats () in
  let _, l = set_up work ~dir ~k:0 in
  let c = List.hd l.conns in
  (* the in-process replay first, while the server and the in-process
     service hold the same documents and see the same writes, so the
     wire and service times of a request compare like with like *)
  let r =
    Traced.run work st c ~data_dir:(Filename.concat dir "inproc") ~seconds
      ~max_requests:5000
  in
  let handoff = Traced.handoff_ns ~n:2000 in
  (* then the wire closed loop, for the server's own counters *)
  Wire.closed_loop work st l.conns ~seconds:warmup_s;
  let before = snapshot c in
  let writes0 = Work.acked_writes work in
  let w = Wire.window ~pid:l.srv.Wire.pid in
  Wire.closed_loop ~w work st l.conns ~seconds;
  let after = snapshot c in
  let writes = float (Work.acked_writes work - writes0) in
  let answered = float w.Wire.n in
  let delta path = num after.stats path -. num before.stats path in
  shut_down l;
  let rec_ = recover work ~dir ~data_dir:l.data_dir ~max:1 in
  ignore (Stats.lose st.Wire.tally rec_.lost);
  if not rec_.consistent then st.Wire.wrong_n <- st.Wire.wrong_n + 1;
  (* spans stay in memory until here *)
  let spans_file = Filename.concat ".perfbench" ("spans-" ^ Work.to_string work.Work.name ^ ".json") in
  write_file spans_file (Xqb_obs.Trace.to_chrome_json r.Traced.spans);
  let n = float r.Traced.requests in
  let service_us = float (Array.fold_left ( + ) 0 r.Traced.service_ns) /. 1e3 in
  let overhead =
    Array.mapi (fun i w -> float (w - r.Traced.service_ns.(i)) /. 1e3) r.Traced.wire_ns
  in
  let cs = r.Traced.cache in
  let lookups = float (cs.Xqb_service.Plan_cache.hits + cs.misses) in
  let mean = Traced.mean_us r and total = Traced.total_us r in
  let traced_rps = Stats.ratio (float r.Traced.traced_n) (float r.Traced.traced_ns /. 1e9) in
  let untraced_rps =
    Stats.ratio (float r.Traced.untraced_n) (float r.Traced.untraced_ns /. 1e9)
  in
  let fsyncs = delta [ "durability"; "fsyncs" ] in
  let extra =
    [
      Printf.sprintf
        "in-process replay: %d requests (%d with spans), each checked on wire, service and \
         engine"
        r.Traced.requests r.Traced.traced_n;
      "wire closed loop after it: " ^ slice_line (Wire.slices w);
      Printf.sprintf "spans: %s" spans_file;
      Printf.sprintf "algebra: the plan path raised on %d requests and answered %d differently"
        r.Traced.algebra_errors r.Traced.algebra_wrong;
    ]
    @ rec_.notes
  in
  let nodes_end = num after.journal [ "nodes" ] in
  ( st,
    extra,
    [
      m "edge.wire_overhead_us" "us" (if overhead = [||] then 0. else Stats.median overhead);
      m "edge.requests_per_batch" "req/batch"
        (Stats.ratio (delta [ "edge"; "requests" ]) (delta [ "edge"; "batches" ]));
      m "protocol.parse_us" "us" (mean "protocol.parse");
      m "plan_cache.hit_ratio" "ratio" (Stats.ratio (float cs.hits) lookups);
      m "plan_cache.hits" "count" (float cs.hits);
      m "plan_cache.lookups" "count" lookups;
      m "plan_cache.lookup_us" "us" (mean "plan_cache.lookup");
      m "compile.us_per_miss" "us" (mean "engine.compile");
      m "compile.parse_us" "us" (mean "parse");
      m "compile.normalize_us" "us" (mean "normalize");
      m "compile.static_us" "us" (mean "static.check");
      m "compile.simplify_us" "us" (mean "simplify");
      m "compile.typing_us" "us" (mean "typing");
      (* shares over the requests that carry spans *)
      m "compile.share" "ratio" (Stats.ratio (total "engine.compile") (total "service.query"));
      m "static.footprint_us" "us" (mean "static.footprint");
      m "scheduler.handoff_us" "us" (handoff /. 1e3);
      m "scheduler.queue_wait_us" "us" (Stats.ratio (float r.Traced.queue_wait_ns /. 1e3) n);
      m "scheduler.lock_wait_us" "us" (Stats.ratio (float r.Traced.lock_wait_ns /. 1e3) n);
      m "service.query_us" "us" (Stats.ratio service_us n);
      m "eval.us" "us" (mean "engine.run");
      m "eval.share" "ratio" (Stats.ratio (total "engine.run") (total "service.query"));
      m "algebra.exec_us" "us" (mean "algebra.exec");
      m "apply.us" "us" (Stats.ratio (float r.Traced.apply_ns /. 1e3) n);
      m "apply.updates_per_req" "count" (Stats.ratio (float r.Traced.updates) n);
      m "apply.conflict_checks_per_req" "count" (Stats.ratio (float r.Traced.conflict_checks) n);
      m "serialize.us" "us" (mean "engine.serialize");
      m "serialize.bytes_per_req" "B" (Stats.ratio (float r.Traced.serialized_bytes) n);
      m "wal.fsync_p50_us" "us" (num after.stats [ "durability"; "fsync_ns"; "p50" ] /. 1e3);
      m "wal.fsyncs" "count" fsyncs;
      m "wal.commits" "count" writes;
      m "wal.fsyncs_per_commit" "ratio" (Stats.ratio fsyncs writes);
      m "wal.bytes_per_write" "B"
        (Stats.ratio (delta [ "durability"; "wal_bytes_appended" ]) writes);
      m "wal.frames_per_write" "count"
        (Stats.ratio (delta [ "durability"; "wal_frames_appended" ]) writes);
      m "wal.checkpoints" "count" (delta [ "durability"; "checkpoints" ]);
      m "store.nodes_end" "count" nodes_end;
      m "store.nodes_per_req" "count"
        (Stats.ratio (nodes_end -. num before.journal [ "nodes" ]) answered);
      m "gc.minor_words_per_req" "words"
        (Stats.ratio (delta [ "gc"; "allocated_words" ]) answered);
      m "gc.major_slices" "count" (delta [ "gc"; "major_slices" ]);
      m "gc.pause_p99_us" "us" (num after.stats [ "gc"; "pause_p99_10s_ns" ] /. 1e3);
      m "trace.rps_untraced" "req/s" untraced_rps;
      m "trace.rps_traced" "req/s" traced_rps;
      m "trace.overhead_ratio" "ratio" (Stats.ratio (untraced_rps -. traced_rps) untraced_rps);
    ] )

let () =
  let name, seed, seconds, trace = args () in
  if not (Sys.file_exists bin) then begin
    prerr_endline ("missing " ^ bin ^ ": run from the repository root via perfbench/run.sh");
    exit 2
  end;
  let dir = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p dir;
  at_exit (fun () ->
      Wire.stop_all ();
      rm_rf dir);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a run stopped from outside still stops its servers (at_exit) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  match
    let work = Work.make name ~seed in
    List.iter
      (fun (uri, xml) -> write_file (Filename.concat dir (uri ^ ".xml")) xml)
      work.Work.docs;
    let st, extra, metrics =
      if trace then per_layer work ~dir ~seconds
      else end_to_end work ~dir ~seconds
    in
    assert (Stats.balanced st.Wire.tally);
    print_report ~work ~seed ~trace st ~extra metrics
  with
  | () -> ()
  | exception e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    Printexc.print_backtrace stderr;
    exit 1
