(* The traced run's in-process half: the same request stream replayed
   one request at a time through every layer's public entry point,
   with a span around each call, so a request's time splits across
   the modules it crosses.

   Per request (one span tree, the root tagged with the request id):
   - [wire]: the round trip to the running `xqbang serve`;
   - [service.query]: {!Xqb_service.Service.query} on an in-process
     service built like serve's (2 domains, WAL with fsync=always,
     tracing on); its own queue.wait / lock.wait spans are read back
     through {!Xqb_service.Service.trace_json};
   - [protocol.parse], [plan_cache.lookup] (normalize_key + find on a
     benchmark-owned 128-entry cache), and on a miss
     [engine.compile] — the engine's own compile sub-spans (parse,
     normalize, static.check, simplify, typing) nest under it — and
     [static.footprint];
   - [engine.run] (run_readonly for parallel-safe programs, as the
     service does, else run_compiled) and [engine.serialize];
   - [algebra.exec]: {!Xqb_algebra.Runner.run}, a reference for the
     plan path that does not serve requests.

   Every in-process target replays the same requests from the same
   documents, so each reply is checked like a wire reply. The plan
   path serves no request, so its disagreements are counted apart.

   Requests alternate, two with spans and two without, so the cost of
   recording the spans shows as the difference between the two
   groups' rates under the same drift (two, because q8-join alternates
   its two texts). *)

module Trace = Xqb_obs.Trace
module Service = Xqb_service.Service
module Plan_cache = Xqb_service.Plan_cache
module Protocol = Xqb_service.Protocol
module Scheduler = Xqb_service.Scheduler
module Engine = Core.Engine
module Stats = Perfbench.Stats

type plan = { compiled : Engine.compiled; parallel : bool }

type result = {
  requests : int;
  spans : Trace.t;
  cache : Plan_cache.stats;
  queue_wait_ns : int;
  lock_wait_ns : int;
  service_ns : int array;  (** per request *)
  wire_ns : int array;  (** per request, same order *)
  apply_ns : int;
  updates : int;
  conflict_checks : int;
  serialized_bytes : int;
  algebra_errors : int;  (** requests the plan path raised on *)
  algebra_wrong : int;  (** requests it answered differently from the oracle *)
  traced_n : int;  (** requests replayed with spans *)
  traced_ns : int;  (** their total time *)
  untraced_n : int;
  untraced_ns : int;
}

let updates_of (s : Core.Update.stats) =
  s.Core.Update.inserts + s.deletes + s.renames + s.set_values

(* Sum of the durations of spans named [name] in a Chrome trace. *)
let chrome_total json name =
  match Xqb_obs.Json.parse json with
  | Error _ -> 0
  | Ok v ->
    let events =
      match Xqb_obs.Json.member "traceEvents" v with
      | Some e -> Xqb_obs.Json.to_list e
      | None -> Xqb_obs.Json.to_list v
    in
    List.fold_left
      (fun acc e ->
        match
          ( Option.bind (Xqb_obs.Json.member "name" e) Xqb_obs.Json.to_string_opt,
            Option.bind (Xqb_obs.Json.member "dur" e) Xqb_obs.Json.to_float_opt )
        with
        | Some n, Some us when n = name -> acc + int_of_float (us *. 1000.)
        | _ -> acc)
      0 events

(* Submit → await of an empty job on a fresh 2-domain scheduler: the
   domain hand-off every served request pays. Median ns. *)
let handoff_ns ~n =
  let sch = Scheduler.create ~domains:2 () in
  let a =
    Array.init n (fun _ ->
        let t0 = Wire.now_ns () in
        ignore (Scheduler.await (Scheduler.submit sch ~exclusive:false (fun () -> ())));
        float (Wire.now_ns () - t0))
  in
  Scheduler.shutdown sch;
  Stats.median a

let run (work : Work.t) (st : Wire.stats) (conn : Wire.conn) ~data_dir ~seconds
    ~max_requests =
  let tr = Trace.create ~cap:2_000_000 () in
  let fsync =
    match Xqb_wal.Wal.fsync_policy_of_string "always" with
    | Ok p -> p
    | Error e -> failwith e
  in
  let svc =
    Service.create ~domains:2 ~tracing:true
      ~durability:{ (Xqb_wal.Durable.default_config ~dir:data_dir) with fsync }
      ()
  in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) @@ fun () ->
  (* two sessions set up like the server's, so both stores start alike;
     the replay uses the first *)
  let sids =
    List.init 2 (fun _ ->
        let sid = Service.open_session svc in
        List.iter (fun (uri, xml) -> Service.load_document svc sid ~uri xml) work.Work.docs;
        Option.iter
          (fun m ->
            match Service.query svc sid m with
            | Ok _ -> ()
            | Error e -> failwith ("in-process module: " ^ e.Xqb_service.Service_error.message))
          work.Work.session_module;
        sid)
  in
  let sid = List.hd sids in
  let eng = Work.oracle_engine work.Work.docs in
  let alg = Work.oracle_engine work.Work.docs in
  Option.iter
    (fun m ->
      ignore (Engine.compile eng m);
      ignore (Engine.compile alg m))
    work.Work.session_module;
  let var_docs v = if List.mem_assoc v work.Work.docs then Some v else None in
  let cache = Plan_cache.create ~capacity:128 () in
  let ctx = Engine.context eng in
  (* bids applied to the in-process targets: they start from the
     generated documents and see only this replay *)
  let local = Array.make (Array.length work.Work.ledger.Work.base) 0 in
  let expected (req : Work.req) =
    match req.Work.kind with
    | Work.Fixed s | Work.Get_item s -> s
    | Work.Bid _ -> ""
    | Work.Bidders a -> string_of_int (work.Work.ledger.Work.base.(a) + local.(a))
    | Work.Q8 _ -> work.Work.q8_expected
  in
  let check_local what req got =
    let want = expected req in
    Wire.note_outcome st
      (if got = want then Work.Good
       else Work.Wrong (Printf.sprintf "%s: expected %S, got %S" what want got))
  in
  let service_ns = ref [] and wire_ns = ref [] in
  let queue_wait = ref 0 and lock_wait = ref 0 in
  let apply_ns = ref 0 and updates = ref 0 and checks = ref 0 in
  let bytes = ref 0 and alg_errors = ref 0 and alg_wrong = ref 0 in
  let timed = [| (0, 0); (0, 0) |] (* untraced, traced: requests, ns *) in
  let deadline = Wire.now_ns () + int_of_float (seconds *. 1e9) in
  let n = ref 0 in
  while !n < max_requests && Wire.now_ns () < deadline do
    let req = Work.next work in
    let id = work.Work.index in
    let line = Wire.query_line conn req.Work.text in
    let traced = !n / 2 mod 2 = 0 in
    (* every span of a request carries its id *)
    let span name f =
      if traced then Trace.with_span tr name ~args:[ ("req", string_of_int id) ] f else f ()
    in
    let with_tracer f = if traced then Engine.with_tracer eng (Some tr) f else f () in
    let t_req = Wire.now_ns () in
    span "request" (fun () ->
        (* the running server, over the wire *)
        let t0 = Wire.now_ns () in
        let reply =
          span "wire" (fun () ->
              let token = Work.on_send work req in
              let reply = Wire.call conn line in
              (token, reply))
        in
        wire_ns := (Wire.now_ns () - t0) :: !wire_ns;
        let token, reply = reply in
        Wire.note_outcome st (Work.check work req ~token reply);
        (* the in-process service *)
        let t0 = Wire.now_ns () in
        let r = span "service.query" (fun () -> Service.query svc sid req.Work.text) in
        service_ns := (Wire.now_ns () - t0) :: !service_ns;
        (match r with
        | Ok got -> check_local "service" req got
        | Error e ->
          Wire.note_outcome st
            (Work.Error_reply ("service: " ^ e.Xqb_service.Service_error.message)));
        (match Service.trace_json svc None with
        | Some (_, json) ->
          queue_wait := !queue_wait + chrome_total json "queue.wait";
          lock_wait := !lock_wait + chrome_total json "lock.wait"
        | None -> ());
        (* the layers one by one, on a benchmark-owned session engine *)
        ignore (span "protocol.parse" (fun () -> Protocol.parse line));
        let key, hit =
          span "plan_cache.lookup" (fun () ->
              let key = Plan_cache.normalize_key req.Work.text in
              (key, Plan_cache.find cache key))
        in
        let plan =
          match hit with
          | Some p ->
            Engine.install_functions eng p.compiled;
            p
          | None ->
            let compiled =
              span "engine.compile" (fun () ->
                  with_tracer (fun () -> Engine.compile eng req.Work.text))
            in
            ignore
              (span "static.footprint" (fun () -> Engine.footprint ~var_docs compiled));
            let p = { compiled; parallel = Engine.parallel_safe compiled } in
            Plan_cache.add cache key p;
            p
        in
        Core.Update.stats_reset ctx.Core.Context.delta_stats;
        ctx.Core.Context.apply_ns <- 0;
        (match
           span "engine.run" (fun () ->
               with_tracer (fun () ->
                   if plan.parallel then Engine.run_readonly eng plan.compiled
                   else Engine.run_compiled eng plan.compiled))
         with
        | v ->
          let out = span "engine.serialize" (fun () -> Engine.serialize eng v) in
          bytes := !bytes + String.length out;
          check_local "engine" req out
        | exception e ->
          Wire.note_outcome st (Work.Wrong ("engine: " ^ Printexc.to_string e)));
        apply_ns := !apply_ns + ctx.Core.Context.apply_ns;
        updates := !updates + updates_of ctx.Core.Context.delta_stats;
        checks := !checks + ctx.Core.Context.delta_stats.Core.Update.conflicts_checked;
        (* the algebraic plan path, for reference *)
        (match span "algebra.exec" (fun () -> Xqb_algebra.Runner.run alg req.Work.text) with
        | r ->
          if Engine.serialize alg r.Xqb_algebra.Runner.value <> expected req then incr alg_wrong
        | exception _ -> incr alg_errors);
        (match req.Work.kind with Work.Bid a -> local.(a) <- local.(a) + 1 | _ -> ()));
    let g = Bool.to_int traced in
    let k, ns = timed.(g) in
    timed.(g) <- (k + 1, ns + (Wire.now_ns () - t_req));
    incr n
  done;
  {
    requests = !n;
    spans = tr;
    cache = Plan_cache.stats cache;
    queue_wait_ns = !queue_wait;
    lock_wait_ns = !lock_wait;
    service_ns = Array.of_list (List.rev !service_ns);
    wire_ns = Array.of_list (List.rev !wire_ns);
    apply_ns = !apply_ns;
    updates = !updates;
    conflict_checks = !checks;
    serialized_bytes = !bytes;
    algebra_errors = !alg_errors;
    algebra_wrong = !alg_wrong;
    traced_n = fst timed.(1);
    traced_ns = snd timed.(1);
    untraced_n = fst timed.(0);
    untraced_ns = snd timed.(0);
  }

(* Total duration (µs) and count of the spans named [name]. *)
let span_stats (r : result) name =
  let total, count =
    List.fold_left
      (fun (t, c) (s : Trace.span) ->
        if s.Trace.name = name && s.Trace.dur_ns >= 0 then (t + s.Trace.dur_ns, c + 1)
        else (t, c))
      (0, 0) (Trace.spans r.spans)
  in
  (float total /. 1e3, count)

let mean_us r name =
  let total, count = span_stats r name in
  Stats.ratio total (float count)

let total_us r name = fst (span_stats r name)
