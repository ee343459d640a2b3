(* Benchmark harness: one section per experiment in DESIGN.md /
   EXPERIMENTS.md (E1-E7). Run all with

     dune exec bench/main.exe

   or a subset with e.g. `dune exec bench/main.exe -- e1 e2`.

   The numbers regenerate the *shape* of the paper's claims (who wins,
   by what complexity class); absolute times are this machine's. *)

open Bench_util
module G = Xqb_xmark.Generator

(* ------------------------------------------------------------------ *)
(* E1 — §4.3: naive nested-loop vs outer-join/group-by on the XMark   *)
(* Q8 variant with embedded inserts.                                   *)
(* ------------------------------------------------------------------ *)

let e1 () =
  print_header
    "E1 (§4.3): XMark Q8 + inserts — naive O(|p|*|ca|) vs join/group-by O(|p|+|ca|+|m|)";
  let scales = [ (25, 50); (50, 100); (100, 200); (200, 400); (400, 800) ] in
  let rows =
    List.map
      (fun (persons, closed) ->
        let naive_ms =
          wall_ms_median3 (fun () ->
              let eng = Workloads.engine ~persons ~closed () in
              ignore (Core.Engine.run eng Workloads.q8_with_inserts))
        in
        let opt = ref None in
        let opt_ms =
          wall_ms_median3 (fun () ->
              let eng = Workloads.engine ~persons ~closed () in
              opt := Some (Xqb_algebra.Runner.run eng Workloads.q8_with_inserts))
        in
        let r = Option.get !opt in
        [
          string_of_int persons;
          string_of_int closed;
          string_of_int r.Xqb_algebra.Runner.stats.Xqb_algebra.Exec.matches;
          f1 naive_ms;
          f1 opt_ms;
          f1 (naive_ms /. opt_ms) ^ "x";
          String.concat "," r.Xqb_algebra.Runner.fired;
        ])
      scales
  in
  print_table
    [ "persons"; "closed"; "matches"; "naive ms"; "opt ms"; "speedup"; "rewrites" ]
    rows;
  (* Shape check: from (100,200) to (400,800) naive should grow ~16x
     (quadratic in scale), the optimized plan ~4x (linear). *)
  let get r c = float_of_string (List.nth (List.nth rows r) c) in
  Printf.printf
    "growth from (100,200) to (400,800): naive %.1fx (quadratic ~16x), optimized %.1fx (linear ~4x)\n"
    (get 4 3 /. get 2 3)
    (get 4 4 /. get 2 4)

(* ------------------------------------------------------------------ *)
(* E2 — §3.2/§4.1: the three update-application semantics; conflict   *)
(* verification is linear time with hash tables.                       *)
(* ------------------------------------------------------------------ *)

let e2 () =
  print_header
    "E2 (§3.2): update-list application — ordered vs nondeterministic vs conflict-detection";
  let sizes = [ 100; 1000; 10000 ] in
  let build n =
    let store = Xqb_store.Store.create () in
    let doc = Xqb_store.Store.load_string store "<r/>" in
    let r = List.hd (Xqb_store.Store.children store doc) in
    (* n parents, one insert each: independent => conflict-free *)
    let parents =
      List.init n (fun i ->
          let p =
            Xqb_store.Store.make_element store
              (Xqb_xml.Qname.make (Printf.sprintf "p%d" i))
          in
          Xqb_store.Store.insert store ~parent:r ~position:Xqb_store.Store.Last [ p ];
          p)
    in
    let delta =
      List.map
        (fun p ->
          Core.Update.make
            (Core.Update.Insert
               {
                 nodes =
                   [ Xqb_store.Store.make_element store (Xqb_xml.Qname.make "c") ];
                 parent = p;
                 position = Core.Update.Last;
               }))
        parents
    in
    (store, delta)
  in
  let time_mode n mode =
    let times =
      List.init 3 (fun _ ->
          let store, delta = build n in
          snd (wall_ms (fun () -> Core.Apply.apply store mode delta)))
    in
    List.nth (List.sort compare times) 1
  in
  let check_only n =
    let _, delta = build n in
    measure_ns "conflict-check" (fun () -> Core.Conflict.check delta) /. 1e6
  in
  let rows =
    List.map
      (fun n ->
        let o = time_mode n Core.Apply.Ordered in
        let nd = time_mode n Core.Apply.Nondeterministic in
        let cd = time_mode n Core.Apply.Conflict_detection in
        let chk = check_only n in
        [
          string_of_int n;
          f2 o;
          f2 nd;
          f2 cd;
          f2 chk;
          f2 (1e6 *. chk /. float_of_int n) ^ " ns/req";
        ])
      sizes
  in
  print_table
    [ "requests"; "ordered ms"; "nondet ms"; "conflict ms"; "check ms"; "check cost" ]
    rows;
  print_endline
    "(check cost per request should be ~constant: the verification is linear, §4.1)"

(* ------------------------------------------------------------------ *)
(* E3 — §2.2-2.3: Web-service logging overhead.                        *)
(* ------------------------------------------------------------------ *)

let e3 () =
  print_header "E3 (§2.2-2.3): get_item with and without logging";
  let calls = 200 in
  let bench_fn fn =
    let eng = Workloads.web_service_engine () in
    let compiled =
      Array.init 10 (fun i ->
          Core.Engine.compile eng
            (Printf.sprintf "count(%s('item%d','person%d'))" fn i (i * 3)))
    in
    wall_ms_median3 (fun () ->
        for i = 1 to calls do
          ignore (Core.Engine.run_compiled eng compiled.(i mod 10))
        done)
  in
  let no_log = bench_fn "get_item_nolog" in
  let with_log = bench_fn "get_item" in
  let with_archive =
    (* tiny maxlog forces an archive every 2 calls *)
    let eng = Workloads.web_service_engine ~maxlog:2 () in
    let compiled =
      Array.init 10 (fun i ->
          Core.Engine.compile eng
            (Printf.sprintf "count(get_item('item%d','person%d'))" i (i * 3)))
    in
    wall_ms_median3 (fun () ->
        for i = 1 to calls do
          ignore (Core.Engine.run_compiled eng compiled.(i mod 10))
        done)
  in
  print_table
    [ "variant"; "ms/200 calls"; "us/call"; "overhead" ]
    [
      [ "no logging"; f1 no_log; f1 (no_log *. 1000. /. float_of_int calls); "1.00x" ];
      [
        "logging (snap insert + nextid)";
        f1 with_log;
        f1 (with_log *. 1000. /. float_of_int calls);
        f2 (with_log /. no_log) ^ "x";
      ];
      [
        "logging + archive every 2";
        f1 with_archive;
        f1 (with_archive *. 1000. /. float_of_int calls);
        f2 (with_archive /. no_log) ^ "x";
      ];
    ]

(* ------------------------------------------------------------------ *)
(* E4 — §2.5: nested snap cost.                                        *)
(* ------------------------------------------------------------------ *)

let e4 () =
  print_header "E4 (§2.5): snap nesting — cost per snap scope vs depth";
  let nested_query depth =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "let $x := <x/> return ";
    for _ = 1 to depth do
      Buffer.add_string buf "snap { insert {<a/>} into {$x}, "
    done;
    Buffer.add_string buf "0";
    for _ = 1 to depth do
      Buffer.add_string buf " }"
    done;
    Buffer.contents buf
  in
  let rows =
    List.map
      (fun depth ->
        let eng = Core.Engine.create () in
        let compiled = Core.Engine.compile eng (nested_query depth) in
        let ns =
          measure_ns
            (Printf.sprintf "snap-depth-%d" depth)
            (fun () -> ignore (Core.Engine.run_compiled eng compiled))
        in
        [ string_of_int depth; ns_to_string ns; ns_to_string (ns /. float_of_int depth) ])
      [ 1; 2; 4; 8; 16; 32; 64 ]
  in
  print_table [ "depth"; "time/query"; "time/snap" ] rows;
  print_endline "(time per snap should stay ~flat: a frame is O(1), §4.1)"

(* ------------------------------------------------------------------ *)
(* E5 — §3.4: the golden ordering example (semantic check).            *)
(* ------------------------------------------------------------------ *)

let e5 () =
  print_header "E5 (§3.4): snap ordering golden check";
  let eng = Core.Engine.create () in
  let v =
    Core.Engine.run eng
      {|let $x := <x/>
        return (snap ordered { insert {<a/>} into {$x},
                               snap { insert {<b/>} into {$x} },
                               insert {<c/>} into {$x} }, $x)|}
  in
  let got = Core.Engine.serialize eng v in
  Printf.printf "result: %s — %s\n" got
    (if got = "<x><b></b><a></a><c></c></x>" then "matches the paper (b, a, c)"
     else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* E6 — §4.1/§3.1: store micro-operations and detach semantics.        *)
(* ------------------------------------------------------------------ *)

let e6 () =
  print_header "E6 (§4.1): store micro-operations";
  let module S = Xqb_store.Store in
  let store = S.create () in
  let doc = G.generate store { G.default with G.persons = 200 } in
  let site = List.hd (S.children store doc) in
  let people = List.nth (S.children store site) 2 in
  let persons = Array.of_list (S.children store people) in
  let i = ref 0 in
  let rows =
    [
      ( "make_element",
        measure_ns "make_element" (fun () ->
            ignore (S.make_element store (Xqb_xml.Qname.make "e"))) );
      ( "insert as last + detach",
        measure_ns "insert-detach" (fun () ->
            let e = S.make_element store (Xqb_xml.Qname.make "e") in
            S.insert store ~parent:people ~position:S.Last [ e ];
            S.detach store e) );
      ( "rename",
        measure_ns "rename" (fun () ->
            incr i;
            S.rename store persons.(!i mod Array.length persons)
              (Xqb_xml.Qname.make "person")) );
      ( "deep_copy person subtree",
        measure_ns "deep-copy" (fun () ->
            incr i;
            ignore (S.deep_copy store persons.(!i mod Array.length persons))) );
      ( "compare_order (siblings)",
        measure_ns "cmp-order" (fun () ->
            incr i;
            ignore
              (S.compare_order store
                 persons.(!i mod Array.length persons)
                 persons.((!i + 7) mod Array.length persons))) );
      ( "string_value person",
        measure_ns "string-value" (fun () ->
            incr i;
            ignore (S.string_value store persons.(!i mod Array.length persons))) );
    ]
  in
  print_table [ "operation"; "time" ]
    (List.map (fun (n, ns) -> [ n; ns_to_string ns ]) rows);
  let p = persons.(0) in
  S.detach store p;
  let sv = S.string_value store p in
  Printf.printf
    "detached person still queryable: %b (string length %d); detached roots now: %d\n"
    (String.length sv > 0) (String.length sv) (S.detached_count store)

(* ------------------------------------------------------------------ *)
(* E7 — §4.2-4.3: how often rewrites fire, and what the guards block.  *)
(* ------------------------------------------------------------------ *)

let e7 () =
  print_header "E7 (§4.2-4.3): rewrite guards over a query corpus";
  let corpus =
    [
      ( "pure join",
        {|for $p in $auction//person
          for $t in $auction//closed_auction
          where $t/buyer/@person = $p/@id return 1|} );
      ( "join, updating return",
        {|for $p in $auction//person
          for $t in $auction//closed_auction
          where $t/buyer/@person = $p/@id
          return insert {<l/>} into {$purchasers}|} );
      ("group-by (paper Q8)", Workloads.q8_with_inserts);
      ( "updating inner branch",
        {|for $p in $auction//person
          for $t in (insert {<l/>} into {$purchasers}, $auction//closed_auction)
          where $t/buyer/@person = $p/@id return 1|} );
      ( "snap in return",
        {|for $p in $auction//person
          for $t in $auction//closed_auction
          where $t/buyer/@person = $p/@id
          return snap insert {<l/>} into {$purchasers}|} );
      ( "no join pattern",
        {|for $p in $auction//person
          where starts-with($p/name, 'A') return string($p/name)|} );
    ]
  in
  let rows =
    List.map
      (fun (name, src) ->
        let eng = Workloads.engine ~persons:10 ~closed:10 () in
        let _, cres = Xqb_algebra.Runner.plan_of eng src in
        [
          name;
          (match cres.Xqb_algebra.Compile.fired with
          | [] -> "-"
          | fs -> String.concat "," fs);
          (match cres.Xqb_algebra.Compile.rejected with
          | [] -> "-"
          | rs -> String.concat "; " (List.map (fun (r, w) -> r ^ ": " ^ w) rs));
        ])
      corpus
  in
  print_table [ "query"; "rewrites fired"; "guard rejections" ] rows

(* ------------------------------------------------------------------ *)
(* E8 — compilation pipeline cost (parse -> normalize -> plan) vs      *)
(* query size. §4.2: "changes to the parser and normalization are      *)
(* trivial"; the pipeline should stay cheap and scale linearly.        *)
(* ------------------------------------------------------------------ *)

let e8 () =
  print_header "E8: compilation pipeline — parse/normalize/plan vs query size";
  let query_of_size n =
    (* a FLWOR chain with n let-clauses over constructed elements and
       one update, representative of module-sized programs *)
    let buf = Buffer.create (n * 64) in
    Buffer.add_string buf "let $x0 := <x id=\"0\">seed</x> return (";
    for i = 1 to n do
      Buffer.add_string buf
        (Printf.sprintf
           "let $x%d := <x id=\"{%d}\">{$x%d}</x> return (insert {<l/>} into {$x%d}, "
           i i (i - 1) i)
    done;
    Buffer.add_string buf "0";
    for _ = 1 to n do
      Buffer.add_string buf ")"
    done;
    Buffer.add_char buf ')';
    Buffer.contents buf
  in
  let rows =
    List.map
      (fun n ->
        let src = query_of_size n in
        let parse_ns =
          measure_ns (Printf.sprintf "parse-%d" n) (fun () ->
              ignore (Xqb_syntax.Parser.parse_prog src))
        in
        let full_ns =
          measure_ns (Printf.sprintf "compile-%d" n) (fun () ->
              let eng = Core.Engine.create () in
              ignore (Xqb_algebra.Runner.plan_of eng src))
        in
        [
          string_of_int n;
          string_of_int (String.length src);
          ns_to_string parse_ns;
          ns_to_string full_ns;
          ns_to_string (full_ns /. float_of_int n);
        ])
      [ 8; 32; 128; 512 ]
  in
  print_table
    [ "clauses"; "bytes"; "parse"; "parse+normalize+plan"; "per clause" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9 — snapshot granularity ablation. §2.4: "make snap scope as      *)
(* broad as possible, since a broader snap favors optimization"; this  *)
(* measures the runtime side of that advice.                           *)
(* ------------------------------------------------------------------ *)

let e9 () =
  print_header "E9: snapshot granularity — one broad snap vs snap-per-update";
  let n = 400 in
  let broad =
    Printf.sprintf
      "let $x := <x/> return snap { for $i in 1 to %d return insert {element n {$i}} into {$x} }"
      n
  in
  let per_update =
    Printf.sprintf
      "let $x := <x/> return for $i in 1 to %d return snap insert {element n {$i}} into {$x}"
      n
  in
  (* interleave the two strategies and take medians of five, so GC
     state from earlier experiments cannot bias one side *)
  let run src =
    let eng = Core.Engine.create () in
    let compiled = Core.Engine.compile eng src in
    snd (wall_ms (fun () -> ignore (Core.Engine.run_compiled eng compiled)))
  in
  ignore (run broad);
  ignore (run per_update);
  let pairs =
    List.init 7 (fun _ ->
        Gc.full_major ();
        let b = run broad in
        Gc.full_major ();
        let p = run per_update in
        (b, p))
  in
  let med l = List.nth (List.sort compare l) 3 in
  let tb = med (List.map fst pairs) and tp = med (List.map snd pairs) in
  print_table
    [ "strategy"; Printf.sprintf "ms/%d inserts" n; "relative" ]
    [
      [ "one broad snap (snapshot semantics)"; f2 tb; "1.00x" ];
      [ "snap per update (immediate)"; f2 tp; f2 (tp /. tb) ^ "x" ];
    ];
  print_endline
    "(apply cost is comparable at this scale once GC noise is controlled; the paper's\n\
     broaden-the-snap advice is about optimizability — a per-update snap makes the\n\
     block Effecting and disables every rewrite, see E7/E11)"

(* ------------------------------------------------------------------ *)
(* E10 — ddo ablation: the sortedness fast path on path results.      *)
(* ------------------------------------------------------------------ *)

let e10 () =
  print_header "E10: distinct-doc-order — sorted fast path vs full sort";
  let module S = Xqb_store.Store in
  let store = S.create () in
  let doc = G.generate store { G.default with G.persons = 400 } in
  let site = List.hd (S.children store doc) in
  let people = List.nth (S.children store site) 2 in
  let persons = Array.of_list (S.children store people) in
  let sorted = Array.to_list persons in
  let shuffled =
    let a = Array.copy persons in
    let r = Random.State.make [| 7 |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int r (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let ctx = Core.Context.create ~store () in
  let time name ids =
    measure_ns name (fun () ->
        ignore (Core.Functions.call ctx None "%ddo" [ Xqb_xdm.Value.of_nodes ids ]))
  in
  let t_sorted = time "ddo-sorted" sorted in
  let t_shuffled = time "ddo-shuffled" shuffled in
  print_table
    [ "input (400 nodes)"; "time"; "per node" ]
    [
      [ "already in document order"; ns_to_string t_sorted;
        ns_to_string (t_sorted /. 400.) ];
      [ "shuffled"; ns_to_string t_shuffled; ns_to_string (t_shuffled /. 400.) ];
    ];
  Printf.printf
    "fast path saves %.1fx on the common already-sorted case (every child step over sorted context)\n"
    (t_shuffled /. t_sorted)

(* ------------------------------------------------------------------ *)
(* E11 — the §4.2 rewriting phase: what fires on a realistic corpus    *)
(* and what it buys at runtime.                                        *)
(* ------------------------------------------------------------------ *)

let e11 () =
  print_header "E11 (§4.2): purity-guarded simplifier — rules fired and runtime effect";
  let corpus =
    [
      ("constant folding", "for $i in 1 to 2000 return (1 + 2 * 3) * $i");
      ("dead bindings", "for $i in 1 to 2000 let $unused := (1 to 5) return $i");
      ("boolean predicates", "(1 to 2000)[true()][true()]");
      ("branch folding", "for $i in 1 to 2000 return if (true()) then $i else error()");
      ( "paper Q8 (no constants to fold)",
        Workloads.q8_pure );
    ]
  in
  let rows =
    List.map
      (fun (name, src) ->
        let eng = Core.Engine.create () in
        Core.Engine.bind_node eng "auction"
          (Xqb_store.Store.load_string (Core.Engine.store eng) "<site/>");
        let c_on = Core.Engine.compile ~simplify:true eng src in
        let fired =
          List.fold_left (fun acc (_, n) -> acc + n) 0 c_on.Core.Engine.rewrites
        in
        let time simplify =
          let eng = Core.Engine.create () in
          Core.Engine.bind_node eng "auction"
            (Xqb_store.Store.load_string (Core.Engine.store eng) "<site/>");
          let c = Core.Engine.compile ~simplify eng src in
          measure_ns name (fun () -> ignore (Core.Engine.run_compiled eng c)) /. 1e6
        in
        let t_on = time true and t_off = time false in
        [
          name;
          string_of_int fired;
          (if c_on.Core.Engine.rewrites = [] then "-"
           else
             String.concat ","
               (List.map (fun (r, n) -> Printf.sprintf "%s:%d" r n)
                  c_on.Core.Engine.rewrites));
          f2 t_off;
          f2 t_on;
          (if t_on > 0. then f2 (t_off /. t_on) ^ "x" else "-");
        ])
      corpus
  in
  print_table
    [ "query"; "fired"; "rules"; "off ms"; "on ms"; "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12 — element-name index ablation: the //name fast path behind the *)
(* descendant-step rewrites, exercised by the §2 web service.          *)
(* ------------------------------------------------------------------ *)

let e12 () =
  print_header "E12: element-name index — //name lookups with and without the cache";
  let mk indexing persons =
    let eng = Core.Engine.create () in
    Xqb_store.Store.set_indexing (Core.Engine.store eng) indexing;
    let cfg = { G.default with G.persons } in
    let doc = G.generate (Core.Engine.store eng) cfg in
    Core.Engine.bind_node eng "auction" doc;
    eng
  in
  let rows =
    List.map
      (fun persons ->
        let time indexing =
          let eng = mk indexing persons in
          let c =
            Core.Engine.compile eng
              "count($auction//person[@id = 'person7']) + count($auction//item)"
          in
          measure_ns "lookup" (fun () -> ignore (Core.Engine.run_compiled eng c))
        in
        let t_on = time true and t_off = time false in
        [
          string_of_int persons;
          ns_to_string t_off;
          ns_to_string t_on;
          f1 (t_off /. t_on) ^ "x";
        ])
      [ 100; 400; 1600 ]
  in
  print_table [ "persons"; "no index"; "indexed"; "speedup" ] rows;
  (* updates invalidate: measure a mixed lookup/update loop *)
  let eng = mk true 400 in
  let lookup =
    Core.Engine.compile eng "count($auction//person[@id = 'person7'])"
  in
  let update =
    Core.Engine.compile eng
      "snap insert {<touch/>} into {($auction//maintenance_target, $auction/site)[1]}"
  in
  let mixed =
    measure_ns "mixed" (fun () ->
        ignore (Core.Engine.run_compiled eng lookup);
        ignore (Core.Engine.run_compiled eng update))
  in
  Printf.printf
    "mixed lookup+update iteration (index rebuilt after each write): %s\n"
    (ns_to_string mixed)

(* ------------------------------------------------------------------ *)
(* E13 — attribute-value key index: the §2 web service's              *)
(* //person[@id = $u] lookup with and without the hash path.           *)
(* ------------------------------------------------------------------ *)

let e13 () =
  print_header "E13: attribute-value key index on the §2 web service lookups";
  let bench indexing persons =
    let eng = Core.Engine.create () in
    Xqb_store.Store.set_indexing (Core.Engine.store eng) indexing;
    let cfg = { G.default with G.persons; items = persons } in
    let doc = G.generate (Core.Engine.store eng) cfg in
    Core.Engine.bind_node eng "auction" doc;
    let m = Core.Engine.compile eng (Workloads.web_service_module 1000) in
    Core.Engine.eval_globals eng m;
    let calls =
      Array.init 16 (fun i ->
          Core.Engine.compile eng
            (Printf.sprintf "count(get_item('item%d','person%d'))" (i * 3) (i * 5)))
    in
    let i = ref 0 in
    measure_ns "call" (fun () ->
        incr i;
        ignore (Core.Engine.run_compiled eng calls.(!i mod 16)))
  in
  let rows =
    List.map
      (fun persons ->
        let t_off = bench false persons in
        let t_on = bench true persons in
        [
          string_of_int persons;
          ns_to_string t_off;
          ns_to_string t_on;
          f1 (t_off /. t_on) ^ "x";
        ])
      [ 100; 400; 1600 ]
  in
  print_table
    [ "persons=items"; "us/call (no index)"; "us/call (indexed)"; "speedup" ]
    rows;
  print_endline
    "(each get_item call does //item[@id=...] and //person[@id=...] lookups plus a logging snap)"

(* ------------------------------------------------------------------ *)
(* E15 — the query service layer: plan-cache reuse and the            *)
(* footprint-gated scheduler (lib/service, docs/SERVICE.md).          *)
(* ------------------------------------------------------------------ *)

module Svc = Xqb_service.Service
module Sched = Xqb_service.Scheduler

let e15 () =
  print_header
    "E15: query service — plan-cache reuse and footprint-gated parallelism";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "host cores available: %d\n" cores;
  let expect_ok = function
    | Ok r -> r
    | Error e -> failwith ("e15: " ^ Xqb_service.Service_error.to_string e)
  in
  (* one XMark instance, serialized once, loaded into each service *)
  let xml =
    let store = Xqb_store.Store.create () in
    let doc =
      G.generate store { G.default with G.persons = 120; closed_auctions = 240 }
    in
    Core.Engine.serialize_with store (Xqb_xdm.Value.of_nodes [ doc ])
  in
  (* Pure reads: their footprints write nothing, so the gate admits
     them together. The join dominates, so per-job work is large
     relative to scheduling overhead. *)
  let reads =
    [|
      {|count(for $p in $auction//person
              for $t in $auction//closed_auction
              where $t/buyer/@person = $p/@id return $t)|};
      {|count($auction//person[contains(name, "a")])|};
      {|count($auction//item) + count($auction//closed_auction)
        + count($auction//person[starts-with(name, "A")])|};
      {|count(for $t in $auction//closed_auction
              where $t/itemref/@item = "item3" return $t)|};
    |]
  in

  (* A. plan cache: rounds of 16 distinct queries. Round 1 compiles
     all 16; later rounds only normalize the key and look up. *)
  let svc = Svc.create ~domains:0 ~cache_capacity:64 () in
  let sid = Svc.open_session svc in
  Svc.load_document svc sid ~uri:"auction" xml;
  let corpus =
    List.init 16 (fun i ->
        Printf.sprintf {|count($auction//person[@id = "person%d"]/name)|} i)
  in
  let round () =
    List.iter (fun q -> ignore (expect_ok (Svc.query svc sid q))) corpus
  in
  let cold = snd (wall_ms round) in
  let hot = wall_ms_median3 round in
  let cs = Svc.cache_stats svc in
  Svc.shutdown svc;
  record ~name:"e15-cache-cold-round" ~n:16 (cold *. 1e6);
  record ~name:"e15-cache-hot-round" ~n:16 (hot *. 1e6);
  print_table
    [ "round of 16 distinct queries"; "ms"; "plan cache" ]
    [
      [ "first (16 compiles)"; f2 cold;
        Printf.sprintf "misses:%d" cs.Xqb_service.Plan_cache.misses ];
      [ "repeat (16 hits)"; f2 hot;
        Printf.sprintf "hits:%d evictions:%d" cs.Xqb_service.Plan_cache.hits
          cs.Xqb_service.Plan_cache.evictions ];
    ];
  Printf.printf
    "plan cache eliminates recompilation: repeat round %.1fx faster\n"
    (cold /. hot);

  (* B. pure-query throughput: 32 heavy reads from 4 sessions,
     scheduler off (domains=0: synchronous, still gate-admitted) vs a
     4-domain pool. One session's queries run one at a time, in
     submission order (each job holds its session's lock), so the
     reads spread over 4 sessions. Results must be identical;
     wall-clock speedup needs real cores. *)
  let gate_peaks svc =
    let g = Sched.gate (Svc.scheduler svc) in
    (Xqb_service.Rwlock.peak g, Xqb_service.Rwlock.writer_peak g)
  in
  let job_list =
    List.init 32 (fun i -> (i mod 4, reads.(i mod Array.length reads)))
  in
  let run domains =
    let svc = Svc.create ~domains () in
    let sids = Array.init 4 (fun _ -> Svc.open_session svc) in
    Array.iter (fun sid -> Svc.load_document svc sid ~uri:"auction" xml) sids;
    (* warm: fill the plan cache and the store's lazy name indexes *)
    Array.iter (fun q -> ignore (expect_ok (Svc.query svc sids.(0) q))) reads;
    let results, ms =
      wall_ms (fun () ->
          let futs = List.map (fun (k, q) -> Svc.submit svc sids.(k) q) job_list in
          List.map Sched.await_exn futs)
    in
    let peaks = gate_peaks svc in
    Svc.shutdown svc;
    (List.map expect_ok results, ms, peaks)
  in
  let seq_res, seq_ms, _ = run 0 in
  let one_res, one_ms, _ = run 1 in
  let par_res, par_ms, (par_peak, _) = run 4 in
  record ~name:"e15-pure-32-scheduler-off" ~n:32 (seq_ms *. 1e6);
  record ~name:"e15-pure-32-scheduler-1dom" ~n:32 (one_ms *. 1e6);
  record ~name:"e15-pure-32-scheduler-4dom" ~n:32 (par_ms *. 1e6);
  print_table
    [ "scheduler"; "ms / 32 pure queries"; "throughput" ]
    [
      [ "off (domains=0, serialized)"; f1 seq_ms; "1.00x" ];
      [ "on (1 domain: pool overhead)"; f1 one_ms; f2 (seq_ms /. one_ms) ^ "x" ];
      [ "on (4 domains)"; f1 par_ms; f2 (seq_ms /. par_ms) ^ "x" ];
    ];
  Printf.printf
    "results identical to sequential execution: %b\n\
     peak jobs admitted by the footprint gate at once: %d (read footprints never conflict)\n"
    (seq_res = par_res && seq_res = one_res)
    par_peak;
  if cores < 4 then
    Printf.printf
      "NOTE: only %d core(s) visible — domains timeshare, and OCaml's stop-the-world\n\
       minor GC makes oversubscription a net loss; the >=2x wall-clock win needs >=4 cores\n"
      cores;

  (* C. mixed read/write gating: 2 sessions, 40 queries, every 5th an
     update of the same document. Writers to one region serialize
     (writer peak 1) and every insert must land, regardless of
     interleaving. *)
  let svc = Svc.create ~domains:4 () in
  let s1 = Svc.open_session svc in
  let s2 = Svc.open_session svc in
  Svc.load_document svc s1 ~uri:"auction" xml;
  Svc.load_document svc s2 ~uri:"auction" xml;
  Svc.load_document svc s1 ~uri:"log" "<log/>";
  let mix =
    List.init 40 (fun i ->
        let sid = if i mod 2 = 0 then s1 else s2 in
        if i mod 5 = 0 then
          (sid,
           Printf.sprintf {|insert {element hit {%d}} into {doc("log")/log}|} i)
        else (sid, reads.(i mod Array.length reads)))
  in
  let futs = List.map (fun (sid, q) -> Svc.submit svc sid q) mix in
  List.iter (fun f -> ignore (expect_ok (Sched.await_exn f))) futs;
  let queries, errs = Xqb_service.Metrics.counts (Svc.metrics svc) in
  let peak, writer_peak = gate_peaks svc in
  let hits = expect_ok (Svc.query svc s1 {|count(doc("log")/log/hit)|}) in
  Svc.shutdown svc;
  Printf.printf
    "mixed workload: %d queries (%d errors)\n\
     gate peak: %d jobs admitted / %d holding writes; all 8 inserts applied: %s hits\n"
    queries errs peak writer_peak hits

(* ------------------------------------------------------------------ *)
(* E16 — resource governance: tail latency of well-behaved queries    *)
(* under a poison-query mix, with and without per-query budgets.      *)
(* ------------------------------------------------------------------ *)

(* --smoke: tiny workload + tight budget, for CI (seconds, not tens). *)
let smoke = ref false

let e16 () =
  print_header
    "E16: resource governance — tail latency under a poison-query mix";
  let expect_ok = function
    | Ok r -> r
    | Error e -> failwith ("e16: " ^ Xqb_service.Service_error.to_string e)
  in
  (* Every [poison_every]-th submission is a poison query: an updating
     (hence exclusive, write-side) nested loop whose where-clause never
     matches, so it burns evaluation steps while holding the write gate
     without growing the store. Good queries are tiny pure reads. *)
  let n_good, poison_every, poison_n, deadline_ms =
    if !smoke then (40, 10, 600, 10) else (160, 16, 1500, 50)
  in
  let poison =
    Printf.sprintf
      {|for $i in 1 to %d for $j in 1 to %d where $j lt 0
        return insert {<z/>} into {doc("log")/log}|}
      poison_n poison_n
  in
  let good = {|count(doc("d")//a) + count(doc("d")//b)|} in
  let run governed =
    let svc =
      if governed then Svc.create ~domains:2 ~deadline_ms ()
      else Svc.create ~domains:2 ()
    in
    let sid = Svc.open_session svc in
    Svc.load_document svc sid ~uri:"d" "<r><a>1</a><a>2</a><b>x</b></r>";
    Svc.load_document svc sid ~uri:"log" "<log/>";
    ignore (expect_ok (Svc.query svc sid good));
    (* warm: plan cache *)
    let latencies = ref [] in
    let poison_futs = ref [] in
    for i = 1 to n_good do
      if i mod poison_every = 1 then
        poison_futs := Svc.submit svc sid poison :: !poison_futs;
      let r, ms = wall_ms (fun () -> Svc.query svc sid good) in
      ignore (expect_ok r);
      latencies := ms :: !latencies
    done;
    let timeouts, finished =
      List.fold_left
        (fun (t, f) fut ->
          match Svc.await fut with
          | Ok _ -> (t, f + 1)
          | Error { Xqb_service.Service_error.kind = Timeout; _ } ->
            (t + 1, f)
          | Error _ -> (t, f))
        (0, 0) !poison_futs
    in
    Svc.shutdown svc;
    let arr = Array.of_list !latencies in
    Array.sort compare arr;
    (arr, timeouts, finished, List.length !poison_futs)
  in
  let pct arr p =
    let n = Array.length arr in
    arr.(min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))
  in
  let off, _, off_done, off_total = run false in
  let on_, on_timeouts, on_done, on_total = run true in
  List.iter
    (fun (tag, arr) ->
      List.iter
        (fun p ->
          record
            ~name:(Printf.sprintf "e16-good-p%.0f-%s" p tag)
            ~n:n_good
            (pct arr p *. 1e6))
        [ 50.; 95.; 99. ])
    [ ("ungoverned", off); ("governed", on_) ];
  print_table
    [ "governance"; "good-query p50 ms"; "p95 ms"; "p99 ms"; "poison fate" ]
    [
      [ "off"; f2 (pct off 50.); f2 (pct off 95.); f2 (pct off 99.);
        Printf.sprintf "%d/%d ran to completion" off_done off_total ];
      [ Printf.sprintf "on (deadline %dms)" deadline_ms;
        f2 (pct on_ 50.); f2 (pct on_ 95.); f2 (pct on_ 99.);
        Printf.sprintf "%d/%d killed as timeouts" on_timeouts on_total ];
    ];
  Printf.printf
    "good-query p99 %.2fms -> %.2fms: the deadline bounds how long a poison\n\
     query can hold the write gate, so well-behaved reads stop inheriting\n\
     its runtime; store growth from killed poisons: none (transactional)\n"
    (pct off 99.) (pct on_ 99.);
  if on_done > 0 then
    Printf.printf
      "NOTE: %d poison(s) finished under the %dms budget — deepen the poison\n\
       loop if this host is fast enough to beat the deadline\n"
      on_done deadline_ms

(* ------------------------------------------------------------------ *)
(* E17 — observability: per-job tracing overhead on the E15 service   *)
(* mix, and validation of the emitted Chrome trace JSON.              *)
(* ------------------------------------------------------------------ *)

(* --trace-out PATH: dump the validated trace for artifact upload. *)
let trace_out = ref None

(* Set nonzero when E17's trace fails validation; the harness exits
   with it so CI catches a broken emitter. *)
let exit_code = ref 0

let e17 () =
  print_header
    "E17: observability — per-job tracing overhead and Chrome-trace validation";
  let module J = Xqb_obs.Json in
  let expect_ok = function
    | Ok r -> r
    | Error e -> failwith ("e17: " ^ Xqb_service.Service_error.to_string e)
  in
  let persons, n_mix = if !smoke then (40, 24) else (120, 96) in
  let xml =
    let store = Xqb_store.Store.create () in
    let doc =
      G.generate store
        { G.default with G.persons; closed_auctions = 2 * persons }
    in
    Core.Engine.serialize_with store (Xqb_xdm.Value.of_nodes [ doc ])
  in
  let reads =
    [|
      {|count(for $p in $auction//person
              for $t in $auction//closed_auction
              where $t/buyer/@person = $p/@id return $t)|};
      {|count($auction//person[contains(name, "a")])|};
      {|count($auction//item) + count($auction//closed_auction)|};
    |]
  in
  let update i =
    Printf.sprintf {|insert {element hit {%d}} into {doc("log")/log}|} i
  in
  (* the E15 mix: mostly pure reads, every 6th an exclusive update, so
     both scheduler sides and the snap pipeline are on the profile *)
  let mix =
    List.init n_mix (fun i ->
        if i mod 6 = 0 then update i else reads.(i mod Array.length reads))
  in
  let run tracing =
    let svc = Svc.create ~domains:2 ~tracing () in
    let sid = Svc.open_session svc in
    Svc.load_document svc sid ~uri:"auction" xml;
    Svc.load_document svc sid ~uri:"log" "<log/>";
    (* warm: plan cache + lazy store indexes *)
    Array.iter (fun q -> ignore (expect_ok (Svc.query svc sid q))) reads;
    let ms =
      wall_ms_median3 (fun () ->
          let futs = List.map (fun q -> Svc.submit svc sid q) mix in
          List.iter (fun f -> ignore (expect_ok (Svc.await f))) futs)
    in
    (* one final updating query so the freshest trace covers the whole
       pipeline, compile phases through snap application *)
    ignore (expect_ok (Svc.query svc sid (update 999)));
    let trace = Svc.trace_json svc None in
    Svc.shutdown svc;
    (ms, trace)
  in
  let off_ms, _ = run false in
  let on_ms, trace = run true in
  record ~name:"e17-mix-untraced" ~n:n_mix (off_ms *. 1e6);
  record ~name:"e17-mix-traced" ~n:n_mix (on_ms *. 1e6);
  let overhead = (on_ms /. off_ms -. 1.) *. 100. in
  print_table
    [ "tracing"; Printf.sprintf "ms / %d-query mix" n_mix; "overhead" ]
    [
      [ "off"; f2 off_ms; "-" ];
      [ "on (span per phase, per job)"; f2 on_ms;
        Printf.sprintf "%+.1f%%" overhead ];
    ];
  print_endline
    "(spans cost one clock read + one record each; the target envelope is <3%)";
  (* validate the recorded trace: strict JSON, and the span names must
     cover the pipeline end to end *)
  (match trace with
  | None ->
    print_endline "E17 FAIL: no trace recorded with tracing enabled";
    exit_code := 1
  | Some (jid, json) -> (
    match J.parse json with
    | Error msg ->
      Printf.printf "E17 FAIL: trace for job %d is not valid JSON: %s\n" jid msg;
      exit_code := 1
    | Ok v ->
      let events =
        match J.member "traceEvents" v with Some a -> J.to_list a | None -> []
      in
      let names =
        List.sort_uniq compare
          (List.filter_map
             (fun e -> Option.bind (J.member "name" e) J.to_string_opt)
             events)
      in
      let required =
        [ "queue.wait"; "lock.wait"; "compile"; "parse"; "eval"; "snap.apply" ]
      in
      let missing = List.filter (fun p -> not (List.mem p names)) required in
      Printf.printf
        "trace for job %d: %d events, strict-JSON valid; distinct phases: %s\n"
        jid (List.length events)
        (String.concat "," names);
      if missing <> [] then begin
        Printf.printf "E17 FAIL: trace is missing required phases: %s\n"
          (String.concat "," missing);
        exit_code := 1
      end;
      Option.iter
        (fun path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc json);
          Printf.printf "trace artifact written to %s (%d bytes)\n" path
            (String.length json))
        !trace_out))

(* ------------------------------------------------------------------ *)
(* E18 — document order on deep trees: versioned pre/post order keys  *)
(* + static ddo-elision vs the naive chain-walking comparator.         *)
(* ------------------------------------------------------------------ *)

let e18 () =
  print_header
    "E18: document order — pre/post order keys + ddo-elision vs naive chain walks";
  (* a depth-D chain of <sec> elements, each with a few <p> children
     and a single <mark/> at the bottom: every naive comparator call
     pays O(depth) parent steps, the keyed one two array reads *)
  let depth, kids = if !smoke then (120, 3) else (500, 4) in
  let deep_xml =
    let buf = Buffer.create (depth * 32) in
    Buffer.add_string buf "<doc>";
    for i = 1 to depth do
      Buffer.add_string buf "<sec>";
      for k = 1 to kids do
        Buffer.add_string buf (Printf.sprintf "<p>%d.%d</p>" i k)
      done
    done;
    Buffer.add_string buf "<mark/>";
    for _ = 1 to depth do
      Buffer.add_string buf "</sec>"
    done;
    Buffer.add_string buf "</doc>";
    Buffer.contents buf
  in
  let queries =
    [
      ("descendant //p", "slash-slash-p", {|count(doc("deep")//p)|});
      ("chain //sec/p", "sec-chain", {|count(doc("deep")//sec/p)|});
      ( "preceding:: from the deepest node",
        "preceding",
        {|count((doc("deep")//mark)[1]/preceding::p)|} );
      ( "positional predicate",
        "positional",
        {|count((doc("deep")//sec/p)[3])|} );
    ]
  in
  let mk keyed =
    let eng = Core.Engine.create () in
    if not keyed then Xqb_store.Store.set_order_keys (Core.Engine.store eng) false;
    ignore (Core.Engine.load_document eng ~uri:"deep" deep_xml);
    eng
  in
  (* baseline = the pre-keys configuration: order keys off in the
     store, elision off in the compiler; both sides share the engine,
     plan and name-index caches, so the delta is document order only *)
  let eng_naive = mk false in
  let eng_keyed = mk true in
  let rows =
    List.map
      (fun (label, tag, src) ->
        let time eng c =
          ignore (Core.Engine.run_compiled eng c);
          (* warm: name indexes, order keys *)
          wall_ms_median3 (fun () -> ignore (Core.Engine.run_compiled eng c))
        in
        let c_naive = Core.Engine.compile ~elide_ddo:false eng_naive src in
        let naive_ms = time eng_naive c_naive in
        let c_keyed = Core.Engine.compile eng_keyed src in
        let keyed_ms = time eng_keyed c_keyed in
        let same =
          Core.Engine.serialize eng_naive (Core.Engine.run_compiled eng_naive c_naive)
          = Core.Engine.serialize eng_keyed (Core.Engine.run_compiled eng_keyed c_keyed)
        in
        record ~name:(Printf.sprintf "e18-%s-naive" tag) ~n:1 (naive_ms *. 1e6);
        record ~name:(Printf.sprintf "e18-%s-keyed" tag) ~n:1 (keyed_ms *. 1e6);
        [
          label;
          f2 naive_ms;
          f2 keyed_ms;
          f1 (naive_ms /. keyed_ms) ^ "x";
          (if same then "ok" else "MISMATCH");
        ])
      queries
  in
  print_table
    [
      Printf.sprintf "query (depth %d, %d nodes)" depth
        (Xqb_store.Store.node_count (Core.Engine.store eng_keyed));
      "naive ms"; "keyed ms"; "speedup"; "results";
    ]
    rows;
  (* the elision must actually fire: EXPLAIN ANALYZE's counter *)
  let r, rendered =
    Xqb_algebra.Runner.analyze eng_keyed {|doc("deep")//p|}
  in
  Printf.printf "EXPLAIN ANALYZE elision counter: %d (key-table builds: %d)\n"
    r.Xqb_algebra.Runner.ddo_elided
    (Xqb_store.Store.order_key_builds (Core.Engine.store eng_keyed));
  if r.Xqb_algebra.Runner.ddo_elided <= 0 then begin
    Printf.printf "E18 FAIL: no ddo sorts elided on //p:\n%s\n" rendered;
    exit_code := 1
  end

(* ------------------------------------------------------------------ *)
(* E19 — effect observability: per-request provenance/∆-stat          *)
(* bookkeeping and the store mutation journal on an update-heavy mix; *)
(* replaying the journal must reproduce the store exactly.            *)
(* ------------------------------------------------------------------ *)

let e19 () =
  print_header
    "E19: effect observability — provenance bookkeeping + mutation journal";
  let rounds = if !smoke then 60 else 400 in
  (* steady-state update round: one insert, one rename, one delete per
     snap, so the store stays the same size while every request kind
     (and the whole provenance/journal path) is on the profile *)
  let update i =
    Printf.sprintf
      {|snap ordered { insert {element hit {%d}} into {doc("log")/log},
                       rename {(doc("log")/log/*)[1]} to {'seen'},
                       delete {(doc("log")/log/*)[last()]} }|}
      i
  in
  let read = {|count(doc("log")/log/*)|} in
  let run journal =
    let eng = Core.Engine.create () in
    let store = Core.Engine.store eng in
    if journal then Xqb_store.Store.journal_start store;
    ignore (Core.Engine.load_document eng ~uri:"log" "<log><hit>0</hit></log>");
    ignore (Core.Engine.run eng (update 0));
    ignore (Core.Engine.run eng read);
    (* warm: plan path, store caches *)
    let ms =
      wall_ms_median3 (fun () ->
          for i = 1 to rounds do
            ignore (Core.Engine.run eng (update i));
            if i mod 4 = 0 then ignore (Core.Engine.run eng read)
          done)
    in
    let requests =
      Core.Update.stats_requests
        (Core.Engine.context eng).Core.Context.delta_stats
    in
    (ms, requests, eng)
  in
  let off_ms, off_reqs, _ = run false in
  let on_ms, _, eng_on = run true in
  let store_on = Core.Engine.store eng_on in
  let entries = Xqb_store.Store.journal_length store_on in
  let consistent, replay_ms =
    let t0 = Xqb_obs.Clock.now_ns () in
    let ok = Xqb_store.Journal.consistent store_on in
    (ok, float_of_int (Xqb_obs.Clock.now_ns () - t0) /. 1e6)
  in
  record ~name:"e19-mix-journal-off" ~n:rounds (off_ms *. 1e6);
  record ~name:"e19-mix-journal-on" ~n:rounds (on_ms *. 1e6);
  record ~name:"e19-journal-replay" ~n:entries (replay_ms *. 1e6);
  print_table
    [ "journal"; Printf.sprintf "ms / %d-round mix" rounds; "requests";
      "entries"; "replay ≡ store" ]
    [
      [ "off"; f2 off_ms; string_of_int off_reqs; "-"; "-" ];
      [ "on"; f2 on_ms; "-"; string_of_int entries;
        (if consistent then Printf.sprintf "ok (%.2fms)" replay_ms
         else "DIVERGED") ];
    ];
  Printf.printf "journal-on overhead on the update mix: %+.1f%%\n"
    (100. *. (on_ms /. off_ms -. 1.));
  if not consistent then begin
    print_endline "E19 FAIL: journal replay diverged from the live store";
    exit_code := 1
  end;
  (* The always-on part — building the provenance record and folding a
     request into the ∆ statistics — must stay invisible next to the
     cost of evaluating and applying a request (<5% of the journal-off
     per-request budget). Microbenched straight, then compared. *)
  let k = if !smoke then 200_000 else 2_000_000 in
  let st = Core.Update.stats_create () in
  let prov =
    { Core.Update.src_line = 3; src_col = 12; snap_depth = 1; trace_id = None }
  in
  let prov_ns =
    let t0 = Xqb_obs.Clock.now_ns () in
    for _ = 1 to k do
      let r = Core.Update.make ~prov (Core.Update.Delete 3) in
      Core.Update.stats_record st [ Sys.opaque_identity r ]
    done;
    float_of_int (Xqb_obs.Clock.now_ns () - t0) /. float_of_int k
  in
  record ~name:"e19-prov-bookkeeping" ~n:k prov_ns;
  let per_req_ns = off_ms *. 1e6 /. float_of_int (max 1 off_reqs) in
  let share = 100. *. prov_ns /. per_req_ns in
  Printf.printf
    "provenance+stats bookkeeping: %.0fns/request = %.2f%% of the %.0fns\n\
     journal-off per-request budget (threshold 5%%)\n"
    prov_ns share per_req_ns;
  if share >= 5. then begin
    Printf.printf "E19 FAIL: bookkeeping share %.2f%% >= 5%%\n" share;
    exit_code := 1
  end

(* ------------------------------------------------------------------ *)
(* E20 — durability: update-mix throughput and p99 latency under the  *)
(* three WAL fsync policies, recovery-digest verification (the bench  *)
(* fails if a recovered store diverges from the one it persisted),    *)
(* and replica apply lag over the ship/ingest path.                   *)
(* ------------------------------------------------------------------ *)

let e20 () =
  print_header
    "E20: durability — WAL fsync policies, crash recovery, replica shipping";
  let module Svc = Xqb_service.Service in
  let module Catalog = Xqb_service.Catalog in
  let module Wal = Xqb_wal.Wal in
  let module Durable = Xqb_wal.Durable in
  let module Codec = Xqb_wal.Codec in
  let rounds = if !smoke then 40 else 300 in
  let tmp_tag = ref 0 in
  let fresh_dir () =
    incr tmp_tag;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xqbang-e20-%d-%d" (Unix.getpid ()) !tmp_tag)
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  let update i =
    Printf.sprintf
      {|snap ordered { insert {element hit {%d}} into {doc("log")/log},
                       rename {(doc("log")/log/*)[1]} to {'seen'},
                       delete {(doc("log")/log/*)[last()]} }|}
      i
  in
  let digest_of svc = Codec.store_digest_hex (Catalog.store (Svc.catalog svc)) in
  let run_mix svc s =
    (* per-query wall latencies, for throughput and p99 *)
    let lat = Array.make rounds 0. in
    let t0 = Unix.gettimeofday () in
    for i = 0 to rounds - 1 do
      let q0 = Unix.gettimeofday () in
      (match Svc.query svc s (update i) with
      | Ok _ -> ()
      | Error e ->
        Printf.printf "E20 FAIL: update rejected: %s\n"
          (Xqb_service.Service_error.to_string e);
        exit_code := 1);
      lat.(i) <- Unix.gettimeofday () -. q0
    done;
    let total_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    Array.sort compare lat;
    let p99 = lat.(min (rounds - 1) (rounds * 99 / 100)) *. 1e9 in
    (total_ms, p99)
  in
  let policies =
    [ ("off", None); ("never", Some Wal.Never);
      ("interval-5ms", Some (Wal.Interval_ms 5)); ("always", Some Wal.Always) ]
  in
  let results =
    List.map
      (fun (tag, policy) ->
        let dir = fresh_dir () in
        let durability =
          Option.map
            (fun fsync -> { (Durable.default_config ~dir) with Durable.fsync })
            policy
        in
        let svc = Svc.create ~domains:0 ?durability () in
        let s = Svc.open_session svc in
        Svc.load_document svc s ~uri:"log" "<log><hit>0</hit></log>";
        ignore (Svc.query svc s (update 0)) (* warm the plan path *);
        let total_ms, p99 = run_mix svc s in
        let digest = digest_of svc in
        Svc.shutdown svc;
        let recovered =
          match durability with
          | None -> "-"
          | Some cfg ->
            let svc' = Svc.create ~domains:0 ~durability:cfg () in
            let d = digest_of svc' in
            Svc.shutdown svc';
            rm_rf dir;
            if d = digest then "ok"
            else begin
              Printf.printf
                "E20 FAIL: %s: recovered digest %s <> committed %s\n" tag d
                digest;
              exit_code := 1;
              "DIVERGED"
            end
        in
        record ~name:(Printf.sprintf "e20-mix-fsync-%s" tag) ~n:rounds
          (total_ms *. 1e6);
        record ~name:(Printf.sprintf "e20-p99-fsync-%s" tag) ~n:1 p99;
        (tag, total_ms, p99, recovered))
      policies
  in
  (* replica shipping: a durable leader runs the same mix while every
     committed frame is pumped through ship/ingest into an in-process
     replica; lag is how long the replica needs to drain after the
     leader's last commit *)
  let dir = fresh_dir () in
  let leader =
    Svc.create ~domains:0
      ~durability:{ (Durable.default_config ~dir) with Durable.fsync = Wal.Never }
      ()
  in
  let replica = Svc.create ~domains:0 ~replica:true () in
  let s = Svc.open_session leader in
  Svc.load_document leader s ~uri:"log" "<log><hit>0</hit></log>";
  let lsn0, blob =
    match Svc.snapshot_blob leader with
    | Ok r -> r
    | Error e -> failwith ("E20: snapshot failed: " ^ e)
  in
  (match Svc.replica_bootstrap replica blob with
  | Ok _ -> ()
  | Error e -> failwith ("E20: bootstrap failed: " ^ e));
  for i = 0 to rounds - 1 do
    ignore (Svc.query leader s (update i))
  done;
  let frames = ref 0 in
  let drain_ms =
    let t0 = Unix.gettimeofday () in
    let from = ref (lsn0 + 1) in
    let continue = ref true in
    while !continue do
      match Svc.ship_frames leader ~from_lsn:!from ~max:512 with
      | Ok (_, "") -> continue := false
      | Ok (leader_lsn, batch) ->
        (match Svc.replica_ingest replica ~leader_lsn batch with
        | Ok _ -> ()
        | Error e -> failwith ("E20: ingest failed: " ^ e));
        let decoded, _ = Codec.scan batch in
        frames := !frames + List.length decoded;
        List.iter (fun (l, _, _) -> if l >= !from then from := l + 1) decoded
      | Error e -> failwith ("E20: ship failed: " ^ e)
    done;
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  let converged = digest_of leader = digest_of replica in
  if not converged then begin
    print_endline "E20 FAIL: replica diverged from the leader after shipping";
    exit_code := 1
  end;
  record ~name:"e20-replica-drain" ~n:!frames (drain_ms *. 1e6);
  Svc.shutdown replica;
  Svc.shutdown leader;
  rm_rf dir;
  print_table
    [ "fsync"; Printf.sprintf "ms / %d-update mix" rounds; "updates/s";
      "p99 µs"; "recovery" ]
    (List.map
       (fun (tag, total_ms, p99, recovered) ->
         [ tag; f2 total_ms;
           Printf.sprintf "%.0f" (float_of_int rounds /. (total_ms /. 1e3));
           f2 (p99 /. 1e3); recovered ])
       results);
  Printf.printf
    "replica drained %d frames in %.2fms (%.1fµs/frame), digests %s\n" !frames
    drain_ms
    (drain_ms *. 1e3 /. float_of_int (max 1 !frames))
    (if converged then "converged" else "DIVERGED")

(* ------------------------------------------------------------------ *)
(* E21 — footprint scheduling: concurrent writers over disjoint       *)
(* documents vs the same workload on one domain, same durable store.  *)
(* ------------------------------------------------------------------ *)

let e21 () =
  print_header
    "E21: footprint scheduler — concurrent writers over disjoint documents";
  let module Svc = Xqb_service.Service in
  let module Catalog = Xqb_service.Catalog in
  let module Wal = Xqb_wal.Wal in
  let module Durable = Xqb_wal.Durable in
  let module Codec = Xqb_wal.Codec in
  let clients, rounds, scale =
    if !smoke then (4, 12, 0.02) else (10, 80, 0.05)
  in
  let tmp_tag = ref 0 in
  let fresh_dir () =
    incr tmp_tag;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xqbang-e21-%d-%d" (Unix.getpid ()) !tmp_tag)
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  let uri k = Printf.sprintf "x%d" k in
  let xml =
    (* one small XMark document per client, distinct seeds *)
    Array.init clients (fun k ->
        G.to_xml { (G.scaled scale) with G.seed = 1000 + k })
  in
  let write_q k i =
    Printf.sprintf
      {|insert {element hit {%d}} into {doc("%s")/site/regions}|} i (uri k)
  in
  let read_q k =
    Printf.sprintf {|count(doc("%s")/site/regions//item)|} (uri k)
  in
  (* Each client is a thread bound to its own document, alternating
     one update and one read per round, synchronously — so per-document
     apply order (and therefore the final state) is identical whichever
     way the scheduler interleaves clients. *)
  (* The reference runs the same workload at [domains:1]: one job at
     a time, so nothing overlaps — neither evaluation nor the
     group-commit fsync waits. *)
  let run_mode domains =
    let mode = if domains = 1 then "one domain" else "footprint" in
    let dir = fresh_dir () in
    let cfg = { (Durable.default_config ~dir) with Durable.fsync = Wal.Always } in
    let svc = Svc.create ~domains ~durability:cfg () in
    let sessions =
      Array.init clients (fun k ->
          let s = Svc.open_session svc in
          Svc.load_document svc s ~uri:(uri k) xml.(k);
          s)
    in
    let fail = ref None in
    let check = function
      | Ok _ -> ()
      | Error e -> fail := Some (Xqb_service.Service_error.to_string e)
    in
    let client k () =
      (* a write-heavy OLTP-ish mix: four updates, then one scan *)
      for i = 0 to rounds - 1 do
        for j = 0 to 3 do
          check (Svc.query svc sessions.(k) (write_q k ((4 * i) + j)))
        done;
        check (Svc.query svc sessions.(k) (read_q k))
      done
    in
    let t0 = Unix.gettimeofday () in
    let ts = Array.init clients (fun k -> Thread.create (client k) ()) in
    Array.iter Thread.join ts;
    let wall_s = Unix.gettimeofday () -. t0 in
    (match !fail with
    | Some e ->
      Printf.printf "E21 FAIL (%s): query rejected: %s\n" mode e;
      exit_code := 1
    | None -> ());
    let docs =
      Array.to_list
        (Array.init clients (fun k ->
             match Svc.query svc sessions.(0) (Printf.sprintf {|doc("%s")|} (uri k)) with
             | Ok s -> s
             | Error e -> "ERR:" ^ Xqb_service.Service_error.to_string e))
    in
    let digest = Codec.store_digest_hex (Catalog.store (Svc.catalog svc)) in
    let concurrency = Svc.concurrency_json svc in
    Svc.shutdown svc;
    (* crash-recovery check: reopen the WAL dir, digests must agree *)
    let svc' = Svc.create ~domains:0 ~durability:cfg () in
    let recovered = Codec.store_digest_hex (Catalog.store (Svc.catalog svc')) in
    Svc.shutdown svc';
    rm_rf dir;
    if recovered <> digest then begin
      Printf.printf "E21 FAIL (%s): recovered digest diverged\n" mode;
      exit_code := 1
    end;
    let jobs = clients * rounds * 5 in
    (float_of_int jobs /. wall_s, docs, concurrency)
  in
  (* disk-latency noise dominates single runs: take the median of
     three full passes per mode (the workload is deterministic, so
     every pass must also produce identical documents) *)
  let median3 runs =
    let ts = List.sort compare (List.map (fun (t, _, _) -> t) runs) in
    List.nth ts 1
  in
  let base_runs = List.init 3 (fun _ -> run_mode 1) in
  let fp_runs = List.init 3 (fun _ -> run_mode clients) in
  let base_tput = median3 base_runs in
  let fp_tput = median3 fp_runs in
  let _, base_docs, _ = List.hd base_runs in
  let _, _, fp_conc = List.hd fp_runs in
  let fp_docs =
    match
      List.find_opt (fun (_, docs, _) -> docs <> base_docs) (base_runs @ fp_runs)
    with
    | Some (_, docs, _) -> docs
    | None -> base_docs
  in
  let ratio = fp_tput /. base_tput in
  if base_docs <> fp_docs then begin
    print_endline
      "E21 FAIL: footprint-scheduled store diverged from the one-domain store";
    exit_code := 1
  end;
  if ratio < 1.0 then begin
    Printf.printf
      "E21 FAIL: footprint scheduling slower than one domain (%.2fx)\n"
      ratio;
    exit_code := 1
  end;
  record ~name:"e21-tput-one-domain" ~n:(clients * rounds * 5)
    (base_tput *. 1e3);
  record ~name:"e21-tput-footprint" ~n:(clients * rounds * 5) (fp_tput *. 1e3);
  record ~name:"e21-speedup-x1000" ~n:1 (ratio *. 1e3);
  print_table
    [ "mode"; "jobs/s"; "speedup"; "digests" ]
    [ [ "one domain"; f1 base_tput; "1.0x"; "converged" ];
      [ "footprint scheduler"; f1 fp_tput; f2 ratio ^ "x";
        (if base_docs = fp_docs then "converged" else "DIVERGED") ] ];
  Printf.printf
    "%d clients x %d rounds (4 inserts + 1 scan) over %d disjoint XMark \
     documents, fsync=always\nfootprint-mode gate gauges: %s\n"
    clients rounds clients fp_conc

(* ------------------------------------------------------------------ *)
(* E22 — health telemetry overhead: the E21 mixed load with the event  *)
(* log, rolling windows and monitor thread on vs off.                  *)
(* ------------------------------------------------------------------ *)

let e22 () =
  print_header
    "E22: health telemetry overhead — event log + windows + watchdog on the \
     E21 mixed load";
  let module Svc = Xqb_service.Service in
  let module Wal = Xqb_wal.Wal in
  let module Durable = Xqb_wal.Durable in
  let clients, rounds, scale =
    (* enough rounds that the measured section dwarfs scheduling noise *)
    if !smoke then (4, 12, 0.02) else (8, 240, 0.05)
  in
  let tmp_tag = ref 0 in
  let fresh_dir () =
    incr tmp_tag;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xqbang-e22-%d-%d" (Unix.getpid ()) !tmp_tag)
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  let uri k = Printf.sprintf "x%d" k in
  let xml =
    Array.init clients (fun k ->
        G.to_xml { (G.scaled scale) with G.seed = 2200 + k })
  in
  let write_q k i =
    Printf.sprintf
      {|insert {element hit {%d}} into {doc("%s")/site/regions}|} i (uri k)
  in
  let read_q k =
    Printf.sprintf {|count(doc("%s")/site/regions//item)|} (uri k)
  in
  (* fsync=never so the measurement exercises the telemetry hot path
     (per-query window samples, per-commit events), not the disk *)
  let run_mode telemetry =
    let dir = fresh_dir () in
    let cfg =
      { (Durable.default_config ~dir) with Durable.fsync = Wal.Never }
    in
    let svc = Svc.create ~domains:clients ~durability:cfg ~telemetry () in
    let sessions =
      Array.init clients (fun k ->
          let s = Svc.open_session svc in
          Svc.load_document svc s ~uri:(uri k) xml.(k);
          s)
    in
    let fail = ref None in
    let check = function
      | Ok _ -> ()
      | Error e -> fail := Some (Xqb_service.Service_error.to_string e)
    in
    let client k () =
      for i = 0 to rounds - 1 do
        for j = 0 to 3 do
          check (Svc.query svc sessions.(k) (write_q k ((4 * i) + j)))
        done;
        check (Svc.query svc sessions.(k) (read_q k))
      done
    in
    let t0 = Unix.gettimeofday () in
    let ts = Array.init clients (fun k -> Thread.create (client k) ()) in
    Array.iter Thread.join ts;
    let wall_s = Unix.gettimeofday () -. t0 in
    (match !fail with
    | Some e ->
      Printf.printf "E22 FAIL (telemetry %b): query rejected: %s\n" telemetry e;
      exit_code := 1
    | None -> ());
    (* sanity: the instrumented run actually measured something *)
    if telemetry then begin
      let health = Svc.health_status svc in
      if health <> "ok" then
        Printf.printf "E22 note: health %s during the run\n" health;
      if Xqb_obs.Events.total (Svc.events svc) = 0 then begin
        print_endline "E22 FAIL: telemetry on but no events were logged";
        exit_code := 1
      end
    end;
    Svc.shutdown svc;
    rm_rf dir;
    float_of_int (clients * rounds * 5) /. wall_s
  in
  (* one discarded run warms the page cache and the allocator, then
     interleave the modes and take medians so drift (cpu frequency,
     background load) hits both sides alike *)
  ignore (run_mode true);
  let median3 ts = List.nth (List.sort compare ts) 1 in
  let pairs = List.init 3 (fun _ -> (run_mode false, run_mode true)) in
  let off_tput = median3 (List.map fst pairs) in
  let on_tput = median3 (List.map snd pairs) in
  let overhead_pct = (1. -. (on_tput /. off_tput)) *. 100. in
  (* the 3% budget holds only when the measured section dwarfs the
     fixed boot costs (sink open, monitor spawn, flight check) —
     smoke runs are sanity-only: queries succeed, events logged *)
  if (not !smoke) && overhead_pct > 3. then begin
    Printf.printf "E22 FAIL: telemetry costs %.1f%% throughput (budget 3%%)\n"
      overhead_pct;
    exit_code := 1
  end;
  record ~name:"e22-tput-telemetry-off" ~n:(clients * rounds * 5)
    (off_tput *. 1e3);
  record ~name:"e22-tput-telemetry-on" ~n:(clients * rounds * 5)
    (on_tput *. 1e3);
  record ~name:"e22-overhead-pct-x1000" ~n:1 (overhead_pct *. 1e3);
  print_table
    [ "telemetry"; "jobs/s"; "overhead" ]
    [ [ "off"; f1 off_tput; "-" ];
      [ "on (events+windows+watchdog)"; f1 on_tput;
        Printf.sprintf "%.1f%%" overhead_pct ] ];
  Printf.printf
    "%d clients x %d rounds (4 inserts + 1 scan), fsync=never; telemetry = \
     event log + rolling windows + SLO burn + monitor thread\n"
    clients rounds

(* E23 — the service edge at scale: the effects-based fiber event    *)
(* loop vs the legacy thread-per-connection loop, N concurrent       *)
(* pipelined connections (connect storm + steady state).             *)
(* ------------------------------------------------------------------ *)

let e23 () =
  print_header
    "E23: service edge at scale — fiber event loop vs thread-per-connection";
  let module Svc = Xqb_service.Service in
  let module Edge = Xqb_service.Edge in
  let nconns, rounds, pipeline = if !smoke then (200, 3, 8) else (1000, 10, 8) in
  let nthreads = 8 in
  let per = nconns / nthreads in
  let nconns = per * nthreads in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.
    else sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1))
  in
  let run_mode mode =
    let svc = Svc.create ~domains:2 () in
    let edge =
      Edge.start svc
        { Edge.default_config with Edge.mode; backlog = 512 }
    in
    let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Edge.port edge) in
    let fail = ref None in
    let failing e = if !fail = None then fail := Some e in
    (* fd for writes (controls segmentation), channel for line reads *)
    let conns = Array.make nconns None in
    (* connect storm: every client thread opens its slice as fast as
       it can and completes the OPEN handshake *)
    let storm k () =
      try
        for i = k * per to ((k + 1) * per) - 1 do
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd addr;
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          ignore (Unix.write_substring fd "OPEN\n" 0 5);
          let ic = Unix.in_channel_of_descr fd in
          let sid = Scanf.sscanf (input_line ic) "OK %d" (fun n -> n) in
          conns.(i) <- Some (fd, ic, sid)
        done
      with e -> failing (Printexc.to_string e)
    in
    let t0 = Unix.gettimeofday () in
    Array.iter Thread.join
      (Array.init nthreads (fun k -> Thread.create (storm k) ()));
    let storm_s = Unix.gettimeofday () -. t0 in
    (* steady state: each connection repeatedly sends [pipeline]
       requests in one segment and reads the replies in order; all
       [nconns] connections stay open throughout, so the edge
       multiplexes the full set while only a few are active *)
    let lats = Array.make nthreads [] in
    let client k () =
      try
        for _ = 1 to rounds do
          for i = k * per to ((k + 1) * per) - 1 do
            match conns.(i) with
            | None -> ()
            | Some (fd, ic, sid) ->
              let b = Buffer.create 256 in
              for _ = 1 to pipeline do
                Buffer.add_string b (Printf.sprintf "QUERY %d 1+1\n" sid)
              done;
              let s = Buffer.contents b in
              let bt0 = Unix.gettimeofday () in
              ignore (Unix.write_substring fd s 0 (String.length s));
              for _ = 1 to pipeline do
                let l = input_line ic in
                if l <> "OK 2" then failing (Printf.sprintf "bad reply %S" l)
              done;
              lats.(k) <-
                ((Unix.gettimeofday () -. bt0) *. 1e6) :: lats.(k)
          done
        done
      with e -> failing (Printexc.to_string e)
    in
    let t0 = Unix.gettimeofday () in
    Array.iter Thread.join
      (Array.init nthreads (fun k -> Thread.create (client k) ()));
    let steady_s = Unix.gettimeofday () -. t0 in
    let peak = (Edge.gauges edge).Svc.eg_peak in
    Array.iter
      (function
        | Some (fd, _, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
        | None -> ())
      conns;
    Edge.stop edge;
    Svc.shutdown svc;
    (match !fail with
    | Some e ->
      Printf.printf "E23 FAIL (%s edge): %s\n" (Edge.mode_to_string mode) e;
      exit_code := 1
    | None -> ());
    let all = Array.of_list (List.concat (Array.to_list lats)) in
    Array.sort compare all;
    let tput = float_of_int (nconns * rounds * pipeline) /. steady_s in
    (storm_s, tput, percentile all 50., percentile all 99., peak)
  in
  let fs, ft, fp50, fp99, fpeak = run_mode Edge.Fiber in
  let ts, tt, tp50, tp99, tpeak = run_mode Edge.Threads in
  if (not !smoke) && fpeak < nconns then begin
    Printf.printf "E23 FAIL: fiber edge held %d concurrent connections (< %d)\n"
      fpeak nconns;
    exit_code := 1
  end;
  if ft < tt then begin
    Printf.printf
      "E23 FAIL: fiber edge slower than thread edge (%.0f vs %.0f req/s)\n" ft
      tt;
    exit_code := 1
  end;
  record ~name:"e23-fiber-tput" ~n:(nconns * rounds * pipeline) (ft *. 1e3);
  record ~name:"e23-threads-tput" ~n:(nconns * rounds * pipeline) (tt *. 1e3);
  record ~name:"e23-fiber-p50-us" ~n:1 (fp50 *. 1e3);
  record ~name:"e23-fiber-p99-us" ~n:1 (fp99 *. 1e3);
  record ~name:"e23-threads-p50-us" ~n:1 (tp50 *. 1e3);
  record ~name:"e23-threads-p99-us" ~n:1 (tp99 *. 1e3);
  record ~name:"e23-fiber-storm-ms" ~n:nconns (fs *. 1e6);
  record ~name:"e23-threads-storm-ms" ~n:nconns (ts *. 1e6);
  print_table
    [ "edge"; "conns"; "storm ms"; "req/s"; "batch p50 us"; "batch p99 us";
      "peak open" ]
    [ [ "fiber"; string_of_int nconns; f1 (fs *. 1e3); f1 ft; f1 fp50;
        f1 fp99; string_of_int fpeak ];
      [ "threads"; string_of_int nconns; f1 (ts *. 1e3); f1 tt; f1 tp50;
        f1 tp99; string_of_int tpeak ] ];
  Printf.printf
    "%d connections x %d rounds x %d pipelined QUERYs, %d client threads, \
     backlog 512; latency = per-batch round trip\n"
    nconns rounds pipeline nthreads

(* E24 — continuous profiling: the 97 Hz SIGPROF sampler + GC        *)
(* telemetry on the E21 mixed load, off vs on. The profiler is       *)
(* "always available", so its cost IS the product: the 3% budget is  *)
(* enforced, and the run must actually attribute samples (run phase) *)
(* and observe GC pauses, or low overhead would be vacuous.          *)
(* ------------------------------------------------------------------ *)

(* --profile-folded PATH: dump the aggregated folded stacks of the
   profiled runs for artifact upload (flamegraph.pl / speedscope). *)
let profile_folded_out = ref None

let e24 () =
  print_header
    "E24: continuous profiling — 97 Hz sampler + GC telemetry on the E21 \
     mixed load";
  let module Svc = Xqb_service.Service in
  let module Profile = Xqb_obs.Profile in
  let module Gc_tel = Xqb_obs.Gc_tel in
  let clients, rounds, scale =
    (* even smoke needs enough CPU time per run that a 97 Hz
       CPU-time sampler lands a statistically safe number of ticks —
       a 10ms run would see one tick or none *)
    if !smoke then (4, 150, 0.02) else (8, 240, 0.05)
  in
  let uri k = Printf.sprintf "x%d" k in
  let xml =
    Array.init clients (fun k ->
        G.to_xml { (G.scaled scale) with G.seed = 2400 + k })
  in
  let write_q k i =
    Printf.sprintf
      {|insert {element hit {%d}} into {doc("%s")/site/regions}|} i (uri k)
  in
  let read_q k =
    Printf.sprintf {|count(doc("%s")/site/regions//item)|} (uri k)
  in
  (* in-memory service (no WAL): the measured section is pure
     query CPU, the worst case for a CPU-time sampler *)
  let run_mode profiled =
    let svc = Svc.create ~domains:clients () in
    let sessions =
      Array.init clients (fun k ->
          let s = Svc.open_session svc in
          Svc.load_document svc s ~uri:(uri k) xml.(k);
          s)
    in
    let fail = ref None in
    let check = function
      | Ok _ -> ()
      | Error e -> fail := Some (Xqb_service.Service_error.to_string e)
    in
    let client k () =
      for i = 0 to rounds - 1 do
        for j = 0 to 3 do
          check (Svc.query svc sessions.(k) (write_q k ((4 * i) + j)))
        done;
        check (Svc.query svc sessions.(k) (read_q k))
      done
    in
    if profiled then ignore (Profile.start ~hz:97 ());
    let t0 = Unix.gettimeofday () in
    let ts = Array.init clients (fun k -> Thread.create (client k) ()) in
    Array.iter Thread.join ts;
    let wall_s = Unix.gettimeofday () -. t0 in
    if profiled then ignore (Profile.stop ());
    (match !fail with
    | Some e ->
      Printf.printf "E24 FAIL (profiler %b): query rejected: %s\n" profiled e;
      exit_code := 1
    | None -> ());
    Svc.shutdown svc;
    float_of_int (clients * rounds * 5) /. wall_s
  in
  Profile.reset ();
  (* warm both sides once, interleave off/on pairs, take medians so
     drift (cpu frequency, background load) hits both alike — the
     e22 protocol *)
  ignore (run_mode true);
  let median3 ts = List.nth (List.sort compare ts) 1 in
  let pairs = List.init 3 (fun _ -> (run_mode false, run_mode true)) in
  let off_tput = median3 (List.map fst pairs) in
  let on_tput = median3 (List.map snd pairs) in
  let overhead_pct = (1. -. (on_tput /. off_tput)) *. 100. in
  (* low overhead is only meaningful if the profiler measured the
     work: samples must land in the query phases and the GC
     telemetry must have seen real pauses *)
  let run_samples =
    Option.value ~default:0 (List.assoc_opt "run" (Profile.phase_counts ()))
  in
  let total_samples = Profile.samples () in
  let gc_pauses = Gc_tel.pauses_total () in
  if total_samples = 0 || run_samples = 0 then begin
    Printf.printf
      "E24 FAIL: profiler on but no run-phase samples (%d total, %d run)\n"
      total_samples run_samples;
    exit_code := 1
  end;
  if gc_pauses = 0 then begin
    print_endline
      "E24 FAIL: GC pause histogram is empty after an allocation-heavy run";
    exit_code := 1
  end;
  (match !profile_folded_out with
  | Some path ->
    Profile.write_folded path;
    Printf.printf "folded-stack artifact written to %s (%d samples)\n" path
      total_samples
  | None -> ());
  Profile.reset ();
  if (not !smoke) && overhead_pct > 3. then begin
    Printf.printf "E24 FAIL: profiling costs %.1f%% throughput (budget 3%%)\n"
      overhead_pct;
    exit_code := 1
  end;
  record ~name:"e24-tput-profiler-off" ~n:(clients * rounds * 5)
    (off_tput *. 1e3);
  record ~name:"e24-tput-profiler-on" ~n:(clients * rounds * 5)
    (on_tput *. 1e3);
  record ~name:"e24-overhead-pct-x1000" ~n:1 (overhead_pct *. 1e3);
  record ~name:"e24-run-phase-samples" ~n:1 (float_of_int run_samples);
  record ~name:"e24-gc-pauses" ~n:1 (float_of_int gc_pauses);
  print_table
    [ "profiler"; "jobs/s"; "overhead" ]
    [ [ "off"; f1 off_tput; "-" ];
      [ "on (97 Hz + gc telemetry)"; f1 on_tput;
        Printf.sprintf "%.1f%%" overhead_pct ] ];
  Printf.printf
    "%d clients x %d rounds (4 inserts + 1 scan), in-memory; %d samples \
     (%d in run phase), %d gc pauses observed\n"
    clients rounds total_samples run_samples gc_pauses

let experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e15", e15); ("e16", e16); ("e17", e17); ("e18", e18);
    ("e19", e19); ("e20", e20); ("e21", e21); ("e22", e22); ("e23", e23);
    ("e24", e24) ]

let () =
  (* args: experiment names, plus `--json PATH` to dump every
     recorded measurement as machine-readable JSON *)
  let rec parse names json = function
    | [] -> (List.rev names, json)
    | "--json" :: path :: rest -> parse names (Some path) rest
    | [ "--json" ] ->
      prerr_endline "--json requires a path";
      exit 2
    | "--trace-out" :: path :: rest ->
      trace_out := Some path;
      parse names json rest
    | [ "--trace-out" ] ->
      prerr_endline "--trace-out requires a path";
      exit 2
    | "--profile-folded" :: path :: rest ->
      profile_folded_out := Some path;
      parse names json rest
    | [ "--profile-folded" ] ->
      prerr_endline "--profile-folded requires a path";
      exit 2
    | "--smoke" :: rest ->
      smoke := true;
      parse names json rest
    | a :: rest -> parse (String.lowercase_ascii a :: names) json rest
  in
  let names, json = parse [] None (List.tl (Array.to_list Sys.argv)) in
  let requested = if names = [] then List.map fst experiments else names in
  print_endline "XQuery! reproduction benches (see EXPERIMENTS.md)";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None -> Printf.eprintf "unknown experiment %s\n" name)
    requested;
  Option.iter write_json json;
  if !exit_code <> 0 then exit !exit_code
