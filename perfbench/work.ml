(* The three workloads: their documents, the §2 session module, the
   seeded request stream and the oracle every reply is checked
   against.

   The oracle is a benchmark-owned [Core.Engine] over the same
   document text the server LOADs. Reads have one right answer,
   computed before the timed window. Writes are tracked in a ledger:
   a bidder-count read must lie between the bids acknowledged before
   it was sent and the bids sent before its reply arrived, and after
   the restart every acknowledged write must be there. *)

module G = Xqb_xmark.Generator
module Rand = Xqb_xmark.Rand
module Engine = Core.Engine

type kind =
  | Fixed of string  (** the reply payload must equal this *)
  | Bid of int  (** place-bid insert into open auction [i] *)
  | Bidders of int  (** bidder count of open auction [i] *)
  | Get_item of string  (** §2 [get_item]: the item's serialization *)
  | Q8 of bool  (** XMark Q8, [true] = with the §4.3 inserts *)

type req = { text : string; kind : kind }

type name = Point_lookup | Bid_writes | Auction_writes | Q8_join

let names =
  [
    ("point-lookup", Point_lookup);
    ("bid-writes", Bid_writes);
    ("auction-writes", Auction_writes);
    ("q8-join", Q8_join);
  ]

let to_string n = fst (List.find (fun (_, m) -> m = n) names)

(* Acknowledged-write ledger, shared by every connection of a run. *)
type ledger = {
  base : int array;  (** bidders per open auction in the generated document *)
  sent : int array;  (** bids sent *)
  acked : int array;  (** bids acknowledged OK *)
  mutable items_acked : int;  (** get_item calls acknowledged OK *)
  mutable q8_inserts_acked : int;  (** Q8-with-inserts acknowledged OK *)
}

type t = {
  name : name;
  seed : int;
  docs : (string * string) list;  (** uri, XML text — LOADed in this order *)
  session_module : string option;  (** declared once per session at set-up *)
  mutable rng : Rand.t;
  mutable index : int;  (** requests drawn so far *)
  next : t -> req;
  ledger : ledger;
  q8_expected : string;
  buyers_per_insert : int;  (** purchasers rows one Q8-with-inserts adds *)
  counter_start : int;
}

(* -- the §2 Web-service module ------------------------------------------

   The paper's get_item logs every access with nested snaps and
   archives the log every 16 entries. Its state lives in the catalog
   document [log] (bound to [$log] by LOAD) instead of module
   variables, so every logged access is a durable write. *)

let log_doc counter =
  Printf.sprintf "<service><log/><archive/><counter>%d</counter></service>" counter

let maxlog = 16

let session_module =
  Printf.sprintf
    {|declare function nextid() as xs:integer {
  snap { replace { $log/service/counter/text() } with { $log/service/counter + 1 },
         xs:integer($log/service/counter) }
};
declare function archivelog() {
  snap insert { <batch size="{count($log/service/log/logentry)}"/> }
       into { $log/service/archive }
};
declare function get_item($itemid, $userid) {
  let $item := $auction/site/regions/*/item[@id = $itemid]
  return (
    let $name := $auction/site/people/person[@id = $userid]/name
    return
      (snap insert { <logentry id="{nextid()}" user="{$name}" itemid="{$itemid}"/> }
            into { $log/service/log },
       if (count($log/service/log/logentry) >= %d)
       then (archivelog(), snap delete { $log/service/log/logentry })
       else ()),
    $item)
};
"ready"|}
    maxlog

(* -- XMark Q8, §4.3 -------------------------------------------------------- *)

let q8_pure =
  {|for $p in $auction//person
let $a := for $t in $auction//closed_auction
          where $t/buyer/@person = $p/@id
          return $t
return <item person="{ $p/name }">{ count($a) }</item>|}

let q8_inserts =
  {|for $p in $auction//person
let $a := for $t in $auction//closed_auction
          where $t/buyer/@person = $p/@id
          return (insert { <buyer person="{$t/buyer/@person}" itemid="{$t/itemref/@item}"/> }
                  into { $purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>|}

(* The wire protocol carries one request per line. *)
let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* -- request templates ----------------------------------------------------- *)

let person_name i =
  Printf.sprintf {|$auction/site/people/person[@id="person%d"]/name/string()|} i

let item_location i =
  Printf.sprintf {|$auction/site/regions/*/item[@id="item%d"]/location/string()|} i

let bidders i =
  Printf.sprintf {|count($auction/site/open_auctions/open_auction[@id="open%d"]/bidder)|} i

let person_card i =
  Printf.sprintf
    {|<p id="person%d">{$auction/site/people/person[@id="person%d"]/name/string()}</p>|}
    i i

let item_xml i = Printf.sprintf {|$auction/site/regions/*/item[@id="item%d"]|} i

let place_bid ~auction ~person ~cents ~stamp =
  Printf.sprintf
    {|insert { <bidder><date>%d</date><personref person="person%d"/><increase>%d.%02d</increase></bidder> } into { $auction/site/open_auctions/open_auction[@id="open%d"] }|}
    stamp person (cents / 100) (cents mod 100) auction

let get_item ~item ~person =
  Printf.sprintf {|get_item("item%d", "person%d")|} item person

(* -- the oracle -------------------------------------------------------------- *)

let oracle_engine docs =
  let eng = Engine.create () in
  List.iter
    (fun (uri, xml) -> Engine.bind_node eng uri (Engine.load_document eng ~uri xml))
    docs;
  eng

let eval eng q = Engine.serialize eng (Engine.run eng q)

let ints_of s =
  String.split_on_char ' ' s |> List.filter (( <> ) "") |> List.map int_of_string

(* Q8's answer rebuilt from per-person counts computed by a different
   query (a predicate instead of the FLWOR join), then cross-checked
   against the engine's own Q8 result: a wrong oracle stops the run
   before it measures anything. *)
let q8_oracle eng =
  let names =
    String.split_on_char '|' (eval eng "string-join($auction//person/string(name), '|')")
  in
  let counts =
    ints_of
      (eval eng
         "for $p in $auction//person return \
          count($auction//closed_auction[buyer/@person = $p/@id])")
  in
  if List.length names <> List.length counts then failwith "q8 oracle: shape";
  let expected =
    String.concat ""
      (List.map2 (Printf.sprintf {|<item person="%s">%d</item>|}) names counts)
  in
  let engine_q8 = eval eng q8_pure in
  if engine_q8 <> expected then
    failwith
      (Printf.sprintf "q8 oracle disagrees with the engine:\n%s\n%s" expected
         engine_q8);
  (expected, List.fold_left ( + ) 0 counts)

(* -- construction ------------------------------------------------------------- *)

(* Every input derives from [seed]: the document seed and the request
   stream's seed are drawn from one splitmix stream. *)
let seeds seed =
  let root = Rand.create seed in
  let doc = Rand.int root 1_000_000_000 in
  (doc, Rand.int root 1_000_000_000)

let make name ~seed =
  let doc_seed, stream_seed = seeds seed in
  let stream = Rand.create stream_seed in
  let cfg =
    match name with
    | Point_lookup | Bid_writes | Auction_writes ->
      { (G.scaled 1.0) with G.seed = doc_seed }
    | Q8_join ->
      { G.default with G.persons = 50; closed_auctions = 100; seed = doc_seed }
  in
  let auction = G.to_xml cfg in
  let counter_start = 100 in
  let docs =
    match name with
    | Point_lookup | Bid_writes -> [ ("auction", auction) ]
    | Auction_writes -> [ ("auction", auction); ("log", log_doc counter_start) ]
    | Q8_join -> [ ("auction", auction); ("purchasers", "<purchasers/>") ]
  in
  let eng = oracle_engine docs in
  let base =
    ints_of
      (eval eng
         "for $o in $auction/site/open_auctions/open_auction return count($o/bidder)")
  in
  let ids =
    eval eng
      "string-join($auction/site/open_auctions/open_auction/@id/string(), ' ')"
  in
  let base = Array.of_list base in
  let n_open = Array.length base in
  if ids <> String.concat " " (List.init n_open (Printf.sprintf "open%d")) then
    failwith "open auction ids are not open0..openN-1 in document order";
  let persons = cfg.G.persons and items = cfg.G.items in
  let memo = Hashtbl.create 1024 in
  let fixed text =
    match Hashtbl.find_opt memo text with
    | Some r -> r
    | None ->
      let r = { text; kind = Fixed (eval eng text) } in
      Hashtbl.replace memo text r;
      r
  in
  let item_memo = Hashtbl.create 256 in
  let item_expected i =
    match Hashtbl.find_opt item_memo i with
    | Some s -> s
    | None ->
      let s = eval eng (item_xml i) in
      Hashtbl.replace item_memo i s;
      s
  in
  let q8_expected, buyers_per_insert =
    match name with Q8_join -> q8_oracle eng | _ -> ("", 0)
  in
  let next t =
    let r = t.rng in
    let i = t.index in
    t.index <- i + 1;
    match t.name with
    | Point_lookup -> (
      match Rand.int r 4 with
      | 0 -> fixed (person_name (Rand.int r persons))
      | 1 -> fixed (item_location (Rand.int r items))
      | 2 -> fixed (bidders (Rand.int r n_open))
      | _ -> fixed (person_card (Rand.int r persons)))
    | Bid_writes | Auction_writes ->
      (* auction-writes: 4 bids, 3 bidder counts, 3 get_item in 10;
         bid-writes: the same bids and counts without the §2 share *)
      let dice = Rand.int r (if t.name = Bid_writes then 7 else 10) in
      if dice < 4 then
        let auction = Rand.int r n_open in
        {
          text =
            place_bid ~auction ~person:(Rand.int r persons)
              ~cents:(100 + Rand.int r 100_000) ~stamp:i;
          kind = Bid auction;
        }
      else if dice < 7 then
        let a = Rand.int r n_open in
        { text = bidders a; kind = Bidders a }
      else
        let item = Rand.int r items in
        {
          text = get_item ~item ~person:(Rand.int r persons);
          kind = Get_item (item_expected item);
        }
    | Q8_join ->
      if i mod 2 = 0 then { text = one_line q8_pure; kind = Q8 false }
      else { text = one_line q8_inserts; kind = Q8 true }
  in
  (* point-lookup's answers are all computed before any timing starts *)
  (match name with
  | Point_lookup ->
    for i = 0 to persons - 1 do
      ignore (fixed (person_name i));
      ignore (fixed (person_card i))
    done;
    for i = 0 to items - 1 do ignore (fixed (item_location i)) done;
    for i = 0 to n_open - 1 do ignore (fixed (bidders i)) done
  | Auction_writes -> for i = 0 to items - 1 do ignore (item_expected i) done
  | Bid_writes | Q8_join -> ());
  {
    name;
    seed;
    docs;
    session_module =
      (match name with Auction_writes -> Some (one_line session_module) | _ -> None);
    rng = stream;
    index = 0;
    next;
    ledger =
      {
        base;
        sent = Array.make n_open 0;
        acked = Array.make n_open 0;
        items_acked = 0;
        q8_inserts_acked = 0;
      };
    q8_expected;
    buyers_per_insert;
    counter_start;
  }

let next t = t.next t

(* -- checking replies ---------------------------------------------------------- *)

type outcome = Good | Error_reply of string | Wrong of string

let acked_writes t =
  let l = t.ledger in
  Array.fold_left ( + ) 0 l.acked + l.items_acked + l.q8_inserts_acked

(* What a request needs remembered between send and reply. *)
let on_send t req =
  match req.kind with
  | Bid a ->
    t.ledger.sent.(a) <- t.ledger.sent.(a) + 1;
    0
  | Bidders a -> t.ledger.acked.(a)
  | _ -> 0

let payload line =
  if String.length line >= 3 && String.sub line 0 3 = "OK " then
    Some (Xqb_service.Protocol.unescape (String.sub line 3 (String.length line - 3)))
  else None

let check t req ~token line =
  match payload line with
  | None -> Error_reply line
  | Some got -> (
    let l = t.ledger in
    let expect what ok = if ok then Good else Wrong (Printf.sprintf "%s, got %S" what got) in
    match req.kind with
    | Fixed want -> expect (Printf.sprintf "expected %S" want) (got = want)
    | Get_item want ->
      let ok = got = want in
      if ok then l.items_acked <- l.items_acked + 1;
      expect "expected the item" ok
    | Bid a ->
      let ok = got = "" in
      if ok then l.acked.(a) <- l.acked.(a) + 1;
      expect "expected an empty reply" ok
    | Bidders a -> (
      let lo = l.base.(a) + token and hi = l.base.(a) + l.sent.(a) in
      match int_of_string_opt got with
      | Some n when n >= lo && n <= hi -> Good
      | _ -> Wrong (Printf.sprintf "open%d: expected %d..%d, got %S" a lo hi got))
    | Q8 inserts ->
      let ok = got = t.q8_expected in
      if ok && inserts then l.q8_inserts_acked <- l.q8_inserts_acked + 1;
      expect "expected the per-person counts" ok)

(* -- after the restart: every acknowledged write must be there ---------------- *)

type probe = { query : string; lost : string -> int * string * bool }

(* Each probe is one read against the restarted server; [lost] maps
   its reply payload to the number of acknowledged writes it does not
   show, a one-line account, and whether the recovered state is
   readable at all (a missing document is not a lost write but a
   broken run). *)
let durability_probes t =
  let l = t.ledger in
  let bids =
    {
      query =
        "string-join(for $o in doc('auction')/site/open_auctions/open_auction \
         return string(count($o/bidder)), ' ')";
      lost =
        (fun got ->
          let counts = Array.of_list (ints_of got) in
          let missing = ref 0 in
          Array.iteri
            (fun a _ ->
              let want = l.base.(a) + l.acked.(a) in
              if a >= Array.length counts then missing := !missing + l.acked.(a)
              else missing := !missing + max 0 (want - counts.(a)))
            l.base;
          let acked = Array.fold_left ( + ) 0 l.acked in
          ( !missing,
            Printf.sprintf "bids: %d acknowledged, %d missing" acked !missing,
            Array.length counts = Array.length l.base ));
    }
  in
  let log =
    {
      query =
        "string-join((string(doc('log')/service/counter), \
         string(count(doc('log')/service/archive/batch)), \
         string(count(doc('log')/service/log/logentry))), ' ')";
      lost =
        (fun got ->
          match ints_of got with
          | [ counter; batches; entries ] ->
            let g = l.items_acked in
            let by_counter = g - (counter - t.counter_start) in
            let by_log = g - ((maxlog * batches) + entries) in
            let missing = max 0 (min g (max by_counter by_log)) in
            ( missing,
              Printf.sprintf
                "get_item: %d acknowledged; counter %d (expected %d), %d \
                 archived batches + %d log entries (expected %d logged); %d \
                 missing"
                g counter (t.counter_start + g) batches entries g missing,
              true )
          | _ -> (l.items_acked, "get_item: unreadable log state " ^ got, false));
    }
  in
  match t.name with
  | Point_lookup ->
    [
      {
        query = "count(doc('auction')/site/people/person)";
        lost =
          (fun got ->
            let want = string_of_int (G.scaled 1.0).G.persons in
            (0, Printf.sprintf "read-only; %s of %s persons recovered" got want,
             got = want));
      };
    ]
  | Bid_writes -> [ bids ]
  | Auction_writes -> [ bids; log ]
  | Q8_join ->
    [
      {
        (* LOAD binds $purchasers to the document node: the rows are
           its children *)
        query = "count(doc('purchasers')/buyer)";
        lost =
          (fun got ->
            let acked = l.q8_inserts_acked in
            let want = acked * t.buyers_per_insert in
            let n = Option.value (int_of_string_opt got) ~default:0 in
            let rows_missing = max 0 (want - n) in
            let per = max 1 t.buyers_per_insert in
            let missing = (rows_missing + per - 1) / per in
            ( missing,
              Printf.sprintf
                "Q8 inserts: %d acknowledged (%d rows each), %d rows recovered, \
                 %d requests missing"
                acked t.buyers_per_insert n missing,
              int_of_string_opt got <> None ));
      };
    ]
