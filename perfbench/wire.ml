(* The system under test as a user meets it: a child `xqbang serve`
   process reached over TCP on 127.0.0.1, and the closed-loop load
   generator that drives it. *)

let now_ns = Xqb_obs.Clock.now_ns
let secs_since t0 = float (now_ns () - t0) /. 1e9

(* -- the server process ------------------------------------------------------ *)

type server = { pid : int; port : int }

(* Every child still running; [stop_all] (installed at exit) reaps
   them, so no exit path leaves a server behind. *)
let live : int list ref = ref []

let reap ?(grace = 5.0) pid =
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait killed =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if (not killed) && Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        wait true
      end
      else begin
        Unix.sleepf 0.002;
        wait killed
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait killed
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait false;
  live := List.filter (( <> ) pid) !live

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap s.pid

let stop_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap ~grace:1.0 pid)
    !live

let read_file path =
  (* read to EOF: /proc files report length 0 *)
  match open_in_bin path with
  | ic ->
    let b = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    close_in ic;
    Buffer.contents b
  | exception Sys_error _ -> ""

let listening_port log =
  let marker = "listening on 127.0.0.1:" in
  let s = read_file log in
  let m = String.length marker in
  let rec find i =
    if i + m > String.length s then None
    else if String.sub s i m = marker then (
      let j = ref (i + m) in
      while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub s (i + m) (!j - i - m)))
    else find (i + 1)
  in
  find 0

(* `xqbang serve --domains 2 --data-dir DIR --fsync always` on an
   ephemeral port: the fiber edge, a 128-entry plan cache and every
   other setting at serve's defaults. Returns once it listens. The
   runtime-events ring a server leaves behind when it dies goes to
   [Filename.dirname log], not the working directory. *)
let start ~bin ~data_dir ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [| bin; "serve"; "--domains"; "2"; "--data-dir"; data_dir; "--fsync";
       "always"; "--port"; "0" |]
  in
  let env =
    Array.append
      [| "OCAML_RUNTIME_EVENTS_DIR=" ^ Filename.dirname log |]
      (Array.of_list
         (List.filter
            (fun v -> not (String.starts_with ~prefix:"OCAML_RUNTIME_EVENTS_DIR=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let pid = Unix.create_process_env bin args env null fd fd in
  Unix.close fd;
  Unix.close null;
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match listening_port log with
    | Some port -> { pid; port }
    | None -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.0005;
        wait ()
      | 0, _ ->
        stop { pid; port = 0 };
        failwith "server did not start listening within 30s"
      | _, status ->
        live := List.filter (( <> ) pid) !live;
        let how =
          match status with
          | Unix.WEXITED c -> Printf.sprintf "with code %d" c
          | Unix.WSIGNALED sg -> Printf.sprintf "on signal %d" sg
          | Unix.WSTOPPED sg -> Printf.sprintf "stopped by signal %d" sg
        in
        failwith
          (Printf.sprintf "server exited at start-up %s: %s" how (String.trim (read_file log))))
  in
  wait ()

(* Server CPU time (utime + stime, every thread, in seconds) and peak
   RSS ([VmHWM], MB) from /proc. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields after the parenthesised command name; utime and stime
     are fields 14 and 15 of the whole line *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  let ticks = float (int_of_string f.(11) + int_of_string f.(12)) in
  ticks /. 100.

(* CPU time the hypervisor gave other guests while this machine's
   CPUs wanted to run (the steal column of /proc/stat), in seconds.
   Reported beside the figures it distorts. *)
let steal_s () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))) with
  | "cpu" :: rest -> (
    match List.filter (( <> ) "") rest with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> float (int_of_string steal) /. 100.
    | _ -> 0.)
  | _ -> 0.

let hwm_mb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
           Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
               Some (float kb /. 1024.))
         else None)
  |> Option.value ~default:0.

(* -- one connection = one session ---------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  chunk : Bytes.t;
  mutable scanned : int;  (** bytes of [inbuf] known to hold no newline *)
  mutable sid : int;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; inbuf = Buffer.create 65536; chunk = Bytes.create 65536; scanned = 0; sid = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

(* A complete line already buffered, if any. *)
let take_line c =
  let n = Buffer.length c.inbuf in
  let rec find i = if i >= n then None else if Buffer.nth c.inbuf i = '\n' then Some i else find (i + 1) in
  match find c.scanned with
  | None ->
    c.scanned <- n;
    None
  | Some i ->
    let line = Buffer.sub c.inbuf 0 i in
    let rest = Buffer.sub c.inbuf (i + 1) (n - i - 1) in
    Buffer.clear c.inbuf;
    Buffer.add_string c.inbuf rest;
    c.scanned <- 0;
    Some line

(* Read what the socket has; false at EOF. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.inbuf c.chunk 0 n;
    true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

let rec recv c =
  match take_line c with
  | Some l -> l
  | None -> if fill c then recv c else failwith "server closed the connection"

let call c line =
  send c line;
  recv c

let expect_ok what reply =
  if String.length reply < 2 || String.sub reply 0 2 <> "OK" then
    failwith (Printf.sprintf "%s: %s" what reply)

let open_session c =
  let r = call c "OPEN" in
  expect_ok "OPEN" r;
  c.sid <- int_of_string (String.trim (String.sub r 3 (String.length r - 3)))

let query_line c text = Printf.sprintf "QUERY %d %s" c.sid text

(* -- the closed loop --------------------------------------------------------------

   Each connection has at most one request outstanding and sends the
   next the moment it has read the previous reply: no pipelining, no
   think time. One thread multiplexes the connections with select(2),
   so the generator costs one core's worth of slack at most. *)

(* Taken at the start of the timed window, at every whole second of
   it and at its end: the slice boundaries. *)
type mark = { at : int; steal : float; cpu : float }

type window = {
  pid : int;  (** the server, for its CPU time *)
  mutable latencies : int array;  (** ns, requests sent and answered in the window *)
  mutable done_at : int array;  (** ns, when each reply was read *)
  mutable n : int;
  mutable marks : mark list;  (** newest first *)
}

let window ~pid =
  {
    pid;
    latencies = Array.make 4096 0;
    done_at = Array.make 4096 0;
    n = 0;
    marks = [];
  }

let mark w = w.marks <- { at = now_ns (); steal = steal_s (); cpu = cpu_s w.pid } :: w.marks

let record w ~at ns =
  if w.n = Array.length w.latencies then begin
    let grow a =
      let b = Array.make (2 * w.n) 0 in
      Array.blit a 0 b 0 w.n;
      b
    in
    w.latencies <- grow w.latencies;
    w.done_at <- grow w.done_at
  end;
  w.latencies.(w.n) <- ns;
  w.done_at.(w.n) <- at;
  w.n <- w.n + 1

(* The window's one-second slices, oldest first. *)
let slices w =
  let marks = Array.of_list (List.rev w.marks) in
  let k = Array.length marks - 1 in
  let buckets = Array.make (max 0 k) [] in
  let j = ref 0 in
  (* samples are recorded in completion order *)
  for i = 0 to w.n - 1 do
    while !j < k - 1 && w.done_at.(i) >= marks.(!j + 1).at do incr j done;
    if k > 0 then buckets.(!j) <- w.latencies.(i) :: buckets.(!j)
  done;
  Array.mapi
    (fun j l ->
      let lat = Array.of_list l in
      Array.sort compare lat;
      {
        Perfbench.Stats.dur_s = float (marks.(j + 1).at - marks.(j).at) /. 1e9;
        steal_s = marks.(j + 1).steal -. marks.(j).steal;
        cpu_s = marks.(j + 1).cpu -. marks.(j).cpu;
        lat;
      })
    buckets

type stats = {
  tally : Perfbench.Stats.tally;
  mutable wrong : string list;  (** first few rejected replies, for the report *)
  mutable wrong_n : int;
  mutable errors : (string * int) list;  (** ERR replies by text, for the report *)
}

let stats () = { tally = Perfbench.Stats.tally (); wrong = []; wrong_n = 0; errors = [] }

let note_error st line =
  (* group by the reply minus its digits, so ids do not split a kind *)
  let key =
    String.map (fun ch -> if ch >= '0' && ch <= '9' then '#' else ch) line
  in
  let key = if String.length key > 160 then String.sub key 0 160 else key in
  st.errors <-
    (match List.assoc_opt key st.errors with
    | Some n -> (key, n + 1) :: List.remove_assoc key st.errors
    | None -> (key, 1) :: st.errors)

let note_outcome st (o : Work.outcome) =
  match o with
  | Work.Good -> Perfbench.Stats.complete st.tally
  | Work.Error_reply line ->
    Perfbench.Stats.fail st.tally;
    note_error st line
  | Work.Wrong why ->
    Perfbench.Stats.fail st.tally;
    st.wrong_n <- st.wrong_n + 1;
    if st.wrong_n <= 5 then st.wrong <- why :: st.wrong

type slot = {
  c : conn;
  mutable inflight : (Work.req * int * int) option;  (** request, ledger token, send time *)
  mutable dead : bool;
}

let no_reply_s = 30.

(* Drive [conns] for [seconds]. No request is sent after the deadline;
   the ones in flight then are drained and counted. A connection the
   server closes, or a reply that does not come within 30s, fails its
   request and retires the connection. Latency samples and slice
   marks go to [w] when given. A window that holds fewer than
   [at_least] samples at the deadline grows a second at a time, up to
   3 × [seconds], so a slow server still yields a readable tail. *)
let closed_loop ?w ?(at_least = 0) (work : Work.t) st conns ~seconds =
  let slots = List.map (fun c -> { c; inflight = None; dead = false }) conns in
  let t0 = now_ns () in
  let deadline = ref (t0 + int_of_float (seconds *. 1e9)) in
  let cap = t0 + int_of_float (3. *. seconds *. 1e9) in
  let grow t =
    match w with
    | Some w ->
      while t >= !deadline && w.n < at_least && !deadline < cap do
        deadline := !deadline + 1_000_000_000
      done
    | None -> ()
  in
  let next_mark = ref (t0 + 1_000_000_000) in
  Option.iter mark w;
  let issue s =
    let req = Work.next work in
    let token = Work.on_send work req in
    let t = now_ns () in
    send s.c (query_line s.c req.Work.text);
    s.inflight <- Some (req, token, t)
  in
  let on_line s line =
    match s.inflight with
    | None -> failwith "reply without a request"
    | Some (req, token, t_send) ->
      let t = now_ns () in
      s.inflight <- None;
      let o = Work.check work req ~token line in
      note_outcome st o;
      (match (w, o) with
      | Some w, Work.Good -> record w ~at:t (t - t_send)
      | _ -> ());
      grow t;
      if t < !deadline then issue s
  in
  let retire s =
    if s.inflight <> None then note_outcome st (Work.Error_reply "no reply");
    s.inflight <- None;
    s.dead <- true
  in
  List.iter issue slots;
  let rec loop () =
    let busy = List.filter (fun s -> s.inflight <> None) slots in
    if busy <> [] then begin
      let now = now_ns () in
      (match w with
      | Some w when now >= !next_mark && !next_mark < !deadline ->
        mark w;
        next_mark := !next_mark + 1_000_000_000
      | _ -> ());
      let timeout =
        match w with
        | Some _ when !next_mark < !deadline -> max 0.0005 (float (!next_mark - now) /. 1e9)
        | _ -> no_reply_s
      in
      let ready, _, _ =
        try Unix.select (List.map (fun s -> s.c.fd) busy) [] [] (min timeout no_reply_s)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if ready = [] && timeout >= no_reply_s then List.iter retire busy;
      List.iter
        (fun s ->
          if List.mem s.c.fd ready then
            if not (fill s.c) then retire s
            else
              let rec drain () =
                match take_line s.c with
                | Some l when s.inflight <> None ->
                  on_line s l;
                  drain ()
                | Some _ -> retire s
                | None -> ()
              in
              drain ())
        busy;
      loop ()
    end
  in
  loop ();
  Option.iter mark w;
  if List.for_all (fun s -> s.dead) slots then failwith "the server stopped answering"
