(** The newline-delimited request protocol behind [xqbang serve].
    See docs/SERVICE.md for the grammar. *)

type request =
  | Open
  | Close of int
  | Load of int * string * string  (** sid, uri, path *)
  | Query of int * string
  | Explain of int * string  (** sid, query: EXPLAIN ANALYZE *)
  | Cancel of int  (** job id *)
  | Trace of int option  (** job id; [None] = most recent traced job *)
  | Stats
  | Delta  (** last updating job's ∆ statistics *)
  | Slowlog  (** the slow-effect log *)
  | Metrics_prom  (** Prometheus text exposition *)
  | Health  (** health status + machine-readable reasons *)
  | Events of int * string option  (** tail length, min severity name *)
  | Journal_stat  (** in-memory journal length + store digest *)
  | Replica_stat  (** replica LSNs / lag *)
  | Checkpoint  (** force a snapshot now *)
  | Ship of int * int * string option
      (** from_lsn, max frames, replica id: replica pull *)
  | Snapshot  (** full-state blob for replica bootstrap *)
  | Profile of [ `Start | `Stop | `Dump | `Dump_json | `Stat ]
      (** the continuous sampling profiler (process-global) *)
  | Quit

val parse : string -> (request, string) result

(** Two-character escapes \n \r \\ for one-line payloads. *)
val escape : string -> string

val unescape : string -> string

(** ["OK " ^ escape payload] / ["ERR " ^ escape payload]. *)
val ok : string -> string

val err : string -> string

(** ["ERR [kind] message"] for classified query errors. *)
val err_of : Service_error.t -> string
