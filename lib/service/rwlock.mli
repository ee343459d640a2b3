(** The scheduler's admission gate: a FIFO-ticketed *footprint gate*.
    Jobs enter with a static effects footprint
    ({!Core.Static.Footprint}) and run concurrently with every job
    they are provably independent of; conflicting jobs are admitted in
    submission order (no barging — a stream of readers cannot starve
    a writer). Every query passes this one gate: a pure read holds a
    footprint with no writes, an updating job its inferred regions,
    an Effecting one ⊤. {!with_read} (reads-everything) and
    {!with_write} (conflicts-with-everything) are the two extreme
    footprints, for service operations that have no plan. *)

type t

type ticket

val create : unit -> t

(** Block until the footprint is independent of every running job and
    every earlier conflicting waiter, then hold it. *)
val acquire : t -> Core.Static.Footprint.t -> ticket

val release : t -> ticket -> unit

(** Exception-safe scoped admission. *)
val with_footprint : t -> Core.Static.Footprint.t -> (unit -> 'a) -> 'a

(** [with_footprint] with {!Core.Static.Footprint.read_all}. *)
val with_read : t -> (unit -> 'a) -> 'a

(** [with_footprint] with {!Core.Static.Footprint.top}. *)
val with_write : t -> (unit -> 'a) -> 'a

(** Currently admitted jobs / currently admitted writing jobs. *)
val running : t -> int

val running_writers : t -> int

(** High-water marks since creation (all jobs / writing jobs). *)
val peak : t -> int

val writer_peak : t -> int
