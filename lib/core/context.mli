(** The dynamic context (dynEnv of §3.4) plus the machinery the formal
    semantics leaves implicit: the store handle, the snap stack, the
    seeded RNG for the nondeterministic semantics, module-level
    globals and the document registry backing fn:doc.

    Variable bindings ([env]) and the focus are threaded functionally
    by the evaluator. *)

module SMap : Map.S with type key = string

(** Declared functions, keyed on (qname string, arity). *)
module FMap : Map.S with type key = string * int

type focus = { item : Xqb_xdm.Item.t; position : int; size : int }

type env = Xqb_xdm.Value.t SMap.t

(** A user-declared function. [purity] and [allocates] are the §5
    classification ({!Static.classify_functions},
    {!Static.classify_alloc_functions}) recorded at declaration: a
    later query that calls the function is judged with them. *)
type func = {
  params : (string * Xqb_syntax.Ast.seq_type option) list;
  return_type : Xqb_syntax.Ast.seq_type option;
  body : Core_ast.expr;
  purity : Static.purity;
  allocates : bool;
}

type t = {
  store : Xqb_store.Store.t;
  mutable functions : func FMap.t;
      (** replaced whole on each declaration, so a reader holds a
          consistent snapshot while a declaration is installed *)
  snaps : Snap_stack.t;
  rand : Random.State.t;
  docs : (string, Xqb_store.Store.node_id) Hashtbl.t;
  mutable doc_lookup : (string -> Xqb_store.Store.node_id option) option;
      (** secondary registry consulted on a [docs] miss before the
          resolver (the service's shared catalog); lookup only, never
          loads *)
  mutable doc_resolver : (string -> string) option;
  mutable globals : env;
  mutable on_apply : (Update.delta -> Apply.mode -> unit) option;
      (** observability hook: called with each ∆ right before a snap
          applies it *)
  mutable apply_wrap : ((unit -> unit) -> unit) option;
      (** concurrency hook: when set, each snap's apply phase runs
          inside this wrapper. The service's footprint scheduler
          points it at the global apply mutex (plus WAL group commit)
          so footprint-disjoint writers evaluate concurrently while ∆
          application stays serial. [None] = apply inline. *)
  mutable steps_evaluated : int;  (** instrumentation *)
  mutable ddo_elided : int;
      (** instrumentation: statically elided ddo sorts reached at
          runtime *)
  mutable budget : Xqb_governor.Budget.t option;
      (** resource budget charged at evaluation checkpoints; [None] =
          ungoverned. Install via {!Engine.with_budget}, which also
          mirrors it into the domain-local slot the store layer
          reads. *)
  mutable tracer : Xqb_obs.Trace.t option;
      (** per-query span tracer; [None] = off (one option match per
          instrumentation point). Install via {!Engine.with_tracer}. *)
  delta_stats : Update.stats;
      (** ∆ introspection counters (applied snaps, requests by kind,
          snap-depth histogram, conflict checks) — behind the DELTA
          wire command and [--show-delta]. *)
  mutable apply_ns : int;
      (** cumulative wall time spent applying ∆s (every snap's apply
          phase), feeding the service's slow-effect log *)
}

(** Fresh context; [seed] drives the nondeterministic application
    order. *)
val create : ?seed:int -> ?store:Xqb_store.Store.t -> unit -> t

val declare_function : t -> Xqb_xml.Qname.t -> int -> func -> unit
val find_function : t -> Xqb_xml.Qname.t -> int -> func option

val register_doc : t -> string -> Xqb_store.Store.node_id -> unit

(** Registry lookup, falling back to [doc_lookup] then
    [doc_resolver]; raises FODC0002 when unresolvable. *)
val resolve_doc : t -> string -> Xqb_store.Store.node_id

(** [span ctx name f] runs [f] under a tracing span when a tracer is
    installed (one option match when not). Governed contexts get a
    [fuel] arg on the span: budget steps charged while it was open. *)
val span : ?cat:string -> t -> string -> (unit -> 'a) -> 'a

val empty_env : env
val bind : env -> string -> Xqb_xdm.Value.t -> env

(** @raise Xqb_xdm.Errors.Dynamic_error (XPST0008) when unbound. *)
val lookup : env -> string -> Xqb_xdm.Value.t
