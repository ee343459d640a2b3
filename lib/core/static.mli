(** Static analyses over the core language: variable scoping, free
    variables, and the §5 pure/updating/effecting classification with
    its updating-function fixpoint ("a function that calls an updating
    function is updating as well"). *)

exception Static_error of string

(** The three-way effect classification the optimizer's guards
    consume (§4.2-4.3). *)
type purity =
  | Pure  (** no updates, no snap: freely reorderable *)
  | Updating
    (** emits update requests but contains no snap — the store is
        untouched during evaluation, so lazy/algebraic evaluation
        still applies subject to cardinality guards *)
  | Effecting  (** contains a snap: evaluation order is pinned *)

val purity_to_string : purity -> string

(** Least upper bound. *)
val join : purity -> purity -> purity

(** Purity given a classification oracle for user functions. *)
val purity_with : (Xqb_xml.Qname.t -> int -> purity) -> Core_ast.expr -> purity

(** The classification recorded for a function declared outside the
    program being judged (by an earlier query of the same session):
    its purity and whether it allocates — §5's "updating flag" on
    functions from other modules. [None]: not declared there either,
    judged Pure and allocation-free. Every judgement below takes one
    ([?extern]; without one, every outside function is [None]), so
    a call to such a function carries its recorded effects instead
    of passing for Pure. *)
type extern = Xqb_xml.Qname.t -> int -> (purity * bool) option

(** Judges every outside function Effecting and allocating — for
    compile-time rewriting, whose result the plan cache shares across
    sessions that may declare a called function differently. *)
val opaque_extern : extern

(** Fixpoint classification of a program's functions. *)
val classify_functions :
  ?extern:extern -> Normalize.func list -> (Xqb_xml.Qname.t * int * purity) list

(** A reusable purity oracle: the function-classification fixpoint
    runs once at construction, then each call is a plain traversal. *)
val purity_oracle : ?extern:extern -> Normalize.prog -> Core_ast.expr -> purity

(** One-shot [purity_oracle] (reclassifies per call — prefer the
    oracle in loops). *)
val purity_in_prog : ?extern:extern -> Normalize.prog -> Core_ast.expr -> purity

(** Purity of the whole program: the join over every global
    initializer and the body. *)
val prog_purity : ?extern:extern -> Normalize.prog -> purity

(** Does the program call a function it does not declare? Then its
    judgements depend on the session that declared the callee. *)
val calls_out : Normalize.prog -> bool

(** Does the expression allocate fresh store nodes (constructors,
    [Copy], update payloads), given a judgement for user functions?
    [Pure] expressions can still allocate. *)
val allocates_with : (Xqb_xml.Qname.t -> int -> bool) -> Core_ast.expr -> bool

(** Fixpoint allocation classification of a program's functions ("a
    function that calls an allocating function allocates"). *)
val classify_alloc_functions :
  ?extern:extern -> Normalize.func list -> (Xqb_xml.Qname.t * int * bool) list

(** [true] iff every global initializer and the body are [Pure] and
    allocation-free: the program cannot change the store. The
    service's replica write fence. *)
val prog_parallel_safe : ?extern:extern -> Normalize.prog -> bool

module SSet : Set.S with type elt = string

(** Free variables (used by the optimizer's independence guards). *)
val free_vars : Core_ast.expr -> SSet.t

val is_independent_of : Core_ast.expr -> string list -> bool

(** Scope-check an expression given the bound variables.
    @raise Static_error (XPST0008-style) on an unbound variable. *)
val check_scopes : SSet.t -> Core_ast.expr -> unit

(** Scope-check a whole program: globals see earlier globals and
    [initial] (host-bound names); functions see globals and their
    parameters. *)
val check_prog : ?initial:string list -> Normalize.prog -> unit

(** {1 Document-order analysis (ddo elision)} *)

(** What can be promised about an expression's result order. *)
type order_info = {
  o_sorted : bool;  (** items are in document order *)
  o_nodup : bool;  (** no duplicate nodes *)
  o_unrelated : bool;  (** no item is an ancestor of another *)
  o_single : bool;  (** at most one item *)
  o_node_only : bool;  (** every item is a node *)
}

(** [order_of singles e] — the judgement, given the set of variables
    known to be bound to at most one item (for/some/every binders,
    positional variables, single lets). *)
val order_of : SSet.t -> Core_ast.expr -> order_info

(** Rewrite provably redundant ["%ddo"] applications (result already
    sorted, duplicate-free, node-only) to ["%ddo-elided"] — the
    identity plus an instrumentation counter. Each site is gated on
    [purity arg <> Effecting]: a snap inside the sorted expression
    would mutate the tree mid-evaluation and void the structural
    reasoning (the §3.3 purity observation, used in reverse). Returns
    the rewritten expression and the number of sites elided. *)
val elide_ddo :
  purity:(Core_ast.expr -> purity) -> Core_ast.expr -> Core_ast.expr * int

(** {1 Effects footprints (query-update independence)} *)

(** A conservative static over-approximation of the store regions a
    program may read and may write. Two jobs whose footprints are
    {!Footprint.independent} can run concurrently against the shared
    store; anything the analysis can't pin down widens to a whole
    document or to "any document", which conflicts with everything
    and degrades to the old exclusive behaviour. *)
module Footprint : sig
  type doc = Named of string | Any_doc

  (** A subtree region: the nodes at (or, when [ranchored] is false,
      somewhere below) the root-to-node label chain [rpath] of
      document [rdoc], together with everything beneath them.
      [rpath = []] is the whole document. *)
  type region = { rdoc : doc; rpath : string list; ranchored : bool }

  type t = { reads : region list; writes : region list }

  val any_region : region
  val empty : t
  val top : t

  (** Reads everything, writes nothing (the footprint of an opaque
      read-only job). *)
  val read_all : t

  val regions_overlap : region -> region -> bool
  val sets_overlap : region list -> region list -> bool

  (** May the two jobs run concurrently? Read/read overlap is fine;
      any write must be disjoint from the other side's reads and
      writes. *)
  val independent : t -> t -> bool

  val writes_nothing : t -> bool

  (** False iff some region widened to "any document". *)
  val conclusive : t -> bool

  val region_to_string : region -> string
  val to_string : t -> string

  (** Dedupe, drop covered regions, cap size by widening. *)
  val normalize : t -> t

  (** Infer the footprint of a normalized program. [var_docs] maps a
      host-bound free variable to the URI of the catalog document
      whose root it names, if any (unknown bindings widen to
      [any_region]); [extern] classifies calls to functions the
      program does not declare. *)
  val of_prog :
    ?var_docs:(string -> string option) -> ?extern:extern -> Normalize.prog -> t
end
