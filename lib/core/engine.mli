(** The public entry point: compile and run XQuery! programs.

    Pipeline (§4.2): parse → normalize → static checks → evaluate,
    with the query body wrapped in the implicit top-level snap (§2.3).
    The algebraic path with join/group-by unnesting is
    [Xqb_algebra.Runner]. *)

type t

(** Parse/static errors, with positions where available. *)
exception Compile_error of string

(** Fresh engine (empty module). [seed] drives the nondeterministic
    update-application order; [store] shares an existing store between
    engines (the service layer's shared document catalog). *)
val create : ?seed:int -> ?store:Xqb_store.Store.t -> unit -> t

val context : t -> Context.t
val store : t -> Xqb_store.Store.t

(** Load an XML document into the store and register it for
    [fn:doc(uri)]. *)
val load_document : t -> uri:string -> string -> Xqb_store.Store.node_id

(** Fallback for [fn:doc] on unknown URIs (e.g. read from disk). *)
val set_doc_resolver : t -> (string -> string) -> unit

(** Bind a global variable visible to all subsequent queries. *)
val bind : t -> string -> Xqb_xdm.Value.t -> unit

val bind_node : t -> string -> Xqb_store.Store.node_id -> unit
val lookup_global : t -> string -> Xqb_xdm.Value.t option

type compiled = {
  prog : Normalize.prog;
  source : string;
  rewrites : (string * int) list;
      (** §4.2 simplifier rules that fired during compilation *)
  type_warnings : string list;
      (** advisory static-typing warnings ({!Typing.check_prog}) *)
  calls_out : bool;
      (** the program calls a function it does not declare (one an
          earlier query declared): its purity, allocation and
          footprint judgements depend on the engine it runs in, so
          pass [~within] to {!purity} / {!parallel_safe} /
          {!footprint} *)
}

(** Parse, normalize, statically check and (unless [simplify:false])
    run the purity-guarded simplifier, which takes every call to a
    function the program does not declare as Effecting
    ({!Static.opaque_extern}) so the result holds in any session;
    installs the program's function declarations into the engine
    (later queries can call them).
    [elide_ddo] (default true) additionally runs the document-order
    analysis that rewrites provably redundant ddo sorts to the
    counted identity ["%ddo-elided"] ({!Static.elide_ddo}); its site
    count appears in [rewrites] under ["ddo-elide"]. [tracer]
    receives the compile spans instead of the context's tracer
    ([~tracer:None]: no spans); apart from installing declarations,
    compiling leaves the context alone, so it may run while the
    engine evaluates another query.
    @raise Compile_error. *)
val compile :
  ?simplify:bool ->
  ?elide_ddo:bool ->
  ?tracer:Xqb_obs.Trace.t option ->
  t ->
  string ->
  compiled

(** Install a compiled program's function declarations into the
    engine, each with its §5 classification (calls to functions
    declared earlier are judged by {!declared}). [compile] does this
    itself; the service layer's plan cache calls it on cache hits so
    a session that skipped compilation still sees the declarations. *)
val install_functions : t -> compiled -> unit

(** The classification recorded for each function the engine has
    declared, as the judgements' [extern]. *)
val declared : t -> Static.extern

(** Evaluate the program's global-variable declarations, in order,
    each under an implicit snap. *)
val eval_globals : ?mode:Core_ast.snap_mode -> t -> compiled -> unit

(** Run a compiled program's body under the implicit top-level snap
    (default mode: ordered). *)
val run_compiled : ?mode:Core_ast.snap_mode -> t -> compiled -> Xqb_xdm.Value.t

(** [compile] + [run_compiled]. *)
val run : ?mode:Core_ast.snap_mode -> t -> string -> Xqb_xdm.Value.t

(** Nodes as XML, atomics space-separated — the CLI's output format.
    [serialize_with] takes an explicit store handle. *)
val serialize : t -> Xqb_xdm.Value.t -> string

val serialize_with : Xqb_store.Store.t -> Xqb_xdm.Value.t -> string

(** [with_budget t b f] runs [f ()] with resource budget [b]
    installed on the engine's context (evaluator checkpoints) and in
    the domain-local slot the store's axis iterators consult. Both are
    restored on exit, including on exceptions. Evaluation past the
    budget raises {!Xqb_governor.Budget.Budget_exceeded}; run updates
    inside {!Xqb_store.Store.transactionally} to get rollback. *)
val with_budget : t -> Xqb_governor.Budget.t option -> (unit -> 'a) -> 'a

(** [with_tracer t tr f] runs [f ()] with span tracer [tr] installed
    on the engine's context; {!compile}, evaluation, snap application
    and conflict detection record spans into it. Restored on exit. *)
val with_tracer : t -> Xqb_obs.Trace.t option -> (unit -> 'a) -> 'a

(** §5 classification of a compiled body (E7 instrumentation). *)
val body_purity : compiled -> Static.purity

(** The judgements below take a call to a function the program does
    not declare at the classification [within] recorded for it
    ({!declared}); without [within] such a call passes for Pure. *)

(** §5 classification of the whole program: global initializers and
    body. *)
val purity : ?within:t -> compiled -> Static.purity

(** Can this program run without changing the store
    ({!Static.prog_parallel_safe}: Pure and allocation-free)? The
    service's replica write fence. *)
val parallel_safe : ?within:t -> compiled -> bool

(** Static effects footprint ({!Static.Footprint.of_prog}) of a
    compiled program: the (document, path-prefix) regions it may read
    or write. [var_docs] maps host-bound free variables to the URI of
    the catalog document they name (the service binds each loaded
    document to [$uri]); unknown bindings widen to "any document". *)
val footprint :
  ?var_docs:(string -> string option) ->
  ?within:t ->
  compiled ->
  Static.Footprint.t

(** Same as {!run_compiled}. *)
val run_readonly : t -> compiled -> Xqb_xdm.Value.t

val parse_error_message : exn -> string
