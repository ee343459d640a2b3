(* The dynamic context (dynEnv of §3.4) plus the implementation
   machinery the formal semantics leaves implicit: the store handle,
   the snap stack, the seeded RNG for the nondeterministic semantics
   and the document registry backing fn:doc.

   Variable bindings and the focus (context item / position / size)
   are *not* in here — the evaluator threads them functionally, which
   matches the substitution-style formal rules and makes scoping bugs
   impossible. *)

module SMap = Map.Make (String)

module FMap = Map.Make (struct
  type t = string * int  (* qname string, arity *)

  let compare = compare
end)

type focus = { item : Xqb_xdm.Item.t; position : int; size : int }

type env = Xqb_xdm.Value.t SMap.t

type func = {
  params : (string * Xqb_syntax.Ast.seq_type option) list;
  return_type : Xqb_syntax.Ast.seq_type option;
  body : Core_ast.expr;
  purity : Static.purity;
  allocates : bool;
    (* §5's flag, recorded when the function is declared: what a
       later query's judgements take for a call to it *)
}

type t = {
  store : Xqb_store.Store.t;
  mutable functions : func FMap.t;
    (* a persistent map, replaced whole on each declaration: a query
       compiled while another of the session runs reads a consistent
       snapshot, and the running query never sees a torn table *)
  snaps : Snap_stack.t;
  rand : Random.State.t;
  docs : (string, Xqb_store.Store.node_id) Hashtbl.t;
  mutable doc_lookup : (string -> Xqb_store.Store.node_id option) option;
    (* secondary registry consulted on a [docs] miss before the
       resolver — the service layer points it at the shared document
       catalog. Must not load anything: lookup only. *)
  mutable doc_resolver : (string -> string) option;  (* uri -> XML text *)
  mutable globals : Xqb_xdm.Value.t SMap.t;  (* module-level variables *)
  mutable on_apply : (Update.delta -> Apply.mode -> unit) option;
    (* observability hook: called with each ∆ right before a snap
       applies it (CLI --trace-updates) *)
  mutable apply_wrap : ((unit -> unit) -> unit) option;
    (* concurrency hook: when set, the top-level snap's apply phase
       (Apply.apply plus its timing) runs inside this wrapper. The
       service's footprint scheduler points it at a global apply
       mutex + WAL group commit so footprint-disjoint writers can
       *evaluate* concurrently while ∆ application stays serial.
       None = apply inline (CLI, Effecting jobs). *)
  mutable steps_evaluated : int;  (* instrumentation for the benches *)
  mutable ddo_elided : int;
    (* instrumentation: statically elided ddo sorts actually reached
       at runtime (the "%ddo-elided" builtin / plan node) *)
  mutable budget : Xqb_governor.Budget.t option;
    (* resource budget charged by the evaluator (and, via the
       domain-local mirror, by store axis iteration); None = ungoverned.
       Installed around a run by [Engine.with_budget]. *)
  mutable tracer : Xqb_obs.Trace.t option;
    (* per-query span tracer; None = tracing off, so every
       instrumentation point costs one option match. Installed around
       a run by [Engine.with_tracer]. *)
  delta_stats : Update.stats;
    (* ∆ introspection: per-evaluation counters of applied snaps,
       requests by kind, snap-depth histogram, conflict checks —
       behind the DELTA wire command and --show-delta *)
  mutable apply_ns : int;
    (* cumulative wall time this evaluation spent applying ∆s (the
       apply phase of every snap), feeding the service's slow-effect
       log *)
}

let create ?(seed = 0x5eed) ?store () =
  let store = match store with Some s -> s | None -> Xqb_store.Store.create () in
  {
    store;
    functions = FMap.empty;
    snaps = Snap_stack.create ();
    rand = Random.State.make [| seed |];
    docs = Hashtbl.create 4;
    doc_lookup = None;
    doc_resolver = None;
    globals = SMap.empty;
    on_apply = None;
    apply_wrap = None;
    steps_evaluated = 0;
    ddo_elided = 0;
    budget = None;
    tracer = None;
    delta_stats = Update.stats_create ();
    apply_ns = 0;
  }

let declare_function ctx name arity (f : func) =
  ctx.functions <-
    FMap.add (Xqb_xml.Qname.to_string name, arity) f ctx.functions

let find_function ctx name arity =
  FMap.find_opt (Xqb_xml.Qname.to_string name, arity) ctx.functions

let register_doc ctx uri node = Hashtbl.replace ctx.docs uri node

let resolve_doc ctx uri =
  match Hashtbl.find_opt ctx.docs uri with
  | Some n -> n
  | None -> (
    match (match ctx.doc_lookup with Some f -> f uri | None -> None) with
    | Some n ->
      Hashtbl.replace ctx.docs uri n;
      n
    | None -> (
      match ctx.doc_resolver with
      | None -> Xqb_xdm.Errors.raise_error "FODC0002" "document %S not found" uri
      | Some resolve ->
        let xml = resolve uri in
        let n = Xqb_store.Store.load_string ctx.store xml in
        Hashtbl.replace ctx.docs uri n;
        n))

(* Run [f] under a tracing span when a tracer is installed — one
   option match when not, which is the whole cost of disabled
   tracing. On a governed context the span is annotated with the
   budget fuel consumed while it was open, giving the per-phase fuel
   breakdown without a second accounting mechanism. *)
let span ?cat ctx name f =
  match ctx.tracer with
  | None -> f ()
  | Some tr ->
    let fuel_before =
      match ctx.budget with
      | Some b -> Xqb_governor.Budget.steps_used b
      | None -> -1
    in
    let id = Xqb_obs.Trace.begin_span ?cat tr name in
    Fun.protect
      ~finally:(fun () ->
        let args =
          match ctx.budget with
          | Some b when fuel_before >= 0 ->
            [ ("fuel", string_of_int (Xqb_governor.Budget.steps_used b - fuel_before)) ]
          | _ -> []
        in
        Xqb_obs.Trace.end_span ~args tr id)
      f

let empty_env : env = SMap.empty

let bind env v value : env = SMap.add v value env

let lookup env v =
  match SMap.find_opt v env with
  | Some value -> value
  | None -> Xqb_xdm.Errors.undefined_variable "undefined variable $%s" v
