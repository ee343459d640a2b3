(* The public entry point: compile and run XQuery! programs.

   Pipeline (§4.2): parse -> normalize -> static checks -> (optional
   algebraic compilation, in [Xqb_algebra]) -> evaluate. The top-level
   query is wrapped in an implicit snap (§2.3), whose mode defaults to
   ordered and can be overridden per run. *)

module Value = Xqb_xdm.Value
module Item = Xqb_xdm.Item
module Store = Xqb_store.Store
module Qname = Xqb_xml.Qname

type t = { ctx : Context.t }

exception Compile_error of string

let create ?seed ?store () =
  let ctx = Context.create ?seed ?store () in
  { ctx }

let context t = t.ctx
let store t = t.ctx.Context.store

(* Load an XML document into the store, register it for fn:doc under
   [uri], and return its document node. *)
let load_document t ~uri xml =
  let doc = Store.load_string (store t) xml in
  Context.register_doc t.ctx uri doc;
  doc

let set_doc_resolver t f = t.ctx.Context.doc_resolver <- Some f

(* Bind a global variable visible to subsequent queries. *)
let bind t name value =
  t.ctx.Context.globals <- Context.bind t.ctx.Context.globals name value

let bind_node t name node = bind t name (Value.of_node node)

let lookup_global t name = Context.SMap.find_opt name t.ctx.Context.globals

type compiled = {
  prog : Normalize.prog;
  source : string;
  rewrites : (string * int) list;  (* simplifier rules fired (§4.2) *)
  type_warnings : string list;  (* static-typing warnings (advisory) *)
  calls_out : bool;
    (* calls a function declared by an earlier query: the purity,
       allocation and footprint judgements depend on the session *)
}

let parse_error_message = function
  | Xqb_syntax.Parser.Error (l, c, m) -> Printf.sprintf "parse error %d:%d: %s" l c m
  | Xqb_syntax.Lexer.Error (l, c, m) -> Printf.sprintf "lex error %d:%d: %s" l c m
  | Normalize.Static_error m -> Printf.sprintf "static error: %s" m
  | e -> Printexc.to_string e

(* Merge two rule-count alists. *)
let merge_counts a b =
  List.fold_left
    (fun acc (rule, n) ->
      match List.assoc_opt rule acc with
      | Some m -> (rule, m + n) :: List.remove_assoc rule acc
      | None -> (rule, n) :: acc)
    a b

(* The §5 classification the engine recorded for each function it
   has declared — what a program calling one of them is judged with. *)
let declared t : Static.extern =
 fun name arity ->
  Option.map
    (fun (f : Context.func) -> (f.Context.purity, f.Context.allocates))
    (Context.find_function t.ctx name arity)

(* Install a compiled program's function declarations into the engine,
   each with its classification: the program's own fixpoint, with
   calls to functions declared earlier judged by what was recorded
   for them. [compile] does this automatically; the service layer's
   plan cache calls it on cache hits, where the parse/normalize/
   rewrite phases are skipped but a fresh session still needs the
   declarations. *)
let install_functions t (c : compiled) =
  let funcs = c.prog.Normalize.functions in
  let extern = declared t in
  (* both classifications list [funcs] in order *)
  List.iter2
    (fun (f : Normalize.func) ((_, _, purity), (_, _, allocates)) ->
      Context.declare_function t.ctx f.Normalize.fname
        (List.length f.Normalize.params)
        {
          Context.params = f.Normalize.params;
          return_type = f.Normalize.return_type;
          body = f.Normalize.body;
          purity;
          allocates;
        })
    funcs
    (List.combine
       (Static.classify_functions ~extern funcs)
       (Static.classify_alloc_functions ~extern funcs))

(* Parse, normalize, statically check and simplify a program (§4.2's
   "phase of syntactic rewriting", with purity guards). Function
   declarations are installed into the engine so later [compile]d
   queries can call them too. [tracer] receives the compile spans in
   place of the context's own tracer: compiling touches no other
   mutable state of the context, so a session can compile its next
   query while the context runs the previous one. *)
let compile ?(simplify = true) ?(elide_ddo = true) ?tracer t source : compiled =
  let sctx =
    match tracer with
    | None -> t.ctx
    | Some tracer -> { t.ctx with Context.tracer; budget = None }
  in
  Xqb_obs.Profile.with_phase "compile" @@ fun () ->
  Context.span ~cat:"compile" sctx "compile" @@ fun () ->
  let extra_fns =
    Context.FMap.fold
      (fun (name, arity) _ acc -> (Qname.of_string name, arity) :: acc)
      t.ctx.Context.functions []
  in
  let prog =
    try
      let ast =
        Context.span ~cat:"compile" sctx "parse" (fun () ->
            Xqb_syntax.Parser.parse_prog source)
      in
      Context.span ~cat:"compile" sctx "normalize" (fun () ->
          Normalize.normalize_prog ~extra_fns ~is_builtin:Functions.is_builtin ast)
    with
    | (Xqb_syntax.Parser.Error _ | Xqb_syntax.Lexer.Error _ | Normalize.Static_error _)
      as e ->
      raise (Compile_error (parse_error_message e))
  in
  let host_bound =
    Context.SMap.fold (fun k _ acc -> k :: acc) t.ctx.Context.globals []
  in
  (try
     Context.span ~cat:"compile" sctx "static.check" (fun () ->
         Static.check_prog ~initial:host_bound prog)
   with Normalize.Static_error m -> raise (Compile_error ("static error: " ^ m)));
  (* §4.2 syntactic rewriting, guarded by the purity judgement. *)
  let rewrites = ref [] in
  let prog =
    if not simplify then prog
    else
      Context.span ~cat:"compile" sctx "simplify" @@ fun () ->
      let purity = Static.purity_oracle ~extern:Static.opaque_extern prog in
      let simp e =
        let e', stats = Rewrite.simplify ~purity e in
        rewrites := merge_counts !rewrites stats;
        e'
      in
      {
        Normalize.global_vars =
          List.map (fun (v, ty, e) -> (v, ty, simp e)) prog.Normalize.global_vars;
        functions =
          List.map
            (fun (f : Normalize.func) -> { f with Normalize.body = simp f.Normalize.body })
            prog.Normalize.functions;
        body = Option.map simp prog.Normalize.body;
      }
  in
  (* Document-order analysis: elide provably redundant ddo sorts.
     After [simplify] (whose rules pattern-match "%ddo" literally),
     before [Typing.check_prog] (which types "%ddo-elided"). *)
  let prog =
    if not elide_ddo then prog
    else
      Context.span ~cat:"compile" sctx "ddo-elide" @@ fun () ->
      let purity = Static.purity_oracle ~extern:Static.opaque_extern prog in
      let elided = ref 0 in
      let el e =
        let e', n = Static.elide_ddo ~purity e in
        elided := !elided + n;
        e'
      in
      let prog =
        {
          Normalize.global_vars =
            List.map (fun (v, ty, e) -> (v, ty, el e)) prog.Normalize.global_vars;
          functions =
            List.map
              (fun (f : Normalize.func) -> { f with Normalize.body = el f.Normalize.body })
              prog.Normalize.functions;
          body = Option.map el prog.Normalize.body;
        }
      in
      if !elided > 0 then
        rewrites := merge_counts !rewrites [ ("ddo-elide", !elided) ];
      prog
  in
  let type_warnings =
    Context.span ~cat:"compile" sctx "typing" (fun () -> Typing.check_prog prog)
  in
  let c =
    {
      prog;
      source;
      rewrites = !rewrites;
      type_warnings;
      calls_out = Static.calls_out prog;
    }
  in
  install_functions t c;
  c

(* Evaluate the global-variable declarations of a compiled program (in
   order, under the implicit top-level snap like the body). *)
let eval_globals ?(mode = Core_ast.Snap_ordered) t (c : compiled) =
  List.iter
    (fun (v, ty, e) ->
      let wrapped = Core_ast.Snap (mode, e) in
      let value = Eval.eval t.ctx t.ctx.Context.globals None wrapped in
      (match ty with
      | Some ty ->
        if not (Types.matches (store t) ty value) then
          raise
            (Compile_error
               (Printf.sprintf "global $%s does not match its declared type" v))
      | None -> ());
      bind t v value)
    c.prog.Normalize.global_vars

(* Run a compiled program's body under the implicit top-level snap. *)
let run_compiled ?(mode = Core_ast.Snap_ordered) t (c : compiled) : Value.t =
  Xqb_obs.Profile.with_phase "run" @@ fun () ->
  Context.span ~cat:"exec" t.ctx "eval" @@ fun () ->
  eval_globals ~mode t c;
  match c.prog.Normalize.body with
  | None -> []
  | Some body ->
    Eval.eval t.ctx t.ctx.Context.globals None (Core_ast.Snap (mode, body))

(* One-shot: compile and run. *)
let run ?mode t source : Value.t =
  let c = compile t source in
  run_compiled ?mode t c

(* Serialize a value the way the CLI prints results: nodes as XML,
   atomics space-separated. [serialize_with] takes an explicit store
   handle. *)
let serialize_with store (v : Value.t) : string =
  let buf = Buffer.create 256 in
  let last_was_atomic = ref false in
  List.iter
    (fun item ->
      match item with
      | Item.Node n ->
        Buffer.add_string buf (Store.serialize store n);
        last_was_atomic := false
      | Item.Atomic a ->
        if !last_was_atomic then Buffer.add_char buf ' ';
        Buffer.add_string buf (Xqb_xdm.Atomic.to_string a);
        last_was_atomic := true)
    v;
  Buffer.contents buf

let serialize t (v : Value.t) : string = serialize_with (store t) v

(* Run [f] with [budget] governing the engine: installed both on the
   context (evaluator checkpoints) and in
   the domain-local slot the store's axis iterators consult. Restored
   on exit, exceptional or not — a scheduler worker domain outlives
   many governed jobs, so leaking either installation would charge a
   later query against a dead budget. *)
let with_budget t budget f =
  let ctx = t.ctx in
  let saved = ctx.Context.budget in
  ctx.Context.budget <- budget;
  Fun.protect
    ~finally:(fun () -> ctx.Context.budget <- saved)
    (fun () -> Xqb_governor.Budget.with_current budget f)

(* Run [f] with [tracer] installed on the engine's context. Restored
   on exit for the same reason as [with_budget]: worker domains
   outlive jobs. *)
let with_tracer t tracer f =
  let ctx = t.ctx in
  let saved = ctx.Context.tracer in
  ctx.Context.tracer <- tracer;
  Fun.protect ~finally:(fun () -> ctx.Context.tracer <- saved) f

(* The judgements below take the program's calls to functions it
   does not declare at the classification [within] recorded for them
   (none: such calls pass for Pure). *)
let extern_of within = Option.map declared within

(* Purity of a compiled body (E7's instrumentation). *)
let body_purity (c : compiled) =
  match c.prog.Normalize.body with
  | None -> Static.Pure
  | Some body -> Static.purity_in_prog c.prog body

(* Purity of the whole program: globals and body. *)
let purity ?within (c : compiled) =
  Static.prog_purity ?extern:(extern_of within) c.prog

(* Can this program run without changing the store? See
   {!Static.prog_parallel_safe}: the replica's write fence. *)
let parallel_safe ?within (c : compiled) =
  Static.prog_parallel_safe ?extern:(extern_of within) c.prog

(* Static effects footprint of a compiled program — the (document,
   path-prefix) regions it may read or write. The service's footprint
   scheduler admits jobs with provably disjoint footprints
   concurrently; [var_docs] lets the caller name host-bound variables
   that hold catalog document roots (the service binds each loaded
   document to [$uri]). *)
let footprint ?var_docs ?within (c : compiled) =
  Static.Footprint.of_prog ?var_docs ?extern:(extern_of within) c.prog

(* An alias of [run_compiled] (perfbench's traced replay calls it). *)
let run_readonly t (c : compiled) : Value.t = run_compiled t c
