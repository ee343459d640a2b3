(* Applying a ∆ to the store under the three semantics of §3.2:

   - [Ordered]: requests applied exactly in ∆ order;
   - [Nondeterministic]: requests applied in an arbitrary order — here
     a *seeded pseudo-random permutation*, so tests can demonstrate
     both the nondeterminism and the order-independence claims
     deterministically;
   - [Conflict_detection]: linear-time verification first
     ([Conflict.check]); if it succeeds the order of application is
     immaterial (we still permute, as a self-check); if it fails the
     whole application fails.

   Every application runs inside [Store.transactionally], so a failed
   application (precondition violation or detected conflict) leaves
   the store exactly as it was: the paper's "update application is
   undefined" never corrupts state in this implementation. *)

type mode = Ordered | Nondeterministic | Conflict_detection

let mode_of_snap (m : Core_ast.snap_mode) =
  match m with
  | Core_ast.Snap_default | Core_ast.Snap_ordered | Core_ast.Snap_atomic ->
    Ordered
  | Core_ast.Snap_nondeterministic -> Nondeterministic
  | Core_ast.Snap_conflict -> Conflict_detection

let mode_to_string = function
  | Ordered -> "ordered"
  | Nondeterministic -> "nondeterministic"
  | Conflict_detection -> "conflict-detection"

(* Deterministic Fisher-Yates shuffle from a caller-provided state. *)
let permute rand_state arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Random.State.int rand_state (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done

let apply_ordered store (delta : Update.delta) =
  List.iter (Update.apply_request store) delta

let apply_permuted store rand_state (delta : Update.delta) =
  let arr = Array.of_list delta in
  permute rand_state arr;
  Array.iter (Update.apply_request store) arr

(* Apply [delta] to [store] under [mode]. Raises [Conflict.Conflict]
   or [Store.Update_error]; in both cases the store is rolled back.
   When [tracer] is given, the conflict-detection check gets its own
   span (it is the one application phase whose cost scales with |∆|²
   worst-case conflict classes, so it is worth seeing separately). *)
let apply ?rand_state ?tracer store mode (delta : Update.delta) =
  (* nothing to apply: no transaction, so no journal markers *)
  if delta = [] then ()
  else
    let rand_state =
      match rand_state with Some r -> r | None -> Random.State.make [| 0x5eed |]
    in
    Xqb_store.Store.transactionally store (fun () ->
        match mode with
        | Ordered -> apply_ordered store delta
        | Nondeterministic -> apply_permuted store rand_state delta
        | Conflict_detection ->
          (match tracer with
          | Some tr when Xqb_obs.Trace.enabled tr ->
            Xqb_obs.Trace.with_span ~cat:"snap"
              ~args:[ ("requests", string_of_int (List.length delta)) ]
              tr "conflict.check"
              (fun () -> Conflict.check ~store delta)
          | _ -> Conflict.check ~store delta);
          apply_permuted store rand_state delta)
