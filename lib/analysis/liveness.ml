(* Backward liveness analysis over the structured IR.  The paper uses
   global live ranges to decide when a scalar's register can be released
   and to annotate template regions with their live-out variables
   (section 3.1: "the live range of each variable is computed globally
   during the template identification process"). *)

module SS = Set.Make (String)

open Augem_ir.Ast

let reads_expr e = SS.of_list (expr_vars e)

(* Variables written by a statement (scalar definitions only; stores
   through pointers do not kill anything). *)
let defs_stmt = function
  | Decl (_, v, _) -> SS.singleton v
  | Assign (Lvar v, _) -> SS.singleton v
  | Assign (Lindex _, _) | For _ | If _ | Prefetch _ | Comment _ | Tagged _ ->
      SS.empty

let rec defs_block stmts =
  List.fold_left
    (fun acc s ->
      match s with
      | For (h, body) -> SS.union acc (SS.add h.loop_var (defs_block body))
      | If (_, _, _, t, f) ->
          SS.union acc (SS.union (defs_block t) (defs_block f))
      | Tagged (_, body) -> SS.union acc (defs_block body)
      | s -> SS.union acc (defs_stmt s))
    SS.empty stmts

(* live_in of a statement given variables live after it. *)
let rec live_stmt (s : stmt) ~(live_out : SS.t) : SS.t =
  match s with
  | Decl (_, v, init) ->
      let gen = match init with Some e -> reads_expr e | None -> SS.empty in
      SS.union gen (SS.remove v live_out)
  | Assign (Lvar v, e) -> SS.union (reads_expr e) (SS.remove v live_out)
  | Assign (Lindex (a, i), e) ->
      live_out |> SS.add a |> SS.union (reads_expr i) |> SS.union (reads_expr e)
  | Prefetch (_, base, off) -> live_out |> SS.add base |> SS.union (reads_expr off)
  | Comment _ -> live_out
  | Tagged (_, body) -> live_block body ~live_out
  | If (a, _, b, t, f) ->
      let lt = live_block t ~live_out and lf = live_block f ~live_out in
      SS.union lt lf |> SS.union (reads_expr a) |> SS.union (reads_expr b)
  | For (h, body) ->
      (* The loop may execute zero or more times.  Variables live at the
         loop head are: uses of the header, live_out (zero-trip case),
         and the fixpoint of the body with the back edge. *)
      let header_uses =
        SS.union (reads_expr h.loop_bound) (reads_expr h.loop_step)
        |> SS.add h.loop_var
      in
      let rec fix acc =
        let body_out = SS.union acc (SS.union live_out header_uses) in
        let body_in = live_block body ~live_out:body_out in
        let acc' = SS.union acc body_in in
        if SS.equal acc acc' then acc else fix acc'
      in
      let body_in = fix SS.empty in
      SS.union live_out header_uses
      |> SS.union body_in
      |> SS.union (reads_expr h.loop_init)
      |> SS.remove h.loop_var
      |> SS.union (reads_expr h.loop_init)

and live_block (stmts : stmt list) ~(live_out : SS.t) : SS.t =
  List.fold_right (fun s acc -> live_stmt s ~live_out:acc) stmts live_out

(* [annotate stmts ~live_out] pairs each statement with the set of
   variables live *after* it. *)
let annotate (stmts : stmt list) ~(live_out : SS.t) : (stmt * SS.t) list =
  snd
    (List.fold_right
       (fun s (after, annotated) ->
         (live_stmt s ~live_out:after, (s, after) :: annotated))
       stmts (live_out, []))

(* --- one pass over a statement tree ------------------------------------ *)

(* Each statement's effect is a gen/kill transfer, live_in = gen ∪
   (live_out \ kill), and so is a block's, a branch's and a loop's:
   [live_stmt]'s loop fixpoint settles after one trip round the back
   edge, at body_in = gen_b ∪ ((live_out ∪ header uses) \ kill_b), so
   a loop's transfer has a closed form.  Summarising every statement
   once, bottom-up, and then walking each block backward with the
   concrete set gives every statement the live-after set [annotate]
   gives it, without re-running a loop's fixpoint at each enclosing
   level. *)
type transfer = { gen : SS.t; kill : SS.t }

let through t live_out = SS.union t.gen (SS.diff live_out t.kill)

(* the transfer of [a] followed by [b] *)
let seq a b =
  { gen = SS.union a.gen (SS.diff b.gen a.kill); kill = SS.union a.kill b.kill }

type annotated = {
  an_stmt : stmt;
  an_after : SS.t;
  an_nested : annotated list list;
}

(* A statement's transfer, and the function that annotates it and its
   nested blocks once its live-after set is known. *)
let rec summarize (s : stmt) : transfer * (SS.t -> annotated) =
  let node nested after =
    { an_stmt = s; an_after = after; an_nested = nested }
  in
  let leaf gen kill = ({ gen; kill }, node []) in
  match s with
  | Decl (_, v, init) ->
      leaf
        (match init with Some e -> reads_expr e | None -> SS.empty)
        (SS.singleton v)
  | Assign (Lvar v, e) -> leaf (reads_expr e) (SS.singleton v)
  | Assign (Lindex (a, i), e) ->
      leaf (SS.add a (SS.union (reads_expr i) (reads_expr e))) SS.empty
  | Prefetch (_, base, off) -> leaf (SS.add base (reads_expr off)) SS.empty
  | Comment _ -> leaf SS.empty SS.empty
  | Tagged (_, body) ->
      let t, body_at = summarize_block body in
      (t, fun after -> node [ body_at after ] after)
  | If (a, _, b, th, el) ->
      let tt, then_at = summarize_block th
      and tf, else_at = summarize_block el in
      ( {
          gen =
            SS.union (SS.union tt.gen tf.gen)
              (SS.union (reads_expr a) (reads_expr b));
          kill = SS.inter tt.kill tf.kill;
        },
        fun after -> node [ then_at after; else_at after ] after )
  | For (h, body) ->
      let tb, body_at = summarize_block body in
      let header =
        SS.union (reads_expr h.loop_bound) (reads_expr h.loop_step)
      in
      let gen =
        SS.union
          (SS.remove h.loop_var (SS.union header tb.gen))
          (reads_expr h.loop_init)
      in
      (* zero trips pass everything but the counter through; the body's
         live-out is the conservative one the matcher has always used,
         the loop's live-after ∪ its live-in *)
      ( { gen; kill = SS.singleton h.loop_var },
        fun after -> node [ body_at (SS.union after gen) ] after )

and summarize_block (stmts : stmt list) : transfer * (SS.t -> annotated list) =
  let parts = List.map summarize stmts in
  ( List.fold_right
      (fun (t, _) acc -> seq t acc)
      parts
      { gen = SS.empty; kill = SS.empty },
    fun live_out ->
      snd
        (List.fold_right
           (fun (t, at) (after, annotated) ->
             (through t after, at after :: annotated))
           parts (live_out, [])) )

(* [annotate_tree stmts ~live_out]: every statement with the scalars
   live after it, nested blocks annotated in place — a loop body at the
   loop's live-after ∪ its live-in, an [If]'s arms and a [Tagged] body
   at the statement's live-after.  Nothing outlives the call. *)
let annotate_tree (stmts : stmt list) ~(live_out : SS.t) : annotated list =
  snd (summarize_block stmts) live_out
