(** Backward liveness analysis over the structured IR.

    The paper uses global live ranges to decide when a scalar's
    register can be released and to annotate template regions with
    their live-out variables (its section 3.1). *)

module SS : Set.S with type elt = string and type t = Set.Make(String).t

val reads_expr : Augem_ir.Ast.expr -> SS.t
val reads_lvalue : Augem_ir.Ast.lvalue -> SS.t

(** Scalars written by one statement (stores through pointers kill
    nothing). *)
val defs_stmt : Augem_ir.Ast.stmt -> SS.t

(** Scalars assigned anywhere in a block, including loop counters. *)
val defs_block : Augem_ir.Ast.stmt list -> SS.t

(** [live_stmt s ~live_out] is the set of scalars live before [s].
    Loops reach a fixpoint over the back edge (zero-or-more-trips
    semantics). *)
val live_stmt : Augem_ir.Ast.stmt -> live_out:SS.t -> SS.t

val live_block : Augem_ir.Ast.stmt list -> live_out:SS.t -> SS.t

(** Pair each statement with the set of scalars live {e after} it. *)
val annotate :
  Augem_ir.Ast.stmt list ->
  live_out:SS.t ->
  (Augem_ir.Ast.stmt * SS.t) list

(** A statement, the scalars live after it, and its nested blocks
    annotated the same way: a loop's body (one list), an [If]'s then and
    else arms (two), a [Tagged] region's body (one); no list for any
    other statement. *)
type annotated = {
  an_stmt : Augem_ir.Ast.stmt;
  an_after : SS.t;
  an_nested : annotated list list;
}

(** [annotate_tree stmts ~live_out] annotates a whole statement tree in
    one pass: each statement is summarised once and each loop's
    fixpoint is taken once, in closed form.  Every statement gets the
    live-after set {!annotate} gives it within its block, where a loop
    body's live-out is the loop's live-after ∪ its live-in (a
    conservative cover of the back edge), an [If]'s arms' is the
    [If]'s live-after and a [Tagged] body's is the region's
    live-after.  It keeps no state between calls. *)
val annotate_tree : Augem_ir.Ast.stmt list -> live_out:SS.t -> annotated list
