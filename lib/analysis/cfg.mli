(** Control-flow graph over a generated machine program.

    Basic blocks are maximal runs of instructions with one entry (the
    leader) and one exit: leaders are the first instruction, every
    [Label], every branch target, and every instruction following a
    [Jmp]/[Jcc]/[Ret].  Edges follow [Jmp] (unconditional), [Jcc]
    (target + fallthrough) and plain fallthrough; [Ret] ends a path.

    Malformations that make the graph unbuildable as intended —
    branches to labels that do not exist, duplicate labels, control
    falling off the end of the program — are collected as {!issue}s
    rather than raised, so the static checker can report them as
    findings on hostile (e.g. fault-injected) inputs. *)

type block = {
  b_id : int;
  b_first : int;  (** index of the first instruction of the block *)
  b_last : int;  (** index of the last instruction (inclusive) *)
  b_succs : int list;  (** successor block ids *)
  b_preds : int list;  (** predecessor block ids *)
}

type issue =
  | Undefined_target of { index : int; label : string }
      (** a [Jmp]/[Jcc] at [index] names a label that is not defined *)
  | Duplicate_label of { index : int; label : string }
      (** a label bound more than once; the first binding wins *)
  | Falls_off_end of { index : int }
      (** control can reach past the last instruction (no [Ret]) *)

type t = {
  insns : Augem_machine.Insn.t array;
  blocks : block array;
  block_of : int array;  (** instruction index -> owning block id *)
  labels : (string, int) Hashtbl.t;  (** label -> instruction index *)
  issues : issue list;
  reachable : bool array;  (** per block, from the entry block *)
}

val build : Augem_machine.Insn.program -> t
