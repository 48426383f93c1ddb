(* The record a traced lowering ([Lower.run]) leaves behind: one
   [stage_record] per stage (name, artifact kind, wall time,
   fingerprint, size counters, optional snapshot) plus the final
   artifacts the callers need.  `augem explain` renders the whole
   trace, and the determinism suite compares two traces field-by-field
   (timings excluded).  The tuner builds none: it lowers through
   [Lower.program] and reads stage names out of failures. *)

open Augem_ir
open Augem_machine
open Augem_templates

type stage_record = {
  sr_index : int;  (** position in the stage list, 0-based *)
  sr_name : string;
  sr_kind : string;  (** artifact kind, see {!Stage.kind} *)
  sr_ms : float;
      (** wall-clock milliseconds for run, validate and budget check *)
  sr_fingerprint : string;
  sr_stats : (string * int) list;  (** artifact-size counters *)
  sr_artifact : string option;  (** snapshot, when requested *)
}

type t = {
  tr_kernel : string;  (** kernel (function) name *)
  tr_arch : string;  (** architecture name *)
  tr_et : Etype.t;  (** scalar precision the lowering ran under *)
  tr_config : string;  (** rendered tuning configuration *)
  tr_stages : stage_record list;  (** in execution order *)
  tr_optimized : Ast.kernel;  (** after the last C pass *)
  tr_annotated : Matcher.akernel;
  tr_program : Insn.program;  (** the final program *)
}

let program (t : t) : Insn.program = t.tr_program
let annotated (t : t) : Matcher.akernel = t.tr_annotated
let optimized (t : t) : Ast.kernel = t.tr_optimized
let stage_names (t : t) : string list = List.map (fun r -> r.sr_name) t.tr_stages
