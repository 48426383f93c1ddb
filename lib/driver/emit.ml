(* Back-compatible [Emit] API over the staged-lowering driver.  The
   historical entry points of the assembly generator — unscheduled
   generation from low-level C or from an annotated kernel — are thin
   wrappers over {!Lower.program_of_annotated}; exceptions raised inside a
   stage propagate unwrapped, exactly as the monolith raised them. *)

open Augem_ir
open Augem_machine
open Augem_templates
open Augem_codegen
module M = Matcher

type options = {
  prefer : Plan.prefer;
  max_width : Insn.vwidth option;  (** cap vector width (None = machine) *)
}

let default_options = { prefer = Plan.Prefer_auto; max_width = None }

let lower_opts (opts : options) : Lower.opts =
  {
    Lower.default_opts with
    Lower.prefer = opts.prefer;
    max_width = opts.max_width;
    schedule = false;
  }

(* Generate a complete (unscheduled) assembly program from a
   template-annotated kernel. *)
let generate_annotated ~(arch : Arch.t) ?(opts = default_options)
    (ak : M.akernel) : Insn.program =
  match Lower.program_of_annotated ~opts:(lower_opts opts) ~arch ak with
  | prog -> prog
  | exception Lower.Stage_failed (_, exn) -> raise exn

(* Convenience: identify + generate from low-level C. *)
let generate ~(arch : Arch.t) ?(opts = default_options) (k : Ast.kernel) :
    Insn.program =
  generate_annotated ~arch ~opts (M.identify k)
