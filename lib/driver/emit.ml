(* The assembly generator's emit options and its untraced entry point
   over the staged-lowering driver: [generate] folds the backend stages
   (template identification to frame emission) on low-level C.  A
   stage's exception propagates unwrapped, for callers that match on
   the code generator's own exceptions. *)

open Augem_ir
open Augem_machine
open Augem_codegen

type options = {
  prefer : Plan.prefer;
  max_width : Insn.vwidth option;  (** cap vector width (None = machine) *)
}

let default_options = { prefer = Plan.Prefer_auto; max_width = None }

(* The driver's defaults under these emit options. *)
let lower_opts (opts : options) : Lower.opts =
  { Lower.default_opts with Lower.prefer = opts.prefer; max_width = opts.max_width }

(* Generate a complete (unscheduled) assembly program from low-level
   C. *)
let generate ~(arch : Arch.t) ?(opts = default_options) (k : Ast.kernel) :
    Insn.program =
  let opts = { (lower_opts opts) with Lower.schedule = false } in
  match
    Lower.fold ~opts
      (Lower.backend_stages opts arch ~params:k.Ast.k_params)
      (Stage.A_kernel k)
  with
  | art -> Lower.final_program art ~who:"Emit.generate"
  | exception Lower.Stage_failed (_, exn) -> raise exn
