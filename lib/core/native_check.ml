(* The guarded native execution path.

   Nothing jumps into jitted machine code without passing three gates,
   in order:

   1. the static machine-code lints (Asmcheck) — a program with a
      [Sev_error] finding is a miscompilation and is rejected outright;
   2. the host-capability probe — a program whose encoding needs an ISA
      extension the CPU (or OS thread state) lacks is *skipped*, never
      failed: the simulator remains authoritative on such hosts;
   3. the encoder itself — an instruction the byte-level backend cannot
      express is a rejection.

   A program that clears the gates still isn't trusted: [check] runs
   the full harness sweep under a differential runner that executes
   every case twice — functional simulator on cloned inputs, native
   code on the originals — and demands the two agree (bit-exactly at
   f64, within [Etype.tol] at f32 where the simulator's
   round-after-every-op semantics legitimately double-rounds) before
   the harness even compares against the reference BLAS.  One sweep
   therefore yields the three-way differential: native vs simulator vs
   reference. *)

module Exec = Augem_sim.Exec_sim
module Et = Augem_machine.Etype
module Arch = Augem_machine.Arch
module Insn = Augem_machine.Insn
module Kernels = Augem_ir.Kernels
module Asmcheck = Augem_analysis.Asmcheck
module Encoder = Augem_jit.Encoder
module Runtime = Augem_jit.Runtime
module Abi = Augem_jit.Abi

type status =
  | Pass
  | Skip of string  (* host cannot run this encoding; not a defect *)
  | Fail of string

let status_to_string = function
  | Pass -> "pass"
  | Skip m -> "skip: " ^ m
  | Fail m -> "FAIL: " ^ m

(* Gate 1: the static lints.  Same checker, same severity split as the
   tuner's candidate filter; warnings pass, errors reject. *)
let lint_gate ~(avx : bool) (prog : Insn.program) : (unit, string) result =
  let findings = Asmcheck.check ~config:(Asmcheck.conservative ~avx) prog in
  match Asmcheck.errors findings with
  | [] -> Ok ()
  | errs ->
      Error
        (Printf.sprintf "asmcheck rejected program (%d error finding%s): %s"
           (List.length errs)
           (if List.length errs = 1 then "" else "s")
           (String.concat "; "
              (List.map Asmcheck.finding_to_string errs)))

type 'a gated =
  | Ready of 'a
  | Unsupported of string
  | Rejected of string

(* All three gates; on success the code is mapped and executable. *)
let load ~(avx : bool) ~(et : Et.t) (prog : Insn.program) :
    Runtime.Exec_buf.t gated =
  match lint_gate ~avx prog with
  | Error m -> Rejected m
  | Ok () -> (
      let req = Runtime.required_features ~avx prog in
      match Runtime.Cpu.missing req with
      | _ :: _ as miss ->
          Unsupported
            (Printf.sprintf "host lacks %s"
               (String.concat ", "
                  (List.map Runtime.Cpu.feature_name miss)))
      | [] -> (
          match Encoder.encode_program ~avx ~et prog with
          | exception Encoder.Encode_error m -> Rejected ("encoder: " ^ m)
          | enc -> Ready (Runtime.Exec_buf.load enc.Encoder.enc_code)))

(* Native-vs-simulator agreement bar: f64 simulation performs the same
   IEEE operations in the same order as the hardware (including fused
   FMA), so the comparison is bit-exact; f32 simulation computes each
   op in double and rounds, which can differ from the hardware's single
   rounding by an ulp per op, so the comparison is tolerance-scaled. *)
let agree_tol (et : Et.t) : float =
  match et with Et.F64 -> 0.0 | Et.F32 -> Et.tol ~k:64 et

(* A harness runner that executes each case on both backends: the
   simulator on cloned buffers, the jitted code on the originals (so
   the harness's own reference comparison sees the *native* outputs),
   then cross-checks the two output sets.  [fuel] applies to the
   simulator half. *)
let differential_with (buf : Runtime.Exec_buf.t) : Harness.runner =
  {
    Harness.run_name = "native+sim";
    run =
      (fun ~et ~fuel prog args ->
        let clones =
          List.map
            (function
              | Exec.Abuf d -> Exec.Abuf (Array.copy d)
              | a -> a)
            args
        in
        match Exec.call ~et ~fuel prog clones with
        | exception Exec.Sim_error m -> Error ("simulator fault: " ^ m)
        | r -> (
            match Abi.call ~et buf args with
            | exception Abi.Abi_error m -> Error ("abi: " ^ m)
            | () ->
                let tol = agree_tol et in
                let rec cmp i = function
                  | [], [] -> Ok (Some r)
                  | Exec.Abuf native :: rest, Exec.Abuf sim :: rest' ->
                      if Harness.arrays_close ~tol native sim then
                        cmp (i + 1) (rest, rest')
                      else
                        Error
                          (Printf.sprintf
                             "native/simulator divergence in buffer \
                              argument %d (%d elements, tol %g)"
                             i (Array.length native) tol)
                  | _ :: rest, _ :: rest' -> cmp (i + 1) (rest, rest')
                  | _ -> Error "native/simulator argument list skew"
                in
                cmp 0 (args, clones)));
  }

(* The full guarded check of one generated program: gates, then the
   complete harness sweep (all shapes, remainder cases, degenerate
   shapes) under the differential runner. *)
let check ?fuel ~(arch : Arch.t) ~(et : Et.t) (kernel : Kernels.name)
    (prog : Insn.program) : status =
  let avx = arch.Arch.simd = Arch.AVX in
  match load ~avx ~et prog with
  | Rejected m -> Fail m
  | Unsupported m -> Skip m
  | Ready buf ->
      let runner = differential_with buf in
      let outcome = Harness.verify ~runner ~et ?fuel kernel prog in
      Runtime.Exec_buf.release buf;
      if outcome.Harness.ok then Pass else Fail outcome.Harness.detail

(* Host capability summary, for CLI/service surfaces. *)
let host_features () : (string * bool) list = Runtime.Cpu.describe ()

let host_supported () : bool =
  Runtime.Cpu.have Runtime.Cpu.SSE2 && Runtime.Cpu.have Runtime.Cpu.AVX
