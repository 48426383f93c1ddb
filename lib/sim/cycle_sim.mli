(** Cycle-level model of the generated kernels.

    The steady-state cost of the hot innermost loop is measured by
    list-scheduling replicated copies of its body on the architecture's
    execution resources (dependences, latencies, unit throughputs,
    issue width) and differencing the makespans — the software-
    pipelining estimate kernel writers use.  This captures exactly the
    effects the paper attributes wins to: FMA vs Mul+Add, 256-bit vs
    128-bit datapaths, accumulator-chain latencies, and loop
    overhead. *)

type loop_info = {
  li_label : string;
  li_body : Augem_machine.Insn.t list;
  li_flops : int;  (** per iteration *)
  li_loads : int;
  li_stores : int;
  li_load_bytes : int;
  li_store_bytes : int;
  li_prefetches : int;
  li_cycles : float;  (** steady-state cycles per iteration *)
}

(** Innermost loops of a program: label and body (including the
    back-edge compare/branch). *)
val innermost_loops :
  Augem_machine.Insn.program -> (string * Augem_machine.Insn.t list) list

(** Steady-state cycles per iteration.  [`Out_of_order] (default)
    models renamed registers and address-based memory disambiguation —
    the real Sandy Bridge / Piledriver cores; [`In_order] issues in
    program order with no renaming, which is what makes the static
    instruction scheduler measurable (the scheduling ablation). *)
val steady_cycles :
  ?pipeline_model:[ `Out_of_order | `In_order ] ->
  Augem_machine.Arch.t ->
  Augem_machine.Insn.t list ->
  float

(** [et] sets the element type flop and byte counts are taken at
    (default f64: a 256-bit FMA is 8 flops of f64, 16 of f32). *)
val analyze :
  ?pipeline_model:[ `Out_of_order | `In_order ] ->
  ?et:Augem_machine.Etype.t ->
  Augem_machine.Arch.t ->
  Augem_machine.Insn.program ->
  loop_info list

(** The hot loop: most flops per iteration, then most bytes loaded,
    first-seen on a tie — the first-seen maximum over {!analyze} by
    those two counts.  They are static, so only that loop is
    scheduled, and nothing is remembered between calls. *)
val hot_loop :
  ?pipeline_model:[ `Out_of_order | `In_order ] ->
  ?et:Augem_machine.Etype.t ->
  Augem_machine.Arch.t ->
  Augem_machine.Insn.program ->
  loop_info option

(** Hot-loop flops per cycle as a fraction of machine peak. *)
val kernel_efficiency :
  ?et:Augem_machine.Etype.t ->
  Augem_machine.Arch.t ->
  Augem_machine.Insn.program ->
  float
