(** Vectorization planning for the template optimizers (paper sections
    3.4-3.6).

    A pre-pass over the identified regions decides, for every
    mmUnrolledCOMP group, which strategy applies — the Vdup method, the
    Shuf method, the elementwise (dot-product) folding, or the scalar
    fall-back — and assigns each accumulator scalar a (virtual
    accumulator, lane) slot.  The assignment is global: the mmSTORE
    regions and any scalar code reading the accumulators consult the
    same map (the paper's reg_table discipline).  An accumulator
    written by more than one comp region is tainted and every region
    touching it takes the scalar path. *)

(** Re-export of {!Augem_machine.Insn.vwidth}'s constructors. *)
module Insn_width : sig
  type t = Augem_machine.Insn.vwidth =
    | W64
    | W128
    | W256

  val of_lanes : ?et:Augem_machine.Etype.t -> int -> t
  (** Lane count -> width at an element type (default f64).  Valid
      vector lane counts are [{2, 4}] for f64 and [{4, 8}] for f32;
      [1] is the scalar width [W64] for either. *)
end

type strategy =
  | S_vdup of {
      w : Insn_width.t;
      n1 : int;  (** consecutive A elements per B element *)
      chunks : int;
      bs : (string * int) list;  (** the distinct B operands, in order *)
    }
  | S_shuf of { w : Insn_width.t; a_chunks : int; b_chunks : int }
  | S_elem of { w : Insn_width.t; chunks : int }
  | S_scalar

and acc_slot = {
  slot_acc : int;
  slot_lane : int;
}

type group_plan = {
  gp_strategy : strategy;
  gp_region : Augem_templates.Template.mm_comp list;
  gp_accs : int;  (** number of vector accumulators *)
  gp_width : Insn_width.t;
  gp_slots : (string * acc_slot) list;  (** res variable -> slot *)
  gp_store_class : string;
      (** register class for the accumulators: the array the res is
          later stored to (paper 3.1) *)
}

type t

val find_plan : t -> string -> group_plan option

(** Must this mv/sv scalar be kept replicated across lanes? *)
val needs_splat : t -> string -> bool

type prefer =
  | Prefer_auto
  | Prefer_vdup
  | Prefer_shuf

(** A preference's one text form (["auto"], ["vdup"], ["shuf"]): the
    script, the wire and the tuner's cache fingerprint spell it this
    way. *)
val prefer_name : prefer -> string

(** The preference [prefer_name] spells as the given name. *)
val prefer_of_name : string -> prefer option

(** Strategy and lane layout for one group.  [machine_lanes] must be
    the SIMD lane count at the same element type [et]. *)
val plan_group :
  et:Augem_machine.Etype.t ->
  machine_lanes:int ->
  prefer:prefer ->
  Augem_templates.Template.mm_comp list ->
  group_plan

(** Plan a whole annotated kernel. *)
val build :
  et:Augem_machine.Etype.t ->
  machine_lanes:int ->
  prefer:prefer ->
  Augem_templates.Matcher.akernel ->
  t

(** {2 Introspection}

    Deterministic views of a plan for the staged-lowering driver's
    artifact rendering (pretty-printing, size counters, fingerprints). *)

val strategy_name : strategy -> string

(** The distinct groups, deduplicated and in a stable order. *)
val groups : t -> group_plan list

(** Variables the plan keeps replicated across lanes, sorted. *)
val splat_vars : t -> string list

val group_to_string : group_plan -> string

(** Multi-line rendering of the whole plan; deterministic. *)
val to_string : t -> string
