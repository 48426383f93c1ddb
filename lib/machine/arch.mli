(** Architecture specifications: the paper's two evaluation CPUs
    (Table 5) plus a Haswell-class portability target, with the knobs
    the code generator and the cycle model need.  Latency/throughput
    numbers follow the published microarchitecture references; the
    cycle model depends only on their relative magnitudes. *)

type simd_mode =
  | SSE  (** 128-bit, two-operand encodings *)
  | AVX  (** 256-bit, three-operand VEX encodings *)

type fma_mode =
  | No_fma
  | FMA3
  | FMA4

type t = {
  name : string;
  vendor : string;
  model : string;
  freq_ghz : float;  (** base frequency, as in Table 5 *)
  turbo_ghz : float;  (** sustained single-core turbo used by the model *)
  simd : simd_mode;
  fma : fma_mode;
  vec_bits : int;  (** architectural vector width *)
  native_fp_bits : int;
      (** datapath width of one FP unit: 256 on Sandy Bridge, 128 on
          Piledriver (256-bit ops split into two internal uops) *)
  vregs : int;
  fp_add_tp : int;  (** independent FP add pipes *)
  fp_mul_tp : int;
  fp_fma_tp : int;  (** 0 when [fma = No_fma] *)
  fp_shuf_tp : int;
  load_tp : int;  (** 128-bit load slots per cycle *)
  store_tp : int;
  int_tp : int;
  issue_width : int;  (** total uops issued per cycle *)
  lat_add : int;
  lat_mul : int;
  lat_fma : int;
  lat_load : int;  (** L1 hit *)
  lat_shuf : int;
  l1_bytes : int;
  l2_bytes : int;
  l3_bytes : int;
  bw_l1 : float;  (** sustainable bytes/cycle *)
  bw_l2 : float;
  bw_l3 : float;
  bw_mem : float;
  hw_prefetch : float;
      (** hardware-prefetcher effectiveness applied when a kernel
          issues no software prefetches *)
  cores_per_socket : int;
  sockets : int;
  compiler : string;  (** Table 5 row *)
}

val sandy_bridge : t
(** Intel Xeon E5-2680: AVX, no FMA, native 256-bit units. *)

val piledriver : t
(** AMD Opteron 6380: FMA3/FMA4 on two shared 128-bit FMAC pipes. *)

val haswell : t
(** Portability target the paper never saw: AVX2-class, dual 256-bit
    FMA pipes. *)

val all : t list
(** The paper's two evaluation platforms (Sandy Bridge, Piledriver).
    {!extended} additionally contains the Haswell portability target
    this reproduction models beyond the paper. *)

val extended : t list
(** Every modelled architecture: [all] plus the Haswell portability
    target. *)

val names : unit -> string list
(** Names of every modelled architecture, in {!extended} order. *)

val by_name : string -> t option

val by_name_result : string -> (t, string) result
(** Like {!by_name}, but failures carry a message listing the valid
    architecture names (what CLI [--arch] errors print). *)

(** Peak MFLOPS of one core at the modelled (turbo) frequency for the
    given element type (default double precision; single precision
    doubles the lanes per vector). *)
val peak_mflops : ?et:Etype.t -> t -> float

(** Issue slots one operation of the given width occupies (wide vector
    ops on a narrow datapath split). *)
val uops_for : t -> Insn.vwidth -> int

val simd_lanes : ?et:Etype.t -> t -> int

(** Table 5 rows: (label, Intel value, AMD value). *)
val table5_rows : unit -> (string * string * string) list
