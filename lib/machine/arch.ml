(* Architecture specifications for the two processors evaluated in the
   paper (Table 5), plus the knobs the code generator and the cycle
   model need.  Latency/throughput numbers follow the published
   microarchitecture references (Fog's instruction tables); the cycle
   model only depends on their relative magnitudes. *)

type simd_mode =
  | SSE (* 128-bit, two-operand encodings *)
  | AVX (* 256-bit, three-operand encodings *)

type fma_mode =
  | No_fma
  | FMA3
  | FMA4

type t = {
  name : string;
  vendor : string;
  model : string;
  freq_ghz : float; (* base frequency, as in Table 5 *)
  turbo_ghz : float; (* sustained single-core turbo, used by the model *)
  simd : simd_mode;
  fma : fma_mode;
  vec_bits : int; (* architectural vector width: 256 on both *)
  native_fp_bits : int;
      (* datapath width of one FP unit: 256 on Sandy Bridge, 128 on
         Piledriver (256-bit ops split into two internal uops) *)
  vregs : int;
  (* execution resources, counted in native_fp_bits-wide slots/cycle *)
  fp_add_tp : int; (* independent FP add pipes *)
  fp_mul_tp : int;
  fp_fma_tp : int; (* 0 when fma = No_fma *)
  fp_shuf_tp : int;
  load_tp : int; (* 128-bit load slots per cycle *)
  store_tp : int;
  int_tp : int; (* simple ALU ops per cycle *)
  issue_width : int; (* total uops issued per cycle *)
  (* latencies in cycles *)
  lat_add : int;
  lat_mul : int;
  lat_fma : int;
  lat_load : int; (* L1 hit *)
  lat_shuf : int;
  (* memory hierarchy (per core unless noted) *)
  l1_bytes : int;
  l2_bytes : int;
  l3_bytes : int; (* shared; 0 if none modelled *)
  bw_l1 : float; (* sustainable load bytes/cycle *)
  bw_l2 : float;
  bw_l3 : float;
  bw_mem : float; (* DRAM bytes/cycle per core *)
  hw_prefetch : float;
      (* effectiveness of the hardware prefetcher when software issues
         no prefetches (scales the no-sw-prefetch bandwidth fraction) *)
  cores_per_socket : int;
  sockets : int;
  compiler : string; (* Table 5 row *)
}

(* Intel Sandy Bridge Xeon E5-2680, 2.7 GHz (Table 5).  AVX without
   FMA: one 256-bit multiply and one 256-bit add per cycle (ports 0/1),
   8 DP flops/cycle peak.  Two 128-bit load slots per cycle, so a
   256-bit load occupies both. *)
let sandy_bridge : t =
  {
    name = "sandybridge";
    vendor = "Intel";
    model = "Xeon E5-2680 (Sandy Bridge)";
    freq_ghz = 2.7;
    turbo_ghz = 3.1;
    simd = AVX;
    fma = No_fma;
    vec_bits = 256;
    native_fp_bits = 256;
    vregs = 16;
    fp_add_tp = 1;
    fp_mul_tp = 1;
    fp_fma_tp = 0;
    fp_shuf_tp = 1;
    load_tp = 2;
    store_tp = 1;
    int_tp = 3;
    issue_width = 6;
    lat_add = 3;
    lat_mul = 5;
    lat_fma = 0;
    lat_load = 4;
    lat_shuf = 1;
    l1_bytes = 32 * 1024;
    l2_bytes = 256 * 1024;
    l3_bytes = 20 * 1024 * 1024;
    bw_l1 = 32.0;
    bw_l2 = 16.0;
    bw_l3 = 10.0;
    bw_mem = 5.0;
    hw_prefetch = 1.0;
    cores_per_socket = 8;
    sockets = 2;
    compiler = "gcc-4.7.2";
  }

(* AMD Piledriver Opteron 6380, 2.5 GHz (Table 5).  Two shared 128-bit
   FMAC pipes per module: FMA3/FMA4 supported, 8 DP flops/cycle peak
   per core when both pipes are used; 256-bit operations split into two
   128-bit uops.  16KB write-through L1d, large 2MB L2. *)
let piledriver : t =
  {
    name = "piledriver";
    vendor = "AMD";
    model = "Opteron 6380 (Piledriver)";
    freq_ghz = 2.5;
    turbo_ghz = 2.8;
    simd = AVX;
    fma = FMA3; (* ACML_FMA=3 in the paper; FMA4 also available *)
    vec_bits = 256;
    native_fp_bits = 128;
    vregs = 16;
    fp_add_tp = 2; (* the two FMAC pipes execute add/mul/fma *)
    fp_mul_tp = 2;
    fp_fma_tp = 2;
    fp_shuf_tp = 2;
    load_tp = 2;
    store_tp = 1;
    int_tp = 2;
    issue_width = 4;
    lat_add = 5;
    lat_mul = 5;
    lat_fma = 6;
    lat_load = 4;
    lat_shuf = 2;
    l1_bytes = 16 * 1024;
    l2_bytes = 2048 * 1024;
    l3_bytes = 8 * 1024 * 1024;
    bw_l1 = 24.0;
    bw_l2 = 12.0;
    bw_l3 = 8.0;
    bw_mem = 4.5;
    hw_prefetch = 0.85;
    cores_per_socket = 8;
    sockets = 2;
    compiler = "gcc-4.7.2";
  }

(* A forward-portability target the paper never saw: a Haswell-class
   core (AVX2, two 256-bit FMA pipes).  Retargeting the same C inputs
   here with zero manual work is the paper's thesis; the tuner picks a
   new blocking and the instruction selector switches to FMA3 at full
   256-bit width. *)
let haswell : t =
  {
    name = "haswell";
    vendor = "Intel";
    model = "Core i7-4770 (Haswell)";
    freq_ghz = 3.4;
    turbo_ghz = 3.7;
    simd = AVX;
    fma = FMA3;
    vec_bits = 256;
    native_fp_bits = 256;
    vregs = 16;
    fp_add_tp = 1;
    fp_mul_tp = 2;
    fp_fma_tp = 2;
    fp_shuf_tp = 1;
    load_tp = 4; (* two 256-bit load ports *)
    store_tp = 2;
    int_tp = 4;
    issue_width = 8;
    lat_add = 3;
    lat_mul = 5;
    lat_fma = 5;
    lat_load = 4;
    lat_shuf = 1;
    l1_bytes = 32 * 1024;
    l2_bytes = 256 * 1024;
    l3_bytes = 8 * 1024 * 1024;
    bw_l1 = 64.0;
    bw_l2 = 28.0;
    bw_l3 = 16.0;
    bw_mem = 6.5;
    hw_prefetch = 1.0;
    cores_per_socket = 4;
    sockets = 1;
    compiler = "gcc-4.7.2";
  }

(* The paper's two evaluation platforms (Sandy Bridge and Piledriver);
   [extended] additionally has the Haswell portability target this
   reproduction models beyond the paper. *)
let all = [ sandy_bridge; piledriver ]

(* Every modelled architecture: [all] plus Haswell. *)
let extended = all @ [ haswell ]

let names () = List.map (fun a -> a.name) extended

let by_name n =
  List.find_opt (fun a -> String.equal a.name n) extended

let by_name_result n =
  match by_name n with
  | Some a -> Ok a
  | None ->
      Error
        (Printf.sprintf "unknown architecture %S (valid: %s)" n
           (String.concat ", " (names ())))

(* Peak MFLOPS of one core at the modelled frequency, per element
   type (single precision doubles the lanes per vector). *)
let peak_mflops ?(et = Etype.F64) (a : t) : float =
  let native_lanes = a.native_fp_bits / Etype.bits et in
  let flops_per_cycle =
    match a.fma with
    | No_fma ->
        (* mul + add pipes, native width *)
        float_of_int ((a.fp_mul_tp + a.fp_add_tp) * native_lanes)
    | FMA3 | FMA4 -> float_of_int (2 * a.fp_fma_tp * native_lanes)
  in
  flops_per_cycle *. a.turbo_ghz *. 1000.0

(* How many native_fp_bits-wide uops one operation of width [w] costs. *)
let uops_for (a : t) (w : Insn.vwidth) : int =
  let bits = Insn.width_bits w in
  max 1 ((bits + a.native_fp_bits - 1) / a.native_fp_bits)

let simd_lanes ?(et = Etype.F64) (a : t) : int = a.vec_bits / Etype.bits et

(* Table 5 as printable rows. *)
let table5_rows () : (string * string * string) list =
  let f spec = spec in
  let row label get = (label, f (get sandy_bridge), f (get piledriver)) in
  [
    row "CPU" (fun a -> a.model);
    row "Frequency" (fun a -> Printf.sprintf "%.1f GHz" a.freq_ghz);
    row "L1d Cache" (fun a -> Printf.sprintf "%dKB" (a.l1_bytes / 1024));
    row "L2 Cache" (fun a -> Printf.sprintf "%dKB" (a.l2_bytes / 1024));
    row "Vector Size" (fun a -> Printf.sprintf "%d-bit" a.vec_bits);
    row "Core(s) per socket" (fun a -> string_of_int a.cores_per_socket);
    row "CPU socket(s)" (fun a -> string_of_int a.sockets);
    row "Compiler" (fun a -> a.compiler);
  ]
