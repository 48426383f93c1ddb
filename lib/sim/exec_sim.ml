(* Functional simulator for the generated assembly: executes every
   instruction of [Insn.program] with exact x86-64 semantics (as far as
   our subset goes).  This is the correctness gate of the whole
   framework: generated kernels run here against randomized inputs and
   are compared with the reference BLAS.

   Memory is a flat 8-byte-cell store; FP values live as their IEEE-754
   bit patterns (doubles fill a cell, floats half of one).  Caller
   buffers are copied in at distinct base addresses and copied back out
   after the run.

   The simulated machine is typed by the kernel's element type: vector
   registers hold up to 8 lanes (f32 at 256 bits); every lane-indexed
   operation takes its semantics — lane counts, shuffle immediates,
   element size — from [state.et], and f32 arithmetic rounds each
   result to binary32. *)

open Augem_machine

exception Sim_error of string

let err fmt = Fmt.kstr (fun s -> raise (Sim_error s)) fmt

type state = {
  et : Etype.t; (* element type the vector lanes are interpreted at *)
  gpr : int64 array; (* 16 *)
  vec : float array array; (* 16 x 8 lanes (f64 uses the first 4) *)
  mem : (int, int64) Hashtbl.t; (* cell index (addr/8) -> bits *)
  mutable flags : int64 * int64; (* last comparison operands *)
  mutable executed : int;
  mutable flops : int;
  mutable loads : int;
  mutable stores : int;
  mutable prefetches : int;
}

let stack_base = 0x7F_0000_0000

let create ?(et = Etype.F64) () =
  {
    et;
    gpr = Array.make 16 0L;
    vec = Array.init 16 (fun _ -> Array.make 8 0.);
    mem = Hashtbl.create 4096;
    flags = (0L, 0L);
    executed = 0;
    flops = 0;
    loads = 0;
    stores = 0;
    prefetches = 0;
  }

let gpr_idx = Reg.gpr_index

let get_gpr st r = st.gpr.(gpr_idx r)
let set_gpr st r v = st.gpr.(gpr_idx r) <- v

(* lanes per 128-bit half at this state's element type *)
let l128 st = match st.et with Etype.F64 -> 2 | Etype.F32 -> 4

(* total lanes of a full-width (256-bit) register *)
let lmax st = 2 * l128 st

let vlanes st w = Insn.lanes_of st.et w

let addr_of st (m : Insn.mem) : int =
  let base = Int64.to_int (get_gpr st m.Insn.base) in
  let index =
    match m.Insn.index with
    | None -> 0
    | Some (r, s) -> Int64.to_int (get_gpr st r) * Insn.scale_value s
  in
  base + index + m.Insn.disp

let read_cell st addr =
  if addr land 7 <> 0 then err "unaligned 8-byte access at %#x" addr;
  match Hashtbl.find_opt st.mem (addr asr 3) with
  | Some v -> v
  | None -> 0L

let write_cell st addr v =
  if addr land 7 <> 0 then err "unaligned 8-byte access at %#x" addr;
  Hashtbl.replace st.mem (addr asr 3) v

(* 4-byte half-cell access for f32 elements (align 4) *)
let read_half st addr =
  if addr land 3 <> 0 then err "unaligned 4-byte access at %#x" addr;
  let cell =
    match Hashtbl.find_opt st.mem (addr asr 3) with Some v -> v | None -> 0L
  in
  if addr land 4 = 0 then Int64.to_int32 (Int64.logand cell 0xFFFF_FFFFL)
  else Int64.to_int32 (Int64.shift_right_logical cell 32)

let write_half st addr (bits : int32) =
  if addr land 3 <> 0 then err "unaligned 4-byte access at %#x" addr;
  let cell =
    match Hashtbl.find_opt st.mem (addr asr 3) with Some v -> v | None -> 0L
  in
  let b = Int64.logand (Int64.of_int32 bits) 0xFFFF_FFFFL in
  let cell' =
    if addr land 4 = 0 then
      Int64.logor (Int64.logand cell 0xFFFF_FFFF_0000_0000L) b
    else Int64.logor (Int64.logand cell 0xFFFF_FFFFL) (Int64.shift_left b 32)
  in
  Hashtbl.replace st.mem (addr asr 3) cell'

(* one FP element at the state's element type *)
let read_elt st addr =
  match st.et with
  | Etype.F64 -> Int64.float_of_bits (read_cell st addr)
  | Etype.F32 -> Int32.float_of_bits (read_half st addr)

let write_elt st addr f =
  match st.et with
  | Etype.F64 -> write_cell st addr (Int64.bits_of_float f)
  | Etype.F32 -> write_half st addr (Int32.bits_of_float f)

let elt_bytes st = Etype.bytes st.et

(* --- buffers ----------------------------------------------------------- *)

(* Base addresses for caller buffers: 1 MiB apart, starting at 16 MiB. *)
let buffer_base i = (16 + i) * 0x10_0000

let load_buffer st ~base (data : float array) =
  let eb = elt_bytes st in
  Array.iteri (fun i x -> write_elt st (base + (eb * i)) x) data

let read_back st ~base (data : float array) =
  let eb = elt_bytes st in
  Array.iteri (fun i _ -> data.(i) <- read_elt st (base + (eb * i))) data

(* --- execution --------------------------------------------------------- *)

(* f32 states round every arithmetic result to binary32 *)
let fround st x = Etype.round st.et x

let exec_fpop st (op : Insn.fpop) w dst src1 src2 =
  let v = st.vec in
  let n = vlanes st w in
  let h = l128 st in
  let m = lmax st in
  let d = Array.copy v.(dst) in
  let zero_from k =
    for i = k to 7 do
      d.(i) <- 0.
    done
  in
  (match op with
  | Insn.Fadd | Insn.Fsub | Insn.Fmul | Insn.Fdiv ->
      let f =
        match op with
        | Insn.Fadd -> ( +. )
        | Insn.Fsub -> ( -. )
        | Insn.Fmul -> ( *. )
        | Insn.Fdiv -> ( /. )
        | _ -> assert false
      in
      st.flops <- st.flops + n;
      for i = 0 to n - 1 do
        d.(i) <- fround st (f v.(src1).(i) v.(src2).(i))
      done;
      (* scalar ops leave upper lanes as src1 (VEX) / dst (SSE=src1) *)
      if w = Insn.W64 then
        for i = 1 to m - 1 do
          d.(i) <- v.(src1).(i)
        done
      else if w = Insn.W128 then zero_from h
  | Insn.Fxor ->
      (* xorps/xorpd always cover at least the full 128-bit register *)
      let n' = if w = Insn.W64 then h else n in
      for i = 0 to m - 1 do
        if i < n' then
          d.(i) <-
            Int64.float_of_bits
              (Int64.logxor
                 (Int64.bits_of_float v.(src1).(i))
                 (Int64.bits_of_float v.(src2).(i)))
        else d.(i) <- 0.
      done
  | Insn.Fmov ->
      let n' = max n h in
      for i = 0 to 7 do
        d.(i) <- (if i < n' then v.(src1).(i) else 0.)
      done
  | Insn.Fma231 ->
      st.flops <- st.flops + (2 * n);
      for i = 0 to n - 1 do
        d.(i) <- fround st (Float.fma v.(src1).(i) v.(src2).(i) v.(dst).(i))
      done;
      if w = Insn.W64 then () (* upper lanes keep dst *)
      else if w = Insn.W128 then zero_from h
  | Insn.Fhadd -> (
      st.flops <- st.flops + n;
      match st.et with
      | Etype.F64 ->
          d.(0) <- fround st (v.(src1).(0) +. v.(src1).(1));
          d.(1) <- fround st (v.(src2).(0) +. v.(src2).(1));
          if w = Insn.W256 then begin
            d.(2) <- fround st (v.(src1).(2) +. v.(src1).(3));
            d.(3) <- fround st (v.(src2).(2) +. v.(src2).(3))
          end
          else zero_from 2
      | Etype.F32 ->
          (* haddps: per 128-bit half, pairwise sums of src1 then src2 *)
          let half o =
            d.(o + 0) <- fround st (v.(src1).(o + 0) +. v.(src1).(o + 1));
            d.(o + 1) <- fround st (v.(src1).(o + 2) +. v.(src1).(o + 3));
            d.(o + 2) <- fround st (v.(src2).(o + 0) +. v.(src2).(o + 1));
            d.(o + 3) <- fround st (v.(src2).(o + 2) +. v.(src2).(o + 3))
          in
          half 0;
          if w = Insn.W256 then half 4 else zero_from 4)
  | Insn.Funpckl -> (
      match st.et with
      | Etype.F64 ->
          d.(0) <- v.(src1).(0);
          d.(1) <- v.(src2).(0);
          if w = Insn.W256 then begin
            d.(2) <- v.(src1).(2);
            d.(3) <- v.(src2).(2)
          end
          else zero_from 2
      | Etype.F32 ->
          let half o =
            d.(o + 0) <- v.(src1).(o + 0);
            d.(o + 1) <- v.(src2).(o + 0);
            d.(o + 2) <- v.(src1).(o + 1);
            d.(o + 3) <- v.(src2).(o + 1)
          in
          half 0;
          if w = Insn.W256 then half 4 else zero_from 4)
  | Insn.Funpckh -> (
      match st.et with
      | Etype.F64 ->
          d.(0) <- v.(src1).(1);
          d.(1) <- v.(src2).(1);
          if w = Insn.W256 then begin
            d.(2) <- v.(src1).(3);
            d.(3) <- v.(src2).(3)
          end
          else zero_from 2
      | Etype.F32 ->
          let half o =
            d.(o + 0) <- v.(src1).(o + 2);
            d.(o + 1) <- v.(src2).(o + 2);
            d.(o + 2) <- v.(src1).(o + 3);
            d.(o + 3) <- v.(src2).(o + 3)
          in
          half 0;
          if w = Insn.W256 then half 4 else zero_from 4));
  v.(dst) <- d

let cond_holds (a, b) = function
  | Insn.Clt -> Int64.compare a b < 0
  | Insn.Cle -> Int64.compare a b <= 0
  | Insn.Cgt -> Int64.compare a b > 0
  | Insn.Cge -> Int64.compare a b >= 0
  | Insn.Ceq -> Int64.equal a b
  | Insn.Cne -> not (Int64.equal a b)

type result = {
  r_executed : int;
  r_flops : int;
  r_loads : int;
  r_stores : int;
  r_prefetches : int;
}

let default_fuel = 2_000_000_000

(* Run a program to completion (Ret at top level).  [sp] sets the
   initial stack pointer (arguments may already sit above it);
   [on_access] observes every data-memory access (cache simulation). *)
let run ?(fuel = default_fuel) ?(sp = stack_base) ?on_access (st : state)
    (p : Insn.program) : result =
  let insns = Array.of_list p.Insn.prog_insns in
  let labels = Hashtbl.create 32 in
  Array.iteri
    (fun i insn ->
      match insn with
      | Insn.Label l -> Hashtbl.replace labels l i
      | _ -> ())
    insns;
  let target l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None -> err "undefined label %s" l
  in
  set_gpr st Reg.Rsp (Int64.of_int sp);
  let observe ~addr ~bytes ~store =
    match on_access with
    | Some f -> f ~addr ~bytes ~store
    | None -> ()
  in
  let eb = elt_bytes st in
  let pc = ref 0 in
  let steps = ref 0 in
  let n = Array.length insns in
  let running = ref true in
  while !running do
    if !pc >= n then err "fell off the end of the program";
    incr steps;
    if !steps > fuel then err "fuel exhausted (%d instructions)" fuel;
    let i = insns.(!pc) in
    st.executed <- st.executed + 1;
    incr pc;
    match i with
    | Insn.Label _ | Insn.Comment _ -> st.executed <- st.executed - 1
    | Insn.Vop { op; w; dst; src1; src2 } -> exec_fpop st op w dst src1 src2
    | Insn.Vfma4 { w; dst; a; b; c } ->
        let v = st.vec in
        let nw = vlanes st w in
        st.flops <- st.flops + (2 * nw);
        let d = Array.make 8 0. in
        for l = 0 to nw - 1 do
          d.(l) <- fround st (Float.fma v.(a).(l) v.(b).(l) v.(c).(l))
        done;
        if w = Insn.W64 then
          for l = 1 to lmax st - 1 do
            d.(l) <- v.(a).(l)
          done;
        v.(dst) <- d
    | Insn.Vload { w; dst; src } ->
        st.loads <- st.loads + 1;
        let a = addr_of st src in
        observe ~addr:a ~bytes:(vlanes st w * eb) ~store:false;
        let d = Array.make 8 0. in
        for l = 0 to vlanes st w - 1 do
          d.(l) <- read_elt st (a + (eb * l))
        done;
        st.vec.(dst) <- d
    | Insn.Vstore { w; src; dst } ->
        st.stores <- st.stores + 1;
        let a = addr_of st dst in
        observe ~addr:a ~bytes:(vlanes st w * eb) ~store:true;
        for l = 0 to vlanes st w - 1 do
          write_elt st (a + (eb * l)) st.vec.(src).(l)
        done
    | Insn.Vbroadcast { w; dst; src } ->
        st.loads <- st.loads + 1;
        let a = addr_of st src in
        observe ~addr:a ~bytes:eb ~store:false;
        let x = read_elt st a in
        let d = Array.make 8 0. in
        for l = 0 to max (vlanes st w) 1 - 1 do
          d.(l) <- x
        done;
        (* the 128-bit broadcast fills its whole register (movddup /
           vbroadcastss) *)
        if w = Insn.W128 then
          for l = 0 to l128 st - 1 do
            d.(l) <- x
          done;
        st.vec.(dst) <- d
    | Insn.Vshuf { w; dst; src1; src2; imm } -> (
        let v = st.vec in
        let d = Array.make 8 0. in
        (match st.et with
        | Etype.F64 ->
            (* shufpd: one select bit per lane *)
            d.(0) <- v.(src1).(imm land 1);
            d.(1) <- v.(src2).((imm lsr 1) land 1);
            if w = Insn.W256 then begin
              d.(2) <- v.(src1).(2 + ((imm lsr 2) land 1));
              d.(3) <- v.(src2).(2 + ((imm lsr 3) land 1))
            end
        | Etype.F32 ->
            (* shufps: two bits per lane, the same immediate applied to
               each 128-bit half; low two lanes from src1, high two
               from src2 *)
            let half o =
              d.(o + 0) <- v.(src1).(o + (imm land 3));
              d.(o + 1) <- v.(src1).(o + ((imm lsr 2) land 3));
              d.(o + 2) <- v.(src2).(o + ((imm lsr 4) land 3));
              d.(o + 3) <- v.(src2).(o + ((imm lsr 6) land 3))
            in
            half 0;
            if w = Insn.W256 then half 4);
        v.(dst) <- d)
    | Insn.Vblend { w; dst; src1; src2; imm } ->
        let v = st.vec in
        let d = Array.make 8 0. in
        for l = 0 to vlanes st w - 1 do
          d.(l) <- (if (imm lsr l) land 1 = 1 then v.(src2).(l) else v.(src1).(l))
        done;
        v.(dst) <- d
    | Insn.Vperm128 { dst; src1; src2; imm } ->
        let v = st.vec in
        let h = l128 st in
        let sel nib =
          if nib land 8 <> 0 then Array.make h 0.
          else
            let src, o =
              match nib land 3 with
              | 0 -> (src1, 0)
              | 1 -> (src1, h)
              | 2 -> (src2, 0)
              | _ -> (src2, h)
            in
            Array.init h (fun l -> v.(src).(o + l))
        in
        let lo = sel (imm land 0xF) and hi = sel ((imm lsr 4) land 0xF) in
        let d = Array.make 8 0. in
        Array.blit lo 0 d 0 h;
        Array.blit hi 0 d h h;
        v.(dst) <- d
    | Insn.Vextract128 { dst; src; lane } ->
        let v = st.vec in
        let h = l128 st in
        let o = lane * h in
        let d = Array.make 8 0. in
        for l = 0 to h - 1 do
          d.(l) <- v.(src).(o + l)
        done;
        v.(dst) <- d
    | Insn.Movq_xr { dst; src } ->
        let d = Array.make 8 0. in
        (d.(0) <-
           (match st.et with
           | Etype.F64 -> Int64.float_of_bits (get_gpr st src)
           | Etype.F32 ->
               (* movd: the low 32 bits of the gpr as a float *)
               Int32.float_of_bits (Int64.to_int32 (get_gpr st src))));
        st.vec.(dst) <- d
    | Insn.Movri (r, v) -> set_gpr st r (Int64.of_int v)
    | Insn.Movabs (r, v) -> set_gpr st r v
    | Insn.Movrr (d, s) -> set_gpr st d (get_gpr st s)
    | Insn.Loadq (d, m) ->
        st.loads <- st.loads + 1;
        set_gpr st d (read_cell st (addr_of st m))
    | Insn.Storeq (m, s) ->
        st.stores <- st.stores + 1;
        write_cell st (addr_of st m) (get_gpr st s)
    | Insn.Addri (r, v) -> set_gpr st r (Int64.add (get_gpr st r) (Int64.of_int v))
    | Insn.Addrr (d, s) -> set_gpr st d (Int64.add (get_gpr st d) (get_gpr st s))
    | Insn.Subri (r, v) -> set_gpr st r (Int64.sub (get_gpr st r) (Int64.of_int v))
    | Insn.Subrr (d, s) -> set_gpr st d (Int64.sub (get_gpr st d) (get_gpr st s))
    | Insn.Imulrr (d, s) -> set_gpr st d (Int64.mul (get_gpr st d) (get_gpr st s))
    | Insn.Imulri (d, s, v) ->
        set_gpr st d (Int64.mul (get_gpr st s) (Int64.of_int v))
    | Insn.Shlri (r, v) -> set_gpr st r (Int64.shift_left (get_gpr st r) v)
    | Insn.Negr r -> set_gpr st r (Int64.neg (get_gpr st r))
    | Insn.Lea (d, m) -> set_gpr st d (Int64.of_int (addr_of st m))
    | Insn.Cmprr (a, b) -> st.flags <- (get_gpr st a, get_gpr st b)
    | Insn.Cmpri (a, v) -> st.flags <- (get_gpr st a, Int64.of_int v)
    | Insn.Jmp l -> pc := target l
    | Insn.Jcc (c, l) -> if cond_holds st.flags c then pc := target l
    | Insn.Push r ->
        let sp = Int64.sub (get_gpr st Reg.Rsp) 8L in
        set_gpr st Reg.Rsp sp;
        write_cell st (Int64.to_int sp) (get_gpr st r)
    | Insn.Pop r ->
        let sp = get_gpr st Reg.Rsp in
        set_gpr st r (read_cell st (Int64.to_int sp));
        set_gpr st Reg.Rsp (Int64.add sp 8L)
    | Insn.Ret -> running := false
    | Insn.Vzeroupper ->
        (* zero bits 255:128 of every vector register *)
        let h = l128 st in
        Array.iter
          (fun v ->
            for l = h to 7 do
              v.(l) <- 0.
            done)
          st.vec
    | Insn.Prefetch (_, m) ->
        (* software prefetch fills the cache like a load *)
        observe ~addr:(addr_of st m) ~bytes:eb ~store:false;
        st.prefetches <- st.prefetches + 1
  done;
  {
    r_executed = st.executed;
    r_flops = st.flops;
    r_loads = st.loads;
    r_stores = st.stores;
    r_prefetches = st.prefetches;
  }

(* --- high-level harness ------------------------------------------------ *)

type arg =
  | Aint of int
  | Adouble of float
  | Abuf of float array (* modified in place after the run *)

(* Call a generated kernel with System V argument passing. *)
let call ?(et = Etype.F64) ?(fuel = default_fuel) ?on_access
    (p : Insn.program) (args : arg list) : result =
  let st = create ~et () in
  let int_regs = ref Reg.argument_gprs in
  let fp_reg = ref 0 in
  let stack_args = ref [] in
  let buffers = ref [] in
  List.iteri
    (fun i a ->
      let as_int_arg v =
        match !int_regs with
        | r :: rest ->
            int_regs := rest;
            set_gpr st r v
        | [] -> stack_args := v :: !stack_args
      in
      match a with
      | Aint n -> as_int_arg (Int64.of_int n)
      | Adouble f ->
          if !fp_reg >= 8 then err "too many double arguments";
          st.vec.(!fp_reg).(0) <- Etype.round et f;
          incr fp_reg
      | Abuf data ->
          let base = buffer_base i in
          load_buffer st ~base data;
          buffers := (base, data) :: !buffers;
          as_int_arg (Int64.of_int base))
    args;
  (* push stack args (right to left), then a fake return address *)
  let sp = ref stack_base in
  List.iter
    (fun v ->
      sp := !sp - 8;
      write_cell st !sp v)
    !stack_args;
  sp := !sp - 8;
  write_cell st !sp 0xDEAD_BEEFL;
  let result = run ~fuel ~sp:!sp ?on_access st p in
  List.iter (fun (base, data) -> read_back st ~base data) !buffers;
  result
