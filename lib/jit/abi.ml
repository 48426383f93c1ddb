(* System V ABI bridge: the one place a native operand is staged and a
   kernel call becomes native arguments.

   A [tensor] is a Bigarray of the kernel's element type (a store
   narrows to f32 when the kernel computes in single precision, exactly
   like the simulator's typed memory), page-aligned and padded at the
   tail: the simulator's flat memory silently tolerates a vector load
   that reaches past the last element, but on real pages the same read
   could cross into an unmapped page, so native buffers always carry
   slack.  The blocked GEMM's matrices and packing buffers are tensors,
   and so is every buffer of a call that [native_args] stages.

   [call] runs a kernel on the same argument list the functional
   simulator's [Exec_sim.call] takes, so one harness case drives both
   execution paths: after the call the first [length] elements of each
   buffer are copied back into the caller's array — the same observable
   contract as the simulator. *)

open Augem_machine
module Exec = Augem_sim.Exec_sim

exception Abi_error of string

let err fmt = Fmt.kstr (fun s -> raise (Abi_error s)) fmt

(* Tail slack, in elements: enough for one full 256-bit vector past the
   end plus alignment play. *)
let pad_elements = 16

(* A Bigarray-backed buffer of the kernel's element type with
   elementwise access and interior-pointer addressing.  The closures
   capture the Bigarray, keeping the storage alive for as long as any
   address derived from it can be used. *)
type tensor = {
  t_len : int;  (* logical length, excluding tail padding *)
  t_get : int -> float;
  t_set : int -> float -> unit;
  t_addr : int -> int64;  (* address of element [i] *)
  t_at : int -> int;  (* the same address as an int, without allocating *)
}

(* [n] elements starting on a page boundary.  Where malloc puts a large
   buffer depends on what the process allocated and freed before (glibc
   moves its mmap threshold as buffers are freed), and the kernels'
   speed depends on where their operands start within a page: aligning
   keeps the wall clock independent of that history. *)
let page_aligned kind n =
  let page = 4096 and bytes = Bigarray.kind_size_in_bytes kind in
  let ba = Bigarray.Array1.create kind Bigarray.c_layout (n + (page / bytes)) in
  let off = Int64.(to_int (rem (Runtime.jit_ba_addr ba) (of_int page))) in
  Bigarray.Array1.sub ba ((page - off) mod page / bytes) n

(* [n] elements, zero but for a prefix copied from [init] (at most [n]
   long).  At f32 a store narrows, as the simulator's typed memory
   does.  One copy loop per precision: a loop polymorphic in the
   Bigarray kind runs several times slower, and staging a 1024^3 GEMM's
   operands copies 3M elements. *)
let tensor ?(init = [||]) (et : Etype.t) (n : int) : tensor =
  let n' = max 1 n + pad_elements in
  if Array.length init > n then invalid_arg "Abi.tensor";
  (* user-space addresses fit in an OCaml int *)
  let make ba t_get t_set =
    let base = Int64.to_int (Runtime.jit_ba_addr ba)
    and bytes = Bigarray.kind_size_in_bytes (Bigarray.Array1.kind ba) in
    let t_at i = base + (i * bytes) in
    let t_addr i = Int64.of_int (t_at i) in
    { t_len = n; t_get; t_set; t_addr; t_at }
  in
  let len = Array.length init in
  (* zero only what [init] does not cover *)
  let zero_tail ba = Bigarray.Array1.(fill (sub ba len (n' - len)) 0.0) in
  match et with
  | Etype.F64 ->
      let ba = page_aligned Bigarray.float64 n' in
      for i = 0 to len - 1 do
        Bigarray.Array1.unsafe_set ba i (Array.unsafe_get init i)
      done;
      zero_tail ba;
      make ba (Bigarray.Array1.get ba) (Bigarray.Array1.set ba)
  | Etype.F32 ->
      let ba = page_aligned Bigarray.float32 n' in
      for i = 0 to len - 1 do
        Bigarray.Array1.unsafe_set ba i (Array.unsafe_get init i)
      done;
      zero_tail ba;
      make ba (Bigarray.Array1.get ba) (Bigarray.Array1.set ba)

(* A tensor holding [data]. *)
let stage (et : Etype.t) (data : float array) : tensor =
  tensor ~init:data et (Array.length data)

let read_back (t : tensor) (data : float array) : unit =
  for i = 0 to Array.length data - 1 do
    data.(i) <- t.t_get i
  done

(* A kernel call's SysV arguments: integer-class arguments ([Aint] and
   buffer base addresses) bind rdi, rsi, rdx, rcx, r8, r9 and then the
   stack; [Adouble] arguments, rounded to the element type, bind
   xmm0-3.  Each [Abuf] is staged into a tensor; the tensors come back
   in argument order, and only they need outlive the list. *)
let native_args (et : Etype.t) (args : Exec.arg list) :
    int64 array * float array * tensor list =
  let iargs = ref [] and dargs = ref [] and staged = ref [] in
  List.iter
    (fun (a : Exec.arg) ->
      match a with
      | Exec.Aint n -> iargs := Int64.of_int n :: !iargs
      | Exec.Adouble f -> dargs := Etype.round et f :: !dargs
      | Exec.Abuf data ->
          let t = stage et data in
          staged := t :: !staged;
          iargs := t.t_addr 0 :: !iargs)
    args;
  let iargs = Array.of_list (List.rev !iargs) in
  let dargs = Array.of_list (List.rev !dargs) in
  if Array.length iargs > 8 then
    err "kernel takes %d integer-class arguments; the bridge passes at most 8"
      (Array.length iargs);
  if Array.length dargs > 4 then
    err "kernel takes %d FP arguments; the bridge passes at most 4"
      (Array.length dargs);
  (iargs, dargs, List.rev !staged)

(* Call the kernel in [buf] on [args]' staged operands, then update the
   [Abuf] arrays in place, mirroring [Exec_sim.call]. *)
let call ?(et = Etype.F64) (buf : Runtime.Exec_buf.t) (args : Exec.arg list) :
    unit =
  let iargs, dargs, staged = native_args et args in
  Runtime.Exec_buf.invoke buf ~iargs ~dargs ~fp32:(et = Etype.F32);
  List.iter2 read_back staged
    (List.filter_map (function Exec.Abuf d -> Some d | _ -> None) args)
