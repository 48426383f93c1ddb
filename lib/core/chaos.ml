(* Chaos testing of the verification harness.  See chaos.mli. *)

open Augem_ir
module Faults = Augem_verify.Faults
module Insn = Augem_machine.Insn
module Tuner = Augem_autotune.Tuner

type entry = {
  e_fault : Faults.fault;
  e_detected : bool;
  e_detail : string;
}

type report = {
  c_kernel : string;
  c_total : int;
  c_detected : int;
  c_entries : entry list;
  c_by_kind : (string * (int * int)) list;
}

let rate r = if r.c_total = 0 then 1.0 else float_of_int r.c_detected /. float_of_int r.c_total

let missed r =
  List.filter_map
    (fun e -> if e.e_detected then None else Some e.e_fault)
    r.c_entries

let by_kind entries =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let k = Faults.kind_to_string e.e_fault.Faults.f_kind in
      let d, t = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k ((d + if e.e_detected then 1 else 0), t + 1))
    entries;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let run ?(et = Augem_machine.Etype.F64) ?(fuel = Harness.default_fuel)
    ?(max_faults = 96) ?(seed = 0) (kernel : Kernels.name)
    (prog : Insn.program) : report =
  let faults = Faults.sample ~seed ~max:max_faults prog in
  let entries =
    List.map
      (fun f ->
        let mutant = Faults.apply prog f in
        let detected, detail =
          match Harness.verify ~et ~fuel kernel mutant with
          | { Harness.ok = true; _ } -> (false, "MISSED")
          | { Harness.ok = false; detail; _ } -> (true, detail)
          | exception exn ->
              (* a mutant that makes the harness itself blow up is
                 still a detected mutant *)
              (true, "harness exception: " ^ Printexc.to_string exn)
        in
        { e_fault = f; e_detected = detected; e_detail = detail })
      faults
  in
  {
    c_kernel = Kernels.name_to_string ?fp:(Tuner.fp_of_et et) kernel;
    c_total = List.length entries;
    c_detected = List.length (List.filter (fun e -> e.e_detected) entries);
    c_entries = entries;
    c_by_kind = by_kind entries;
  }

(* Static counterpart of [run]: the mutants come from the asm-level
   fault classes and the oracle is {!Augem_analysis.Asmcheck}, not the
   execution harness.  This measures the machine-code checker's
   sensitivity the same way [run] measures the differential oracle's. *)
let run_static ?(et = Augem_machine.Etype.F64) ?(max_faults = 96) ?(seed = 0)
    ~(arch : Augem_machine.Arch.t) (kernel : Kernels.name)
    (prog : Insn.program) : report =
  let module Asmcheck = Augem_analysis.Asmcheck in
  let avx = arch.Augem_machine.Arch.simd = Augem_machine.Arch.AVX in
  let params =
    (Kernels.kernel_of_name ?fp:(Tuner.fp_of_et et) kernel).Ast.k_params
  in
  let config = Asmcheck.config_for ~avx ~params in
  let faults =
    Faults.sample_asm ~seed ~avx ~entry:config.Asmcheck.cfg_entry
      ~max:max_faults prog
  in
  let entries =
    List.map
      (fun f ->
        let mutant = Faults.apply prog f in
        let detected, detail =
          match Asmcheck.check ~config mutant with
          | [] -> (false, "MISSED")
          | fs -> (true, Asmcheck.finding_to_string (List.hd fs))
          | exception exn ->
              (true, "checker exception: " ^ Printexc.to_string exn)
        in
        { e_fault = f; e_detected = detected; e_detail = detail })
      faults
  in
  {
    c_kernel = Kernels.name_to_string ?fp:(Tuner.fp_of_et et) kernel;
    c_total = List.length entries;
    c_detected = List.length (List.filter (fun e -> e.e_detected) entries);
    c_entries = entries;
    c_by_kind = by_kind entries;
  }

let merge (rs : report list) : report =
  let entries = List.concat_map (fun r -> r.c_entries) rs in
  {
    c_kernel = String.concat "+" (List.map (fun r -> r.c_kernel) rs);
    c_total = List.length entries;
    c_detected = List.length (List.filter (fun e -> e.e_detected) entries);
    c_entries = entries;
    c_by_kind = by_kind entries;
  }

let pp_report fmt r =
  Format.fprintf fmt "fault injection on %s: %d/%d detected (%.1f%%)@\n"
    r.c_kernel r.c_detected r.c_total (100.0 *. rate r);
  List.iter
    (fun (kind, (d, t)) ->
      Format.fprintf fmt "  %-20s %3d/%-3d detected@\n" kind d t)
    r.c_by_kind;
  match missed r with
  | [] -> ()
  | ms ->
      Format.fprintf fmt "  missed:@\n";
      List.iter
        (fun f -> Format.fprintf fmt "    %s@\n" (Faults.describe f))
        ms
