(* Cycle-level model of the generated kernels.  The steady-state cost
   of the hot innermost loop is measured by list-scheduling several
   replicated copies of its body on the architecture's execution
   resources (dependences, latencies, unit throughputs, issue width)
   and differencing the makespans — the standard software-pipelining
   estimate used by kernel writers.

   This captures exactly the effects the paper attributes wins to: FMA
   vs Mul+Add, 256-bit vs 128-bit datapaths, accumulator-chain
   latencies, register-queue false dependences, and loop overhead. *)

open Augem_machine

type loop_info = {
  li_label : string;
  li_body : Insn.t list; (* including the back-edge compare/branch *)
  li_flops : int; (* per iteration *)
  li_loads : int;
  li_stores : int;
  li_load_bytes : int;
  li_store_bytes : int;
  li_prefetches : int;
  li_cycles : float; (* steady-state cycles per iteration *)
}

(* Innermost loops: a Label L ... Jcc L span containing no other label
   whose body also ends at the branch. *)
let innermost_loops (p : Insn.program) : (string * Insn.t list) list =
  let insns = Array.of_list p.Insn.prog_insns in
  let n = Array.length insns in
  let index_of_label = Hashtbl.create 16 in
  Array.iteri
    (fun i insn ->
      match insn with
      | Insn.Label l -> Hashtbl.replace index_of_label l i
      | _ -> ())
    insns;
  let loops = ref [] in
  for j = 0 to n - 1 do
    match insns.(j) with
    | Insn.Jcc (_, l) | Insn.Jmp l -> (
        match Hashtbl.find_opt index_of_label l with
        | Some i when i < j ->
            (* backward branch: body = (i, j] *)
            let has_inner_label = ref false in
            for k = i + 1 to j - 1 do
              match insns.(k) with
              | Insn.Label _ -> has_inner_label := true
              | _ -> ()
            done;
            if not !has_inner_label then begin
              let body = Array.to_list (Array.sub insns (i + 1) (j - i)) in
              loops := (l, body) :: !loops
            end
        | Some _ | None -> ())
    | _ -> ()
  done;
  List.rev !loops

let body_stats ?(et = Etype.F64) (body : Insn.t list) =
  let flops = List.fold_left (fun acc i -> acc + Insn.flops ~et i) 0 body in
  let count f = List.length (List.filter f body) in
  let load_bytes =
    List.fold_left
      (fun acc i ->
        match i with
        | Insn.Vload { w; _ } -> acc + (Insn.width_bits w / 8)
        | Insn.Vbroadcast _ -> acc + Etype.bytes et
        | Insn.Loadq _ -> acc + 8
        | _ -> acc)
      0 body
  in
  let store_bytes =
    List.fold_left
      (fun acc i ->
        match i with
        | Insn.Vstore { w; _ } -> acc + (Insn.width_bits w / 8)
        | Insn.Storeq _ -> acc + 8
        | _ -> acc)
      0 body
  in
  ( flops,
    count (function Insn.Vload _ | Insn.Vbroadcast _ | Insn.Loadq _ -> true | _ -> false),
    count (function Insn.Vstore _ | Insn.Storeq _ -> true | _ -> false),
    load_bytes,
    store_bytes,
    count (function Insn.Prefetch _ -> true | _ -> false) )

(* Steady-state cycles per iteration via replication differencing.
   [pipeline_model] selects the core model: [`Out_of_order] (renamed
   registers, address-based disambiguation — the default, matching the
   real Sandy Bridge/Piledriver cores) or [`In_order] (program-order
   issue, no renaming — used by the scheduling ablation: on an in-order
   pipe the static instruction scheduler is what hides latencies). *)
let steady_cycles ?(pipeline_model = `Out_of_order) (arch : Arch.t)
    (body : Insn.t list) : float =
  let clean =
    List.filter
      (function
        | Insn.Label _ | Insn.Comment _ | Insn.Jcc _ | Insn.Jmp _ -> false
        | _ -> true)
      body
  in
  (* keep the compare+branch cost as one issue slot: re-add a token
     integer op per iteration *)
  let replicate k =
    List.concat (List.init k (fun _ -> clean))
  in
  let k1 = 4 and k2 = 8 in
  let rename, in_order =
    match pipeline_model with
    | `Out_of_order -> (true, false)
    | `In_order -> (false, true)
  in
  let _, m1 = Depgraph.list_schedule ~rename ~in_order arch (replicate k1) in
  let _, m2 = Depgraph.list_schedule ~rename ~in_order arch (replicate k2) in
  let per_iter = float_of_int (m2 - m1) /. float_of_int (k2 - k1) in
  (* the back-edge branch occupies one branch slot per iteration *)
  Float.max per_iter 1.0

(* One innermost loop's counts and steady-state cycles. *)
let info ?pipeline_model ?et (arch : Arch.t) label body : loop_info =
  let flops, loads, stores, lb, sb, pf = body_stats ?et body in
  {
    li_label = label;
    li_body = body;
    li_flops = flops;
    li_loads = loads;
    li_stores = stores;
    li_load_bytes = lb;
    li_store_bytes = sb;
    li_prefetches = pf;
    li_cycles = steady_cycles ?pipeline_model arch body;
  }

(* Analyze every innermost loop of a program. *)
let analyze ?pipeline_model ?et (arch : Arch.t) (p : Insn.program) :
    loop_info list =
  List.map
    (fun (label, body) -> info ?pipeline_model ?et arch label body)
    (innermost_loops p)

(* The hot loop: the one with the most FLOPs per iteration, then the
   most bytes loaded, first-seen on a tie.  Both are static counts, so
   only the loop picked is scheduled. *)
let hot_loop ?pipeline_model ?(et = Etype.F64) (arch : Arch.t)
    (p : Insn.program) : loop_info option =
  let pick best ((_, body) as loop) =
    let flops, _, _, load_bytes, _, _ = body_stats ~et body in
    match best with
    | Some (f, lb, _) when f > flops || (f = flops && lb >= load_bytes) -> best
    | _ -> Some (flops, load_bytes, loop)
  in
  Option.map
    (fun (_, _, (label, body)) -> info ?pipeline_model ~et arch label body)
    (List.fold_left pick None (innermost_loops p))

(* Peak-fraction efficiency of a kernel's hot loop: flops per cycle
   relative to the machine peak. *)
let kernel_efficiency ?(et = Etype.F64) (arch : Arch.t) (p : Insn.program) :
    float =
  match hot_loop ~et arch p with
  | None -> 0.0
  | Some li ->
      if li.li_cycles <= 0. then 0.
      else
        let fpc = float_of_int li.li_flops /. li.li_cycles in
        let peak = Arch.peak_mflops ~et arch /. (arch.Arch.turbo_ghz *. 1000.) in
        Float.min 1.0 (fpc /. peak)
