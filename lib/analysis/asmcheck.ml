(* Machine-code static verifier: CFG + dataflow lints over generated
   kernels.  See asmcheck.mli for the lint catalog.

   The register universe is 33 slots packed into one bitmask: 16 GPRs
   (by [Reg.gpr_index]), 16 vector registers (16 + index) and a flags
   pseudo-register (slot 32).  The bitmask analyses (must-definedness
   forward with intersection, liveness backward with union) and the
   reaching-definition analysis (per-slot sets of defining instruction
   indices) instantiate the generic {!Dataflow} solver; the symbolic
   stack tracker runs as a forward analysis over an ad-hoc lattice of
   rsp offsets, rbp states and saved-register slots. *)

module Insn = Augem_machine.Insn
module Reg = Augem_machine.Reg
module Ast = Augem_ir.Ast
module IS = Set.Make (Int)

type severity =
  | Sev_error
  | Sev_warning

type lint =
  | L_malformed_cfg
  | L_undef_read
  | L_mem_base_undef
  | L_flags_undef
  | L_callee_saved_clobber
  | L_stack_imbalance
  | L_save_slot_clobber
  | L_uninit_slot_load
  | L_dirty_upper
  | L_sse_two_operand
  | L_sse_wide
  | L_unreachable
  | L_dead_write

type finding = {
  f_severity : severity;
  f_lint : lint;
  f_index : int;
  f_detail : string;
}

type config = {
  cfg_avx : bool;
  cfg_entry : Reg.t list;
}

(* ------------------------------------------------------------------ *)
(* Register slots                                                      *)

let nslots = 33
let flags_slot = 32
let slot_of = function Reg.Gp g -> Reg.gpr_index g | Reg.Vr v -> 16 + v
let bit s = 1 lsl s
let full_mask = (1 lsl nslots) - 1

let slot_str s =
  if s = flags_slot then "flags"
  else if s < 16 then "%" ^ Reg.gpr_name (List.nth Reg.all_gprs s)
  else Printf.sprintf "%%xmm%d" (s - 16)

let mask_of_regs rs = List.fold_left (fun m r -> m lor bit (slot_of r)) 0 rs

let reads_mask i =
  mask_of_regs (Insn.reads i)
  lor if Insn.reads_flags i then bit flags_slot else 0

let writes_mask i =
  mask_of_regs (Insn.writes i)
  lor if Insn.sets_flags i then bit flags_slot else 0

(* ------------------------------------------------------------------ *)
(* Entry configurations                                                *)

let base_entry =
  List.map (fun g -> Reg.Gp g) Reg.callee_saved @ [ Reg.Gp Reg.Rsp ]

let conservative ~avx =
  {
    cfg_avx = avx;
    cfg_entry =
      List.map (fun g -> Reg.Gp g) Reg.argument_gprs
      @ base_entry
      @ List.init 8 (fun v -> Reg.Vr v);
  }

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let config_for ~avx ~(params : Ast.param list) =
  (* System V AMD64: integer/pointer arguments bind [argument_gprs] in
     order (the rest spill to the stack above the return address);
     double arguments bind xmm0..7 in order *)
  let is_fp p = match p.Ast.p_type with
    | Ast.Double | Ast.Float -> true
    | _ -> false
  in
  let n_int = List.length (List.filter (fun p -> not (is_fp p)) params) in
  let n_fp = List.length (List.filter is_fp params) in
  {
    cfg_avx = avx;
    cfg_entry =
      List.map (fun g -> Reg.Gp g) (take n_int Reg.argument_gprs)
      @ base_entry
      @ List.init (min 8 n_fp) (fun v -> Reg.Vr v);
  }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let lint_name = function
  | L_malformed_cfg -> "malformed-cfg"
  | L_undef_read -> "undef-read"
  | L_mem_base_undef -> "mem-base-undef"
  | L_flags_undef -> "flags-undef"
  | L_callee_saved_clobber -> "callee-saved-clobber"
  | L_stack_imbalance -> "stack-imbalance"
  | L_save_slot_clobber -> "save-slot-clobber"
  | L_uninit_slot_load -> "uninit-slot-load"
  | L_dirty_upper -> "dirty-upper"
  | L_sse_two_operand -> "sse-two-operand"
  | L_sse_wide -> "sse-wide-op"
  | L_unreachable -> "unreachable-code"
  | L_dead_write -> "dead-write"

let severity_name = function Sev_error -> "error" | Sev_warning -> "warning"

let finding_to_string f =
  Printf.sprintf "#%04d [%s] %s: %s" f.f_index (severity_name f.f_severity)
    (lint_name f.f_lint) f.f_detail

let pp_finding ppf f = Format.pp_print_string ppf (finding_to_string f)

(* ------------------------------------------------------------------ *)
(* Dataflow instantiations                                             *)

module MayBits = Dataflow.Make (struct
  type t = int

  let equal = Int.equal
  let join = ( lor )
end)

module MustBits = Dataflow.Make (struct
  type t = int

  let equal = Int.equal
  let join = ( land )
end)

let sets_equal a b =
  try
    Array.iter2 (fun x y -> if not (IS.equal x y) then raise Exit) a b;
    true
  with Exit -> false

module ReachFlow = Dataflow.Make (struct
  type t = IS.t array (* per slot: indices of reaching definitions *)

  let equal = sets_equal
  let join a b = Array.init nslots (fun k -> IS.union a.(k) b.(k))
end)

module DirtyFlow = Dataflow.Make (struct
  type t = bool (* 256-bit upper state may be dirty *)

  let equal = ( = )
  let join = ( || )
end)

(* ------------------------------------------------------------------ *)
(* Symbolic stack / frame tracker                                      *)

type rbp_val =
  | Rbp_caller (* still holds the caller's value (entry state) *)
  | Rbp_frame of int (* entry-rsp-relative frame base *)
  | Rbp_unknown

type frame = {
  fr_sp : int option; (* rsp minus entry rsp, bytes; None = untracked *)
  fr_rbp : rbp_val;
  fr_intact : int; (* gpr_index mask: callee-saved regs holding entry value *)
  fr_saved : IS.t array; (* per gpr_index: slots holding the entry value *)
  fr_init : IS.t; (* own-frame slots written on every path from entry *)
}

let is_cs g = List.mem g Reg.callee_saved
let gbit g = 1 lsl Reg.gpr_index g
let callee_mask = List.fold_left (fun m g -> m lor gbit g) 0 Reg.callee_saved

let entry_frame =
  {
    fr_sp = Some 0;
    fr_rbp = Rbp_caller;
    fr_intact = callee_mask;
    fr_saved = Array.make 16 IS.empty;
    fr_init = IS.empty;
  }

let frame_equal a b =
  a.fr_sp = b.fr_sp && a.fr_rbp = b.fr_rbp && a.fr_intact = b.fr_intact
  && sets_equal a.fr_saved b.fr_saved
  && IS.equal a.fr_init b.fr_init

let frame_join a b =
  {
    fr_sp =
      (match (a.fr_sp, b.fr_sp) with
      | Some x, Some y when x = y -> Some x
      | _ -> None);
    fr_rbp = (if a.fr_rbp = b.fr_rbp then a.fr_rbp else Rbp_unknown);
    fr_intact = a.fr_intact land b.fr_intact;
    fr_saved = Array.init 16 (fun k -> IS.inter a.fr_saved.(k) b.fr_saved.(k));
    fr_init = IS.inter a.fr_init b.fr_init;
  }

module FrameFlow = Dataflow.Make (struct
  type t = frame option (* None = not yet reached (the join identity) *)

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> frame_equal a b
    | _ -> false

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (frame_join a b)
end)

(* entry-rsp-relative address of an 8-byte stack cell, when static *)
let resolve_slot (fr : frame) (m : Insn.mem) : int option =
  if m.Insn.index <> None then None
  else
    match m.Insn.base with
    | Reg.Rsp -> Option.map (fun sp -> sp + m.Insn.disp) fr.fr_sp
    | Reg.Rbp -> (
        match fr.fr_rbp with
        | Rbp_frame o -> Some (o + m.Insn.disp)
        | _ -> None)
    | _ -> None

(* a write that destroys the entry value of [g] *)
let clobber emit fr g what =
  if is_cs g then begin
    if IS.is_empty fr.fr_saved.(Reg.gpr_index g) then
      emit L_callee_saved_clobber
        (Printf.sprintf "%s overwrites callee-saved %%%s with no saved copy"
           what (Reg.gpr_name g));
    { fr with fr_intact = fr.fr_intact land lnot (gbit g) }
  end
  else fr

(* the 8-byte cell at [k] is overwritten, by gpr [src] if given *)
let store_slot emit fr k src =
  let saved = Array.copy fr.fr_saved in
  List.iter
    (fun g ->
      let gi = Reg.gpr_index g in
      if IS.mem k saved.(gi) then begin
        let resave = src = Some g && fr.fr_intact land gbit g <> 0 in
        if not resave then begin
          saved.(gi) <- IS.remove k saved.(gi);
          if IS.is_empty saved.(gi) && fr.fr_intact land gbit g = 0 then
            emit L_save_slot_clobber
              (Printf.sprintf
                 "store overwrites the only saved copy of %%%s (slot %d)"
                 (Reg.gpr_name g) k)
        end
      end)
    Reg.callee_saved;
  (match src with
  | Some g when is_cs g && fr.fr_intact land gbit g <> 0 ->
      let gi = Reg.gpr_index g in
      saved.(gi) <- IS.add k saved.(gi)
  | _ -> ());
  { fr with fr_saved = saved; fr_init = IS.add k fr.fr_init }

(* Own-frame cells (below entry rsp) must be written before they are
   read; cells at or above entry rsp belong to the caller (return
   address, stack-passed arguments) and are out of scope. *)
let check_init emit fr m bytes =
  match resolve_slot fr m with
  | Some k when k < 0 ->
      let off = ref 0 in
      let bad = ref None in
      while !off < bytes do
        if !bad = None && not (IS.mem (k + !off) fr.fr_init) then
          bad := Some (k + !off);
        off := !off + 8
      done;
      Option.iter
        (fun slot ->
          emit L_uninit_slot_load
            (Printf.sprintf
               "load from frame slot %d, not written on every path from entry"
               slot))
        !bad
  | _ -> ()

let generic_gpr_write emit fr g what =
  if g = Reg.Rsp then begin
    emit L_stack_imbalance (what ^ " makes %rsp untrackable");
    { fr with fr_sp = None }
  end
  else
    let fr = clobber emit fr g what in
    if g = Reg.Rbp then { fr with fr_rbp = Rbp_unknown } else fr

let frame_step emit (insn : Insn.t) (fr : frame) : frame =
  match insn with
  | Insn.Push r -> (
      match fr.fr_sp with
      | Some sp ->
          let k = sp - 8 in
          let fr = store_slot emit fr k (Some r) in
          { fr with fr_sp = Some k }
      | None -> fr)
  | Insn.Pop r -> (
      match fr.fr_sp with
      | Some sp ->
          if sp < 0 && not (IS.mem sp fr.fr_init) then
            emit L_uninit_slot_load
              (Printf.sprintf
                 "pop reads frame slot %d, not written on every path from \
                  entry"
                 sp);
          let restored = is_cs r && IS.mem sp fr.fr_saved.(Reg.gpr_index r) in
          let fr =
            if restored then { fr with fr_intact = fr.fr_intact lor gbit r }
            else if is_cs r then clobber emit fr r "pop"
            else fr
          in
          let fr =
            if r = Reg.Rbp then
              { fr with fr_rbp = (if restored then Rbp_caller else Rbp_unknown) }
            else fr
          in
          if r = Reg.Rsp then begin
            emit L_stack_imbalance "pop into %rsp";
            { fr with fr_sp = None }
          end
          else { fr with fr_sp = Some (sp + 8) }
      | None -> if is_cs r then clobber emit fr r "pop" else fr)
  | Insn.Movrr (d, s) when d = Reg.Rbp && s = Reg.Rsp ->
      let fr = clobber emit fr Reg.Rbp "frame setup" in
      {
        fr with
        fr_rbp =
          (match fr.fr_sp with Some sp -> Rbp_frame sp | None -> Rbp_unknown);
      }
  | Insn.Movrr (d, s) when d = Reg.Rsp && s = Reg.Rbp -> (
      match fr.fr_rbp with
      | Rbp_frame o -> { fr with fr_sp = Some o }
      | _ ->
          emit L_stack_imbalance "restoring %rsp from an untracked %rbp";
          { fr with fr_sp = None })
  | Insn.Addri (r, n) when r = Reg.Rsp ->
      { fr with fr_sp = Option.map (fun sp -> sp + n) fr.fr_sp }
  | Insn.Subri (r, n) when r = Reg.Rsp ->
      { fr with fr_sp = Option.map (fun sp -> sp - n) fr.fr_sp }
  | Insn.Storeq (m, s) -> (
      match resolve_slot fr m with
      | Some k -> store_slot emit fr k (Some s)
      | None -> fr)
  | Insn.Vstore { w; dst = m; _ } -> (
      match resolve_slot fr m with
      | Some k ->
          let bytes = Insn.width_bits w / 8 in
          let fr = ref fr in
          let off = ref 0 in
          while !off < bytes do
            fr := store_slot emit !fr (k + !off) None;
            off := !off + 8
          done;
          !fr
      | None -> fr)
  | Insn.Loadq (r, m) ->
      check_init emit fr m 8;
      let restored =
        match resolve_slot fr m with
        | Some k -> is_cs r && IS.mem k fr.fr_saved.(Reg.gpr_index r)
        | None -> false
      in
      if restored then begin
        let fr = { fr with fr_intact = fr.fr_intact lor gbit r } in
        if r = Reg.Rbp then { fr with fr_rbp = Rbp_caller } else fr
      end
      else generic_gpr_write emit fr r "load"
  | Insn.Vload { w; src = m; _ } ->
      check_init emit fr m (Insn.width_bits w / 8);
      fr
  | Insn.Vbroadcast { src = m; _ } ->
      check_init emit fr m 8;
      fr
  | _ ->
      List.fold_left
        (fun fr reg ->
          match reg with
          | Reg.Gp g -> generic_gpr_write emit fr g "write"
          | Reg.Vr _ -> fr)
        fr (Insn.writes insn)

(* ------------------------------------------------------------------ *)
(* Helpers shared by the walks                                         *)

let mems_of = function
  | Insn.Vload { src; _ } | Insn.Vbroadcast { src; _ } -> [ src ]
  | Insn.Vstore { dst; _ } -> [ dst ]
  | Insn.Loadq (_, m) | Insn.Storeq (m, _) | Insn.Lea (_, m)
  | Insn.Prefetch (_, m) ->
      [ m ]
  | _ -> []

let writes_256 = function
  | Insn.Vop { w = Insn.W256; _ }
  | Insn.Vfma4 { w = Insn.W256; _ }
  | Insn.Vload { w = Insn.W256; _ }
  | Insn.Vbroadcast { w = Insn.W256; _ }
  | Insn.Vshuf { w = Insn.W256; _ }
  | Insn.Vblend { w = Insn.W256; _ }
  | Insn.Vperm128 _ ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)

let check ?(config = conservative ~avx:true) (p : Insn.program) : finding list
    =
  let cfg = Cfg.build p in
  let n = Array.length cfg.Cfg.insns in
  let out = ref [] in
  let add ?(sev = Sev_error) lint index detail =
    out :=
      { f_severity = sev; f_lint = lint; f_index = index; f_detail = detail }
      :: !out
  in
  let insn i = cfg.Cfg.insns.(i) in
  (* 1. CFG soundness *)
  List.iter
    (function
      | Cfg.Undefined_target { index; label } ->
          add L_malformed_cfg index
            (Printf.sprintf "branch to undefined label %S" label)
      | Cfg.Duplicate_label { index; label } ->
          add L_malformed_cfg index
            (Printf.sprintf "label %S bound more than once" label)
      | Cfg.Falls_off_end { index } ->
          add L_malformed_cfg index
            "control can fall off the end of the function")
    cfg.Cfg.issues;
  (* 2. SSE encoding restrictions: purely local, checked on every
     instruction whether reachable or not (the printer emits them all) *)
  if not config.cfg_avx then
    Array.iteri
      (fun i x ->
        let wide detail = add L_sse_wide i detail in
        let two_operand dst src1 =
          if dst <> src1 then
            add L_sse_two_operand i
              (Printf.sprintf
                 "two-operand SSE encoding requires dst = src1 (dst %%xmm%d, \
                  src1 %%xmm%d)"
                 dst src1)
        in
        match x with
        | Insn.Vop { op = Insn.Fma231; _ } -> wide "FMA3 requires VEX encoding"
        | Insn.Vop { w = Insn.W256; _ } -> wide "256-bit operation in SSE mode"
        | Insn.Vop { op = Insn.Fmov; _ } -> () (* movapd is dst, src *)
        | Insn.Vop { dst; src1; _ } -> two_operand dst src1
        | Insn.Vfma4 _ -> wide "FMA4 requires VEX encoding"
        | Insn.Vperm128 _ -> wide "vperm2f128 requires VEX encoding"
        | Insn.Vextract128 _ -> wide "vextractf128 requires VEX encoding"
        | Insn.Vshuf { w = Insn.W256; _ } | Insn.Vblend { w = Insn.W256; _ } ->
            wide "256-bit operation in SSE mode"
        | Insn.Vshuf { dst; src1; _ } | Insn.Vblend { dst; src1; _ } ->
            two_operand dst src1
        | Insn.Vload { w = Insn.W256; _ }
        | Insn.Vstore { w = Insn.W256; _ }
        | Insn.Vbroadcast { w = Insn.W256; _ } ->
            wide "256-bit memory operation in SSE mode"
        | Insn.Vzeroupper -> wide "vzeroupper requires AVX"
        | _ -> ())
      cfg.Cfg.insns;
  if Array.length cfg.Cfg.blocks > 0 then begin
    let entry_mask = mask_of_regs config.cfg_entry in
    (* 3. unreachable code *)
    Array.iter
      (fun b ->
        if not cfg.Cfg.reachable.(b.Cfg.b_id) then begin
          let first = ref (-1) in
          for j = b.Cfg.b_first to b.Cfg.b_last do
            if !first < 0 then
              match insn j with
              | Insn.Label _ | Insn.Comment _ -> ()
              | _ -> first := j
          done;
          if !first >= 0 then
            add ~sev:Sev_warning L_unreachable !first
              (Printf.sprintf "no path from entry reaches this block of %d \
                               instructions"
                 (b.Cfg.b_last - b.Cfg.b_first + 1))
        end)
      cfg.Cfg.blocks;
    (* 4. definedness: must-defined (intersection) decides whether a
       read is sound; reaching definitions (union) distinguish "never
       defined anywhere" from "missing on some path".  Only a read that
       is not must-defined words its finding from them, and a clean
       program has none, so they are computed on the first such read. *)
    let must_tr i d = d lor writes_mask (insn i) in
    let must =
      MustBits.solve cfg ~dir:`Forward ~boundary:entry_mask ~top:full_mask
        ~transfer:must_tr
    in
    let reach_entry =
      Array.init nslots (fun s ->
          if entry_mask land bit s <> 0 then IS.singleton (-1) else IS.empty)
    in
    let reach_top = Array.make nslots IS.empty in
    let reach_tr i d =
      let wm = writes_mask (insn i) in
      if wm = 0 then d
      else begin
        let d' = Array.copy d in
        for s = 0 to nslots - 1 do
          if wm land bit s <> 0 then d'.(s) <- IS.singleton i
        done;
        d'
      end
    in
    let must_at = Array.make n full_mask in
    Array.iter
      (fun b ->
        if cfg.Cfg.reachable.(b.Cfg.b_id) then
          ignore
            (MustBits.fold_block ~dir:`Forward ~transfer:must_tr b
               must.(b.Cfg.b_id)
               (fun i d -> must_at.(i) <- d)))
      cfg.Cfg.blocks;
    let reach_at =
      lazy
        (let reach =
           ReachFlow.solve cfg ~dir:`Forward ~boundary:reach_entry
             ~top:reach_top ~transfer:reach_tr
         in
         let reach_at = Array.make n reach_top in
         Array.iter
           (fun b ->
             if cfg.Cfg.reachable.(b.Cfg.b_id) then
               ignore
                 (ReachFlow.fold_block ~dir:`Forward ~transfer:reach_tr b
                    reach.(b.Cfg.b_id)
                    (fun i d -> reach_at.(i) <- d)))
           cfg.Cfg.blocks;
         reach_at)
    in
    Array.iter
      (fun b ->
        if cfg.Cfg.reachable.(b.Cfg.b_id) then
          for i = b.Cfg.b_first to b.Cfg.b_last do
            let x = insn i in
            let mem_slots =
              List.concat_map Insn.mem_reads (mems_of x)
              |> List.map slot_of |> List.sort_uniq compare
            in
            let check_read s =
              if must_at.(i) land bit s = 0 then begin
                let never = IS.is_empty (Lazy.force reach_at).(i).(s) in
                if never && List.mem s mem_slots then
                  add L_mem_base_undef i
                    (Printf.sprintf
                       "memory operand register %s is never defined"
                       (slot_str s))
                else if s = flags_slot then
                  add L_flags_undef i
                    (if never then
                       "conditional branch but flags are never set"
                     else "flags are not set on every path to this branch")
                else
                  add L_undef_read i
                    (Printf.sprintf "read of %s, %s" (slot_str s)
                       (if never then "never defined on any path"
                        else "not defined on every path from entry"))
              end
            in
            List.iter check_read
              (List.sort_uniq compare (List.map slot_of (Insn.reads x)));
            if Insn.reads_flags x then check_read flags_slot
          done)
      cfg.Cfg.blocks;
    (* 5. liveness: dead register-only FP writes.  The value at [Ret]
       keeps the ABI-visible state alive (callee-saved, rsp, the
       return registers) so epilogue restores are not flagged. *)
    let ret_live =
      mask_of_regs
        (List.map (fun g -> Reg.Gp g) Reg.callee_saved
        @ [ Reg.Gp Reg.Rsp; Reg.Gp Reg.Rax; Reg.Vr 0 ])
    in
    let live_tr i l =
      let x = insn i in
      l land lnot (writes_mask x) lor reads_mask x
    in
    let live =
      MayBits.solve cfg ~dir:`Backward ~boundary:ret_live ~top:0
        ~transfer:live_tr
    in
    Array.iter
      (fun b ->
        if cfg.Cfg.reachable.(b.Cfg.b_id) then
          ignore
            (MayBits.fold_block ~dir:`Backward ~transfer:live_tr b
               live.(b.Cfg.b_id)
               (fun i l_after ->
                 match insn i with
                 | Insn.Vop _ | Insn.Vfma4 _ | Insn.Vshuf _ | Insn.Vblend _
                 | Insn.Vperm128 _ | Insn.Vextract128 _ | Insn.Movq_xr _ -> (
                     match Insn.writes (insn i) with
                     | [ (Reg.Vr _ as r) ] ->
                         let s = slot_of r in
                         if l_after land bit s = 0 then
                           add ~sev:Sev_warning L_dead_write i
                             (Printf.sprintf "result %s is never read"
                                (slot_str s))
                     | _ -> ())
                 | _ -> ())))
      cfg.Cfg.blocks;
    (* 6. stack discipline and callee-saved contract *)
    let frame_tr_quiet i d =
      match d with
      | None -> None
      | Some fr -> Some (frame_step (fun _ _ -> ()) (insn i) fr)
    in
    let frames =
      FrameFlow.solve cfg ~dir:`Forward ~boundary:(Some entry_frame) ~top:None
        ~transfer:frame_tr_quiet
    in
    Array.iter
      (fun b ->
        if cfg.Cfg.reachable.(b.Cfg.b_id) then begin
          let transfer i d =
            match d with
            | None -> None
            | Some fr ->
                Some (frame_step (fun l msg -> add l i msg) (insn i) fr)
          in
          ignore
            (FrameFlow.fold_block ~dir:`Forward ~transfer b
               frames.(b.Cfg.b_id)
               (fun i d ->
                 match (d, insn i) with
                 | Some fr, Insn.Ret ->
                     (match fr.fr_sp with
                     | Some 0 -> ()
                     | Some off ->
                         add L_stack_imbalance i
                           (Printf.sprintf
                              "%%rsp is %+d bytes from its entry value at ret"
                              off)
                     | None ->
                         add L_stack_imbalance i "%rsp untracked at ret");
                     List.iter
                       (fun g ->
                         if fr.fr_intact land gbit g = 0 then
                           add L_callee_saved_clobber i
                             (Printf.sprintf
                                "callee-saved %%%s not restored on this path \
                                 to ret"
                                (Reg.gpr_name g)))
                       Reg.callee_saved
                 | _ -> ()))
        end)
      cfg.Cfg.blocks;
    (* 7. vzeroupper discipline: 256-bit upper state must be clean at
       every Ret *)
    let dirty_tr i d =
      match insn i with
      | Insn.Vzeroupper -> false
      | x -> d || writes_256 x
    in
    let dirty =
      DirtyFlow.solve cfg ~dir:`Forward ~boundary:false ~top:false
        ~transfer:dirty_tr
    in
    Array.iter
      (fun b ->
        if cfg.Cfg.reachable.(b.Cfg.b_id) then
          ignore
            (DirtyFlow.fold_block ~dir:`Forward ~transfer:dirty_tr b
               dirty.(b.Cfg.b_id)
               (fun i d ->
                 match insn i with
                 | Insn.Ret when d ->
                     add ~sev:Sev_warning L_dirty_upper i
                       "256-bit upper state may be dirty at ret (missing \
                        vzeroupper)"
                 | _ -> ())))
      cfg.Cfg.blocks
  end;
  List.sort_uniq
    (fun a b ->
      Stdlib.compare
        (a.f_index, a.f_lint, a.f_severity, a.f_detail)
        (b.f_index, b.f_lint, b.f_severity, b.f_detail))
    !out

let errors fs = List.filter (fun f -> f.f_severity = Sev_error) fs

exception Lint_error of string * finding list

let () =
  Printexc.register_printer (function
    | Lint_error (name, fs) ->
        Some
          (Printf.sprintf "Lint_error(%s: %s)" name
             (String.concat "; " (List.map finding_to_string fs)))
    | _ -> None)

let check_exn ?config p =
  let errs = errors (check ?config p) in
  if errs <> [] then raise (Lint_error (p.Insn.prog_name, errs))

let postcondition_flag =
  ref
    (match Sys.getenv_opt "AUGEM_ASMCHECK" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | _ -> false)

let postcondition_enabled () = !postcondition_flag
let set_postcondition b = postcondition_flag := b
