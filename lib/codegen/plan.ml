(* Vectorization planning for the template optimizers (paper sections
   3.4-3.6).  A pre-pass over the identified regions decides, for every
   mmUnrolledCOMP group, which vectorization strategy applies — the
   Vdup method, the Shuf method, the elementwise (dot-product) folding,
   or the scalar fall-back — and assigns each accumulator scalar to a
   (virtual accumulator, lane) slot.  The assignment is global: the
   corresponding mmUnrolledSTORE regions and any scalar code reading
   the accumulators consult the same map, which is what keeps register
   allocation consistent across regions (the paper's reg_table). *)

open Augem_templates.Template

(* Width alias re-exporting [Insn.vwidth]'s constructors. *)
module Insn_width = struct
  module Etype = Augem_machine.Etype

  type t = Augem_machine.Insn.vwidth =
    | W64
    | W128
    | W256

  (* Lane count -> width at an element type.  W64 is one scalar lane
     of either type; packed widths hold [width_bits / Etype.bits]
     lanes, so the valid vector lane counts are {2, 4} for f64 and
     {4, 8} for f32 (there is no 2-lane f32 vector). *)
  let of_lanes ?(et = Etype.F64) n =
    match (n, et) with
    | 1, _ -> W64
    | 2, Etype.F64 | 4, Etype.F32 -> W128
    | 4, Etype.F64 | 8, Etype.F32 -> W256
    | n, et ->
        invalid_arg
          (Printf.sprintf "Insn_width.of_lanes %d (%s)" n (Etype.name et))
end

type strategy =
  | S_vdup of { w : Insn_width.t; n1 : int; chunks : int; bs : (string * int) list }
      (* n1 consecutive A elements x |bs| B elements *)
  | S_shuf of { w : Insn_width.t; a_chunks : int; b_chunks : int }
      (* both arrays contiguous; shuffle-based outer product *)
  | S_elem of { w : Insn_width.t; chunks : int }
      (* elementwise products folded into lane accumulators *)
  | S_scalar

and acc_slot = {
  slot_acc : int; (* accumulator index within the region *)
  slot_lane : int;
}

type group_plan = {
  gp_strategy : strategy;
  gp_region : mm_comp list;
  gp_accs : int; (* number of vector accumulators *)
  gp_width : Insn_width.t;
  gp_slots : (string * acc_slot) list; (* res var -> slot *)
  gp_store_class : string; (* register class for the accumulators *)
}

(* Plans are keyed by the res variables they define. *)
type t = {
  by_res : (string, group_plan) Hashtbl.t;
  splats : (string, unit) Hashtbl.t; (* mv scal vars needing broadcast *)
}

let find_plan t res = Hashtbl.find_opt t.by_res res
let needs_splat t v = Hashtbl.mem t.splats v

(* --- group shape analysis --------------------------------------------- *)

type shape =
  | Outer of { n1 : int; bs : (string * int) list; b_contiguous : bool }
  | Elementwise of { n : int }
  | Irregular

(* Analyze an mmUnrolledCOMP group.  Instances share the A stream by
   construction (matcher rule). *)
let analyze (group : mm_comp list) : shape =
  let disps_of l = List.map disp_of l in
  let a_disps = disps_of (List.map (fun m -> m.mc_idx1) group) in
  let b_ops =
    List.map
      (fun m -> match disp_of m.mc_idx2 with
        | Some d -> Some (m.mc_b, d)
        | None -> None)
      group
  in
  if List.exists Option.is_none a_disps || List.exists Option.is_none b_ops
  then Irregular
  else
    let a_disps = List.map Option.get a_disps in
    let b_ops = List.map Option.get b_ops in
    let n = List.length group in
    let distinct_bs =
      List.fold_left
        (fun acc b -> if List.mem b acc then acc else acc @ [ b ])
        [] b_ops
    in
    let nb = List.length distinct_bs in
    let consecutive l =
      match l with
      | [] -> false
      | d0 :: _ ->
          List.for_all2 (fun d i -> d = d0 + i) l
            (List.init (List.length l) (fun i -> i))
    in
    if nb = n && consecutive a_disps then
      (* every instance has its own B element *)
      let b_disps = List.map snd b_ops in
      let same_bptr =
        match distinct_bs with
        | [] -> false
        | (p, _) :: rest -> List.for_all (fun (q, _) -> String.equal q p) rest
      in
      if consecutive b_disps && same_bptr then
        (* could be elementwise or shuf-outer; for a matched group the
           A indices pair positionally with B indices: elementwise *)
        Elementwise { n }
      else Irregular
    else begin
      (* outer product: instances grouped by B operand, each covering
         the same consecutive run of A displacements, in the same order *)
      let n1 = n / max nb 1 in
      if n1 * nb <> n then Irregular
      else
        let runs =
          List.map
            (fun b ->
              List.filter_map
                (fun (m, bop) -> if bop = b then disp_of m.mc_idx1 else None)
                (List.combine group b_ops))
            distinct_bs
        in
        let expected = List.init n1 (fun i -> i) in
        let base_run = match runs with r :: _ -> r | [] -> [] in
        let aligned =
          List.for_all
            (fun r ->
              List.length r = n1 && r = base_run
              &&
              match r with
              | d0 :: _ -> List.map (fun d -> d - d0) r = expected
              | [] -> false)
            runs
        in
        if aligned then
          let b_contiguous =
            let ds = List.map snd distinct_bs in
            let same_ptr =
              match distinct_bs with
              | (p, _) :: rest -> List.for_all (fun (q, _) -> String.equal q p) rest
              | [] -> false
            in
            same_ptr
            && (match ds with
               | d0 :: _ ->
                   List.mapi (fun i _ -> d0 + i) ds = ds
               | [] -> false)
          in
          Outer { n1; bs = distinct_bs; b_contiguous }
        else Irregular
    end

(* Largest usable chunk width: a lane count that is valid for the
   element type (f64: 4 or 2; f32: 8 or 4 — no 2-lane f32 vectors),
   divides [n], and does not exceed the machine's SIMD lanes. *)
let chunk_lanes ~et ~machine_lanes n =
  let candidates =
    match et with
    | Augem_machine.Etype.F64 -> [ 4; 2 ]
    | Augem_machine.Etype.F32 -> [ 8; 4 ]
  in
  let rec pick = function
    | [] -> 1
    | w :: rest -> if w <= machine_lanes && n mod w = 0 then w else pick rest
  in
  pick candidates

type prefer =
  | Prefer_auto
  | Prefer_vdup
  | Prefer_shuf

(* The one text form of a preference: the script, the wire and the
   tuner's cache fingerprint all spell it this way. *)
let prefer_name = function
  | Prefer_auto -> "auto"
  | Prefer_vdup -> "vdup"
  | Prefer_shuf -> "shuf"

let prefer_of_name s =
  List.find_opt
    (fun p -> String.equal (prefer_name p) s)
    [ Prefer_auto; Prefer_vdup; Prefer_shuf ]

(* Decide the strategy and lane layout for one group. *)
let plan_group ~et ~machine_lanes ~(prefer : prefer) (group : mm_comp list) :
    group_plan =
  let width_of_lanes = Insn_width.of_lanes ~et in
  let chunk_lanes = chunk_lanes ~et in
  let res_of i = (List.nth group i).mc_res in
  let scalar () =
    {
      gp_strategy = S_scalar;
      gp_region = group;
      gp_accs = 0;
      gp_width = Insn_width.W64;
      gp_slots = [];
      gp_store_class = "tmp";
    }
  in
  match analyze group with
  | Irregular -> scalar ()
  | Elementwise { n } ->
      let w = chunk_lanes ~machine_lanes n in
      if w < 2 then scalar ()
      else
        let chunks = n / w in
        let slots =
          List.init n (fun i ->
              (res_of i, { slot_acc = i / w; slot_lane = i mod w }))
        in
        {
          gp_strategy = S_elem { w = width_of_lanes w; chunks };
          gp_region = group;
          gp_accs = chunks;
          gp_width = width_of_lanes w;
          gp_slots = slots;
          gp_store_class = "tmp";
        }
  | Outer { n1; bs; b_contiguous } ->
      let w = chunk_lanes ~machine_lanes n1 in
      if w < 2 then scalar ()
      else
        let chunks = n1 / w in
        let nb = List.length bs in
        let use_shuf =
          prefer = Prefer_shuf && b_contiguous && w = 2 && nb mod w = 0
        in
        if use_shuf then begin
          (* accumulator (ac, bc, k) holds, in lane i, the res of
             (a disp ac*w+i, b index bc*w + ((i+k) mod w)) *)
          let a_chunks = chunks and b_chunks = nb / w in
          let slots = ref [] in
          for ac = 0 to a_chunks - 1 do
            for bc = 0 to b_chunks - 1 do
              for k = 0 to w - 1 do
                let acc = (((ac * b_chunks) + bc) * w) + k in
                for i = 0 to w - 1 do
                  let a_pos = (ac * w) + i in
                  let b_pos = (bc * w) + ((i + k) mod w) in
                  (* instance index: group is ordered a-major within
                     each b?  Find the instance with this (a,b) pair. *)
                  let idx =
                    let found = ref (-1) in
                    List.iteri
                      (fun j m ->
                        let da = disp_of m.mc_idx1
                        and db = List.nth bs b_pos in
                        match da with
                        | Some da ->
                            let base_a =
                              match disp_of (List.hd group).mc_idx1 with
                              | Some d -> d
                              | None -> 0
                            in
                            if da - base_a = a_pos && (m.mc_b, Option.value ~default:0 (disp_of m.mc_idx2)) = db
                            then found := j
                        | None -> ())
                      group;
                    !found
                  in
                  if idx >= 0 then
                    slots :=
                      (res_of idx, { slot_acc = acc; slot_lane = i }) :: !slots
                done
              done
            done
          done;
          {
            gp_strategy = S_shuf { w = width_of_lanes w; a_chunks; b_chunks };
            gp_region = group;
            gp_accs = a_chunks * b_chunks * w;
            gp_width = width_of_lanes w;
            gp_slots = List.rev !slots;
            gp_store_class = "tmp";
          }
        end
        else begin
          (* Vdup: accumulator (b index, chunk) lane i holds res of
             (a disp chunk*w+i, that b) *)
          let slots = ref [] in
          List.iteri
            (fun bi b ->
              List.iter
                (fun m ->
                  let da =
                    match (disp_of m.mc_idx1, disp_of (List.hd group).mc_idx1) with
                    | Some d, Some d0 -> d - d0
                    | _ -> 0
                  in
                  let mb =
                    (m.mc_b, Option.value ~default:0 (disp_of m.mc_idx2))
                  in
                  if mb = b then
                    let acc = (bi * chunks) + (da / w) in
                    slots :=
                      (m.mc_res, { slot_acc = acc; slot_lane = da mod w })
                      :: !slots)
                group)
            bs;
          {
            gp_strategy = S_vdup { w = width_of_lanes w; n1; chunks; bs };
            gp_region = group;
            gp_accs = List.length bs * chunks;
            gp_width = width_of_lanes w;
            gp_slots = List.rev !slots;
            gp_store_class = "tmp";
          }
        end

(* --- whole-kernel planning --------------------------------------------- *)

open Augem_templates.Matcher

let rec regions_of_astmts acc = function
  | [] -> List.rev acc
  | A_region (r, _) :: rest -> regions_of_astmts (r :: acc) rest
  | A_for (_, body) :: rest ->
      regions_of_astmts (List.rev_append (regions_of_astmts [] body) acc) rest
  | A_if (_, _, _, a, b) :: rest ->
      let acc = List.rev_append (regions_of_astmts [] a) acc in
      regions_of_astmts (List.rev_append (regions_of_astmts [] b) acc) rest
  | A_plain _ :: rest -> regions_of_astmts acc rest

(* Build the plan for a whole annotated kernel.  [store_class_of] maps
   a res variable to the base array its mmSTORE writes, so accumulators
   draw registers from that array's queue (paper 3.1: "res0 is later
   saved as an element of Array C, so it is allocated with a register
   assigned to C"). *)
let build ~et ~machine_lanes ~prefer (ak : akernel) : t =
  let t = { by_res = Hashtbl.create 16; splats = Hashtbl.create 8 } in
  let regions = regions_of_astmts [] ak.ak_body in
  (* an accumulator written by more than one comp region cannot be
     vector-allocated (its lanes would be owned by two differently
     shaped groups — e.g. the round-robin leftovers of an expansion
     whose ways does not divide the unroll factor): taint it, and let
     every region touching it take the scalar path *)
  let res_regions = Hashtbl.create 16 in
  List.iter
    (function
      | Mm_unrolled_comp group ->
          List.iter
            (fun m ->
              Hashtbl.replace res_regions m.mc_res
                (1 + Option.value ~default:0
                       (Hashtbl.find_opt res_regions m.mc_res)))
            group
      | Mm_unrolled_store _ | Mv_unrolled_comp _ | Sv_unrolled_scal _
      | Sv_unrolled_copy _ ->
          ())
    regions;
  let tainted v =
    Option.value ~default:0 (Hashtbl.find_opt res_regions v) > 1
  in
  (* store class: res -> C array *)
  let store_class = Hashtbl.create 16 in
  List.iter
    (function
      | Mm_unrolled_store l ->
          List.iter
            (fun s ->
              Hashtbl.replace store_class s.ms_res
                (Augem_analysis.Arrays.base_array_of s.ms_c))
            l
      | Mm_unrolled_comp _ | Mv_unrolled_comp _ | Sv_unrolled_scal _
      | Sv_unrolled_copy _ ->
          ())
    regions;
  List.iter
    (function
      | Mm_unrolled_comp group ->
          let plan = plan_group ~et ~machine_lanes ~prefer group in
          let cls =
            match group with
            | m :: _ -> (
                match Hashtbl.find_opt store_class m.mc_res with
                | Some c -> c
                | None -> "tmp")
            | [] -> "tmp"
          in
          let plan = { plan with gp_store_class = cls } in
          if
            plan.gp_strategy <> S_scalar
            && not (List.exists (fun (res, _) -> tainted res) plan.gp_slots)
          then
            List.iter
              (fun (res, _) -> Hashtbl.replace t.by_res res plan)
              plan.gp_slots
      | Mv_unrolled_comp group ->
          List.iter (fun m -> Hashtbl.replace t.splats m.mv_scal ()) group
      | Sv_unrolled_scal group ->
          List.iter (fun m -> Hashtbl.replace t.splats m.ss_scal ()) group
      | Mm_unrolled_store _ | Sv_unrolled_copy _ -> ())
    regions;
  t

(* --- introspection (staged-lowering artifact rendering) ---------------- *)

let strategy_name = function
  | S_vdup _ -> "vdup"
  | S_shuf _ -> "shuf"
  | S_elem _ -> "elem"
  | S_scalar -> "scalar"

let width_name = function
  | Insn_width.W64 -> "64"
  | Insn_width.W128 -> "128"
  | Insn_width.W256 -> "256"

(* The distinct groups of a plan, deduplicated (every res variable of a
   group maps to the same [group_plan]) and in a stable order, so
   renderings and fingerprints are deterministic. *)
let groups (t : t) : group_plan list =
  Hashtbl.fold (fun _ gp acc -> gp :: acc) t.by_res []
  |> List.sort_uniq compare

let splat_vars (t : t) : string list =
  Hashtbl.fold (fun v () acc -> v :: acc) t.splats []
  |> List.sort_uniq String.compare

let group_to_string (gp : group_plan) : string =
  let slots =
    gp.gp_slots
    |> List.map (fun (v, s) ->
           Printf.sprintf "%s->a%d.l%d" v s.slot_acc s.slot_lane)
    |> String.concat " "
  in
  Printf.sprintf "strategy=%s width=%s accs=%d class=%s slots=[%s]"
    (strategy_name gp.gp_strategy)
    (width_name gp.gp_width)
    gp.gp_accs gp.gp_store_class slots

let to_string (t : t) : string =
  let b = Buffer.create 128 in
  List.iteri
    (fun i gp ->
      Buffer.add_string b (Printf.sprintf "group %d: %s\n" i (group_to_string gp)))
    (groups t);
  (match splat_vars t with
  | [] -> ()
  | vs -> Buffer.add_string b ("splat: " ^ String.concat " " vs ^ "\n"));
  if Buffer.length b = 0 then "(no vectorizable groups)\n" else Buffer.contents b
