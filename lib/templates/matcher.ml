(* The Template Identifier (paper section 2.2): a recursive-descent
   traversal that recognizes code fragments matching the pre-defined
   templates and tags them, recording the global live-range information
   the Template Optimizer needs.

   Matching happens on the three-address form produced by scalar
   replacement.  Consecutive unit templates are merged into the
   corresponding unrolled templates subject to the paper's grouping
   rules: mmCOMPs sharing the A stream, mmSTOREs over one C stream with
   consecutive displacements, mvCOMPs over one A/B stream pair with
   consecutive displacements. *)

module SS = Set.Make (String)

open Augem_ir.Ast
open Template

module Liveness = Augem_analysis.Liveness

(* Annotated statement tree: regions carry their matched template and
   the set of scalars live after the region. *)
type astmt =
  | A_plain of stmt * SS.t (* statement, scalars live after it *)
  | A_region of region * SS.t
  | A_for of loop_header * astmt list
  | A_if of expr * cmpop * expr * astmt list * astmt list

type akernel = {
  ak_name : string;
  ak_params : param list;
  ak_body : astmt list;
}

let distinct names =
  List.length (List.sort_uniq String.compare names) = List.length names

(* --- unit template matchers over live-annotated suffixes ----------- *)

(* a block's statements from some point on, each with the scalars live
   after it (see {!Liveness.annotate_tree}) *)
type suffix = Liveness.annotated list
type 'a unit_match = 'a * SS.t * suffix

let match_mm_comp (suffix : suffix) : mm_comp unit_match option =
  match suffix with
  | { an_stmt = Assign (Lvar t0, Index (a, i1)); _ }
    :: { an_stmt = Assign (Lvar t1, Index (b, i2)); _ }
    :: { an_stmt = Assign (Lvar t2, Binop (Mul, Var t0', Var t1')); _ }
    :: { an_stmt = Assign (Lvar r, Binop (Add, Var r', Var t2'));
         an_after = la; _ }
    :: rest
    when String.equal t0 t0' && String.equal t1 t1' && String.equal t2 t2'
         && String.equal r r'
         && distinct [ t0; t1; t2; r ] ->
      Some
        ( { mc_a = a; mc_idx1 = i1; mc_b = b; mc_idx2 = i2; mc_res = r;
            mc_t0 = t0; mc_t1 = t1; mc_t2 = t2 },
          la,
          rest )
  | _ -> None

let match_mm_store (suffix : suffix) : mm_store unit_match option =
  match suffix with
  | { an_stmt = Assign (Lvar t0, Index (c, idx)); _ }
    :: { an_stmt = Assign (Lvar r, Binop (Add, Var r', Var t0')); _ }
    :: { an_stmt = Assign (Lindex (c', idx'), Var r''); an_after = la; _ }
    :: rest
    when String.equal t0 t0' && String.equal r r' && String.equal r r''
         && String.equal c c' && idx = idx'
         && not (String.equal t0 r) ->
      Some ({ ms_c = c; ms_idx = idx; ms_res = r; ms_t0 = t0 }, la, rest)
  | _ -> None

let match_mv_comp (suffix : suffix) : mv_comp unit_match option =
  match suffix with
  | { an_stmt = Assign (Lvar t0, Index (a, i1)); _ }
    :: { an_stmt = Assign (Lvar t1, Index (b, i2)); _ }
    :: { an_stmt = Assign (Lvar t0', Binop (Mul, Var t0'', Var s)); _ }
    :: { an_stmt = Assign (Lvar t1', Binop (Add, Var t1'', Var t0''')); _ }
    :: { an_stmt = Assign (Lindex (b', i2'), Var t1'''); an_after = la; _ }
    :: rest
    when String.equal t0 t0' && String.equal t0 t0'' && String.equal t0 t0'''
         && String.equal t1 t1' && String.equal t1 t1''
         && String.equal t1 t1''' && String.equal b b' && i2 = i2'
         && distinct [ t0; t1; s ]
         (* A and B must be distinct streams: folding n iterations of a
            self-referential update (B[i+1] += B[i]*s) would reorder a
            loop-carried dependence *)
         && not (String.equal a b) ->
      Some
        ( { mv_a = a; mv_idx1 = i1; mv_b = b; mv_idx2 = i2; mv_scal = s;
            mv_t0 = t0; mv_t1 = t1 },
          la,
          rest )
  | _ -> None

let match_sv_scal (suffix : suffix) : sv_scal unit_match option =
  match suffix with
  | { an_stmt = Assign (Lvar t0, Index (b, idx)); _ }
    :: { an_stmt = Assign (Lvar t0', Binop (Mul, Var t0'', Var s)); _ }
    :: { an_stmt = Assign (Lindex (b', idx'), Var t0'''); an_after = la; _ }
    :: rest
    when String.equal t0 t0' && String.equal t0 t0''
         && String.equal t0 t0''' && String.equal b b' && idx = idx'
         && not (String.equal t0 s) ->
      Some ({ ss_b = b; ss_idx = idx; ss_scal = s; ss_t0 = t0 }, la, rest)
  | _ -> None

let match_sv_copy (suffix : suffix) : sv_copy unit_match option =
  match suffix with
  | { an_stmt = Assign (Lvar t0, Index (a, i1)); _ }
    :: { an_stmt = Assign (Lindex (b, i2), Var t0'); an_after = la; _ }
    :: rest
    when String.equal t0 t0'
         (* distinct streams: folding a self-copy would reorder a
            loop-carried dependence *)
         && not (String.equal a b) ->
      Some ({ sc_a = a; sc_idx1 = i1; sc_b = b; sc_idx2 = i2; sc_t0 = t0 },
            la, rest)
  | _ -> None

(* --- group compatibility rules -------------------------------------- *)

let mm_comp_compatible (group : mm_comp list) (next : mm_comp) =
  match group with
  | [] -> true
  | first :: _ ->
      String.equal first.mc_a next.mc_a
      && distinct (next.mc_res :: List.map (fun m -> m.mc_res) group)

let mm_store_compatible (group : mm_store list) (next : mm_store) =
  match List.rev group with
  | [] -> true
  | last :: _ -> (
      String.equal last.ms_c next.ms_c
      &&
      match (disp_of last.ms_idx, disp_of next.ms_idx) with
      | Some d1, Some d2 -> d2 = d1 + 1
      | _ -> false)

let mv_comp_compatible (group : mv_comp list) (next : mv_comp) =
  match List.rev group with
  | [] -> true
  | last :: _ -> (
      String.equal last.mv_a next.mv_a
      && String.equal last.mv_b next.mv_b
      && String.equal last.mv_scal next.mv_scal
      &&
      match
        ( disp_of last.mv_idx1, disp_of next.mv_idx1, disp_of last.mv_idx2,
          disp_of next.mv_idx2 )
      with
      | Some a1, Some a2, Some b1, Some b2 -> a2 = a1 + 1 && b2 = b1 + 1
      | _ -> false)

let sv_scal_compatible (group : sv_scal list) (next : sv_scal) =
  match List.rev group with
  | [] -> true
  | last :: _ -> (
      String.equal last.ss_b next.ss_b
      && String.equal last.ss_scal next.ss_scal
      &&
      match (disp_of last.ss_idx, disp_of next.ss_idx) with
      | Some d1, Some d2 -> d2 = d1 + 1
      | _ -> false)

let sv_copy_compatible (group : sv_copy list) (next : sv_copy) =
  match List.rev group with
  | [] -> true
  | last :: _ -> (
      String.equal last.sc_a next.sc_a
      && String.equal last.sc_b next.sc_b
      &&
      match
        ( disp_of last.sc_idx1, disp_of next.sc_idx1, disp_of last.sc_idx2,
          disp_of next.sc_idx2 )
      with
      | Some a1, Some a2, Some b1, Some b2 -> a2 = a1 + 1 && b2 = b1 + 1
      | _ -> false)

(* Collect a maximal group of one kind starting at [suffix]. *)
let collect_group (type a) (match_unit : suffix -> a unit_match option)
    (compatible : a list -> a -> bool) (suffix : suffix) :
    (a list * SS.t * suffix) option =
  match match_unit suffix with
  | None -> None
  | Some (first, la, rest) ->
      let rec grow group la rest =
        match match_unit rest with
        | Some (next, la', rest') when compatible (List.rev group) next ->
            grow (next :: group) la' rest'
        | Some _ | None -> (List.rev group, la, rest)
      in
      let group, la, rest = grow [ first ] la rest in
      if compatible [] first then Some (group, la, rest) else None

(* Temporaries of a region must be dead after it, otherwise the
   specialized optimizers could not eliminate them. *)
let region_temps = function
  | Mm_unrolled_comp l ->
      List.concat_map (fun m -> [ m.mc_t0; m.mc_t1; m.mc_t2 ]) l
  | Mm_unrolled_store l -> List.map (fun m -> m.ms_t0) l
  | Mv_unrolled_comp l ->
      List.concat_map (fun m -> [ m.mv_t0; m.mv_t1 ]) l
  | Sv_unrolled_scal l -> List.map (fun m -> m.ss_t0) l
  | Sv_unrolled_copy l -> List.map (fun m -> m.sc_t0) l

let temps_dead region live_after =
  List.for_all (fun t -> not (SS.mem t live_after)) (region_temps region)

let try_region (suffix : suffix) : (region * SS.t * suffix) option =
  let candidates =
    [
      (fun s ->
        Option.map
          (fun (g, la, rest) -> (Mv_unrolled_comp g, la, rest))
          (collect_group match_mv_comp mv_comp_compatible s));
      (fun s ->
        Option.map
          (fun (g, la, rest) -> (Mm_unrolled_comp g, la, rest))
          (collect_group match_mm_comp mm_comp_compatible s));
      (fun s ->
        Option.map
          (fun (g, la, rest) -> (Mm_unrolled_store g, la, rest))
          (collect_group match_mm_store mm_store_compatible s));
      (fun s ->
        Option.map
          (fun (g, la, rest) -> (Sv_unrolled_scal g, la, rest))
          (collect_group match_sv_scal sv_scal_compatible s));
      (fun s ->
        Option.map
          (fun (g, la, rest) -> (Sv_unrolled_copy g, la, rest))
          (collect_group match_sv_copy sv_copy_compatible s));
    ]
  in
  List.find_map
    (fun f ->
      match f suffix with
      | Some (region, la, rest) when temps_dead region la ->
          Some (region, la, rest)
      | Some _ | None -> None)
    candidates

(* --- the traversal ---------------------------------------------------- *)

(* One block, its liveness already computed: the whole kernel is
   annotated once, by {!Liveness.annotate_tree}, before matching. *)
let rec match_block (block : suffix) : astmt list =
  let rec go (suffix : suffix) acc =
    match suffix with
    | [] -> List.rev acc
    | { an_stmt = s; an_after = live_after; an_nested } :: rest -> (
        match try_region suffix with
        | Some (region, la, rest') -> go rest' (A_region (region, la) :: acc)
        | None -> (
            match (s, an_nested) with
            | For (h, _), [ body ] ->
                (* the body is annotated at a conservative live-out:
                   everything live before the loop (covers the back
                   edge) plus after it *)
                go rest (A_for (h, match_block body) :: acc)
            | If (a, c, b, _, _), [ t; f ] ->
                go rest (A_if (a, c, b, match_block t, match_block f) :: acc)
            | Tagged _, [ body ] ->
                (* re-identify pre-tagged regions from scratch *)
                go (body @ rest) acc
            | _ -> go rest (A_plain (s, live_after) :: acc)))
  in
  go block []

let identify (k : kernel) : akernel =
  {
    ak_name = k.k_name;
    ak_params = k.k_params;
    ak_body = match_block (Liveness.annotate_tree k.k_body ~live_out:SS.empty);
  }

(* --- views ------------------------------------------------------------ *)

(* Rebuild a plain kernel with [Tagged] markers, for phase dumps. *)
let rec astmt_to_stmt = function
  | A_plain (s, _) -> s
  | A_region (r, live_out) ->
      Tagged
        ( {
            tag_template = region_name r;
            tag_params = region_params r;
            tag_live_out = SS.elements live_out;
          },
          region_stmts r )
  | A_for (h, body) -> For (h, List.map astmt_to_stmt body)
  | A_if (a, c, b, t, f) ->
      If (a, c, b, List.map astmt_to_stmt t, List.map astmt_to_stmt f)

let to_tagged_kernel (ak : akernel) : kernel =
  {
    k_name = ak.ak_name;
    k_params = ak.ak_params;
    k_body = List.map astmt_to_stmt ak.ak_body;
  }

(* All regions in an annotated kernel, in traversal order. *)
let regions (ak : akernel) : region list =
  let rec go acc = function
    | [] -> acc
    | A_region (r, _) :: rest -> go (r :: acc) rest
    | A_for (_, body) :: rest -> go (go acc body) rest
    | A_if (_, _, _, t, f) :: rest -> go (go (go acc t) f) rest
    | A_plain _ :: rest -> go acc rest
  in
  List.rev (go [] ak.ak_body)
