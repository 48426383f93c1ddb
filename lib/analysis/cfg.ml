(* Control-flow graph over a generated machine program.  See cfg.mli. *)

module Insn = Augem_machine.Insn

type block = {
  b_id : int;
  b_first : int;
  b_last : int;
  b_succs : int list;
  b_preds : int list;
}

type issue =
  | Undefined_target of { index : int; label : string }
  | Duplicate_label of { index : int; label : string }
  | Falls_off_end of { index : int }

type t = {
  insns : Insn.t array;
  blocks : block array;
  block_of : int array;
  labels : (string, int) Hashtbl.t;
  issues : issue list;
  reachable : bool array;
}

let build (p : Insn.program) : t =
  let insns = Array.of_list p.Insn.prog_insns in
  let n = Array.length insns in
  let issues = ref [] in
  (* label table; the first binding of a duplicated label wins, the
     duplicate is reported *)
  let labels = Hashtbl.create 32 in
  Array.iteri
    (fun i insn ->
      match insn with
      | Insn.Label l ->
          if Hashtbl.mem labels l then
            issues := Duplicate_label { index = i; label = l } :: !issues
          else Hashtbl.replace labels l i
      | _ -> ())
    insns;
  if n = 0 then
    {
      insns;
      blocks = [||];
      block_of = [||];
      labels;
      issues = List.rev !issues;
      reachable = [||];
    }
  else begin
    (* leaders *)
    let leader = Array.make n false in
    leader.(0) <- true;
    Array.iteri
      (fun i insn ->
        match insn with
        | Insn.Label _ -> leader.(i) <- true
        | Insn.Jmp l | Insn.Jcc (_, l) ->
            if i + 1 < n then leader.(i + 1) <- true;
            (match Hashtbl.find_opt labels l with
            | Some t -> leader.(t) <- true
            | None ->
                issues := Undefined_target { index = i; label = l } :: !issues)
        | Insn.Ret -> if i + 1 < n then leader.(i + 1) <- true
        | _ -> ())
      insns;
    (* block spans *)
    let spans = ref [] in
    let start = ref 0 in
    for i = 1 to n - 1 do
      if leader.(i) then begin
        spans := (!start, i - 1) :: !spans;
        start := i
      end
    done;
    spans := (!start, n - 1) :: !spans;
    let spans = Array.of_list (List.rev !spans) in
    let nb = Array.length spans in
    let block_of = Array.make n 0 in
    Array.iteri
      (fun b (first, last) ->
        for i = first to last do
          block_of.(i) <- b
        done)
      spans;
    (* successors *)
    let succs = Array.make nb [] in
    let preds = Array.make nb [] in
    let add_edge src dst =
      if not (List.mem dst succs.(src)) then begin
        succs.(src) <- dst :: succs.(src);
        preds.(dst) <- src :: preds.(dst)
      end
    in
    Array.iteri
      (fun b (_, last) ->
        let fallthrough () =
          if last + 1 < n then add_edge b block_of.(last + 1)
          else issues := Falls_off_end { index = last } :: !issues
        in
        match insns.(last) with
        | Insn.Ret -> ()
        | Insn.Jmp l -> (
            match Hashtbl.find_opt labels l with
            | Some t -> add_edge b block_of.(t)
            | None -> () (* already reported as Undefined_target *))
        | Insn.Jcc (_, l) ->
            (match Hashtbl.find_opt labels l with
            | Some t -> add_edge b block_of.(t)
            | None -> ());
            fallthrough ()
        | _ -> fallthrough ())
      spans;
    let blocks =
      Array.mapi
        (fun b (first, last) ->
          {
            b_id = b;
            b_first = first;
            b_last = last;
            b_succs = List.rev succs.(b);
            b_preds = List.rev preds.(b);
          })
        spans
    in
    (* reachability from the entry block *)
    let reachable = Array.make nb false in
    let rec dfs b =
      if not reachable.(b) then begin
        reachable.(b) <- true;
        List.iter dfs blocks.(b).b_succs
      end
    in
    dfs 0;
    { insns; blocks; block_of; labels; issues = List.rev !issues; reachable }
  end
