(* Compare two sets of benchmark result files, a parent commit's and a
   change's, metric by metric and workload by workload.

     compare.exe PARENT_DIR CHANGE_DIR

   Each directory holds the files [augem_bench.exe --out] wrote (traced
   runs and skipped workloads are ignored).  Runs pair by seed when both
   sides ran the same seeds, otherwise in seed order.  For every
   end-to-end metric of the workload's family, with the bound the
   catalog (and, for the GEMM family, BENCHMARK.json) sets, each side's
   median and quartiles are printed with a verdict:

   - unresolved: the parent's own spread (quartile distance over median)
     is wider than the metric's bound, and not every change run beats
     every parent run;
   - worse: the change's median is worse than the parent's by more than
     the bound;
   - better: at least ten pairs, the change wins at least nine tenths of
     them (ties count for neither side), and the medians differ by more
     than the parent's quartile distance — or every change run beats
     every parent run while the spread is unresolved;
   - within-bound: anything else.

   A change that fails more operations than its parent is reported on a
   row of its own.  Exit status 1 if any verdict is "worse". *)

module Json = Augem.Json

type run = {
  workload : string;
  seed : int;
  values : (string * float) list;
  failed : int;
}

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let member_exn f j =
  match Json.member f j with Some v -> v | None -> die "missing field %S" f

let num = function Json.Float f -> f | Json.Int i -> float_of_int i | _ -> nan

let runs_in dir : run list =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         let path = Filename.concat dir f in
         match Json.of_file path with
         | Error e -> die "%s: %s" path e
         | Ok j -> (
             let result = member_exn "result" j in
             match (Json.member "trace" j, Json.member "metrics" result) with
             | Some (Json.Bool false), Some (Json.Obj ms) ->
                 Some
                   {
                     workload =
                       (match member_exn "workload" j with Json.String s -> s | _ -> "?");
                     seed = int_of_float (num (member_exn "seed" j));
                     values = List.map (fun (n, m) -> (n, num (member_exn "value" m))) ms;
                     failed = int_of_float (num (member_exn "failed" result));
                   }
             | _ -> None))

(* Pairs of (parent, change) runs of one workload. *)
let pair (ps : run list) (cs : run list) : (run * run) list =
  let by_seed = List.sort (fun a b -> compare a.seed b.seed) in
  let ps = by_seed ps and cs = by_seed cs in
  let seeds rs = List.map (fun r -> r.seed) rs in
  if seeds ps = seeds cs then List.combine ps cs
  else
    let rec take a b =
      match (a, b) with x :: a', y :: b' -> (x, y) :: take a' b' | _ -> []
    in
    take ps cs

let fmt_q xs =
  match Stats.quartiles xs with
  | Some (q1, q2, q3) -> (q2, q3 -. q1, Printf.sprintf "%.4g [%.4g %.4g]" q2 q1 q3)
  | None ->
      let m = Stats.median xs in
      (m, 0., Printf.sprintf "%.4g" m)

let verdict (m : Catalog.metric) (pairs : (float * float) list) =
  let ps = List.map fst pairs and cs = List.map snd pairs in
  let pmed, piqr, ptxt = fmt_q ps and cmed, _, ctxt = fmt_q cs in
  (* positive = the change is better *)
  let gain a b = if m.Catalog.higher then b -. a else a -. b in
  let wins = List.length (List.filter (fun (p, c) -> gain p c > 0.) pairs) in
  let n = List.length pairs in
  let rel = gain pmed cmed /. Float.abs pmed in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> gain p c > 0.) ps) cs
  in
  let v =
    if piqr /. Float.abs pmed > m.Catalog.bound then
      if all_better then "better" else "unresolved"
    else if rel < -.m.Catalog.bound then "worse"
    else if n >= 10 && 10 * wins >= 9 * n && Float.abs (cmed -. pmed) > piqr && rel > 0.
    then "better"
    else "within-bound"
  in
  (ptxt, ctxt, 100. *. rel, Printf.sprintf "%d/%d" wins n, v)

let () =
  let parent_dir, change_dir =
    match Sys.argv with
    | [| _; p; c |] -> (p, c)
    | _ -> die "usage: compare.exe PARENT_DIR CHANGE_DIR"
  in
  let parent = runs_in parent_dir and change = runs_in change_dir in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change))
  in
  let any_worse = ref false in
  Printf.printf "%-16s %-15s %-30s %-30s %8s %6s  %s\n" "workload" "metric"
    "parent median [q1 q3]" "change median [q1 q3]" "gain" "wins" "verdict";
  List.iter
    (fun w ->
      let of_w rs = List.filter (fun r -> r.workload = w) rs in
      let pairs = pair (of_w parent) (of_w change) in
      if pairs = [] then Printf.printf "%-16s (no pairs)\n" w
      else begin
        List.iter
          (fun m ->
            let value r = Option.value ~default:nan (List.assoc_opt m.Catalog.name r.values) in
            let ptxt, ctxt, gain, wins, v =
              verdict m (List.map (fun (p, c) -> (value p, value c)) pairs)
            in
            if v = "worse" then any_worse := true;
            Printf.printf "%-16s %-15s %-30s %-30s %+7.2f%% %6s  %s\n" w m.Catalog.name ptxt
              ctxt gain wins v)
          (Catalog.family_of_workload w).Catalog.end_to_end;
        let failed side = List.fold_left (fun acc (p, c) -> acc + (side (p, c)).failed) 0 pairs in
        let pf = failed fst and cf = failed snd in
        if cf > pf then begin
          any_worse := true;
          Printf.printf "%-16s %-15s %-30d %-30d %8s %6s  worse\n" w "failed_ops" pf cf "" ""
        end
      end)
    workloads;
  exit (if !any_worse then 1 else 0)
