(* Checks the result files of the smoke runs, and BENCHMARK.json,
   against the metric catalog.

     smoke_check.exe BENCHMARK.json RECORD...

   - BENCHMARK.json declares exactly the GEMM family's metrics, with the
     catalog's units, directions and bounds, and only GEMM workloads;
   - every declared workload has an untraced record;
   - every record is correct with no failed op, or an explicit skip with
     a reason;
   - an untraced record carries exactly its family's end-to-end metrics,
     a traced one exactly its per-layer metrics, each with the catalog's
     unit and a finite value;
   - in a traced record the layers' self times plus the remainder add up
     to within 5% of the traced total. *)

module Json = Augem.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      prerr_endline ("FAIL " ^ m))
    fmt

let str = function Some (Json.String s) -> s | _ -> ""
let num = function Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> nan
let list_of f j = match Json.member f j with Some (Json.List l) -> l | _ -> []

(* A metric as BENCHMARK.json spells it. *)
let declared (m : Catalog.metric) ~bounded =
  ( m.Catalog.name,
    m.Catalog.unit_,
    (if m.Catalog.higher then "higher" else "lower"),
    if bounded then m.Catalog.bound else nan )

let () =
  let bench_path, records =
    match Array.to_list Sys.argv with
    | _ :: b :: (_ :: _ as rs) -> (b, rs)
    | _ ->
        prerr_endline "usage: smoke_check.exe BENCHMARK.json RECORD...";
        exit 2
  in
  let bench =
    match Json.of_file bench_path with
    | Ok j -> j
    | Error e ->
        prerr_endline (bench_path ^ ": " ^ e);
        exit 2
  in
  let section key ~bounded =
    List.map
      (fun m ->
        ( str (Json.member "name" m),
          str (Json.member "unit" m),
          str (Json.member "better" m),
          if bounded then num (Json.member "bound" m) else nan ))
      (list_of key bench)
  in
  let same a b = List.length a = List.length b && List.for_all2 (fun (n, u, d, x) (n', u', d', x') ->
      n = n' && u = u' && d = d' && (x = x' || (Float.is_nan x && Float.is_nan x'))) a b
  in
  let f = Catalog.gemm in
  if not (same (section "end_to_end" ~bounded:true) (List.map (declared ~bounded:true) f.Catalog.end_to_end))
  then fail "BENCHMARK.json end_to_end differs from the catalog's GEMM family";
  if not (same (section "per_layer" ~bounded:false) (List.map (declared ~bounded:false) f.Catalog.per_layer))
  then fail "BENCHMARK.json per_layer differs from the catalog's GEMM family";
  let workloads = List.map (fun w -> str (Json.member "name" w)) (list_of "workloads" bench) in
  List.iter
    (fun w ->
      if Catalog.family_of_workload w != Catalog.gemm then fail "declared workload %s is not GEMM" w)
    workloads;
  let untraced_seen = ref [] in
  List.iter
    (fun path ->
      match Json.of_file path with
      | Error e -> fail "%s: %s" path e
      | Ok r -> (
          let w = str (Json.member "workload" r) in
          let traced = Json.member "trace" r = Some (Json.Bool true) in
          let result = Option.value ~default:Json.Null (Json.member "result" r) in
          match Json.member "skipped" result with
          | Some (Json.Bool true) ->
              if str (Json.member "reason" result) = "" then fail "%s: skip without a reason" path
              else if not traced then untraced_seen := w :: !untraced_seen
          | _ ->
              if not traced then untraced_seen := w :: !untraced_seen;
              if Json.member "correct" result <> Some (Json.Bool true) then
                fail "%s: not correct" path;
              if num (Json.member "failed" result) <> 0. then fail "%s: failed ops" path;
              if not (num (Json.member "attempted" result) >= 1.) then fail "%s: nothing attempted" path;
              let family = Catalog.family_of_workload w in
              let want = if traced then family.Catalog.per_layer else family.Catalog.end_to_end in
              let got = match Json.member "metrics" result with Some (Json.Obj ms) -> ms | _ -> [] in
              if List.map fst got <> List.map (fun m -> m.Catalog.name) want then
                fail "%s: metrics differ from the catalog" path;
              List.iter
                (fun (name, m) ->
                  let v = num (Json.member "value" m) in
                  if not (Float.is_finite v) then fail "%s: %s = %g" path name v;
                  match List.find_opt (fun c -> c.Catalog.name = name) want with
                  | Some c when c.Catalog.unit_ <> str (Json.member "unit" m) ->
                      fail "%s: %s has unit %S, not %S" path name (str (Json.member "unit" m)) c.Catalog.unit_
                  | _ -> ())
                got;
              if traced then begin
                let u =
                  num
                    (Option.bind (Json.member "detail" r) (fun d ->
                         Option.bind (Json.member "trace" d) (Json.member "unaccounted_pct")))
                in
                if not (u <= 5.) then fail "%s: layers + remainder off the traced total by %g%%" path u
              end))
    records;
  List.iter
    (fun w -> if not (List.mem w !untraced_seen) then fail "workload %s has no untraced record" w)
    workloads;
  if !failures > 0 then exit 1;
  Printf.printf "benchmark smoke: %d records, %d declared workloads ok\n" (List.length records)
    (List.length workloads)
