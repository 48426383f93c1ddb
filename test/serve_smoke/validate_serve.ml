(* Validates the @serve-smoke artifacts: the response transcript of a
   scripted stdio serving session (serve_responses.txt) and the smoke
   serving-benchmark artifact (BENCH_serve.json).

   The checks: a first tune request is answered from a real sweep
   (tier "tuned") with non-degraded assembly and the identical second
   request is an in-memory hit; the same holds for a blocked-GEMM plan
   and its repeat; the stats snapshot agrees exactly with the scripted
   sequence; and the benchmark's warm-path mean latency is at least
   10x below cold. *)

module Json = Augem.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let parse_line what line =
  match Json.parse line with
  | Ok j -> j
  | Error e -> fail "%s: unparsable JSON (%s): %s" what e line

let member path j =
  match Json.member path j with
  | Some v -> v
  | None -> fail "missing field %S in %s" path (Json.to_string j)

let expect_int what v j =
  match j with
  | Json.Int n when n = v -> ()
  | _ -> fail "%s: expected %d, got %s" what v (Json.to_string j)

let expect_str what v j =
  match j with
  | Json.String s when s = v -> ()
  | _ -> fail "%s: expected %S, got %s" what v (Json.to_string j)

let expect_bool what v j =
  match j with
  | Json.Bool b when b = v -> ()
  | _ -> fail "%s: expected %b, got %s" what v (Json.to_string j)

let check_responses path =
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  (match lines with
  | [ _; _; _; _; _; _ ] -> ()
  | _ -> fail "expected 6 response lines in %s, got %d" path (List.length lines));
  let r = Array.of_list (List.map (parse_line "response") lines) in
  (* 1: cold tune — a sweep ran, nothing degraded, assembly present *)
  expect_int "r1.id" 1 (member "id" r.(0));
  expect_bool "r1.ok" true (member "ok" r.(0));
  expect_bool "r1.degraded" false (member "degraded" r.(0));
  let prov1 = member "provenance" r.(0) in
  expect_str "r1.tier" "tuned" (member "tier" prov1);
  expect_bool "r1.fell_back" false (member "fell_back" prov1);
  (match member "assembly" r.(0) with
  | Json.String s when String.length s > 0 ->
      (* a real kernel, not a placeholder: it must carry a text section *)
      if not (String.length s > 16) then fail "r1.assembly implausibly short"
  | _ -> fail "r1.assembly missing or empty");
  (* 2: identical request — the bounded in-memory tier answers *)
  expect_int "r2.id" 2 (member "id" r.(1));
  expect_str "r2.tier" "memory" (member "tier" (member "provenance" r.(1)));
  (* 3: ping *)
  expect_bool "r3.pong" true (member "pong" r.(2));
  (* 4, 5: a blocked plan from a real sweep, then from memory *)
  List.iter
    (fun (i, tier) ->
      let what = Printf.sprintf "r%d" (i + 1) in
      expect_int (what ^ ".id") (i + 1) (member "id" r.(i));
      expect_bool (what ^ ".ok") true (member "ok" r.(i));
      expect_bool (what ^ ".degraded") false (member "degraded" r.(i));
      expect_str (what ^ ".tier") tier (member "tier" r.(i)))
    [ (3, "tuned"); (4, "memory") ];
  (* 6: stats consistent with exactly this scripted sequence *)
  let stats = member "stats" r.(5) in
  let requests = member "requests" stats in
  expect_int "stats.requests.tune" 2 (member "tune" requests);
  expect_int "stats.requests.blocked" 2 (member "blocked" requests);
  expect_int "stats.requests.ping" 1 (member "ping" requests);
  expect_int "stats.requests.stats" 1 (member "stats" requests);
  let tiers = member "tiers" stats in
  expect_int "stats.tiers.tuned" 2 (member "tuned" tiers);
  expect_int "stats.tiers.memory" 2 (member "memory" tiers);
  expect_int "stats.tiers.coalesced" 0 (member "coalesced" tiers);
  expect_int "stats.rejects.overload" 0 (member "overload" (member "rejects" stats));
  expect_int "stats.errors" 0 (member "errors" stats);
  (* an undisturbed session: the resilience gauges exist and are all
     quiet — no worker died, no circuit opened, nothing quarantined *)
  let res = member "resilience" stats in
  expect_int "stats.resilience.worker_deaths" 0 (member "worker_deaths" res);
  expect_int "stats.resilience.worker_restarts" 0 (member "worker_restarts" res);
  expect_int "stats.resilience.breaker_open" 0 (member "breaker_open" res);
  expect_int "stats.resilience.breaker_open_total" 0
    (member "breaker_open_total" res);
  expect_int "stats.resilience.cache_quarantined" 0
    (member "cache_quarantined" res);
  (match member "degraded" stats with
  | degraded ->
      expect_int "stats.degraded.lost" 0 (member "lost" degraded);
      expect_int "stats.degraded.breaker_open" 0 (member "breaker_open" degraded));
  (match member "uptime_ms" stats with
  | Json.Float f when f >= 0. -> ()
  | Json.Int n when n >= 0 -> ()
  | x -> fail "stats.uptime_ms: expected a non-negative number, got %s"
           (Json.to_string x));
  (* native-capability object: a "supported" verdict plus one boolean
     per cpuid-probed SIMD feature (the set depends on the host, so
     only the structure is checked) *)
  let native = member "native" stats in
  (match member "supported" native with
  | Json.Bool _ -> ()
  | x -> fail "stats.native.supported: expected a bool, got %s"
           (Json.to_string x));
  (match native with
  | Json.Obj fields ->
      if List.length fields < 2 then
        fail "stats.native: expected per-feature booleans beside 'supported'";
      List.iter
        (fun (k, v) ->
          match v with
          | Json.Bool _ -> ()
          | x -> fail "stats.native.%s: expected a bool, got %s" k
                   (Json.to_string x))
        fields
  | x -> fail "stats.native: expected an object, got %s" (Json.to_string x));
  (* the tune and blocked requests are in the latency histogram (only
     they pay a measurable admission-to-response path) *)
  expect_int "stats.request_ms.count" 4 (member "count" (member "request_ms" stats))

let check_bench path =
  let j =
    match Json.of_file path with
    | Ok j -> j
    | Error e -> fail "%s: %s" path e
  in
  expect_str "mode" "smoke" (member "mode" j);
  let cold = member "cold" j and warm = member "warm" j in
  let count which v =
    match member "count" v with
    | Json.Int n when n > 0 -> n
    | x -> fail "%s.count: %s" which (Json.to_string x)
  in
  let cold_n = count "cold" cold and warm_n = count "warm" warm in
  let speedup =
    match member "speedup" j with
    | Json.Float f -> f
    | Json.Int n -> float_of_int n
    | x -> fail "speedup: %s" (Json.to_string x)
  in
  if speedup < 10. then
    fail "warm path only %.1fx faster than cold (acceptance floor: 10x)" speedup;
  (* the embedded stats snapshot agrees with the request counts *)
  let stats = member "stats" j in
  let tiers = member "tiers" stats in
  expect_int "bench stats.tiers.memory" warm_n (member "memory" tiers);
  expect_int "bench stats.tiers.tuned" cold_n (member "tuned" tiers);
  expect_int "bench stats.requests.tune" (cold_n + warm_n)
    (member "tune" (member "requests" stats))

let () =
  match Sys.argv with
  | [| _; responses; bench |] ->
      check_responses responses;
      check_bench bench;
      print_endline "serve-smoke artifacts OK"
  | _ ->
      prerr_endline "usage: validate_serve RESPONSES.txt BENCH_serve.json";
      exit 2
