(* The kernel service runtime: wire protocol round-trips, the two-tier
   registry (bounded LRU + disk), single-flight coalescing, overload
   rejection, deadline degradation, the socket transport and the
   [stats] layout.

   Every concurrency assertion is deterministic — gates (a mutex +
   condition the test opens explicitly) and an injectable clock stand
   in for timing; there are no sleeps.  The one exception is the socket
   transport, whose threads the test does not own: it polls, with a
   bound. *)

module A = Augem
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module Tuner = A.Tuner
module Json = A.Json
module S = Augem_service
module Proto = S.Proto
module Registry = S.Registry
module Scheduler = S.Scheduler
module Metrics = S.Metrics
module Server = S.Server

let arch = Arch.sandy_bridge

let tiny_space k =
  match Tuner.space_for k with c :: _ -> [ c ] | [] -> Alcotest.fail "empty space"

(* the kernel registry's content address and fell-back rule, as the
   server builds them *)
let key k =
  Tuner.cache_key ~arch:arch.Arch.name ~name:(Kernels.name_to_string k)
    ~fingerprint:(Tuner.space_fingerprint (tiny_space k))

let fell_back (r : Tuner.result) = r.Tuner.fell_back

(* a real (cheap) sweep result to hand out from stub computes *)
let canned = lazy (Tuner.tune ~space:(tiny_space Kernels.Axpy) arch Kernels.Axpy)

let computed ?(expired = false) () =
  { Registry.c_result = Lazy.force canned; c_deadline_expired = expired }

(* --- gates: explicit open/close instead of sleeps ------------------------- *)

type gate = { gm : Mutex.t; gc : Condition.t; mutable opened : bool }

let gate () = { gm = Mutex.create (); gc = Condition.create (); opened = false }

let open_gate g =
  Mutex.protect g.gm (fun () ->
      g.opened <- true;
      Condition.broadcast g.gc)

let wait_gate g =
  Mutex.lock g.gm;
  while not g.opened do
    Condition.wait g.gc g.gm
  done;
  Mutex.unlock g.gm

(* --- proto ---------------------------------------------------------------- *)

let test_proto_round_trip () =
  let space = tiny_space Kernels.Gemv in
  let rq =
    {
      Proto.rq_id = Json.Int 7;
      rq_op =
        Proto.Op_tune
          {
            Proto.tq_kernel = Kernels.Gemv;
            tq_arch = Arch.piledriver;
            tq_et = A.Machine.Etype.F64;
            tq_space = Some space;
            tq_deadline_ms = Some 250.;
          };
    }
  in
  let line = Json.to_string (Proto.request_to_json rq) in
  match Proto.parse_request line with
  | Error (_, e) -> Alcotest.failf "round-trip failed: %s" e.Proto.e_detail
  | Ok rq' -> (
      Alcotest.(check bool) "id" true (rq'.Proto.rq_id = Json.Int 7);
      match rq'.Proto.rq_op with
      | Proto.Op_tune tq ->
          Alcotest.(check string) "kernel" "gemv"
            (Kernels.name_to_string tq.Proto.tq_kernel);
          Alcotest.(check string) "arch" "piledriver" tq.Proto.tq_arch.Arch.name;
          Alcotest.(check bool) "space" true (tq.Proto.tq_space = Some space);
          Alcotest.(check (option (float 0.))) "deadline" (Some 250.)
            tq.Proto.tq_deadline_ms
      | _ -> Alcotest.fail "wrong op")

let bad_code line =
  match Proto.parse_request line with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" line
  | Error (_, e) -> e.Proto.e_code

let test_proto_bad_requests () =
  let chk l = Alcotest.(check string) l Proto.e_bad_request (bad_code l) in
  chk "not json at all";
  chk {|{"id":1}|};
  chk {|{"id":1,"op":"frobnicate"}|};
  chk {|{"id":1,"op":"tune","kernel":"nope","arch":"sandybridge"}|};
  chk {|{"id":1,"op":"tune","kernel":"axpy","arch":"vax"}|};
  chk {|{"id":1,"op":"tune","kernel":"axpy","arch":"sandybridge","space":[]}|};
  chk {|{"id":1,"op":"tune","kernel":"axpy","arch":"sandybridge","space":[{"bogus":1}]}|};
  (* the best-effort id is recovered for the error response *)
  match
    Proto.parse_request {|{"id":41,"op":"frobnicate"}|}
  with
  | Error (id, _) -> Alcotest.(check bool) "id recovered" true (id = Json.Int 41)
  | Ok _ -> Alcotest.fail "unexpected parse"

let test_candidate_round_trip () =
  List.iter
    (fun c ->
      match Proto.candidate_of_json (Proto.candidate_to_json c) with
      | Ok c' -> Alcotest.(check bool) "candidate" true (c = c')
      | Error e -> Alcotest.failf "candidate round-trip failed: %s" e)
    (Tuner.space_for Kernels.Gemm)

(* --- registry: tiers and LRU ---------------------------------------------- *)

let test_registry_memory_tier () =
  let t = Registry.create ~fell_back ~lru_capacity:4 () in
  let computes = ref 0 in
  let compute () = incr computes; computed () in
  let o1 = Registry.find_or_compute t (key Kernels.Axpy) ~compute in
  let o2 = Registry.find_or_compute t (key Kernels.Axpy) ~compute in
  Alcotest.(check int) "one compute" 1 !computes;
  Alcotest.(check string) "first is tuned" "tuned"
    (Proto.tier_to_string o1.Registry.o_tier);
  Alcotest.(check string) "second is memory" "memory"
    (Proto.tier_to_string o2.Registry.o_tier);
  Alcotest.(check int) "lru holds it" 1 (Registry.lru_size t)

let test_registry_lru_eviction () =
  let t = Registry.create ~fell_back ~lru_capacity:1 () in
  let computes = ref 0 in
  let compute () = incr computes; computed () in
  let go k = Registry.find_or_compute t (key k) ~compute in
  ignore (go Kernels.Axpy);
  ignore (go Kernels.Dot) (* evicts axpy: capacity 1 *);
  Alcotest.(check int) "bounded" 1 (Registry.lru_size t);
  let o = go Kernels.Axpy in
  Alcotest.(check int) "evicted key recomputes" 3 !computes;
  Alcotest.(check string) "tier" "tuned" (Proto.tier_to_string o.Registry.o_tier)

let test_registry_disk_tier () =
  let dir = Filename.temp_dir "augem-serve-disk" "" in
  let computes = ref 0 in
  let compute () = incr computes; computed () in
  let events = ref [] in
  let on_event ev = events := ev :: !events in
  let t1 = Registry.create ~fell_back ~cache_dir:dir ~on_event () in
  ignore (Registry.find_or_compute t1 (key Kernels.Scal) ~compute);
  (* a fresh registry with an empty L1 but the same disk dir *)
  let t2 = Registry.create ~fell_back ~cache_dir:dir ~on_event () in
  let o = Registry.find_or_compute t2 (key Kernels.Scal) ~compute in
  Alcotest.(check int) "disk hit avoids the sweep" 1 !computes;
  Alcotest.(check string) "tier" "disk" (Proto.tier_to_string o.Registry.o_tier);
  Alcotest.(check bool) "store event seen" true
    (List.exists (function Tuner.Ev_store -> true | _ -> false) !events);
  Alcotest.(check bool) "disk-hit event seen" true
    (List.exists (function Tuner.Ev_disk_hit -> true | _ -> false) !events)

let test_registry_degraded_not_cached () =
  let t = Registry.create ~fell_back () in
  let computes = ref 0 in
  let compute () = incr computes; computed ~expired:true () in
  let o = Registry.find_or_compute t (key Kernels.Axpy) ~compute in
  Alcotest.(check bool) "degraded" true o.Registry.o_degraded;
  Alcotest.(check int) "not inserted" 0 (Registry.lru_size t);
  ignore (Registry.find_or_compute t (key Kernels.Axpy) ~compute);
  Alcotest.(check int) "recomputed" 2 !computes

(* --- single flight --------------------------------------------------------- *)

let test_single_flight () =
  let t = Registry.create ~fell_back () in
  let g = gate () in
  let computes = ref 0 in
  let cm = Mutex.create () in
  let compute () =
    Mutex.protect cm (fun () -> incr computes);
    wait_gate g;
    computed ()
  in
  let n = 5 in
  let tiers = Array.make n "" in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let o = Registry.find_or_compute t (key Kernels.Axpy) ~compute in
            tiers.(i) <- Proto.tier_to_string o.Registry.o_tier)
          ())
  in
  (* only open the gate once every follower has attached to the flight:
     coalescing is then a fact, not a race *)
  Registry.wait_coalesced t (n - 1);
  open_gate g;
  List.iter Thread.join threads;
  Alcotest.(check int) "exactly one sweep" 1 !computes;
  Alcotest.(check int) "everyone else coalesced" (n - 1)
    (Registry.coalesced_total t);
  let count tier =
    Array.fold_left (fun acc s -> if s = tier then acc + 1 else acc) 0 tiers
  in
  Alcotest.(check int) "one tuned" 1 (count "tuned");
  Alcotest.(check int) "n-1 coalesced" (n - 1) (count "coalesced")

let test_single_flight_failure_shared () =
  let t = Registry.create ~fell_back () in
  let g = gate () in
  let compute () = wait_gate g; raise (Proto.Overload "synthetic") in
  let n = 3 in
  let failures = ref 0 in
  let fm = Mutex.create () in
  let threads =
    List.init n (fun _ ->
        Thread.create
          (fun () ->
            match
              Registry.find_or_compute t (key Kernels.Dot) ~compute
            with
            | exception Proto.Overload _ ->
                Mutex.protect fm (fun () -> incr failures)
            | _ -> ())
          ())
  in
  Registry.wait_coalesced t (n - 1);
  open_gate g;
  List.iter Thread.join threads;
  Alcotest.(check int) "every waiter shares the failure" n !failures;
  (* the failed flight must not wedge the key *)
  let o =
    Registry.find_or_compute t (key Kernels.Dot) ~compute:(fun () -> computed ())
  in
  Alcotest.(check string) "key recovers" "tuned"
    (Proto.tier_to_string o.Registry.o_tier)

(* --- scheduler: overload and deadlines ------------------------------------ *)

let test_scheduler_overload () =
  let sched = Scheduler.create ~workers:1 ~capacity:1 () in
  let g = gate () in
  (* occupy the single worker... *)
  let busy = Scheduler.submit sched (fun () -> wait_gate g) in
  Alcotest.(check bool) "worker job admitted" true (busy <> None);
  (* ...wait until it has actually been picked up (the queue is empty
     again), then fill the queue slot *)
  while Scheduler.pending sched > 0 do Thread.yield () done;
  let queued = Scheduler.submit sched (fun () -> ()) in
  Alcotest.(check bool) "queue slot admitted" true (queued <> None);
  let rejected = Scheduler.submit sched (fun () -> ()) in
  Alcotest.(check bool) "at capacity: rejected" true (rejected = None);
  open_gate g;
  (match busy with Some f -> ignore (Scheduler.await f) | None -> ());
  (match queued with Some f -> ignore (Scheduler.await f) | None -> ());
  Scheduler.shutdown sched

let test_scheduler_deadline_expiry () =
  let clock = ref 0. in
  let sched = Scheduler.create ~workers:1 ~capacity:4 ~now:(fun () -> !clock) () in
  let g = gate () in
  let busy = Scheduler.submit sched (fun () -> wait_gate g) in
  while Scheduler.pending sched > 0 do Thread.yield () done;
  let ran = ref false in
  let doomed =
    Scheduler.submit sched ~deadline:1.0 (fun () -> ran := true)
  in
  clock := 2.0 (* the deadline passes while the job is still queued *);
  open_gate g;
  (match doomed with
  | Some f ->
      (match Scheduler.await f with
      | Scheduler.Expired -> ()
      | _ -> Alcotest.fail "expected Expired")
  | None -> Alcotest.fail "submit rejected");
  Alcotest.(check bool) "expired job never ran" false !ran;
  (match busy with Some f -> ignore (Scheduler.await f) | None -> ());
  Scheduler.shutdown sched

(* --- server: end to end through handle_line -------------------------------- *)

let space_json k =
  Json.to_string (Json.List (List.map Proto.candidate_to_json (tiny_space k)))

let tune_line ?deadline_ms ?(id = 1) k =
  Printf.sprintf
    {|{"id":%d,"op":"tune","kernel":"%s","arch":"sandybridge"%s,"space":%s}|}
    id
    (Kernels.name_to_string k)
    (match deadline_ms with
    | Some ms -> Printf.sprintf {|,"deadline_ms":%g|} ms
    | None -> "")
    (space_json k)

let reply_of line =
  match Json.parse line with
  | Error e -> Alcotest.failf "unparsable response %s: %s" line e
  | Ok j -> j

let jbool path j =
  match Json.member path j with Some (Json.Bool b) -> b | _ -> false

let jstr j path =
  match Json.member path j with Some (Json.String s) -> s | _ -> "<missing>"

let blocked_line ?deadline_ms ~id size =
  Printf.sprintf
    {|{"id":%d,"op":"blocked","arch":"sandybridge","m":%d,"n":%d,"k":%d%s}|}
    id size size size
    (match deadline_ms with
    | Some ms -> Printf.sprintf {|,"deadline_ms":%g|} ms
    | None -> "")

(* Park the only worker behind a gate and run [f] on another thread;
   [f]'s request queues behind the parked job. *)
let with_parked_worker server f =
  let sched = Server.scheduler server in
  let g = gate () in
  let busy = Scheduler.submit sched (fun () -> wait_gate g) in
  while Scheduler.pending sched > 0 do Thread.yield () done;
  let r = f g in
  (match busy with Some f -> ignore (Scheduler.await f) | None -> ());
  r

(* Send [line] while the only worker is parked and let its deadline
   pass before the worker frees up: the request is served degraded. *)
let expire_while_parked server clock line =
  with_parked_worker server (fun g ->
      let resp = ref Json.Null in
      let requester =
        Thread.create
          (fun () -> resp := reply_of (Server.handle_line server line))
          ()
      in
      (* the request is queued once the scheduler holds one pending job *)
      while Scheduler.pending (Server.scheduler server) < 1 do
        Thread.yield ()
      done;
      clock := !clock +. 1. (* 1000 ms later: a 50 ms deadline is long gone *);
      open_gate g;
      Thread.join requester;
      !resp)

let test_server_scripted_sequence () =
  let server = Server.create () in
  let r1 = reply_of (Server.handle_line server (tune_line Kernels.Axpy)) in
  Alcotest.(check bool) "ok" true (jbool "ok" r1);
  Alcotest.(check bool) "not degraded" false (jbool "degraded" r1);
  let prov1 = Option.get (Json.member "provenance" r1) in
  Alcotest.(check string) "cold tier" "tuned" (jstr prov1 "tier");
  let r2 = reply_of (Server.handle_line server (tune_line Kernels.Axpy)) in
  let prov2 = Option.get (Json.member "provenance" r2) in
  Alcotest.(check string) "warm tier" "memory" (jstr prov2 "tier");
  ignore (Server.handle_line server {|{"id":3,"op":"ping"}|});
  ignore (Server.handle_line server "this is not json");
  let m = Server.metrics server in
  Alcotest.(check int) "tune requests" 2 (Metrics.get m "requests.tune");
  Alcotest.(check int) "ping requests" 1 (Metrics.get m "requests.ping");
  Alcotest.(check int) "bad requests" 1 (Metrics.get m "requests.bad");
  Alcotest.(check int) "tuned tier" 1 (Metrics.get m "tiers.memory");
  Alcotest.(check int) "memory tier" 1 (Metrics.get m "tiers.tuned");
  (* the stats reply agrees with the counters *)
  let rs = reply_of (Server.handle_line server {|{"id":4,"op":"stats"}|}) in
  let stats = Option.get (Json.member "stats" rs) in
  let requests = Option.get (Json.member "requests" stats) in
  Alcotest.(check bool) "stats.requests.tune" true
    (Json.member "tune" requests = Some (Json.Int 2));
  Alcotest.(check bool) "stats counted itself" true
    (Json.member "stats" requests = Some (Json.Int 1));
  (* shutdown is acknowledged, then tune is refused *)
  let rsd = reply_of (Server.handle_line server {|{"id":5,"op":"shutdown"}|}) in
  Alcotest.(check bool) "shutdown ok" true (jbool "ok" rsd);
  let refused = reply_of (Server.handle_line server (tune_line Kernels.Dot)) in
  Alcotest.(check string) "tune while stopping" Proto.e_shutting_down
    (jstr (Option.get (Json.member "error" refused)) "code");
  Server.drain server

(* A jam, unroll or expand factor below 1 is a bad request, as it is a
   script error: no sweep discards the space whole and serves the
   baseline degraded.  A prefetch distance of 0 still means none. *)
let test_nonpositive_factors () =
  let server = Server.create () in
  List.iteri
    (fun i cand ->
      let line =
        Printf.sprintf
          {|{"id":%d,"op":"tune","kernel":"axpy","arch":"sandybridge","space":[%s]}|}
          (i + 1) cand
      in
      Alcotest.(check string) cand Proto.e_bad_request (bad_code line);
      let r = reply_of (Server.handle_line server line) in
      Alcotest.(check string) (cand ^ " reply") Proto.e_bad_request
        (jstr (Option.get (Json.member "error" r)) "code"))
    [
      {|{"unroll":["i",0]}|}; {|{"unroll":["i",-3]}|};
      {|{"jam":[["j",0],["i",8]]}|}; {|{"expand":0}|};
    ];
  let m = Server.metrics server in
  Alcotest.(check int) "bad requests" 4 (Metrics.get m "requests.bad");
  Alcotest.(check int) "no sweep" 0 (Metrics.get m "tiers.tuned");
  Alcotest.(check int) "no fallback" 0 (Metrics.get m "degraded.fell_back");
  Server.drain server;
  match
    Proto.candidate_of_json
      (Json.Obj [ ("prefetch", Json.Obj [ ("distance", Json.Int 0) ]) ])
  with
  | Ok c ->
      Alcotest.(check bool) "no prefetch" true
        (c.Tuner.cand_config.A.Transform.Pipeline.prefetch = None)
  | Error e -> Alcotest.failf "prefetch distance 0 refused: %s" e

(* A space that differs from an earlier one only in its expansion ways
   has its own address: in one session the plain unroll sent after the
   expanded one is swept, and answered with a fresh server's program. *)
let test_expand_addressed () =
  let line id cand =
    Printf.sprintf
      {|{"id":%d,"op":"tune","kernel":"dot","arch":"sandybridge","space":[%s]}|}
      id cand
  in
  let expanded = line 1 {|{"unroll":["i",8],"expand":8}|}
  and plain = line 2 {|{"unroll":["i",8]}|} in
  let server = Server.create () and fresh = Server.create () in
  let r1 = reply_of (Server.handle_line server expanded) in
  let r2 = reply_of (Server.handle_line server plain) in
  let want = reply_of (Server.handle_line fresh plain) in
  Alcotest.(check string) "swept" "tuned"
    (jstr (Option.get (Json.member "provenance" r2)) "tier");
  Alcotest.(check string) "a fresh server's program" (jstr want "assembly")
    (jstr r2 "assembly");
  Alcotest.(check bool) "not the expanded program" false
    (jstr r1 "assembly" = jstr r2 "assembly");
  Server.drain server;
  Server.drain fresh

(* Everything the daemon holds has a bound.  An in-process server is
   fed distinct one-candidate tune keys, each a distinct axpy program
   (unroll x prefetch distance): a few hundred fill its LRU, then many
   more must leave the live heap where they found it.  Live words are
   read after a compaction, so they count what the server holds, not
   where the allocator put it. *)
let test_distinct_keys_bounded () =
  let config = { Server.default_config with cfg_lru = 16 } in
  let server = Server.create ~config () in
  let sent = ref 0 in
  let send n =
    for _ = 1 to n do
      incr sent;
      let line =
        Printf.sprintf
          {|{"id":%d,"op":"tune","kernel":"axpy","arch":"sandybridge","space":[{"unroll":["i",%d],"prefetch":{"distance":%d,"stores":true}}]}|}
          !sent
          (List.nth [ 2; 4; 8; 16 ] (!sent mod 4))
          (1 + (!sent / 4))
      in
      let r = reply_of (Server.handle_line server line) in
      if not (jbool "ok" r) then Alcotest.failf "request %d failed" !sent
    done
  in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  send 200;
  let after_few = live_words () in
  send 800;
  let after_many = live_words () in
  Server.drain server;
  (* a held program costs a few hundred words: 800 of them would add
     well over 100k; the bounded server moves by a handful *)
  if after_many - after_few >= 20_000 then
    Alcotest.failf "live words grew from %d after 200 keys to %d after 1000"
      after_few after_many

(* A tune and two blocked requests whose deadlines expire in the queue:
   each is served the baseline, degraded, and nothing is cached, so the
   repeated plan request degrades again instead of hitting memory. *)
let test_server_deadline_degrades () =
  let clock = ref 100. in
  let config = { Server.default_config with cfg_workers = 1; cfg_queue = 4 } in
  let server = Server.create ~now:(fun () -> !clock) ~config () in
  let r = expire_while_parked server clock (tune_line ~deadline_ms:50. Kernels.Gemv) in
  Alcotest.(check bool) "ok" true (jbool "ok" r);
  Alcotest.(check bool) "degraded" true (jbool "degraded" r);
  let prov = Option.get (Json.member "provenance" r) in
  Alcotest.(check bool) "deadline_expired" true (jbool "deadline_expired" prov);
  Alcotest.(check bool) "baseline fell back" true (jbool "fell_back" prov);
  List.iter
    (fun id ->
      let r =
        expire_while_parked server clock (blocked_line ~deadline_ms:50. ~id 64)
      in
      Alcotest.(check bool) "plan ok" true (jbool "ok" r);
      Alcotest.(check bool) "baseline plan, not memory" true (jbool "degraded" r);
      Alcotest.(check string) "plan tier" "tuned" (jstr r "tier"))
    [ 2; 3 ];
  let m = Server.metrics server in
  Alcotest.(check int) "degraded.deadline" 3 (Metrics.get m "degraded.deadline");
  Alcotest.(check int) "degraded answers are not cached" 0
    (Registry.lru_size (Server.registry server));
  Alcotest.(check int) "degraded plans are not cached" 0
    (Registry.lru_size (Server.plans server));
  Server.drain server

let test_server_overload_rejects () =
  let config = { Server.default_config with cfg_workers = 1; cfg_queue = 1 } in
  let server = Server.create ~config () in
  let sched = Server.scheduler server in
  let g = gate () in
  let busy = Scheduler.submit sched (fun () -> wait_gate g) in
  while Scheduler.pending sched > 0 do Thread.yield () done;
  let filler = Scheduler.submit sched (fun () -> ()) in
  Alcotest.(check bool) "queue full" true (filler <> None);
  (* worker parked + queue full: admission must reject, structurally *)
  let r = reply_of (Server.handle_line server (tune_line Kernels.Axpy)) in
  Alcotest.(check bool) "not ok" false (jbool "ok" r);
  Alcotest.(check string) "E_overload" Proto.e_overload
    (jstr (Option.get (Json.member "error" r)) "code");
  let m = Server.metrics server in
  Alcotest.(check int) "rejects.overload" 1 (Metrics.get m "rejects.overload");
  open_gate g;
  (match busy with Some f -> ignore (Scheduler.await f) | None -> ());
  (match filler with Some f -> ignore (Scheduler.await f) | None -> ());
  Server.drain server

(* --- blocked plans ----------------------------------------------------------- *)

(* Canned plans for the plan registry: the sweep-free baseline plan
   (fell back) and the same plan marked clean. *)
let baseline_plan = lazy (A.Blocked.baseline_plan arch)
let clean_plan = lazy { (Lazy.force baseline_plan) with A.Blocked.pl_fell_back = false }

let plan_registry ?lru_capacity () =
  Registry.create ?lru_capacity ~fell_back:(fun p -> p.A.Blocked.pl_fell_back) ()

let plan_key i =
  Tuner.cache_key ~arch:arch.Arch.name ~name:"blocked-dgemm"
    ~fingerprint:(Printf.sprintf "canned-%d" i)

let test_plan_registry_fell_back () =
  let t = plan_registry () in
  let computes = ref 0 in
  let compute () =
    incr computes;
    { Registry.c_result = Lazy.force baseline_plan; c_deadline_expired = false }
  in
  let o = Registry.find_or_compute t (plan_key 0) ~compute in
  Alcotest.(check string) "tier" "tuned" (Proto.tier_to_string o.Registry.o_tier);
  Alcotest.(check bool) "served degraded" true o.Registry.o_degraded;
  Alcotest.(check int) "never inserted" 0 (Registry.lru_size t);
  ignore (Registry.find_or_compute t (plan_key 0) ~compute);
  Alcotest.(check int) "recomputed" 2 !computes

let test_plan_registry_bounded () =
  let t = plan_registry ~lru_capacity:2 () in
  let computes = ref 0 in
  let compute () =
    incr computes;
    { Registry.c_result = Lazy.force clean_plan; c_deadline_expired = false }
  in
  let go i = Registry.find_or_compute t (plan_key i) ~compute in
  List.iter (fun i -> ignore (go i)) [ 0; 1; 2 ];
  Alcotest.(check int) "at most lru_capacity plans" 2 (Registry.lru_size t);
  let o = go 0 in
  Alcotest.(check string) "oldest plan evicted" "tuned"
    (Proto.tier_to_string o.Registry.o_tier);
  Alcotest.(check int) "recomputed" 4 !computes

(* Two real plan sweeps: concurrent identical requests cost one, a
   repeat is a memory hit, a second key under cfg_lru = 1 evicts the
   first to disk, and a fresh server on the same cache dir replays
   from disk. *)
let test_server_blocked_tiers () =
  let dir = Filename.temp_dir "augem-serve-plans" "" in
  let config =
    { Server.default_config with
      cfg_workers = 1; cfg_queue = 4; cfg_lru = 1; cfg_cache_dir = Some dir }
  in
  Fun.protect ~finally:(fun () ->
      ignore (A.Tuning_cache.clear ~dir);
      try Sys.rmdir dir with Sys_error _ -> ())
  @@ fun () ->
  let server = Server.create ~config () in
  let tier line =
    let r = reply_of (Server.handle_line server line) in
    Alcotest.(check bool) "ok" true (jbool "ok" r);
    Alcotest.(check bool) "not degraded" false (jbool "degraded" r);
    jstr r "tier"
  in
  let tiers = Array.make 3 "" in
  with_parked_worker server (fun g ->
      let threads =
        List.init 3 (fun i ->
            Thread.create (fun () -> tiers.(i) <- tier (blocked_line ~id:i 64)) ())
      in
      Registry.wait_coalesced (Server.plans server) 2;
      open_gate g;
      List.iter Thread.join threads);
  Alcotest.(check (list string)) "one sweep, the others coalesced"
    [ "coalesced"; "coalesced"; "tuned" ]
    (List.sort compare (Array.to_list tiers));
  let m = Server.metrics server in
  Alcotest.(check int) "tiers.tuned" 1 (Metrics.get m "tiers.tuned");
  Alcotest.(check string) "repeat" "memory" (tier (blocked_line ~id:10 64));
  Alcotest.(check string) "second key" "tuned" (tier (blocked_line ~id:11 48));
  Alcotest.(check int) "cfg_lru bounds plans" 1
    (Registry.lru_size (Server.plans server));
  Alcotest.(check int) "kernels untouched" 0
    (Registry.lru_size (Server.registry server));
  Alcotest.(check string) "evicted plan replays from disk" "disk"
    (tier (blocked_line ~id:12 64));
  Alcotest.(check int) "both plans stored" 2 (Metrics.get m "cache.stores");
  Alcotest.(check int) "requests.blocked" 6 (Metrics.get m "requests.blocked");
  Server.drain server;
  let restarted = Server.create ~config () in
  let r = reply_of (Server.handle_line restarted (blocked_line ~id:13 48)) in
  Alcotest.(check string) "restart replays from disk" "disk" (jstr r "tier");
  Server.drain restarted

(* --- socket transport ------------------------------------------------------ *)

(* Wait at most 10 s for [pred]: the transport runs on its own threads,
   so its progress can only be polled. *)
let within_10s what pred =
  let t0 = Unix.gettimeofday () in
  while not (pred ()) do
    if Unix.gettimeofday () -. t0 > 10. then
      Alcotest.failf "timed out waiting for %s" what;
    Thread.delay 0.001
  done

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send (ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  match In_channel.input_line ic with
  | Some reply -> reply_of reply
  | None -> Alcotest.failf "no reply to %s" line

let test_socket_transport () =
  let dir = Filename.temp_dir "augem-sock" "" in
  let path = Filename.concat dir "s" in
  let server = Server.create () in
  let returned = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         Server.serve_socket server path;
         Atomic.set returned true)
       ());
  (* the file appears at bind, a moment before listen *)
  within_10s "the listener" (fun () ->
      match connect path with
      | c ->
          close_in (fst c);
          true
      | exception Unix.Unix_error _ -> false);
  for id = 1 to 100 do
    let c = connect path in
    let r = send c (Printf.sprintf {|{"id":%d,"op":"ping"}|} id) in
    Alcotest.(check bool) "pong" true (jbool "ok" r);
    close_in (fst c)
  done;
  (* connected before the shutdown request, so accepted before it *)
  let idle = connect path in
  let closer = connect path in
  let r = send closer {|{"id":0,"op":"shutdown"}|} in
  Alcotest.(check bool) "shutdown acknowledged" true (jbool "ok" r);
  within_10s "serve_socket to return" (fun () -> Atomic.get returned);
  Alcotest.(check (option string)) "idle client reads EOF" None
    (In_channel.input_line (fst idle));
  List.iter (fun (ic, _) -> close_in ic) [ idle; closer ];
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  Unix.rmdir dir;
  Alcotest.(check int) "every ping counted" 100
    (Metrics.get (Server.metrics server) "requests.ping")

(* --- metrics --------------------------------------------------------------- *)

(* The [stats] layout, pinned byte for byte: every counter, gauge and
   histogram holds a distinct value, so a key that moves, changes type
   or reads another key's value changes the string. *)
let expected_snapshot =
  String.concat ""
    [
      {|{"requests":{"bad":3,"ping":1,"tune":2},|};
      {|"tiers":{"memory":4,"disk":5,"tuned":6,"coalesced":7},|};
      {|"rejects":{"overload":8},|};
      {|"degraded":{"deadline":9,"fell_back":10,"lost":11,"breaker_open":12},|};
      {|"errors":13,|};
      {|"cache":{"disk_corrupt":14,"stores":15,"store_errors":16},|};
      {|"resilience":{"worker_live":17,"worker_deaths":18,"worker_restarts":19,|};
      {|"breaker_open":20,"breaker_open_total":21,"breaker_rejected":22,|};
      {|"cache_recovered":23,"cache_quarantined":24},|};
      {|"uptime_ms":250.0,|};
      {|"request_ms":{"count":3,"sum_ms":5002.75,"buckets":[|};
      {|{"le_ms":0.10000000000000001,"n":0},{"le_ms":0.29999999999999999,"n":1},|};
      {|{"le_ms":1.0,"n":0},{"le_ms":3.0,"n":1},{"le_ms":10.0,"n":0},|};
      {|{"le_ms":30.0,"n":0},{"le_ms":100.0,"n":0},{"le_ms":300.0,"n":0},|};
      {|{"le_ms":1000.0,"n":0},{"le_ms":3000.0,"n":0},{"le_ms":10000.0,"n":1},|};
      {|{"le_ms":"inf","n":0}]},|};
      {|"tuning_ms":{"count":2,"sum_ms":300.0,"buckets":[|};
      {|{"le_ms":0.10000000000000001,"n":0},{"le_ms":0.29999999999999999,"n":0},|};
      {|{"le_ms":1.0,"n":0},{"le_ms":3.0,"n":0},{"le_ms":10.0,"n":0},|};
      {|{"le_ms":30.0,"n":0},{"le_ms":100.0,"n":1},{"le_ms":300.0,"n":1},|};
      {|{"le_ms":1000.0,"n":0},{"le_ms":3000.0,"n":0},{"le_ms":10000.0,"n":0},|};
      {|{"le_ms":"inf","n":0}]}}|};
    ]

let test_metrics_snapshot_consistency () =
  let clock = ref 100. in
  let m = Metrics.create ~now:(fun () -> !clock) () in
  let feed n f = for _ = 1 to n do f () done in
  feed 2 (fun () -> Metrics.incr m (Metrics.Request "tune"));
  feed 1 (fun () -> Metrics.incr m (Metrics.Request "ping"));
  feed 3 (fun () -> Metrics.incr m (Metrics.Request "bad"));
  feed 4 (fun () -> Metrics.incr m (Metrics.Tier Proto.T_memory));
  feed 5 (fun () -> Metrics.incr m (Metrics.Tier Proto.T_disk));
  feed 6 (fun () -> Metrics.incr m (Metrics.Tier Proto.T_tuned));
  feed 7 (fun () -> Metrics.incr m (Metrics.Tier Proto.T_coalesced));
  feed 8 (fun () -> Metrics.incr m Metrics.Overload);
  feed 9 (fun () -> Metrics.incr m Metrics.Degraded_deadline);
  feed 10 (fun () -> Metrics.incr m Metrics.Degraded_fell_back);
  feed 11 (fun () -> Metrics.incr m Metrics.Degraded_lost);
  feed 12 (fun () -> Metrics.incr m Metrics.Degraded_breaker);
  feed 13 (fun () -> Metrics.incr m Metrics.Errors);
  let corrupt =
    Tuner.Ev_disk_corrupt
      (A.Verify.Diag.make ~code:A.Verify.Diag.E_cache_corrupt
         ~stage:A.Verify.Diag.S_cache ~kernel:"axpy" ~arch:"sandybridge"
         ~config:"-" ~detail:"synthetic" ())
  in
  let store_error =
    Tuner.Ev_store_error
      (A.Verify.Diag.make ~code:A.Verify.Diag.E_cache_corrupt
         ~stage:A.Verify.Diag.S_cache ~kernel:"axpy" ~arch:"sandybridge"
         ~config:"-" ~detail:"synthetic" ())
  in
  feed 14 (fun () -> Metrics.record_cache_event m corrupt);
  feed 15 (fun () -> Metrics.record_cache_event m Tuner.Ev_store);
  feed 16 (fun () -> Metrics.record_cache_event m store_error);
  (* tier events are counted by [incr_tier], not by the event fold *)
  Metrics.record_cache_event m Tuner.Ev_memory_hit;
  (* the gauges belong to their owners; the server reads them at stats *)
  let resilience =
    [
      ("worker_live", 17);
      ("worker_deaths", 18);
      ("worker_restarts", 19);
      ("breaker_open", 20);
      ("breaker_open_total", 21);
      ("breaker_rejected", 22);
      ("cache_recovered", 23);
      ("cache_quarantined", 24);
    ]
  in
  List.iter (Metrics.observe_request_ms m) [ 0.25; 2.5; 5000. ];
  List.iter (Metrics.observe_tuning_ms m) [ 40.; 260. ];
  clock := 100.25;
  let j = Metrics.snapshot m ~resilience in
  Alcotest.(check int) "requests.tune" 2 (Metrics.get m "requests.tune");
  Alcotest.(check int) "requests never seen" 0 (Metrics.get m "requests.stats");
  Alcotest.(check int) "tiers.memory" 4 (Metrics.get m "tiers.memory");
  Alcotest.(check int) "rejects.overload" 8 (Metrics.get m "rejects.overload");
  Alcotest.(check int) "errors" 13 (Metrics.get m "errors");
  Alcotest.(check int) "cache.disk_corrupt" 14 (Metrics.get m "cache.disk_corrupt");
  Alcotest.(check int) "cache.stores" 15 (Metrics.get m "cache.stores");
  Alcotest.(check string) "snapshot layout" expected_snapshot (Json.to_string j)

(* --- the served plan, pinned ---------------------------------------------- *)

(* One f64 and one f32 [blocked] reply from a fresh server, each without
   its [tuning_ms], digested together: every served byte of a plan (the
   blocking, register tile, micro configuration, the three listings and
   the predicted figures) is pinned, however the plan holds its
   kernels. *)
let test_server_blocked_reply_pinned () =
  let server = Server.create () in
  let untimed line =
    match reply_of (Server.handle_line server line) with
    | Json.Obj fields ->
        Json.to_string
          (Json.Obj (List.filter (fun (k, _) -> k <> "tuning_ms") fields))
    | j -> Alcotest.failf "not an object: %s" (Json.to_string j)
  in
  let replies =
    [
      untimed (blocked_line ~id:1 64);
      untimed
        ({|{"id":2,"op":"blocked","arch":"haswell","m":64,"n":64,"k":64,|}
        ^ {|"precision":"f32"}|});
    ]
  in
  Server.drain server;
  Alcotest.(check string) "served replies, tuning_ms dropped"
    "02c14c96a9dcd146c0ce6e6b87955f94"
    (Digest.to_hex (Digest.string (String.concat "\n" replies)))

let suite =
  [
    Alcotest.test_case "proto round-trip" `Quick test_proto_round_trip;
    Alcotest.test_case "proto bad requests" `Quick test_proto_bad_requests;
    Alcotest.test_case "candidate round-trip" `Quick test_candidate_round_trip;
    Alcotest.test_case "registry memory tier" `Quick test_registry_memory_tier;
    Alcotest.test_case "registry LRU eviction" `Quick test_registry_lru_eviction;
    Alcotest.test_case "registry disk tier" `Quick test_registry_disk_tier;
    Alcotest.test_case "degraded not cached" `Quick test_registry_degraded_not_cached;
    Alcotest.test_case "single flight coalesces" `Quick test_single_flight;
    Alcotest.test_case "single flight shares failure" `Quick
      test_single_flight_failure_shared;
    Alcotest.test_case "scheduler overload" `Quick test_scheduler_overload;
    Alcotest.test_case "scheduler deadline expiry" `Quick
      test_scheduler_deadline_expiry;
    Alcotest.test_case "server scripted sequence" `Quick
      test_server_scripted_sequence;
    Alcotest.test_case "server deadline degrades" `Quick
      test_server_deadline_degrades;
    Alcotest.test_case "server overload rejects" `Quick
      test_server_overload_rejects;
    Alcotest.test_case "plan registry: fell-back plan not stored" `Quick
      test_plan_registry_fell_back;
    Alcotest.test_case "plan registry: LRU bound" `Quick
      test_plan_registry_bounded;
    Alcotest.test_case "server blocked: coalesce, memory, evict, disk" `Slow
      test_server_blocked_tiers;
    Alcotest.test_case "socket transport: clients, shutdown" `Quick
      test_socket_transport;
    Alcotest.test_case "metrics snapshot" `Quick test_metrics_snapshot_consistency;
    Alcotest.test_case "server blocked: replies pinned, f64 and f32" `Slow
      test_server_blocked_reply_pinned;
    Alcotest.test_case "expand alone is its own address" `Quick
      test_expand_addressed;
    Alcotest.test_case "non-positive factors are bad requests" `Quick
      test_nonpositive_factors;
    Alcotest.test_case "distinct keys hold a bounded heap" `Quick
      test_distinct_keys_bounded;
  ]
