(* The resilience layer: fault points, the circuit breaker, retry
   backoff, worker supervision, lost-job degradation, single-flight
   failure propagation, crash-consistent cache recovery (including the
   kill-at-every-write-step torture test) and the seeded chaos driver.

   Clocks are injected and faults are scripted (point, hit, action)
   triples, so everything timing-like is deterministic; the only waits
   are bounded polls on genuinely asynchronous supervision events
   (a replacement domain coming up). *)

module A = Augem
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module Tuner = A.Tuner
module Cache = A.Tuning_cache
module Json = A.Json
module R = Augem_resilience
module F = R.Faultpoint
module Breaker = R.Breaker
module Retry = R.Retry
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

let canned = lazy (Tuner.tune ~space:(tiny_space Kernels.Axpy) arch Kernels.Axpy)
let computed () = { Registry.c_result = Lazy.force canned; c_deadline_expired = false }

(* every test that arms triggers must leave the global registry clean *)
let with_faults f =
  Fun.protect
    ~finally:(fun () ->
      F.disarm ();
      F.reset_counters ())
    (fun () ->
      F.disarm ();
      F.reset_counters ();
      f ())

(* bounded poll for genuinely asynchronous events (domain respawn) *)
let eventually ?(timeout_s = 10.) what pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout_s then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with _ -> ())
  | _ -> ( try Sys.remove path with _ -> ())
  | exception Unix.Unix_error _ -> ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "augem-resilience-%d-%d" (Unix.getpid ()) !n)
    in
    rm_rf d;
    d

(* --- fault points ---------------------------------------------------------- *)

let fp = "test.point"
let () = F.register fp

let test_faultpoint_nth_hit () =
  with_faults (fun () ->
      F.arm [ { F.tr_point = fp; tr_hit = 3; tr_action = F.Fail } ];
      F.hit fp;
      F.hit fp;
      (match F.hit fp with
      | () -> Alcotest.fail "3rd hit should inject"
      | exception F.Injected p -> Alcotest.(check string) "point" fp p);
      (* the trigger fires exactly once *)
      F.hit fp;
      Alcotest.(check int) "hits counted" 4 (F.hit_count fp);
      Alcotest.(check int) "one injection" 1 (F.injected_total ()))

let test_faultpoint_disarmed () =
  with_faults (fun () ->
      F.hit fp;
      Alcotest.(check int) "counted" 1 (F.hit_count fp);
      Alcotest.(check int) "nothing injected" 0 (F.injected_total ());
      Alcotest.(check string) "bytes untouched" "hello" (F.corrupting fp "hello"))

let test_faultpoint_corrupting () =
  with_faults (fun () ->
      F.arm [ { F.tr_point = fp; tr_hit = 1; tr_action = F.Corrupt 7 } ];
      let a = F.corrupting fp "the quick brown fox jumps over it" in
      F.reset_counters ();
      F.arm [ { F.tr_point = fp; tr_hit = 1; tr_action = F.Corrupt 7 } ];
      let b = F.corrupting fp "the quick brown fox jumps over it" in
      Alcotest.(check string) "deterministic mangling" a b;
      Alcotest.(check bool) "actually mangled" true
        (a <> "the quick brown fox jumps over it"))

(* --- circuit breaker ------------------------------------------------------- *)

let test_breaker_state_machine () =
  let now = ref 0. in
  let b = Breaker.create ~threshold:2 ~cooldown_s:10. ~now:(fun () -> !now) () in
  let k = "key" in
  Alcotest.(check bool) "closed admits" true (Breaker.admit b k = Breaker.Allow);
  Breaker.failure b k;
  Alcotest.(check bool) "one failure still admits" true
    (Breaker.admit b k = Breaker.Allow);
  Breaker.failure b k;
  Alcotest.(check string) "opened at threshold" "open" (Breaker.state_name b k);
  Alcotest.(check bool) "open rejects" true (Breaker.admit b k = Breaker.Reject);
  Alcotest.(check int) "opened_total" 1 (Breaker.opened_total b);
  Alcotest.(check int) "rejected_total" 1 (Breaker.rejected_total b);
  now := 11.;
  Alcotest.(check bool) "cooldown elapses to a probe" true
    (Breaker.admit b k = Breaker.Probe);
  (* while the probe is outstanding, others are rejected *)
  Alcotest.(check bool) "probe outstanding rejects" true
    (Breaker.admit b k = Breaker.Reject);
  Breaker.failure b k;
  Alcotest.(check string) "failed probe re-opens" "open" (Breaker.state_name b k);
  Alcotest.(check int) "re-open counted" 2 (Breaker.opened_total b);
  now := 22.;
  Alcotest.(check bool) "second probe" true (Breaker.admit b k = Breaker.Probe);
  Breaker.success b k;
  Alcotest.(check string) "probe success closes" "closed" (Breaker.state_name b k);
  Alcotest.(check bool) "closed again" true (Breaker.admit b k = Breaker.Allow);
  Alcotest.(check int) "no open keys left" 0 (Breaker.open_now b)

let test_breaker_per_key () =
  let b = Breaker.create ~threshold:1 ~cooldown_s:10. ~now:(fun () -> 0.) () in
  Breaker.failure b "bad";
  Alcotest.(check bool) "bad key rejected" true
    (Breaker.admit b "bad" = Breaker.Reject);
  Alcotest.(check bool) "other key unaffected" true
    (Breaker.admit b "good" = Breaker.Allow)

(* --- retry ----------------------------------------------------------------- *)

let test_retry_schedule () =
  let p = { Retry.r_max = 5; r_base_ms = 100.; r_cap_ms = 800.; r_seed = 42 } in
  let d1 = Retry.delays_ms p and d2 = Retry.delays_ms p in
  Alcotest.(check int) "five delays" 5 (List.length d1);
  Alcotest.(check bool) "deterministic in seed" true (d1 = d2);
  Alcotest.(check bool) "different seed desynchronizes" true
    (d1 <> Retry.delays_ms { p with r_seed = 43 });
  (* each delay lands in [0.5, 1.0] x the exponential envelope (capped) *)
  List.iteri
    (fun i d ->
      let envelope = min p.Retry.r_cap_ms (100. *. (2. ** float_of_int i)) in
      if d < (0.5 *. envelope) -. 1e-9 || d > envelope +. 1e-9 then
        Alcotest.failf "delay %d = %.1f outside [%.1f, %.1f]" (i + 1) d
          (0.5 *. envelope) envelope)
    d1

let test_retry_classification () =
  let p = { Retry.r_max = 3; r_base_ms = 1.; r_cap_ms = 10.; r_seed = 0 } in
  let attempts = ref 0 in
  let flaky () =
    incr attempts;
    if !attempts < 3 then Error `Transient else Ok !attempts
  in
  (match Retry.run p ~retryable:(fun e -> e = `Transient) flaky with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "flaky call should succeed on attempt 3");
  (* non-retryable errors return immediately *)
  let attempts = ref 0 in
  (match
     Retry.run p
       ~retryable:(fun e -> e = `Transient)
       (fun () ->
         incr attempts;
         Error `Fatal)
   with
  | Error `Fatal -> Alcotest.(check int) "no retry on fatal" 1 !attempts
  | _ -> Alcotest.fail "fatal should not be retried");
  (* the budget is exhausted after 1 + r_max attempts *)
  let attempts = ref 0 in
  (match
     Retry.run p
       ~retryable:(fun _ -> true)
       (fun () ->
         incr attempts;
         Error `Transient)
   with
  | Error `Transient -> Alcotest.(check int) "budget" 4 !attempts
  | _ -> Alcotest.fail "should exhaust retries")

(* --- worker supervision ---------------------------------------------------- *)

(* Submit [f] and wait for its outcome, named so a check shows it. *)
let run_job (s : Scheduler.t) (f : unit -> unit) : string =
  match Scheduler.submit s f with
  | None -> Alcotest.fail "submit rejected"
  | Some fut -> (
      match Scheduler.await fut with
      | Scheduler.Done () -> "done"
      | Scheduler.Expired -> "expired"
      | Scheduler.Failed e -> "failed: " ^ Printexc.to_string e
      | Scheduler.Lost -> "lost")

let test_scheduler_kill_respawn () =
  with_faults (fun () ->
      let s = Scheduler.create ~workers:1 ~capacity:8 ~restart_budget:2 () in
      F.arm [ { F.tr_point = "taskq.worker"; tr_hit = 1; tr_action = F.Kill } ];
      let ran = ref false in
      Alcotest.(check string) "killed job is lost" "lost"
        (run_job s (fun () -> ran := true));
      Alcotest.(check bool) "killed job never ran" false !ran;
      (* the replacement drains new work; it is spawned in the same
         step that counts the death, so both counters are settled once
         it has run a job *)
      Alcotest.(check string) "the replacement runs the next job" "done"
        (run_job s ignore);
      Alcotest.(check int) "one death" 1 (Scheduler.worker_deaths s);
      Alcotest.(check int) "one respawn" 1 (Scheduler.worker_restarts s);
      Alcotest.(check int) "live again" 1 (Scheduler.live_workers s);
      Scheduler.shutdown s)

let test_scheduler_restart_budget () =
  with_faults (fun () ->
      let s = Scheduler.create ~workers:1 ~capacity:8 ~restart_budget:0 () in
      F.arm [ { F.tr_point = "taskq.worker"; tr_hit = 1; tr_action = F.Kill } ];
      Alcotest.(check string) "killed job is lost" "lost" (run_job s ignore);
      eventually "the death to be counted" (fun () ->
          Scheduler.worker_deaths s = 1);
      Alcotest.(check int) "budget exhausted: no respawn" 0
        (Scheduler.worker_restarts s);
      Alcotest.(check int) "no workers left" 0 (Scheduler.live_workers s);
      Scheduler.shutdown s)

let test_scheduler_pickup_failure_loses () =
  (* an ordinary injected exception at pickup, before the job body,
     must not leave the future dangling: the job is lost and the
     worker survives *)
  with_faults (fun () ->
      let s = Scheduler.create ~workers:1 ~capacity:8 ~restart_budget:2 () in
      F.arm [ { F.tr_point = "taskq.worker"; tr_hit = 1; tr_action = F.Fail } ];
      Alcotest.(check string) "failed pickup is lost" "lost" (run_job s ignore);
      Alcotest.(check string) "the same worker keeps draining" "done"
        (run_job s ignore);
      Alcotest.(check int) "worker survived" 0 (Scheduler.worker_deaths s);
      Alcotest.(check int) "no respawn" 0 (Scheduler.worker_restarts s);
      Alcotest.(check int) "still live" 1 (Scheduler.live_workers s);
      Scheduler.shutdown s)

let test_scheduler_lost () =
  with_faults (fun () ->
      let s = Scheduler.create ~workers:1 ~capacity:4 ~restart_budget:2 () in
      F.arm [ { F.tr_point = "scheduler.job"; tr_hit = 1; tr_action = F.Kill } ];
      (match Scheduler.submit s (fun () -> 1) with
      | None -> Alcotest.fail "submit rejected"
      | Some fut -> (
          match Scheduler.await fut with
          | Scheduler.Lost -> ()
          | Scheduler.Done _ -> Alcotest.fail "job should have been lost"
          | Scheduler.Expired -> Alcotest.fail "unexpected expiry"
          | Scheduler.Failed e ->
              Alcotest.failf "unexpected failure: %s" (Printexc.to_string e)));
      eventually "the replacement worker" (fun () -> Scheduler.live_workers s = 1);
      (* the pool still works afterwards *)
      (match Scheduler.submit s (fun () -> 2) with
      | Some fut ->
          Alcotest.(check bool) "next job runs" true
            (Scheduler.await fut = Scheduler.Done 2)
      | None -> Alcotest.fail "submit rejected after respawn");
      Alcotest.(check int) "death counted" 1 (Scheduler.worker_deaths s);
      Scheduler.shutdown s)

(* --- single-flight failure propagation ------------------------------------- *)

exception Boom

let test_registry_leader_death_propagates () =
  let t = Registry.create ~fell_back ~lru_capacity:4 () in
  let m = Mutex.create () in
  let c = Condition.create () in
  let entered = ref false in
  let released = ref false in
  let compute () =
    (* announce leadership, then die only after both waiters have
       attached to this flight *)
    Mutex.protect m (fun () ->
        entered := true;
        Condition.broadcast c);
    Mutex.protect m (fun () ->
        while not !released do
          Condition.wait c m
        done);
    raise Boom
  in
  let outcomes = Array.make 3 `Pending in
  let worker i =
    Thread.create
      (fun () ->
        match
          Registry.find_or_compute t (key Kernels.Axpy) ~compute
        with
        | _ -> outcomes.(i) <- `Ok
        | exception Boom -> outcomes.(i) <- `Boom
        | exception e -> outcomes.(i) <- `Other (Printexc.to_string e))
      ()
  in
  let t0 = worker 0 in
  (* wait until the flight exists so 1 and 2 attach instead of leading *)
  Mutex.protect m (fun () ->
      while not !entered do
        Condition.wait c m
      done);
  let t1 = worker 1 and t2 = worker 2 in
  Registry.wait_coalesced t 2;
  Mutex.protect m (fun () ->
      released := true;
      Condition.broadcast c);
  Thread.join t0;
  Thread.join t1;
  Thread.join t2;
  Array.iteri
    (fun i o ->
      match o with
      | `Boom -> ()
      | `Ok -> Alcotest.failf "caller %d unexpectedly succeeded" i
      | `Other e -> Alcotest.failf "caller %d got %s" i e
      | `Pending -> Alcotest.failf "caller %d never finished" i)
    outcomes;
  (* the key is retryable: the failed flight was fully cleaned up *)
  let o =
    Registry.find_or_compute t (key Kernels.Axpy) ~compute:(fun () -> computed ())
  in
  Alcotest.(check string) "key retryable after failure" "tuned"
    (Proto.tier_to_string o.Registry.o_tier)

let test_registry_breaker_integration () =
  let now = ref 0. in
  let b = Breaker.create ~threshold:2 ~cooldown_s:10. ~now:(fun () -> !now) () in
  let t = Registry.create ~fell_back ~lru_capacity:4 ~breaker:b () in
  let failing () = raise Boom in
  let go compute = Registry.find_or_compute t (key Kernels.Dot) ~compute in
  (match go failing with
  | _ -> Alcotest.fail "compute should fail"
  | exception Boom -> ());
  (match go failing with
  | _ -> Alcotest.fail "compute should fail"
  | exception Boom -> ());
  (* two consecutive failures at threshold 2: the circuit is open *)
  (match go failing with
  | _ -> Alcotest.fail "open circuit must not compute"
  | exception Breaker.Open_circuit _ -> ());
  Alcotest.(check int) "no compute while open" 1 (Breaker.rejected_total b);
  now := 11.;
  (* cooldown over: this caller carries the probe, and its success
     closes the circuit *)
  let o = go (fun () -> computed ()) in
  Alcotest.(check string) "probe computed" "tuned"
    (Proto.tier_to_string o.Registry.o_tier);
  Alcotest.(check int) "circuit closed" 0 (Breaker.open_now b)

(* --- crash-consistent cache ------------------------------------------------ *)

let store_value dir =
  Cache.store ~dir (key Kernels.Axpy) (Lazy.force canned)

let load_value dir : Tuner.result Cache.load_result =
  Cache.load ~dir (key Kernels.Axpy)

let test_cache_recover_quarantines () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Alcotest.(check bool) "store ok" true (store_value dir = None);
      (* crash debris: an orphaned tmp and a torn entry *)
      Out_channel.with_open_bin
        (Filename.concat dir "augem-tune-0000.tmp")
        (fun oc -> Out_channel.output_string oc "half a write");
      Out_channel.with_open_bin
        (Filename.concat dir "augem-tune-0000torn.cache")
        (fun oc -> Out_channel.output_string oc "AUGEM-TUNE-CACHE 1\ntorn");
      let r = Cache.recover ~dir () in
      Alcotest.(check int) "valid entry kept" 1 r.Cache.rc_valid;
      Alcotest.(check int) "torn entry quarantined" 1 r.Cache.rc_quarantined;
      Alcotest.(check int) "tmp quarantined" 1 r.Cache.rc_tmp_quarantined;
      (* quarantined files are preserved for post-mortem, not deleted *)
      let qdir = Filename.concat dir Cache.quarantine_dirname in
      Alcotest.(check int) "quarantine holds both" 2
        (Array.length (Sys.readdir qdir));
      (match load_value dir with
      | Cache.Hit _ -> ()
      | _ -> Alcotest.fail "valid entry must still load");
      (* recovery is idempotent *)
      let r2 = Cache.recover ~dir () in
      Alcotest.(check int) "second scan quarantines nothing" 0
        (r2.Cache.rc_quarantined + r2.Cache.rc_tmp_quarantined))

(* The tuner's memo and the service registry share one persistent
   tier: what either stores under a key is a disk hit for the other on
   the same directory.  Each direction uses a space no other test
   tunes, so the tuner's process memo cannot answer first. *)
let test_shared_disk_tier () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let space k =
        List.rev (List.filteri (fun i _ -> i < 2) (Tuner.space_for k))
      in
      let key_of k =
        Tuner.cache_key ~arch:arch.Arch.name ~name:(Kernels.name_to_string k)
          ~fingerprint:(Tuner.space_fingerprint (space k))
      in
      let registry () = Registry.create ~fell_back ~cache_dir:dir () in
      (* the tuner stores, a registry loads *)
      let r =
        Tuner.tuned ~cache_dir:dir ~space:(space Kernels.Copy) arch Kernels.Copy
      in
      let o =
        Registry.find_or_compute (registry ()) (key_of Kernels.Copy)
          ~compute:(fun () -> Alcotest.fail "registry swept a stored key")
      in
      Alcotest.(check string) "registry tier" "disk"
        (Proto.tier_to_string o.Registry.o_tier);
      Alcotest.(check (float 0.0)) "the tuner's answer" r.Tuner.best_score
        o.Registry.o_result.Tuner.best_score;
      (* a registry stores, the tuner loads *)
      let space_b = space Kernels.Pack_b in
      let o =
        Registry.find_or_compute (registry ()) (key_of Kernels.Pack_b)
          ~compute:(fun () ->
            { Registry.c_result = Tuner.tune ~space:space_b arch Kernels.Pack_b;
              c_deadline_expired = false })
      in
      let events = ref [] in
      let r =
        Tuner.tuned ~cache_dir:dir ~space:space_b
          ~on_event:(fun ev -> events := ev :: !events)
          arch Kernels.Pack_b
      in
      Alcotest.(check (list string)) "tuner events" [ "disk-hit" ]
        (List.rev_map Tuner.cache_event_to_string !events);
      Alcotest.(check (float 0.0)) "the registry's answer"
        o.Registry.o_result.Tuner.best_score r.Tuner.best_score)

(* A store that crashes after its rename is a store error to [tuned],
   which still returns the sweep's answer. *)
let test_tuned_survives_store_crash () =
  with_faults (fun () ->
      let dir = fresh_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let space =
            List.rev
              (List.filteri (fun i _ -> i < 2) (Tuner.space_for Kernels.Ger))
          in
          F.arm
            [ { F.tr_point = "cache.store.renamed"; tr_hit = 1;
                tr_action = F.Fail } ];
          let events = ref [] in
          let r =
            Tuner.tuned ~cache_dir:dir ~space
              ~on_event:(fun ev -> events := ev :: !events)
              arch Kernels.Ger
          in
          Alcotest.(check (list string)) "events"
            [ "disk-miss"; "swept"; "store-error" ]
            (List.rev_map
               (fun ev ->
                 List.hd
                   (String.split_on_char ':' (Tuner.cache_event_to_string ev)))
               !events);
          Alcotest.(check (float 0.0)) "the sweep's answer"
            (Tuner.tune ~space arch Kernels.Ger).Tuner.best_score
            r.Tuner.best_score))

(* Kill the store at every step of the write protocol; after recovery
   the cache must hold either the complete entry or nothing — and a
   fresh store must succeed. *)
let test_cache_kill_at_every_write_step () =
  let steps =
    [
      ("cache.store.tmp_created", F.Fail, `Tmp_debris);
      ("cache.store.written", F.Fail, `Tmp_debris);
      ("cache.store.synced", F.Fail, `Tmp_debris);
      ("cache.store.renamed", F.Fail, `Complete);
      ("cache.store.payload", F.Corrupt 13, `Torn_entry);
    ]
  in
  List.iter
    (fun (point, action, expected) ->
      with_faults (fun () ->
          let dir = fresh_dir () in
          Fun.protect
            ~finally:(fun () -> rm_rf dir)
            (fun () ->
              F.arm [ { F.tr_point = point; tr_hit = 1; tr_action = action } ];
              (match (action, store_value dir) with
              | F.Fail, _ -> Alcotest.failf "%s: store should have crashed" point
              | _, None -> () (* a torn write "succeeds" *)
              | _, Some d ->
                  Alcotest.failf "%s: unexpected diag %s" point
                    (A.Verify.Diag.to_string d)
              | exception F.Injected _ -> ());
              F.disarm ();
              let r = Cache.recover ~dir () in
              (match expected with
              | `Tmp_debris ->
                  Alcotest.(check int)
                    (point ^ ": tmp debris quarantined")
                    1 r.Cache.rc_tmp_quarantined;
                  (match load_value dir with
                  | Cache.Miss -> ()
                  | _ -> Alcotest.failf "%s: expected a miss after crash" point)
              | `Complete ->
                  Alcotest.(check int)
                    (point ^ ": completed entry kept")
                    1 r.Cache.rc_valid;
                  (match load_value dir with
                  | Cache.Hit _ -> ()
                  | _ -> Alcotest.failf "%s: completed entry must load" point)
              | `Torn_entry ->
                  Alcotest.(check int)
                    (point ^ ": torn entry quarantined")
                    1 r.Cache.rc_quarantined;
                  (match load_value dir with
                  | Cache.Miss -> ()
                  | _ -> Alcotest.failf "%s: torn entry must be gone" point));
              (* after recovery, the same key stores and loads cleanly *)
              (match store_value dir with
              | None -> ()
              | Some d ->
                  Alcotest.failf "%s: post-recovery store failed: %s" point
                    (A.Verify.Diag.to_string d));
              match load_value dir with
              | Cache.Hit _ -> ()
              | _ -> Alcotest.failf "%s: post-recovery load failed" point)))
    steps

(* --- server integration ---------------------------------------------------- *)

let base_config =
  {
    Server.default_config with
    cfg_workers = 1;
    cfg_queue = 4;
    cfg_lru = 4;
    cfg_cache_dir = None;
    cfg_breaker_threshold = 0;
    cfg_recover = false;
  }

let tune_line ?(id = 1) kernel =
  Printf.sprintf {|{"id":%d,"op":"tune","kernel":"%s","arch":"sandybridge"}|} id
    kernel

let blocked_line id =
  Printf.sprintf
    {|{"id":%d,"op":"blocked","arch":"sandybridge","m":64,"n":64,"k":64}|} id

(* fire [action] on the next hit of [point] *)
let arm_next point action =
  F.arm [ { F.tr_point = point; tr_hit = F.hit_count point + 1; tr_action = action } ]

let parse_json what line =
  match Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: unparsable response (%s): %s" what e line

let jget what j name =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %s in %s" what name (Json.to_string j)

let test_server_lost_worker_degrades () =
  with_faults (fun () ->
      let t =
        Server.create ~config:{ base_config with cfg_restart_budget = 2 } ()
      in
      F.arm [ { F.tr_point = "scheduler.job"; tr_hit = 1; tr_action = F.Kill } ];
      let j = parse_json "lost" (Server.handle_line t (tune_line "axpy")) in
      Alcotest.(check bool) "ok" true (jget "lost" j "ok" = Json.Bool true);
      Alcotest.(check bool) "degraded" true
        (jget "lost" j "degraded" = Json.Bool true);
      Alcotest.(check int) "counted as lost" 1
        (Metrics.get (Server.metrics t) "degraded.lost");
      (* degraded results are not cached: the key retries to a real sweep *)
      F.disarm ();
      let j2 = parse_json "retry" (Server.handle_line t (tune_line ~id:2 "axpy")) in
      Alcotest.(check bool) "retry not degraded" true
        (jget "retry" j2 "degraded" = Json.Bool false);
      let m = Server.metrics t in
      let sched = Server.scheduler t in
      Alcotest.(check int) "worker death" 1 (Scheduler.worker_deaths sched);
      Alcotest.(check int) "worker restart" 1 (Scheduler.worker_restarts sched);
      (* a lost plan sweep is served the baseline plan, which is
         fell-back: degraded and never cached *)
      arm_next "scheduler.job" F.Kill;
      let j3 = parse_json "lost plan" (Server.handle_line t (blocked_line 4)) in
      Alcotest.(check bool) "plan degraded" true
        (jget "lost plan" j3 "degraded" = Json.Bool true);
      Alcotest.(check int) "plan counted as lost" 2 (Metrics.get m "degraded.lost");
      Alcotest.(check int) "baseline plan not cached" 0
        (Registry.lru_size (Server.plans t));
      Server.drain t)

let test_server_breaker_serves_baseline () =
  with_faults (fun () ->
      let now = ref 0. in
      let t =
        Server.create
          ~now:(fun () -> !now)
          ~config:
            {
              base_config with
              cfg_breaker_threshold = 1;
              cfg_breaker_cooldown_ms = 10_000.;
            }
          ()
      in
      (* one injected compute failure at threshold 1 opens the key *)
      F.arm
        [ { F.tr_point = "registry.compute"; tr_hit = 1; tr_action = F.Fail } ];
      let j1 = parse_json "fail" (Server.handle_line t (tune_line "dot")) in
      Alcotest.(check bool) "first fails" true
        (jget "fail" j1 "ok" = Json.Bool false);
      F.disarm ();
      let j2 = parse_json "open" (Server.handle_line t (tune_line ~id:2 "dot")) in
      Alcotest.(check bool) "served ok" true (jget "open" j2 "ok" = Json.Bool true);
      Alcotest.(check bool) "degraded baseline" true
        (jget "open" j2 "degraded" = Json.Bool true);
      let prov = jget "open" j2 "provenance" in
      Alcotest.(check bool) "annotated breaker_open" true
        (jget "open" prov "breaker_open" = Json.Bool true);
      let m = Server.metrics t in
      Alcotest.(check int) "breaker-degraded counted" 1
        (Metrics.get m "degraded.breaker_open");
      let b = Option.get (Registry.breaker (Server.registry t)) in
      Alcotest.(check int) "open now" 1 (Breaker.open_now b);
      Alcotest.(check int) "opened total" 1 (Breaker.opened_total b);
      (* after the cooldown, the probe runs a real sweep and closes it *)
      now := 11.;
      let j3 = parse_json "probe" (Server.handle_line t (tune_line ~id:4 "dot")) in
      Alcotest.(check bool) "probe succeeds" true
        (jget "probe" j3 "degraded" = Json.Bool false);
      (* a failing plan key trips the same breaker and is served the
         degraded baseline plan, which is not cached *)
      let blocked id = Server.handle_line t (blocked_line id) in
      arm_next "registry.compute" F.Fail;
      let j4 = parse_json "plan fail" (blocked 5) in
      Alcotest.(check bool) "plan sweep fails" true
        (jget "plan fail" j4 "ok" = Json.Bool false);
      F.disarm ();
      let j5 = parse_json "plan open" (blocked 6) in
      Alcotest.(check bool) "plan served ok" true
        (jget "plan open" j5 "ok" = Json.Bool true);
      Alcotest.(check bool) "degraded baseline plan" true
        (jget "plan open" j5 "degraded" = Json.Bool true);
      Alcotest.(check int) "both breaker-degraded" 2
        (Metrics.get m "degraded.breaker_open");
      Alcotest.(check int) "baseline plan not cached" 0
        (Registry.lru_size (Server.plans t));
      Server.drain t)

let test_server_recovers_cache_at_boot () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Unix.mkdir dir 0o755;
      Out_channel.with_open_bin
        (Filename.concat dir "augem-tune-0.tmp")
        (fun oc -> Out_channel.output_string oc "debris");
      let t =
        Server.create
          ~config:
            { base_config with cfg_cache_dir = Some dir; cfg_recover = true }
          ()
      in
      Alcotest.(check bool) "debris quarantined at boot" true
        (Sys.file_exists
           (Filename.concat
              (Filename.concat dir Cache.quarantine_dirname)
              "augem-tune-0.tmp"));
      let stats =
        parse_json "stats" (Server.handle_line t {|{"id":1,"op":"stats"}|})
      in
      let body = jget "stats" stats "stats" in
      let res = jget "stats" body "resilience" in
      Alcotest.(check bool) "snapshot carries quarantine count" true
        (jget "stats" res "cache_quarantined" = Json.Int 1);
      (match jget "stats" body "uptime_ms" with
      | Json.Float f when f >= 0. -> ()
      | Json.Int n when n >= 0 -> ()
      | v -> Alcotest.failf "bad uptime_ms: %s" (Json.to_string v));
      Server.drain t)

(* --- the chaos driver ------------------------------------------------------ *)

let test_chaos_drive_mini () =
  (* one pass over the whole fault-point catalog; the full 40-session
     run is the @chaos-serve alias *)
  let o = S.Chaos_serve.run ~sessions:14 ~seed:3 () in
  (match o.S.Chaos_serve.co_violations with
  | [] -> ()
  | vs -> Alcotest.failf "invariants violated:\n%s" (String.concat "\n" vs));
  Alcotest.(check int) "whole catalog covered" 14
    (List.length o.S.Chaos_serve.co_points);
  Alcotest.(check bool) "faults actually fired" true
    (o.S.Chaos_serve.co_injected > 0);
  Alcotest.(check bool) "schedules distinct" true
    (o.S.Chaos_serve.co_schedules >= 12)

let suite =
  [
    Alcotest.test_case "faultpoint: exact nth hit" `Quick test_faultpoint_nth_hit;
    Alcotest.test_case "faultpoint: disarmed is a no-op" `Quick
      test_faultpoint_disarmed;
    Alcotest.test_case "faultpoint: deterministic corruption" `Quick
      test_faultpoint_corrupting;
    Alcotest.test_case "breaker: state machine" `Quick test_breaker_state_machine;
    Alcotest.test_case "breaker: per-key isolation" `Quick test_breaker_per_key;
    Alcotest.test_case "retry: seeded schedule" `Quick test_retry_schedule;
    Alcotest.test_case "retry: classification and budget" `Quick
      test_retry_classification;
    Alcotest.test_case "scheduler: kill, respawn, drain" `Quick
      test_scheduler_kill_respawn;
    Alcotest.test_case "scheduler: restart budget exhausts" `Quick
      test_scheduler_restart_budget;
    Alcotest.test_case "scheduler: pickup failure loses job" `Quick
      test_scheduler_pickup_failure_loses;
    Alcotest.test_case "scheduler: lost jobs resolve" `Quick test_scheduler_lost;
    Alcotest.test_case "registry: leader death reaches every waiter" `Quick
      test_registry_leader_death_propagates;
    Alcotest.test_case "registry: breaker opens, probes, closes" `Quick
      test_registry_breaker_integration;
    Alcotest.test_case "cache: recover quarantines debris" `Quick
      test_cache_recover_quarantines;
    Alcotest.test_case "cache: tuner and registry share one disk tier" `Quick
      test_shared_disk_tier;
    Alcotest.test_case "cache: tuned survives a crashed store" `Quick
      test_tuned_survives_store_crash;
    Alcotest.test_case "cache: kill at every write step" `Quick
      test_cache_kill_at_every_write_step;
    Alcotest.test_case "server: lost worker degrades" `Quick
      test_server_lost_worker_degrades;
    Alcotest.test_case "server: open circuit serves baseline" `Quick
      test_server_breaker_serves_baseline;
    Alcotest.test_case "server: cache recovery at boot" `Quick
      test_server_recovers_cache_at_boot;
    Alcotest.test_case "chaos: catalog pass holds invariants" `Quick
      test_chaos_drive_mini;
  ]
