(* Deterministic seeded chaos driver over scripted serve sessions.
   See chaos_serve.mli. *)

module A = Augem
module Tuner = A.Tuner
module Cache = A.Tuning_cache
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module Json = A.Json
module Faultpoint = Augem_resilience.Faultpoint

type outcome = {
  co_sessions : int;
  co_schedules : int;
  co_points : string list;
  co_requests : int;
  co_ok : int;
  co_err : int;
  co_degraded : int;
  co_coalesced : int;
  co_worker_deaths : int;
  co_injected : int;
  co_violations : string list;
}

(* --- deterministic PRNG (splitmix-style over int) ------------------------ *)

type prng = { mutable s : int }

(* 48-bit linear congruential generator (Lehmer/Java constants): small
   enough for 63-bit ints, deterministic across platforms *)
let prng_next (g : prng) : int =
  g.s <- ((g.s * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  g.s lsr 16

let prng_below (g : prng) (n : int) : int = prng_next g mod max 1 n

(* --- the fault-point catalog --------------------------------------------- *)

(* Every point the service registers, with the actions that are
   meaningful there.  [Corrupt] only belongs on data-plane points
   ([Faultpoint.corrupting] call sites); [Kill] only where a worker
   domain (or a path that must survive a crashed callee) executes. *)
let catalog : (string * Faultpoint.action list) list =
  [
    ("registry.lookup", [ Faultpoint.Fail; Faultpoint.Delay_ms 1. ]);
    ("registry.compute", [ Faultpoint.Fail; Faultpoint.Delay_ms 1. ]);
    ("cache.read", [ Faultpoint.Fail; Faultpoint.Delay_ms 1. ]);
    ("cache.read.bytes", [ Faultpoint.Corrupt 7; Faultpoint.Fail ]);
    ("cache.store.tmp_created", [ Faultpoint.Fail ]);
    ("cache.store.payload", [ Faultpoint.Corrupt 11; Faultpoint.Fail ]);
    ("cache.store.written", [ Faultpoint.Fail ]);
    ("cache.store.synced", [ Faultpoint.Fail ]);
    ("cache.store.renamed", [ Faultpoint.Fail ]);
    ("cache.recover.scan", [ Faultpoint.Fail ]);
    ("cache.recover.entry", [ Faultpoint.Fail ]);
    ("taskq.worker", [ Faultpoint.Kill; Faultpoint.Fail; Faultpoint.Delay_ms 1. ]);
    ("scheduler.job", [ Faultpoint.Kill; Faultpoint.Fail; Faultpoint.Delay_ms 1. ]);
    ("server.handle", [ Faultpoint.Fail; Faultpoint.Delay_ms 1. ]);
  ]

let schedule_key (ts : Faultpoint.trigger list) : string =
  String.concat ";"
    (List.sort compare (List.map Faultpoint.trigger_to_string ts))

(* Session [i]'s primary trigger walks the full (point x action x hit)
   grid, so any two sessions inject provably distinct schedules and the
   whole catalog is covered after [List.length catalog] sessions. *)
let primary_trigger (i : int) : Faultpoint.trigger =
  let n = List.length catalog in
  let point, actions = List.nth catalog (i mod n) in
  let k = List.length actions in
  let action = List.nth actions (i / n mod k) in
  { Faultpoint.tr_point = point; tr_hit = 1 + (i / (n * k) mod 3); tr_action = action }

let secondary_triggers (g : prng) : Faultpoint.trigger list =
  List.init (prng_below g 2) (fun _ ->
      let point, actions = List.nth catalog (prng_below g (List.length catalog)) in
      let action = List.nth actions (prng_below g (List.length actions)) in
      { Faultpoint.tr_point = point; tr_hit = 1 + prng_below g 2; tr_action = action })

(* --- scratch cache directories ------------------------------------------- *)

let rec rm_rf (path : string) : unit =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with _ -> ())
  | _ -> ( try Sys.remove path with _ -> ())
  | exception Unix.Unix_error _ -> ()

let seed_debris (dir : string) : unit =
  (* give the startup recovery scan something real to quarantine: an
     orphaned temp file and a torn entry under a servable name *)
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Out_channel.with_open_bin
    (Filename.concat dir "augem-tune-0deadbeef.tmp")
    (fun oc -> Out_channel.output_string oc "torn half-write");
  Out_channel.with_open_bin
    (Filename.concat dir "augem-tune-0badc0ffee.cache")
    (fun oc -> Out_channel.output_string oc "AUGEMTUNE1\ngarbage")

(* --- one scripted session ------------------------------------------------ *)

type session_stats = {
  mutable s_requests : int;
  mutable s_ok : int;
  mutable s_err : int;
  mutable s_degraded : int;
  s_violations : string Queue.t;
}

let jbool j name = match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None

let known_codes =
  [ Proto.e_overload; Proto.e_bad_request; Proto.e_shutting_down; Proto.e_internal ]

(* Structural invariant checks on one response line. *)
let check_response (st : session_stats) (what : string) (line : string) :
    unit =
  let viol fmt =
    Printf.ksprintf (fun s -> Queue.add (what ^ ": " ^ s) st.s_violations) fmt
  in
  match Json.parse line with
  | Error e -> viol "unparsable response (%s): %s" e line
  | Ok j -> (
      (if Json.member "id" j = None then viol "response without id: %s" line);
      match jbool j "ok" with
      | None -> viol "response without ok: %s" line
      | Some true -> (
          st.s_ok <- st.s_ok + 1;
          (match jbool j "degraded" with
          | Some true -> st.s_degraded <- st.s_degraded + 1
          | _ -> ());
          (* "no corrupted entry served": a served kernel always carries
             non-trivial assembly — corruption must surface as a cache
             miss (checksum) or an error, never as served garbage *)
          match Json.member "assembly" j with
          | Some (Json.String s) ->
              if String.length s < 16 then
                viol "served assembly implausibly short: %S" s
          | Some _ -> viol "non-string assembly: %s" line
          | None -> () (* ping / stats / shutdown replies *))
      | Some false -> (
          st.s_err <- st.s_err + 1;
          match Json.member "error" j with
          | None -> viol "ok:false without error: %s" line
          | Some e -> (
              match Json.member "code" e with
              | Some (Json.String c) when List.mem c known_codes -> ()
              | Some (Json.String c) -> viol "unknown error code %S" c
              | _ -> viol "error without code: %s" line)))

let session_deadline_s = 60.

let run_session ~(index : int) ~(g : prng) ~(log : string -> unit)
    (st : session_stats) :
    Faultpoint.trigger list * int (* coalesced *) * int (* injected *)
    * int (* deaths *) =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "augem-chaos-%d-%d" (Unix.getpid ()) index)
  in
  rm_rf dir;
  seed_debris dir;
  let schedule = primary_trigger index :: secondary_triggers g in
  Faultpoint.reset_counters ();
  Faultpoint.arm schedule;
  log
    (Printf.sprintf "session %d: %s" index
       (String.concat " + " (List.map Faultpoint.trigger_to_string schedule)));
  let config =
    {
      Server.cfg_workers = 2;
      cfg_queue = 4;
      cfg_lru = 4;
      cfg_cache_dir = Some dir;
      cfg_deadline_ms = None;
      cfg_tune_jobs = 1;
      cfg_breaker_threshold = 2;
      cfg_breaker_cooldown_ms = 5.;
      cfg_restart_budget = 4;
      cfg_recover = true;
    }
  in
  let t0 = A.Jit.Clock.now_s () in
  let server = Server.create ~config () in
  let viol fmt =
    Printf.ksprintf
      (fun s -> Queue.add (Printf.sprintf "session %d: %s" index s) st.s_violations)
      fmt
  in
  (* two client threads race the same keys (single-flight + breaker
     paths), then the main thread takes the stats snapshot *)
  let keys = [| (Kernels.Axpy, "sandybridge"); (Kernels.Dot, "piledriver") |] in
  let respond_mutex = Mutex.create () in
  let responses = ref [] in
  let tunes_sent = ref 0 in
  let client which =
    for r = 0 to 2 do
      let kernel, arch_name = keys.((index + r) mod Array.length keys) in
      let line =
        Printf.sprintf
          {|{"id":"%d-%d-%d","op":"tune","kernel":"%s","arch":"%s"}|}
          index which r
          (Kernels.name_to_string kernel)
          arch_name
      in
      let resp = Server.handle_line server line in
      Mutex.protect respond_mutex (fun () ->
          incr tunes_sent;
          responses := (Printf.sprintf "tune %d-%d-%d" index which r, resp) :: !responses)
    done
  in
  let done_count = ref 0 in
  let spawn f =
    ignore
      (Thread.create
         (fun () ->
           (try f () with _ -> ());
           Mutex.protect respond_mutex (fun () -> incr done_count))
         ())
  in
  spawn (fun () -> client 0);
  spawn (fun () -> client 1);
  let rec wait_clients () =
    if Mutex.protect respond_mutex (fun () -> !done_count) >= 2 then true
    else if A.Jit.Clock.now_s () -. t0 > session_deadline_s then false
    else begin
      Thread.delay 0.002;
      wait_clients ()
    end
  in
  let finished = wait_clients () in
  if not finished then begin
    (* the one invariant that must never break: nothing hangs.  Leave
       the stuck threads behind (they are unkillable) and report. *)
    viol "session exceeded %.0fs deadline — a request hung" session_deadline_s;
    Faultpoint.disarm ();
    (schedule, 0, Faultpoint.injected_total (), 0)
  end
  else begin
    let ping = Server.handle_line server {|{"id":"ping","op":"ping"}|} in
    let stats_line = Server.handle_line server {|{"id":"stats","op":"stats"}|} in
    Faultpoint.disarm ();
    let injected = Faultpoint.injected_total () in
    List.iter
      (fun (what, resp) ->
        st.s_requests <- st.s_requests + 1;
        check_response st what resp)
      ((Printf.sprintf "session %d ping" index, ping)
      :: (Printf.sprintf "session %d stats" index, stats_line)
      :: List.rev_map (fun (w, r) -> ("session " ^ w, r)) !responses);
    (* --- metrics arithmetic, against the server's own counters ------- *)
    let m = Server.metrics server in
    let ok_tunes =
      List.length
        (List.filter
           (fun (_, r) ->
             match Json.parse r with
             | Ok j -> jbool j "ok" = Some true
             | Error _ -> false)
           !responses)
    in
    let tiers_sum =
      Metrics.get m "tiers.memory" + Metrics.get m "tiers.disk"
      + Metrics.get m "tiers.tuned"
      + Metrics.get m "tiers.coalesced"
    in
    let breaker_degraded = Metrics.get m "degraded.breaker_open" in
    if tiers_sum + breaker_degraded <> ok_tunes then
      viol "tier accounting: tiers=%d + breaker_degraded=%d <> ok tune replies=%d"
        tiers_sum breaker_degraded ok_tunes;
    (* a ["server.handle"] injection fires before the op is counted, so
       counted <= sent; but every sent request must get a response *)
    if Metrics.get m "requests.tune" > !tunes_sent then
      viol "requests.tune=%d but only %d tune requests were sent"
        (Metrics.get m "requests.tune") !tunes_sent;
    if List.length !responses <> !tunes_sent then
      viol "%d tune requests but %d responses" !tunes_sent
        (List.length !responses);
    let sched = Server.scheduler server in
    let deaths = Scheduler.worker_deaths sched in
    let restarts = Scheduler.worker_restarts sched in
    let live = Scheduler.live_workers sched in
    if restarts > config.cfg_restart_budget then
      viol "worker restarts %d exceed budget %d" restarts config.cfg_restart_budget;
    if live <> config.cfg_workers - deaths + restarts then
      viol "live workers %d <> %d - %d + %d" live config.cfg_workers deaths restarts;
    if deaths <= config.cfg_restart_budget && restarts <> deaths then
      viol "deaths=%d within budget but only %d respawns" deaths restarts;
    (match Registry.breaker (Server.registry server) with
    | Some b ->
        if Augem_resilience.Breaker.rejected_total b <> breaker_degraded then
          viol "breaker rejected %d times but %d breaker-degraded replies"
            (Augem_resilience.Breaker.rejected_total b)
            breaker_degraded
    | None -> viol "server built without a breaker despite threshold > 0");
    (* the stats snapshot itself must expose the resilience section *)
    (match Json.parse stats_line with
    | Ok j -> (
        match Json.member "stats" j with
        | Some stats ->
            if Json.member "resilience" stats = None then
              viol "stats snapshot lacks the resilience section";
            (match Json.member "uptime_ms" stats with
            | Some (Json.Float f) when f >= 0. -> ()
            | Some (Json.Int n) when n >= 0 -> ()
            | _ -> viol "stats snapshot lacks a sane uptime_ms")
        | None -> viol "stats reply without stats body")
    | Error _ -> ());
    (* wall-clock invariant: the whole scripted session stays bounded *)
    let wall = A.Jit.Clock.now_s () -. t0 in
    if wall > session_deadline_s then
      viol "session took %.1fs (deadline %.0fs)" wall session_deadline_s;
    let coalesced = Registry.coalesced_total (Server.registry server) in
    Server.drain server;
    rm_rf dir;
    (schedule, coalesced, injected, deaths)
  end

let run ?(sessions = 40) ?(log = fun _ -> ()) ~(seed : int) () : outcome =
  let g = { s = (seed * 0x9E3779B9) lxor 0x5DEECE66D } in
  let st =
    { s_requests = 0; s_ok = 0; s_err = 0; s_degraded = 0; s_violations = Queue.create () }
  in
  let schedules = Hashtbl.create 64 in
  let points = Hashtbl.create 16 in
  let reached = Hashtbl.create 16 in
  let coalesced = ref 0 in
  let deaths = ref 0 in
  let injected = ref 0 in
  for i = 0 to sessions - 1 do
    let schedule, co, inj, dd = run_session ~index:i ~g ~log st in
    Hashtbl.replace schedules (schedule_key schedule) ();
    List.iter (fun tr -> Hashtbl.replace points tr.Faultpoint.tr_point ()) schedule;
    List.iter
      (fun (p, _) -> if Faultpoint.hit_count p > 0 then Hashtbl.replace reached p ())
      catalog;
    coalesced := !coalesced + co;
    injected := !injected + inj;
    deaths := !deaths + dd
  done;
  (* a catalog point no session reached injects nothing when armed: a
     moved or deleted hit would silently turn its schedules into no-ops *)
  List.iter
    (fun (p, _) ->
      if not (Hashtbl.mem reached p) then
        Queue.add
          (Printf.sprintf "fault point %s was never hit in %d sessions" p sessions)
          st.s_violations)
    catalog;
  Faultpoint.disarm ();
  Faultpoint.reset_counters ();
  {
    co_sessions = sessions;
    co_schedules = Hashtbl.length schedules;
    co_points = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) points []);
    co_requests = st.s_requests;
    co_ok = st.s_ok;
    co_err = st.s_err;
    co_degraded = st.s_degraded;
    co_coalesced = !coalesced;
    co_worker_deaths = !deaths;
    co_injected = !injected;
    co_violations = List.of_seq (Queue.to_seq st.s_violations);
  }

let report (o : outcome) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "chaos-serve: %d sessions, %d distinct schedules over %d fault points\n"
    o.co_sessions o.co_schedules (List.length o.co_points);
  Printf.bprintf b "  points: %s\n" (String.concat ", " o.co_points);
  Printf.bprintf b
    "  %d requests: %d ok (%d degraded), %d structured errors, %d coalesced, %d faults injected\n"
    o.co_requests o.co_ok o.co_degraded o.co_err o.co_coalesced o.co_injected;
  (match o.co_violations with
  | [] -> Buffer.add_string b "  invariants: all held\n"
  | vs ->
      Printf.bprintf b "  INVARIANT VIOLATIONS (%d):\n" (List.length vs);
      List.iter (fun v -> Printf.bprintf b "    - %s\n" v) vs);
  Buffer.contents b
