(* Counters + latency histograms behind one mutex.  See metrics.mli. *)

module Json = Augem.Json
module Tuner = Augem.Tuner

(* Log-ish bucket upper bounds in milliseconds; the last bucket is
   +inf.  Wide enough to separate a microsecond cache hit from a
   multi-second cold sweep. *)
let bucket_bounds_ms =
  [| 0.1; 0.3; 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0; 3000.0; 10000.0 |]

type histogram = {
  counts : int array;  (* length bucket_bounds_ms + 1 *)
  mutable sum_ms : float;
  mutable n : int;
}

let histogram () =
  { counts = Array.make (Array.length bucket_bounds_ms + 1) 0; sum_ms = 0.; n = 0 }

let observe (h : histogram) (ms : float) : unit =
  let rec bucket i =
    if i >= Array.length bucket_bounds_ms then i
    else if ms <= bucket_bounds_ms.(i) then i
    else bucket (i + 1)
  in
  let i = bucket 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum_ms <- h.sum_ms +. ms;
  h.n <- h.n + 1

let histogram_to_json (h : histogram) : Json.t =
  Json.Obj
    [
      ("count", Json.Int h.n);
      ("sum_ms", Json.Float h.sum_ms);
      ( "buckets",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i n ->
                  Json.Obj
                    [
                      ( "le_ms",
                        if i < Array.length bucket_bounds_ms then
                          Json.Float bucket_bounds_ms.(i)
                        else Json.String "inf" );
                      ("n", Json.Int n);
                    ])
                h.counts)) );
    ]

type t = {
  m : Mutex.t;
  now : unit -> float;
  t0 : float;
  requests : (string, int ref) Hashtbl.t;
  mutable tier_memory : int;
  mutable tier_disk : int;
  mutable tier_tuned : int;
  mutable tier_coalesced : int;
  mutable overload : int;
  mutable degraded_deadline : int;
  mutable degraded_fell_back : int;
  mutable degraded_lost : int;
  mutable degraded_breaker : int;
  mutable errors : int;
  mutable disk_corrupt : int;
  mutable stores : int;
  mutable store_errors : int;
  (* resilience gauges: sampled from scheduler / breaker / recovery at
     stats time rather than counted here, so they can't drift from the
     owning component's own arithmetic *)
  mutable g_worker_live : int;
  mutable g_worker_deaths : int;
  mutable g_worker_restarts : int;
  mutable g_breaker_open : int;
  mutable g_breaker_open_total : int;
  mutable g_breaker_rejected : int;
  mutable g_cache_recovered : int;
  mutable g_cache_quarantined : int;
  request_ms : histogram;
  tuning_ms : histogram;
}

let create ?(now = Augem.Jit.Clock.now_s) () : t =
  {
    m = Mutex.create ();
    now;
    t0 = now ();
    requests = Hashtbl.create 8;
    tier_memory = 0;
    tier_disk = 0;
    tier_tuned = 0;
    tier_coalesced = 0;
    overload = 0;
    degraded_deadline = 0;
    degraded_fell_back = 0;
    degraded_lost = 0;
    degraded_breaker = 0;
    errors = 0;
    disk_corrupt = 0;
    stores = 0;
    store_errors = 0;
    g_worker_live = 0;
    g_worker_deaths = 0;
    g_worker_restarts = 0;
    g_breaker_open = 0;
    g_breaker_open_total = 0;
    g_breaker_rejected = 0;
    g_cache_recovered = 0;
    g_cache_quarantined = 0;
    request_ms = histogram ();
    tuning_ms = histogram ();
  }

let with_lock (t : t) f = Mutex.protect t.m f

let incr_request t op =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.requests op with
      | Some r -> incr r
      | None -> Hashtbl.replace t.requests op (ref 1))

let incr_tier t (tier : Proto.tier) =
  with_lock t (fun () ->
      match tier with
      | Proto.T_memory -> t.tier_memory <- t.tier_memory + 1
      | Proto.T_disk -> t.tier_disk <- t.tier_disk + 1
      | Proto.T_tuned -> t.tier_tuned <- t.tier_tuned + 1
      | Proto.T_coalesced -> t.tier_coalesced <- t.tier_coalesced + 1)

let incr_overload t = with_lock t (fun () -> t.overload <- t.overload + 1)

let incr_degraded_deadline t =
  with_lock t (fun () -> t.degraded_deadline <- t.degraded_deadline + 1)

let incr_degraded_fell_back t =
  with_lock t (fun () -> t.degraded_fell_back <- t.degraded_fell_back + 1)

let incr_degraded_lost t =
  with_lock t (fun () -> t.degraded_lost <- t.degraded_lost + 1)

let incr_degraded_breaker t =
  with_lock t (fun () -> t.degraded_breaker <- t.degraded_breaker + 1)

let incr_errors t = with_lock t (fun () -> t.errors <- t.errors + 1)

let set_workers t ~live ~deaths ~restarts =
  with_lock t (fun () ->
      t.g_worker_live <- live;
      t.g_worker_deaths <- deaths;
      t.g_worker_restarts <- restarts)

let set_breaker t ~open_now ~opened_total ~rejected =
  with_lock t (fun () ->
      t.g_breaker_open <- open_now;
      t.g_breaker_open_total <- opened_total;
      t.g_breaker_rejected <- rejected)

let set_cache_recovery t ~recovered ~quarantined =
  with_lock t (fun () ->
      t.g_cache_recovered <- recovered;
      t.g_cache_quarantined <- quarantined)

let uptime_ms (t : t) : float = (t.now () -. t.t0) *. 1000.

let record_cache_event t (ev : Tuner.cache_event) =
  with_lock t (fun () ->
      match ev with
      (* tier hits/sweeps are counted via incr_tier (the registry knows
         which request they answer); here we fold in the disk-health
         events the shared accounting path reports *)
      | Tuner.Ev_memory_hit | Tuner.Ev_disk_hit | Tuner.Ev_disk_miss
      | Tuner.Ev_swept ->
          ()
      | Tuner.Ev_disk_corrupt _ -> t.disk_corrupt <- t.disk_corrupt + 1
      | Tuner.Ev_store -> t.stores <- t.stores + 1
      | Tuner.Ev_store_error _ -> t.store_errors <- t.store_errors + 1)

let observe_request_ms t ms = with_lock t (fun () -> observe t.request_ms ms)
let observe_tuning_ms t ms = with_lock t (fun () -> observe t.tuning_ms ms)

let get (t : t) (path : string) : int =
  with_lock t (fun () ->
      match path with
      | "tiers.memory" -> t.tier_memory
      | "tiers.disk" -> t.tier_disk
      | "tiers.tuned" -> t.tier_tuned
      | "tiers.coalesced" -> t.tier_coalesced
      | "rejects.overload" -> t.overload
      | "degraded.deadline" -> t.degraded_deadline
      | "degraded.fell_back" -> t.degraded_fell_back
      | "degraded.lost" -> t.degraded_lost
      | "degraded.breaker_open" -> t.degraded_breaker
      | "errors" -> t.errors
      | "cache.disk_corrupt" -> t.disk_corrupt
      | "cache.stores" -> t.stores
      | "cache.store_errors" -> t.store_errors
      | "worker_live" | "resilience.worker_live" -> t.g_worker_live
      | "worker_deaths" | "resilience.worker_deaths" -> t.g_worker_deaths
      | "worker_restarts" | "resilience.worker_restarts" -> t.g_worker_restarts
      | "breaker_open" | "resilience.breaker_open" -> t.g_breaker_open
      | "breaker_open_total" | "resilience.breaker_open_total" ->
          t.g_breaker_open_total
      | "breaker_rejected" | "resilience.breaker_rejected" ->
          t.g_breaker_rejected
      | "cache_recovered" | "resilience.cache_recovered" -> t.g_cache_recovered
      | "cache_quarantined" | "resilience.cache_quarantined" ->
          t.g_cache_quarantined
      | "uptime_ms" -> int_of_float ((t.now () -. t.t0) *. 1000.)
      | _ -> (
          match String.split_on_char '.' path with
          | [ "requests"; op ] -> (
              match Hashtbl.find_opt t.requests op with
              | Some r -> !r
              | None -> 0)
          | _ -> invalid_arg ("Metrics.get: unknown path " ^ path)))

let snapshot (t : t) : Json.t =
  with_lock t (fun () ->
      let requests =
        Hashtbl.fold (fun op r acc -> (op, Json.Int !r) :: acc) t.requests []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      Json.Obj
        [
          ("requests", Json.Obj requests);
          ( "tiers",
            Json.Obj
              [
                ("memory", Json.Int t.tier_memory);
                ("disk", Json.Int t.tier_disk);
                ("tuned", Json.Int t.tier_tuned);
                ("coalesced", Json.Int t.tier_coalesced);
              ] );
          ("rejects", Json.Obj [ ("overload", Json.Int t.overload) ]);
          ( "degraded",
            Json.Obj
              [
                ("deadline", Json.Int t.degraded_deadline);
                ("fell_back", Json.Int t.degraded_fell_back);
                ("lost", Json.Int t.degraded_lost);
                ("breaker_open", Json.Int t.degraded_breaker);
              ] );
          ("errors", Json.Int t.errors);
          ( "cache",
            Json.Obj
              [
                ("disk_corrupt", Json.Int t.disk_corrupt);
                ("stores", Json.Int t.stores);
                ("store_errors", Json.Int t.store_errors);
              ] );
          ( "resilience",
            Json.Obj
              [
                ("worker_live", Json.Int t.g_worker_live);
                ("worker_deaths", Json.Int t.g_worker_deaths);
                ("worker_restarts", Json.Int t.g_worker_restarts);
                ("breaker_open", Json.Int t.g_breaker_open);
                ("breaker_open_total", Json.Int t.g_breaker_open_total);
                ("breaker_rejected", Json.Int t.g_breaker_rejected);
                ("cache_recovered", Json.Int t.g_cache_recovered);
                ("cache_quarantined", Json.Int t.g_cache_quarantined);
              ] );
          ("uptime_ms", Json.Float ((t.now () -. t.t0) *. 1000.));
          ("request_ms", histogram_to_json t.request_ms);
          ("tuning_ms", histogram_to_json t.tuning_ms);
        ])
