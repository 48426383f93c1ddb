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

type counter =
  | Request of string
  | Tier of Proto.tier
  | Overload
  | Degraded_deadline
  | Degraded_fell_back
  | Degraded_lost
  | Degraded_breaker
  | Errors
  | Disk_corrupt
  | Stores
  | Store_errors

(* Where each counter sits in the snapshot: [(Some section, key)], or
   [(None, key)] at the top level.  The one place a path is spelled. *)
let path : counter -> string option * string = function
  | Request op -> (Some "requests", op)
  | Tier tier -> (Some "tiers", Proto.tier_to_string tier)
  | Overload -> (Some "rejects", "overload")
  | Degraded_deadline -> (Some "degraded", "deadline")
  | Degraded_fell_back -> (Some "degraded", "fell_back")
  | Degraded_lost -> (Some "degraded", "lost")
  | Degraded_breaker -> (Some "degraded", "breaker_open")
  | Errors -> (None, "errors")
  | Disk_corrupt -> (Some "cache", "disk_corrupt")
  | Stores -> (Some "cache", "stores")
  | Store_errors -> (Some "cache", "store_errors")

(* The counters every snapshot shows, zero or not, in snapshot order;
   the requests seen so far come before them. *)
let fixed =
  [
    Tier Proto.T_memory;
    Tier Proto.T_disk;
    Tier Proto.T_tuned;
    Tier Proto.T_coalesced;
    Overload;
    Degraded_deadline;
    Degraded_fell_back;
    Degraded_lost;
    Degraded_breaker;
    Errors;
    Disk_corrupt;
    Stores;
    Store_errors;
  ]

type t = {
  m : Mutex.t;
  now : unit -> float;
  t0 : float;
  counts : (counter, int) Hashtbl.t;
  request_ms : histogram;
  tuning_ms : histogram;
}

let create ?(now = Augem.Jit.Clock.now_s) () : t =
  {
    m = Mutex.create ();
    now;
    t0 = now ();
    counts = Hashtbl.create 16;
    request_ms = histogram ();
    tuning_ms = histogram ();
  }

let with_lock (t : t) f = Mutex.protect t.m f

(* under the lock *)
let count (t : t) (c : counter) : int =
  Option.value (Hashtbl.find_opt t.counts c) ~default:0

let incr (t : t) (c : counter) : unit =
  with_lock t (fun () -> Hashtbl.replace t.counts c (count t c + 1))

let record_cache_event t (ev : Tuner.cache_event) =
  match ev with
  (* tier hits/sweeps are counted as [Tier] (the registry knows which
     request they answer); here we fold in the disk-health events the
     shared accounting path reports *)
  | Tuner.Ev_memory_hit | Tuner.Ev_disk_hit | Tuner.Ev_disk_miss
  | Tuner.Ev_swept ->
      ()
  | Tuner.Ev_disk_corrupt _ -> incr t Disk_corrupt
  | Tuner.Ev_store -> incr t Stores
  | Tuner.Ev_store_error _ -> incr t Store_errors

let observe_request_ms t ms = with_lock t (fun () -> observe t.request_ms ms)
let observe_tuning_ms t ms = with_lock t (fun () -> observe t.tuning_ms ms)

let get (t : t) (p : string) : int =
  let dotted c =
    match path c with Some s, k -> s ^ "." ^ k | None, k -> k
  in
  let c =
    match
      (List.find_opt (fun c -> dotted c = p) fixed, String.split_on_char '.' p)
    with
    | Some c, _ -> c
    | None, [ "requests"; op ] -> Request op
    | None, _ -> invalid_arg ("Metrics.get: unknown path " ^ p)
  in
  with_lock t (fun () -> count t c)

let snapshot (t : t) ~(resilience : (string * int) list) : Json.t =
  let ints kvs = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) kvs) in
  with_lock t (fun () ->
      let requests =
        Hashtbl.fold
          (fun c n acc -> match c with Request op -> (op, n) :: acc | _ -> acc)
          t.counts []
        |> List.sort compare
      in
      (* consecutive counters of one section share its object *)
      let counters =
        List.fold_right
          (fun c fields ->
            let v = Json.Int (count t c) in
            match (path c, fields) with
            | (Some s, k), (s', Json.Obj kvs) :: rest when s = s' ->
                (s, Json.Obj ((k, v) :: kvs)) :: rest
            | (Some s, k), _ -> (s, Json.Obj [ (k, v) ]) :: fields
            | (None, k), _ -> (k, v) :: fields)
          fixed []
      in
      Json.Obj
        ((("requests", ints requests) :: counters)
        @ [
            ("resilience", ints resilience);
            ("uptime_ms", Json.Float ((t.now () -. t.t0) *. 1000.));
            ("request_ms", histogram_to_json t.request_ms);
            ("tuning_ms", histogram_to_json t.tuning_ms);
          ]))
