(* Bounded LRU over the persistent tuning cache, with single-flight
   deduplication.  See registry.mli. *)

module A = Augem
module Tuner = A.Tuner
module Cache = A.Tuning_cache
module Faultpoint = Augem_resilience.Faultpoint
module Breaker = Augem_resilience.Breaker

let fp_lookup = "registry.lookup"
let fp_compute = "registry.compute"
let () = List.iter Faultpoint.register [ fp_lookup; fp_compute ]

type 'v computed = { c_result : 'v; c_deadline_expired : bool }

type 'v outcome = {
  o_result : 'v;
  o_tier : Proto.tier;
  o_degraded : bool;
  o_deadline_expired : bool;
  o_tuning_ms : float;
}

type 'v slot = { mutable value : 'v; mutable tick : int }

type 'v flight = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable f_state : ('v outcome, exn) Stdlib.result option;
}

type 'v t = {
  m : Mutex.t;
  changed : Condition.t;  (* signalled when coalesced_total moves *)
  lru : (string, 'v slot) Hashtbl.t;
  inflight : (string, 'v flight) Hashtbl.t;
  capacity : int;
  cache_dir : string option;
  on_event : Tuner.cache_observer;
  breaker : Breaker.t option;
  fell_back : 'v -> bool;
  mutable tick : int;
  mutable coalesced : int;
}

let create ?(lru_capacity = 64) ?cache_dir ?breaker
    ?(on_event = ignore) ~fell_back () : 'v t =
  {
    m = Mutex.create ();
    changed = Condition.create ();
    lru = Hashtbl.create 32;
    inflight = Hashtbl.create 8;
    capacity = max 1 lru_capacity;
    cache_dir;
    on_event;
    breaker;
    fell_back;
    tick = 0;
    coalesced = 0;
  }

let breaker (t : 'v t) : Breaker.t option = t.breaker

(* caller holds t.m *)
let lru_touch (t : 'v t) (s : 'v slot) : unit =
  t.tick <- t.tick + 1;
  s.tick <- t.tick

(* caller holds t.m.  Capacity is small (a server config knob), so a
   scan-for-minimum eviction beats the bookkeeping of a linked list. *)
let lru_insert (t : 'v t) (digest : string) (v : 'v) : unit =
  (match Hashtbl.find_opt t.lru digest with
  | Some s ->
      s.value <- v;
      lru_touch t s
  | None ->
      t.tick <- t.tick + 1;
      Hashtbl.replace t.lru digest { value = v; tick = t.tick });
  if Hashtbl.length t.lru > t.capacity then begin
    let victim =
      Hashtbl.fold
        (fun k (s : 'v slot) acc ->
          match acc with
          | Some (_, best) when best <= s.tick -> acc
          | _ -> Some (k, s.tick))
        t.lru None
    in
    match victim with
    | Some (k, _) -> Hashtbl.remove t.lru k
    | None -> ()
  end

let lru_size (t : 'v t) : int =
  Mutex.protect t.m (fun () -> Hashtbl.length t.lru)

let lru_capacity (t : 'v t) : int = t.capacity

let coalesced_total (t : 'v t) : int = Mutex.protect t.m (fun () -> t.coalesced)

let wait_coalesced (t : 'v t) (n : int) : unit =
  Mutex.lock t.m;
  while t.coalesced < n do
    Condition.wait t.changed t.m
  done;
  Mutex.unlock t.m

let find_or_compute (t : 'v t) (key : Cache.key)
    ~(compute : unit -> 'v computed) : 'v outcome =
  let digest = key.Cache.k_digest in
  Faultpoint.hit fp_lookup;
  Mutex.lock t.m;
  match Hashtbl.find_opt t.lru digest with
  | Some slot ->
      lru_touch t slot;
      let v = slot.value in
      Mutex.unlock t.m;
      t.on_event Tuner.Ev_memory_hit;
      { o_result = v; o_tier = Proto.T_memory; o_degraded = false;
        o_deadline_expired = false; o_tuning_ms = 0. }
  | None -> (
      match Hashtbl.find_opt t.inflight digest with
      | Some fl ->
          (* single-flight: attach to the running sweep *)
          t.coalesced <- t.coalesced + 1;
          Condition.broadcast t.changed;
          Mutex.unlock t.m;
          Mutex.lock fl.fm;
          let rec wait () =
            match fl.f_state with
            | Some r -> r
            | None ->
                Condition.wait fl.fc fl.fm;
                wait ()
          in
          let r = wait () in
          Mutex.unlock fl.fm;
          (match r with
          | Ok o -> { o with o_tier = Proto.T_coalesced }
          | Error e -> raise e)
      | None ->
          (* would-be leader: a key whose circuit is open degrades
             immediately instead of starting yet another doomed sweep.
             (Coalescing onto an existing flight — e.g. a half-open
             probe — is handled above and stays allowed: those waiters
             share the probe's verdict.) *)
          (match t.breaker with
          | Some b -> (
              match Breaker.admit b digest with
              | Breaker.Reject ->
                  Mutex.unlock t.m;
                  raise (Breaker.Open_circuit key.Cache.k_desc)
              | Breaker.Allow | Breaker.Probe -> ())
          | None -> ());
          let fl =
            { fm = Mutex.create (); fc = Condition.create (); f_state = None }
          in
          Hashtbl.replace t.inflight digest fl;
          Mutex.unlock t.m;
          let finish (r : ('v outcome, exn) Stdlib.result) : 'v outcome =
            Mutex.lock t.m;
            Hashtbl.remove t.inflight digest;
            (match r with
            | Ok o when not o.o_degraded -> lru_insert t digest o.o_result
            | _ -> ());
            Mutex.unlock t.m;
            (* feed the breaker: a clean result closes the key, a
               failure or a fell-back sweep counts against it; deadline
               expiry is queue latency, not the key's fault *)
            (match t.breaker with
            | Some b -> (
                match r with
                | Ok o when not o.o_degraded -> Breaker.success b digest
                | Ok o when o.o_deadline_expired -> ()
                | Ok _ | Error _ -> Breaker.failure b digest)
            | None -> ());
            Mutex.lock fl.fm;
            fl.f_state <- Some r;
            Condition.broadcast fl.fc;
            Mutex.unlock fl.fm;
            match r with Ok o -> o | Error e -> raise e
          in
          let timed () =
            let t0 = A.Jit.Clock.now_s () in
            let c = Faultpoint.wrap fp_compute compute in
            (c, (A.Jit.Clock.now_s () -. t0) *. 1000.)
          in
          finish
            (match
               Tuner.through_disk ?dir:t.cache_dir ~on_event:t.on_event
                 ~fell_back:t.fell_back
                 ~swept:(fun (c, _) ->
                   if c.c_deadline_expired then None else Some c.c_result)
                 key ~compute:timed
             with
            | exception e -> Error e
            | Tuner.Loaded r ->
                Ok
                  { o_result = r; o_tier = Proto.T_disk; o_degraded = false;
                    o_deadline_expired = false; o_tuning_ms = 0. }
            | Tuner.Computed ({ c_result; c_deadline_expired }, tuning_ms) ->
                Ok
                  {
                    o_result = c_result;
                    o_tier = Proto.T_tuned;
                    o_degraded = c_deadline_expired || t.fell_back c_result;
                    o_deadline_expired = c_deadline_expired;
                    o_tuning_ms = tuning_ms;
                  }))
