(* The compile-and-serve runtime.  See server.mli. *)

module A = Augem
module Tuner = A.Tuner
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module Att = A.Machine.Att
module Json = A.Json
module Perf = A.Sim.Perf
module Mem_model = A.Sim.Mem_model
module Cache = A.Tuning_cache
module Etype = A.Machine.Etype
module Faultpoint = Augem_resilience.Faultpoint
module Breaker = Augem_resilience.Breaker

let fp_handle = "server.handle"
let () = Faultpoint.register fp_handle

type config = {
  cfg_workers : int;
  cfg_queue : int;
  cfg_lru : int;
  cfg_cache_dir : string option;
  cfg_deadline_ms : float option;
  cfg_tune_jobs : int;
  cfg_breaker_threshold : int;
  cfg_breaker_cooldown_ms : float;
  cfg_restart_budget : int;
  cfg_recover : bool;
}

let default_config =
  {
    cfg_workers = 1;
    cfg_queue = 8;
    cfg_lru = 64;
    cfg_cache_dir = None;
    cfg_deadline_ms = None;
    cfg_tune_jobs = 1;
    cfg_breaker_threshold = 3;
    cfg_breaker_cooldown_ms = 30_000.;
    cfg_restart_budget = 8;
    cfg_recover = true;
  }

type t = {
  cfg : config;
  now : unit -> float;
  metrics : Metrics.t;
  registry : Tuner.result Registry.t;
  plans : A.Blocked.plan Registry.t;
  sched : Scheduler.t;
  recovered : int;  (* cache entries the boot-time recovery kept *)
  quarantined : int;  (* and the ones it moved aside *)
  mutable stop : bool;
  mutable listen_fd : Unix.file_descr option;
  clients : (Unix.file_descr, unit) Hashtbl.t;
  cm : Mutex.t;  (* stop / listen_fd / clients *)
  no_clients : Condition.t;  (* signalled when [clients] empties *)
}

let create ?(now = A.Jit.Clock.now_s) ?(config = default_config) () : t =
  let metrics = Metrics.create ~now () in
  (* the cache dir may hold debris of a previous instance killed
     mid-store: quarantine it before the first lookup can see it *)
  let recovered, quarantined =
    match config.cfg_cache_dir with
    | Some dir when config.cfg_recover ->
        let r = Cache.recover ~dir () in
        (r.Cache.rc_valid, r.Cache.rc_quarantined + r.Cache.rc_tmp_quarantined)
    | _ -> (0, 0)
  in
  let breaker =
    if config.cfg_breaker_threshold > 0 then
      Some
        (Breaker.create ~threshold:config.cfg_breaker_threshold
           ~cooldown_s:(config.cfg_breaker_cooldown_ms /. 1000.)
           ~now ())
    else None
  in
  (* kernels and plans: one bound, cache dir, breaker and event sink *)
  let registry fell_back =
    Registry.create ~lru_capacity:config.cfg_lru
      ?cache_dir:config.cfg_cache_dir ?breaker
      ~on_event:(Metrics.record_cache_event metrics)
      ~fell_back ()
  in
  let sched =
    Scheduler.create ~workers:config.cfg_workers ~capacity:config.cfg_queue
      ~restart_budget:config.cfg_restart_budget ~now ()
  in
  {
    cfg = config;
    now;
    metrics;
    registry = registry (fun r -> r.Tuner.fell_back);
    plans = registry (fun p -> p.A.Blocked.pl_fell_back);
    sched;
    recovered;
    quarantined;
    stop = false;
    listen_fd = None;
    clients = Hashtbl.create 8;
    cm = Mutex.create ();
    no_clients = Condition.create ();
  }

let metrics t = t.metrics
let registry t = t.registry
let plans t = t.plans
let scheduler t = t.sched
let stopping t = Mutex.protect t.cm (fun () -> t.stop)

let request_stop (t : t) : unit =
  (* may run inside a signal handler: no logging, just flag + nudge *)
  t.stop <- true;
  match t.listen_fd with
  | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
  | None -> ()

let drain (t : t) : unit = Scheduler.shutdown t.sched

(* --- request handling ---------------------------------------------------- *)

(* The one request path of [tune] and [blocked]: registry tiers and
   single-flight in front of the bounded scheduler.  Every degradation
   (deadline expiry, a lost worker, an open circuit) is served as
   [baseline ()], which needs no sweep and so runs inline.  The ops
   differ only in [sweep], [baseline] and [reply]. *)
let handle_cached (t : t) (id : Json.t) (reg : 'v Registry.t)
    (key : Cache.key) ~(deadline_ms : float option) ~(sweep : unit -> 'v)
    ~(baseline : unit -> 'v)
    ~(reply : breaker_open:bool -> 'v Registry.outcome -> Proto.reply) :
    Proto.response =
  let t0 = t.now () in
  let deadline_ms =
    match deadline_ms with Some _ as d -> d | None -> t.cfg.cfg_deadline_ms
  in
  let deadline = Option.map (fun ms -> t0 +. (ms /. 1000.)) deadline_ms in
  (* did THIS request's job die with its worker?  (A coalesced waiter
     handed a lost leader's baseline sees it as an ordinary fallback.) *)
  let lost = ref false in
  let compute () : 'v Registry.computed =
    match Scheduler.submit t.sched ?deadline sweep with
    | None ->
        raise
          (Proto.Overload
             (Printf.sprintf "queue at capacity (%d)"
                (Scheduler.capacity t.sched)))
    | Some fut -> (
        match Scheduler.await fut with
        | Scheduler.Done r ->
            { Registry.c_result = r; c_deadline_expired = false }
        | Scheduler.Failed e -> raise e
        | (Scheduler.Expired | Scheduler.Lost) as why ->
            (* the deadline passed while the job was queued, or the
               worker running the sweep died (the supervisor respawns
               it): degrade to the safe baseline instead of failing or
               hanging *)
            lost := why = Scheduler.Lost;
            {
              Registry.c_result = baseline ();
              c_deadline_expired = why = Scheduler.Expired;
            })
  in
  let respond (rs_result : (Proto.reply, Proto.error) Stdlib.result) =
    Metrics.observe_request_ms t.metrics ((t.now () -. t0) *. 1000.);
    { Proto.rs_id = id; rs_result }
  in
  let internal e =
    Metrics.incr t.metrics Metrics.Errors;
    let e_detail =
      match e with
      | Tuner.No_viable_configuration detail -> detail
      | e -> Printexc.to_string e
    in
    respond (Error { Proto.e_code = Proto.e_internal; e_detail })
  in
  match Registry.find_or_compute reg key ~compute with
  | exception Proto.Overload detail ->
      Metrics.incr t.metrics Metrics.Overload;
      respond (Error { Proto.e_code = Proto.e_overload; e_detail = detail })
  | exception Breaker.Open_circuit _ -> (
      (* the key's circuit is open: serve the safe baseline immediately
         (annotated, degraded) rather than queueing another doomed
         sweep *)
      Metrics.incr t.metrics Metrics.Degraded_breaker;
      match baseline () with
      | exception e -> internal e
      | r ->
          respond
            (Ok
               (reply ~breaker_open:true
                  {
                    Registry.o_result = r;
                    o_tier = Proto.T_tuned;
                    o_degraded = true;
                    o_deadline_expired = false;
                    o_tuning_ms = 0.;
                  })))
  | exception e -> internal e
  | o ->
      Metrics.incr t.metrics (Metrics.Tier o.Registry.o_tier);
      if o.Registry.o_deadline_expired then
        Metrics.incr t.metrics Metrics.Degraded_deadline
      else if !lost then Metrics.incr t.metrics Metrics.Degraded_lost
      else if o.Registry.o_degraded then
        Metrics.incr t.metrics Metrics.Degraded_fell_back;
      if o.Registry.o_tier = Proto.T_tuned then
        Metrics.observe_tuning_ms t.metrics o.Registry.o_tuning_ms;
      respond (Ok (reply ~breaker_open:false o))

let handle_tune (t : t) (id : Json.t) (tq : Proto.tune_request) :
    Proto.response =
  let arch = tq.Proto.tq_arch in
  let kernel = tq.Proto.tq_kernel in
  let et = tq.Proto.tq_et in
  let name = Kernels.name_to_string ?fp:(Tuner.fp_of_et et) kernel in
  let space =
    match tq.Proto.tq_space with
    | Some s -> s
    | None -> Tuner.space_for kernel
  in
  (* the tuner's own content address: f32 under the s-prefixed name *)
  let key =
    Tuner.cache_key ~arch:arch.Arch.name ~name
      ~fingerprint:(Tuner.space_fingerprint space)
  in
  let reply ~breaker_open (o : Tuner.result Registry.outcome) : Proto.reply =
    let r = o.Registry.o_result in
    Proto.R_kernel
      {
        rk_kernel = name;
        rk_arch = arch.Arch.name;
        rk_assembly =
          Att.program_to_string ~et ~avx:(arch.Arch.simd = Arch.AVX)
            r.Tuner.best_program;
        rk_provenance =
          {
            Proto.pv_tier = o.Registry.o_tier;
            pv_config =
              A.Transform.Pipeline.config_to_string
                r.Tuner.best.Tuner.cand_config;
            pv_mflops = r.Tuner.best_score;
            pv_visited = r.Tuner.visited;
            pv_discarded = r.Tuner.discarded;
            pv_fell_back = r.Tuner.fell_back;
            pv_deadline_expired = o.Registry.o_deadline_expired;
            pv_breaker_open = breaker_open;
            pv_tuning_ms = o.Registry.o_tuning_ms;
          };
        rk_degraded = o.Registry.o_degraded;
      }
  in
  handle_cached t id t.registry key ~deadline_ms:tq.Proto.tq_deadline_ms
    ~sweep:(fun () ->
      Tuner.tune ~et ~jobs:t.cfg.cfg_tune_jobs ~space arch kernel)
    ~baseline:(fun () -> Tuner.tune ~et ~space:[] arch kernel)
    ~reply

(* A plan is addressed by its precision-prefixed name ("blocked-dgemm",
   "blocked-sgemm"), the shape its blocking is tuned for, and the
   spaces of its four sweeps (micro-kernel, pack-A, pack-B, SCAL). *)
let plan_key ~(et : Etype.t) (arch : Arch.t) ~m ~n ~k : Cache.key =
  let spaces =
    List.concat_map Tuner.space_for Kernels.[ Gemm; Pack_a; Pack_b; Scal ]
  in
  Tuner.cache_key ~arch:arch.Arch.name
    ~name:("blocked-" ^ Etype.blas_prefix et ^ "gemm")
    ~fingerprint:
      (Printf.sprintf "m=%d,n=%d,k=%d,%s" m n k
         (Tuner.space_fingerprint spaces))

let handle_blocked (t : t) (id : Json.t) (bq : Proto.blocked_request) :
    Proto.response =
  let arch = bq.Proto.bq_arch in
  let et = bq.Proto.bq_et in
  let m = bq.Proto.bq_m and n = bq.Proto.bq_n and k = bq.Proto.bq_k in
  let workload = Perf.W_gemm { m; n; k } in
  let reply ~breaker_open:_ (o : A.Blocked.plan Registry.outcome) :
      Proto.reply =
    let p = o.Registry.o_result in
    let avx = arch.Arch.simd = Arch.AVX in
    let bl = p.A.Blocked.pl_blocking in
    let micro = A.Blocked.micro p in
    let loop = A.Blocked.analyze p in
    let listing prog = Att.program_to_string ~et ~avx prog in
    Proto.R_blocked
      {
        rb_arch = arch.Arch.name;
        rb_mc = bl.Mem_model.bl_mc;
        rb_kc = bl.Mem_model.bl_kc;
        rb_nc = bl.Mem_model.bl_nc;
        rb_mr = micro.Tuner.bm_mr;
        rb_nr = micro.Tuner.bm_nr;
        rb_micro_config =
          A.Transform.Pipeline.config_to_string
            micro.Tuner.bm_candidate.Tuner.cand_config;
        rb_micro_assembly = listing micro.Tuner.bm_program;
        rb_pack_a_assembly =
          listing p.A.Blocked.pl_pack_a.Tuner.best_program;
        rb_pack_b_assembly =
          listing p.A.Blocked.pl_pack_b.Tuner.best_program;
        rb_blocked_mflops = (A.Blocked.predict ~loop p workload).Perf.e_mflops;
        rb_streamed_mflops =
          (A.Blocked.predict_streamed ~loop p workload).Perf.e_mflops;
        rb_tier = o.Registry.o_tier;
        rb_degraded = o.Registry.o_degraded;
        rb_tuning_ms = o.Registry.o_tuning_ms;
      }
  in
  handle_cached t id t.plans (plan_key ~et arch ~m ~n ~k)
    ~deadline_ms:bq.Proto.bq_deadline_ms
    ~sweep:(fun () ->
      (* a served plan is never loaded natively, so the registry keeps
         none of the micro-kernel members a native load times *)
      A.Blocked.drop_ties
        (A.Blocked.plan ~et ~jobs:t.cfg.cfg_tune_jobs ~workload arch))
    ~baseline:(fun () -> A.Blocked.baseline_plan ~et ~workload arch)
    ~reply

let op_name : Proto.op -> string = function
  | Proto.Op_ping -> "ping"
  | Proto.Op_stats -> "stats"
  | Proto.Op_shutdown -> "shutdown"
  | Proto.Op_tune _ -> "tune"
  | Proto.Op_blocked _ -> "blocked"

let handle_request (t : t) (rq : Proto.request) : Proto.response =
  let answer rs_result = { Proto.rs_id = rq.Proto.rq_id; rs_result } in
  Metrics.incr t.metrics (Metrics.Request (op_name rq.Proto.rq_op));
  match rq.Proto.rq_op with
  | Proto.Op_ping -> answer (Ok Proto.R_pong)
  | Proto.Op_stats ->
      (* the resilience gauges, read from the components that own them *)
      let breaker gauge =
        match Registry.breaker t.registry with Some b -> gauge b | None -> 0
      in
      let resilience =
        [
          ("worker_live", Scheduler.live_workers t.sched);
          ("worker_deaths", Scheduler.worker_deaths t.sched);
          ("worker_restarts", Scheduler.worker_restarts t.sched);
          ("breaker_open", breaker Breaker.open_now);
          ("breaker_open_total", breaker Breaker.opened_total);
          ("breaker_rejected", breaker Breaker.rejected_total);
          ("cache_recovered", t.recovered);
          ("cache_quarantined", t.quarantined);
        ]
      in
      (* host native-execution capability: whether this server could JIT
         and run generated kernels, and which SIMD features cpuid
         reports.  Static per process, so appended at snapshot time
         rather than tracked as a metric. *)
      let native =
        ( "native",
          Json.Obj
            (("supported", Json.Bool (A.Native_check.host_supported ()))
            :: List.map
                 (fun (n, b) -> (n, Json.Bool b))
                 (A.Native_check.host_features ())) )
      in
      let stats =
        match Metrics.snapshot t.metrics ~resilience with
        | Json.Obj fields -> Json.Obj (fields @ [ native ])
        | j -> j
      in
      answer (Ok (Proto.R_stats stats))
  | Proto.Op_shutdown ->
      (* also unblocks a parked accept loop, like SIGINT/SIGTERM *)
      request_stop t;
      answer (Ok Proto.R_shutting_down)
  | (Proto.Op_tune _ | Proto.Op_blocked _) when stopping t ->
      answer
        (Error
           {
             Proto.e_code = Proto.e_shutting_down;
             e_detail = "server is shutting down";
           })
  | Proto.Op_tune tq -> handle_tune t rq.Proto.rq_id tq
  | Proto.Op_blocked bq -> handle_blocked t rq.Proto.rq_id bq

let handle_line (t : t) (line : string) : string =
  match Proto.parse_request line with
  | Error (id, e) ->
      Metrics.incr t.metrics (Metrics.Request "bad");
      Proto.response_line { Proto.rs_id = id; rs_result = Error e }
  | Ok rq -> (
      match
        Faultpoint.hit fp_handle;
        handle_request t rq
      with
      | rs -> Proto.response_line rs
      | exception e ->
          (* handle_request is supposed to be total; backstop anyway *)
          Metrics.incr t.metrics Metrics.Errors;
          Proto.response_line
            {
              Proto.rs_id = rq.Proto.rq_id;
              rs_result =
                Error
                  {
                    Proto.e_code = Proto.e_internal;
                    e_detail = Printexc.to_string e;
                  };
            })

(* --- transports ---------------------------------------------------------- *)

let serve_stdio (t : t) : unit =
  let rec loop () =
    if stopping t then ()
    else
      match In_channel.input_line In_channel.stdin with
      | None -> ()
      | Some line when String.trim line = "" -> loop ()
      | Some line ->
          print_string (handle_line t line);
          print_newline ();
          flush stdout;
          loop ()
  in
  loop ();
  drain t

let track_client (t : t) (fd : Unix.file_descr) : unit =
  Mutex.protect t.cm (fun () -> Hashtbl.replace t.clients fd ())

(* Forget and close a client's socket in one step under [cm], so
   [serve_socket] never shuts down a descriptor that is already closed
   or reused. *)
let untrack_client (t : t) (fd : Unix.file_descr) : unit =
  Mutex.protect t.cm (fun () ->
      Hashtbl.remove t.clients fd;
      (try Unix.close fd with _ -> ());
      if Hashtbl.length t.clients = 0 then Condition.broadcast t.no_clients)

let serve_client (t : t) (fd : Unix.file_descr) : unit =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line when String.trim line = "" -> loop ()
    | Some line ->
        output_string oc (handle_line t line);
        output_char oc '\n';
        flush oc;
        if not (stopping t) then loop ()
  in
  (try loop () with Sys_error _ | End_of_file -> ());
  untrack_client t fd

let serve_socket (t : t) (path : string) : unit =
  (* a client that disconnects mid-response must surface as EPIPE in
     the handler thread, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink path with _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 64;
  Mutex.protect t.cm (fun () -> t.listen_fd <- Some listen_fd);
  (* a client's thread ends when its client does; only the [clients]
     table remembers it, so the daemon holds nothing per past client *)
  let rec accept_loop () =
    if stopping t then ()
    else
      match Unix.accept listen_fd with
      | fd, _ ->
          track_client t fd;
          ignore (Thread.create (fun () -> serve_client t fd) ());
          accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ ->
          (* listen socket shut down under us: stop *)
          ()
  in
  accept_loop ();
  Mutex.protect t.cm (fun () ->
      t.stop <- true;
      t.listen_fd <- None);
  (try Unix.close listen_fd with _ -> ());
  (* unblock every client still parked in a read — receive side only,
     so a response already being written (e.g. the shutdown ack) still
     reaches its client — then wait until every client has closed *)
  Mutex.protect t.cm (fun () ->
      Hashtbl.iter
        (fun fd () -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
        t.clients;
      while Hashtbl.length t.clients > 0 do
        Condition.wait t.no_clients t.cm
      done);
  (try Unix.unlink path with _ -> ());
  drain t
