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

let log_src = Logs.Src.create "augem.serve" ~doc:"AUGEM kernel service"

module Log = (val Logs.src_log log_src)

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
  registry : Registry.t;
  sched : Scheduler.t;
  mutable stop : bool;
  mutable listen_fd : Unix.file_descr option;
  clients : (Unix.file_descr, unit) Hashtbl.t;
  cm : Mutex.t;  (* stop / listen_fd / clients *)
  (* blocked-DGEMM plans by (arch, precision, m, n, k): a plan bundles
     three tuned kernels plus a blocking sweep, so it gets its own memo
     rather than riding the per-kernel registry.  Degraded plans are
     never stored (same contract as the tuner's fallback-no-cache
     rule). *)
  bplans : (string * string * int * int * int, A.Blocked.plan * float) Hashtbl.t;
  bm : Mutex.t;  (* bplans *)
}

let create ?(now = Unix.gettimeofday) ?(config = default_config) () : t =
  let metrics = Metrics.create ~now () in
  (* the cache dir may hold debris of a previous instance killed
     mid-store: quarantine it before the first lookup can see it *)
  (match config.cfg_cache_dir with
  | Some dir when config.cfg_recover ->
      let r = Cache.recover ~dir () in
      let quarantined = r.Cache.rc_quarantined + r.Cache.rc_tmp_quarantined in
      Metrics.set_cache_recovery metrics ~recovered:r.Cache.rc_valid
        ~quarantined;
      if quarantined > 0 then
        Log.warn (fun m ->
            m "cache recovery: %d valid, %d quarantined (%d torn, %d tmp)"
              r.Cache.rc_valid quarantined r.Cache.rc_quarantined
              r.Cache.rc_tmp_quarantined)
  | _ -> ());
  let breaker =
    if config.cfg_breaker_threshold > 0 then
      Some
        (Breaker.create ~threshold:config.cfg_breaker_threshold
           ~cooldown_s:(config.cfg_breaker_cooldown_ms /. 1000.)
           ~now ())
    else None
  in
  let registry =
    Registry.create ~lru_capacity:config.cfg_lru
      ?cache_dir:config.cfg_cache_dir ?breaker
      ~on_event:(fun ~arch ~kernel ev ->
        Metrics.record_cache_event metrics ev;
        (* keep feeding the process-wide accounting path (CLI, logs) *)
        Tuner.notify_cache_event ~arch ~kernel ev)
      ()
  in
  let sched =
    Scheduler.create ~workers:config.cfg_workers ~capacity:config.cfg_queue
      ~restart_budget:config.cfg_restart_budget ~now ()
  in
  {
    cfg = config;
    now;
    metrics;
    registry;
    sched;
    stop = false;
    listen_fd = None;
    clients = Hashtbl.create 8;
    cm = Mutex.create ();
    bplans = Hashtbl.create 4;
    bm = Mutex.create ();
  }

let metrics t = t.metrics
let registry t = t.registry
let scheduler t = t.sched
let config t = t.cfg
let stopping t = Mutex.protect t.cm (fun () -> t.stop)

let request_stop (t : t) : unit =
  (* may run inside a signal handler: no logging, just flag + nudge *)
  t.stop <- true;
  match t.listen_fd with
  | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
  | None -> ()

let drain (t : t) : unit = Scheduler.shutdown t.sched

(* --- request handling ---------------------------------------------------- *)

let handle_tune (t : t) (id : Json.t) (tq : Proto.tune_request) :
    Proto.response =
  let t0 = t.now () in
  let arch = tq.Proto.tq_arch in
  let kernel = tq.Proto.tq_kernel in
  let et = tq.Proto.tq_et in
  let fp = match et with Etype.F32 -> Some A.Ir.Ast.Float | Etype.F64 -> None in
  let space =
    match tq.Proto.tq_space with
    | Some s -> s
    | None -> Tuner.space_for kernel
  in
  let deadline_ms =
    match tq.Proto.tq_deadline_ms with
    | Some _ as d -> d
    | None -> t.cfg.cfg_deadline_ms
  in
  let deadline = Option.map (fun ms -> t0 +. (ms /. 1000.)) deadline_ms in
  (* did THIS request's job die with its worker?  (A coalesced waiter
     handed a lost leader's baseline sees it as an ordinary fallback.) *)
  let lost = ref false in
  let compute () : Registry.computed =
    let job () = Tuner.tune ~et ~jobs:t.cfg.cfg_tune_jobs ~space arch kernel in
    match Scheduler.submit t.sched ?deadline job with
    | None ->
        raise
          (Proto.Overload
             (Printf.sprintf "queue at capacity (%d)"
                (Scheduler.capacity t.sched)))
    | Some fut -> (
        match Scheduler.await fut with
        | Scheduler.Done r ->
            { Registry.c_result = r; c_deadline_expired = false }
        | Scheduler.Expired ->
            (* the deadline passed while the job was queued: degrade to
               the safe baseline via the tuner's fallback path (an
               empty space falls back by construction) *)
            let r = Tuner.tune ~et ~space:[] arch kernel in
            { Registry.c_result = r; c_deadline_expired = true }
        | Scheduler.Lost ->
            (* the worker running the sweep died: the supervisor is
               respawning it, and this request degrades to the safe
               baseline instead of failing or hanging *)
            lost := true;
            let r = Tuner.tune ~et ~space:[] arch kernel in
            { Registry.c_result = r; c_deadline_expired = false }
        | Scheduler.Failed e -> raise e)
  in
  let respond (rs_result : (Proto.reply, Proto.error) Stdlib.result) =
    Metrics.observe_request_ms t.metrics ((t.now () -. t0) *. 1000.);
    { Proto.rs_id = id; rs_result }
  in
  let kernel_reply ?(breaker_open = false) (o : Registry.outcome) : Proto.reply
      =
    let r = o.Registry.o_result in
    let assembly =
      Att.program_to_string ~et ~avx:(arch.Arch.simd = Arch.AVX)
        r.Tuner.best_program
    in
    Proto.R_kernel
      {
        rk_kernel = Kernels.name_to_string ?fp kernel;
        rk_arch = arch.Arch.name;
        rk_assembly = assembly;
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
  match
    Registry.find_or_compute t.registry ~et ~arch ~kernel ~space ~compute
  with
  | exception Proto.Overload detail ->
      Metrics.incr_overload t.metrics;
      respond (Error { Proto.e_code = Proto.e_overload; e_detail = detail })
  | exception Breaker.Open_circuit _ ->
      (* the key's circuit is open: serve the safe baseline immediately
         (annotated, degraded) rather than queueing another doomed
         sweep.  The baseline needs no sweep, so it runs inline. *)
      Metrics.incr_degraded_breaker t.metrics;
      let r = Tuner.tune ~et ~space:[] arch kernel in
      respond
        (Ok
           (kernel_reply ~breaker_open:true
              {
                Registry.o_result = r;
                o_tier = Proto.T_tuned;
                o_degraded = true;
                o_deadline_expired = false;
                o_tuning_ms = 0.;
              }))
  | exception Tuner.No_viable_configuration detail ->
      Metrics.incr_errors t.metrics;
      respond (Error { Proto.e_code = Proto.e_internal; e_detail = detail })
  | exception e ->
      Metrics.incr_errors t.metrics;
      respond
        (Error
           { Proto.e_code = Proto.e_internal; e_detail = Printexc.to_string e })
  | o ->
      Metrics.incr_tier t.metrics o.Registry.o_tier;
      if o.Registry.o_deadline_expired then
        Metrics.incr_degraded_deadline t.metrics
      else if !lost then Metrics.incr_degraded_lost t.metrics
      else if o.Registry.o_degraded then
        Metrics.incr_degraded_fell_back t.metrics;
      if o.Registry.o_tier = Proto.T_tuned then
        Metrics.observe_tuning_ms t.metrics o.Registry.o_tuning_ms;
      respond (Ok (kernel_reply o))

(* --- blocked-DGEMM planning ---------------------------------------------- *)

(* The safe-baseline plan: the degradation target when a blocked
   request's deadline expires or its worker dies.  No sweep — the
   baseline micro-kernel with the analytically-derived blocking and
   baseline packing and SCAL kernels, all generated inline. *)
let baseline_plan ~(et : Etype.t) ~(workload : Perf.workload) (arch : Arch.t)
    : A.Blocked.plan =
  let bb = Tuner.tune_blocked ~et ~workload ~space:[] arch in
  let pa = Tuner.tune ~et ~space:[] arch Kernels.Pack_a in
  let pb = Tuner.tune ~et ~space:[] arch Kernels.Pack_b in
  let sc = Tuner.tune ~et ~space:[] arch Kernels.Scal in
  {
    A.Blocked.pl_arch = arch;
    pl_et = et;
    pl_blocking = bb.Tuner.bb_blocking;
    pl_mr = bb.Tuner.bb_mr;
    pl_nr = bb.Tuner.bb_nr;
    pl_micro = bb.Tuner.bb_program;
    pl_micro_config = bb.Tuner.bb_candidate;
    pl_pack_a = pa.Tuner.best_program;
    pl_pack_b = pb.Tuner.best_program;
    pl_scal = sc.Tuner.best_program;
    pl_blocked_mflops = bb.Tuner.bb_blocked_score;
    pl_streamed_mflops = bb.Tuner.bb_streamed_score;
  }

let handle_blocked (t : t) (id : Json.t) (bq : Proto.blocked_request) :
    Proto.response =
  let t0 = t.now () in
  let arch = bq.Proto.bq_arch in
  let et = bq.Proto.bq_et in
  let m = bq.Proto.bq_m and n = bq.Proto.bq_n and k = bq.Proto.bq_k in
  let key = (arch.Arch.name, Etype.name et, m, n, k) in
  let workload = Perf.W_gemm { m; n; k } in
  let deadline_ms =
    match bq.Proto.bq_deadline_ms with
    | Some _ as d -> d
    | None -> t.cfg.cfg_deadline_ms
  in
  let deadline = Option.map (fun ms -> t0 +. (ms /. 1000.)) deadline_ms in
  let respond (rs_result : (Proto.reply, Proto.error) Stdlib.result) =
    Metrics.observe_request_ms t.metrics ((t.now () -. t0) *. 1000.);
    { Proto.rs_id = id; rs_result }
  in
  let reply ~tier ~degraded ~tuning_ms (p : A.Blocked.plan) : Proto.reply =
    let avx = arch.Arch.simd = Arch.AVX in
    let bl = p.A.Blocked.pl_blocking in
    Proto.R_blocked
      {
        rb_arch = arch.Arch.name;
        rb_mc = bl.Mem_model.bl_mc;
        rb_kc = bl.Mem_model.bl_kc;
        rb_nc = bl.Mem_model.bl_nc;
        rb_mr = p.A.Blocked.pl_mr;
        rb_nr = p.A.Blocked.pl_nr;
        rb_micro_config =
          A.Transform.Pipeline.config_to_string
            p.A.Blocked.pl_micro_config.Tuner.cand_config;
        rb_micro_assembly =
          Att.program_to_string ~et ~avx p.A.Blocked.pl_micro;
        rb_pack_a_assembly =
          Att.program_to_string ~et ~avx p.A.Blocked.pl_pack_a;
        rb_pack_b_assembly =
          Att.program_to_string ~et ~avx p.A.Blocked.pl_pack_b;
        rb_blocked_mflops =
          (A.Blocked.predict p workload).Perf.e_mflops;
        rb_streamed_mflops =
          (A.Blocked.predict_streamed p workload).Perf.e_mflops;
        rb_tier = tier;
        rb_degraded = degraded;
        rb_tuning_ms = tuning_ms;
      }
  in
  match Mutex.protect t.bm (fun () -> Hashtbl.find_opt t.bplans key) with
  | Some (p, _) ->
      Metrics.incr_tier t.metrics Proto.T_memory;
      respond (Ok (reply ~tier:Proto.T_memory ~degraded:false ~tuning_ms:0. p))
  | None -> (
      (* no single-flight here: concurrent identical blocked requests
         each run their own sweep (the plan memo only dedupes across
         time).  Plans are requested rarely enough that coalescing
         machinery isn't worth its states. *)
      let job () =
        A.Blocked.plan ~et ~jobs:t.cfg.cfg_tune_jobs ~workload arch
      in
      match Scheduler.submit t.sched ?deadline job with
      | None ->
          Metrics.incr_overload t.metrics;
          respond
            (Error
               {
                 Proto.e_code = Proto.e_overload;
                 e_detail =
                   Printf.sprintf "queue at capacity (%d)"
                     (Scheduler.capacity t.sched);
               })
      | Some fut -> (
          let degrade counter =
            counter t.metrics;
            Metrics.incr_tier t.metrics Proto.T_tuned;
            match baseline_plan ~et ~workload arch with
            | p ->
                respond
                  (Ok (reply ~tier:Proto.T_tuned ~degraded:true ~tuning_ms:0. p))
            | exception Tuner.No_viable_configuration detail ->
                Metrics.incr_errors t.metrics;
                respond
                  (Error { Proto.e_code = Proto.e_internal; e_detail = detail })
          in
          match Scheduler.await fut with
          | Scheduler.Done p ->
              let tuning_ms = (t.now () -. t0) *. 1000. in
              Mutex.protect t.bm (fun () ->
                  Hashtbl.replace t.bplans key (p, tuning_ms));
              Metrics.incr_tier t.metrics Proto.T_tuned;
              Metrics.observe_tuning_ms t.metrics tuning_ms;
              respond
                (Ok (reply ~tier:Proto.T_tuned ~degraded:false ~tuning_ms p))
          | Scheduler.Expired -> degrade Metrics.incr_degraded_deadline
          | Scheduler.Lost -> degrade Metrics.incr_degraded_lost
          | Scheduler.Failed (Tuner.No_viable_configuration detail) ->
              Metrics.incr_errors t.metrics;
              respond
                (Error { Proto.e_code = Proto.e_internal; e_detail = detail })
          | Scheduler.Failed e ->
              Metrics.incr_errors t.metrics;
              respond
                (Error
                   {
                     Proto.e_code = Proto.e_internal;
                     e_detail = Printexc.to_string e;
                   })))

let handle_request (t : t) (rq : Proto.request) : Proto.response =
  let id = rq.Proto.rq_id in
  match rq.Proto.rq_op with
  | Proto.Op_ping ->
      Metrics.incr_request t.metrics "ping";
      { Proto.rs_id = id; rs_result = Ok Proto.R_pong }
  | Proto.Op_stats ->
      Metrics.incr_request t.metrics "stats";
      (* refresh the resilience gauges from their owning components so
         the snapshot can't drift from the real counters *)
      Metrics.set_workers t.metrics
        ~live:(Scheduler.live_workers t.sched)
        ~deaths:(Scheduler.worker_deaths t.sched)
        ~restarts:(Scheduler.worker_restarts t.sched);
      (match Registry.breaker t.registry with
      | Some b ->
          Metrics.set_breaker t.metrics ~open_now:(Breaker.open_now b)
            ~opened_total:(Breaker.opened_total b)
            ~rejected:(Breaker.rejected_total b)
      | None -> ());
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
        match Metrics.snapshot t.metrics with
        | Json.Obj fields -> Json.Obj (fields @ [ native ])
        | j -> j
      in
      { Proto.rs_id = id; rs_result = Ok (Proto.R_stats stats) }
  | Proto.Op_shutdown ->
      Metrics.incr_request t.metrics "shutdown";
      (* also unblocks a parked accept loop, like SIGINT/SIGTERM *)
      request_stop t;
      { Proto.rs_id = id; rs_result = Ok Proto.R_shutting_down }
  | Proto.Op_tune tq ->
      Metrics.incr_request t.metrics "tune";
      if stopping t then
        {
          Proto.rs_id = id;
          rs_result =
            Error
              {
                Proto.e_code = Proto.e_shutting_down;
                e_detail = "server is shutting down";
              };
        }
      else handle_tune t id tq
  | Proto.Op_blocked bq ->
      Metrics.incr_request t.metrics "blocked";
      if stopping t then
        {
          Proto.rs_id = id;
          rs_result =
            Error
              {
                Proto.e_code = Proto.e_shutting_down;
                e_detail = "server is shutting down";
              };
        }
      else handle_blocked t id bq

let handle_line (t : t) (line : string) : string =
  match Proto.parse_request line with
  | Error (id, e) ->
      Metrics.incr_request t.metrics "bad";
      Proto.response_line { Proto.rs_id = id; rs_result = Error e }
  | Ok rq -> (
      match
        Faultpoint.hit fp_handle;
        handle_request t rq
      with
      | rs -> Proto.response_line rs
      | exception e ->
          (* handle_request is supposed to be total; backstop anyway *)
          Metrics.incr_errors t.metrics;
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

let untrack_client (t : t) (fd : Unix.file_descr) : unit =
  Mutex.protect t.cm (fun () -> Hashtbl.remove t.clients fd)

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
  untrack_client t fd;
  try Unix.close fd with _ -> ()

let serve_socket (t : t) (path : string) : unit =
  (* a client that disconnects mid-response must surface as EPIPE in
     the handler thread, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink path with _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 64;
  Mutex.protect t.cm (fun () -> t.listen_fd <- Some listen_fd);
  Log.info (fun m -> m "listening on %s" path);
  let threads = ref [] in
  let rec accept_loop () =
    if stopping t then ()
    else
      match Unix.accept listen_fd with
      | fd, _ ->
          track_client t fd;
          threads := Thread.create (fun () -> serve_client t fd) () :: !threads;
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
     reaches its client — then join *)
  let fds = Mutex.protect t.cm (fun () -> Hashtbl.fold (fun fd () acc -> fd :: acc) t.clients []) in
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
    fds;
  List.iter Thread.join !threads;
  (try Unix.unlink path with _ -> ());
  drain t
