(* The serving workloads: closed-loop clients calling
   [Server.handle_line] on an in-process server with no disk tier.  A
   request is timed from the line going in to the reply line coming
   out.

   serve-cold: one client sends every key once per pass, in a seeded
   order, to a fresh server — every request misses every tier, so the
   latency is the time to a tuned kernel.  Passes are whole, so each
   run weighs the slow keys (GEMM sweeps, blocked plans) alike.

   serve-mixed: two clients (the host's core count) draw keys with
   one-candidate spaces, 85% from the warm set that fits the LRU and
   15% from keys that miss, insert and evict. *)

module A = Augem
module Et = A.Machine.Etype
module Arch = A.Machine.Arch
module Att = A.Machine.Att
module Kernels = A.Ir.Kernels
module Tuner = A.Tuner
module Json = A.Json
module Lower = A.Driver.Lower
module Trace = A.Driver.Trace
module Proto = Augem_service.Proto
module Server = Augem_service.Server

type key =
  | Tune of {
      kernel : Kernels.name;
      arch : Arch.t;
      et : Et.t;
      space : Tuner.candidate list option;  (** [None]: the default space *)
    }
  | Plan of { arch : Arch.t; et : Et.t }

let fp_of et = match et with Et.F32 -> Some A.Ir.Ast.Float | Et.F64 -> None

let key_name = function
  | Tune t ->
      Printf.sprintf "tune %s@%s%s"
        (Kernels.name_to_string ?fp:(fp_of t.et) t.kernel)
        t.arch.Arch.name
        (match t.space with Some [ _ ] -> " (one candidate)" | _ -> "")
  | Plan p -> Printf.sprintf "blocked %s@%s" (Et.name p.et) p.arch.Arch.name

let request_line (id : int) (key : key) : string =
  let op =
    match key with
    | Tune t ->
        Proto.Op_tune
          {
            Proto.tq_kernel = t.kernel;
            tq_arch = t.arch;
            tq_et = t.et;
            tq_space = t.space;
            tq_deadline_ms = None;
          }
    | Plan p ->
        Proto.Op_blocked
          {
            Proto.bq_arch = p.arch;
            bq_et = p.et;
            bq_m = 1024;
            bq_n = 1024;
            bq_k = 1024;
            bq_deadline_ms = None;
          }
  in
  Json.to_string (Proto.request_to_json { Proto.rq_id = Json.Int id; rq_op = op })

let new_server () =
  Server.create ~config:{ Server.default_config with Server.cfg_cache_dir = None } ()

(* --- replies -------------------------------------------------------------- *)

(* Does [sub] occur in [s]?  [from_end] scans backwards, which finds a
   field that follows the assembly text without walking over it. *)
let contains ?(from_end = false) (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec fwd i = i + m <= n && (matches i 0 || fwd (i + 1)) in
  let rec bwd i = i >= 0 && (matches i 0 || bwd (i - 1)) in
  if from_end then bwd (n - m) else fwd 0

(* The tier that answered, when the reply line is ok and not degraded.
   Every reply is checked inside the client loop, so this looks for the
   three fields instead of parsing a reply that is mostly assembly text
   (string contents are escaped, so the markers cannot occur inside
   it).  The first reply per key is parsed in full, and its program
   verified, after the timed region. *)
let tier_of_line (line : string) : string option =
  if contains line "\"ok\":true" && contains ~from_end:true line "\"degraded\":false" then
    List.find_opt
      (fun t -> contains ~from_end:true line ("\"tier\":\"" ^ t ^ "\""))
      [ "memory"; "tuned"; "coalesced" ]
  else None

(* What the traced run reads off a decoded reply. *)
type reply = {
  tier : string;  (** "none" for an error reply *)
  tuning_ms : float;
  visited : int;
  discarded : int;
}

let reply_of_response (rs : Proto.response) : reply =
  match rs.Proto.rs_result with
  | Ok (Proto.R_kernel k) ->
      let pv = k.rk_provenance in
      {
        tier = Proto.tier_to_string pv.Proto.pv_tier;
        tuning_ms = pv.Proto.pv_tuning_ms;
        visited = pv.Proto.pv_visited;
        discarded = pv.Proto.pv_discarded;
      }
  | Ok (Proto.R_blocked b) ->
      { tier = Proto.tier_to_string b.rb_tier; tuning_ms = b.rb_tuning_ms; visited = 0; discarded = 0 }
  | Ok _ | Error _ -> { tier = "none"; tuning_ms = 0.; visited = 0; discarded = 0 }

(* --- verifying served programs ---------------------------------------------- *)

(* Regenerate the program a reply names (the candidate whose
   configuration string the reply carries), require its assembly to be
   byte-identical to what was served, and run it through
   [Harness.verify] against the reference BLAS. *)
let verify_program ~arch ~et ~kernel ~(space : Tuner.candidate list)
    ~(config : string) ~(assembly : string) : (unit, string) result =
  let avx = arch.Arch.simd = Arch.AVX in
  let kast = Kernels.kernel_of_name ?fp:(fp_of et) kernel in
  let regenerated =
    List.find_map
      (fun (c : Tuner.candidate) ->
        if A.Transform.Pipeline.config_to_string c.Tuner.cand_config <> config then None
        else
          match Tuner.generate_candidate_diag arch kernel kast c with
          | Ok prog when Att.program_to_string ~et ~avx prog = assembly -> Some prog
          | _ -> None)
      space
  in
  match regenerated with
  | None -> Error "served assembly matches no candidate of its configuration"
  | Some prog ->
      let o = A.Harness.verify ~et kernel prog in
      if o.A.Harness.ok then Ok () else Error o.A.Harness.detail

let verify_reply (key : key) (line : string) : (unit, string) result =
  let str j f = match Json.member f j with Some (Json.String s) -> s | _ -> "" in
  match (key, Json.parse line) with
  | _, Error e -> Error e
  | Tune t, Ok j ->
      let config =
        match Json.member "provenance" j with Some p -> str p "config" | None -> ""
      in
      verify_program ~arch:t.arch ~et:t.et ~kernel:t.kernel
        ~space:(Option.value ~default:(Tuner.space_for t.kernel) t.space)
        ~config ~assembly:(str j "assembly")
  | Plan p, Ok j -> (
      let asm = Option.value ~default:Json.Null (Json.member "assembly" j) in
      let avx = p.arch.Arch.simd = Arch.AVX in
      let micro =
        verify_program ~arch:p.arch ~et:p.et ~kernel:Kernels.Gemm
          ~space:(Tuner.space_for Kernels.Gemm) ~config:(str j "micro_config")
          ~assembly:(str asm "micro")
      in
      (* the plan's packing kernels are the memoized tuned ones *)
      let pack kernel field =
        let prog = (Tuner.tuned ~et:p.et p.arch kernel).Tuner.best_program in
        if Att.program_to_string ~et:p.et ~avx prog <> str asm field then
          Error (field ^ ": served assembly differs from the tuned kernel")
        else
          let o = A.Harness.verify ~et:p.et kernel prog in
          if o.A.Harness.ok then Ok () else Error (field ^ ": " ^ o.A.Harness.detail)
      in
      match micro with
      | Error _ as e -> e
      | Ok () -> (
          match pack Kernels.Pack_a "pack_a" with
          | Error _ as e -> e
          | Ok () -> pack Kernels.Pack_b "pack_b"))

(* Verify the first reply of every distinct key; failures by key. *)
let verify_all (keys : key array) (first : string option array) :
    (string * string) list =
  List.filter_map
    (fun i ->
      match first.(i) with
      | None -> None
      | Some line -> (
          match verify_reply keys.(i) line with
          | Ok () -> None
          | Error e -> Some (key_name keys.(i), e)))
    (List.init (Array.length keys) Fun.id)

(* --- the traced path ----------------------------------------------------------- *)

(* The three layers of [Server.handle_line], called one by one, each in
   its own span; the handle span is named after the tier that
   answered. *)
let traced_handle (r : Span.t) ~(rid : int) (server : Server.t) (line : string) :
    string * reply =
  Span.span r ~name:"request" ~rid (fun () ->
      match Span.span r ~name:"parse_request" ~rid (fun () -> Proto.parse_request line) with
      | Error (id, e) ->
          let out =
            Span.span r ~name:"response_line" ~rid (fun () ->
                Proto.response_line { Proto.rs_id = id; rs_result = Error e })
          in
          (out, { tier = "none"; tuning_ms = 0.; visited = 0; discarded = 0 })
      | Ok rq ->
          let rs, rep =
            Span.span_named r ~rid (fun () ->
                let rs = Server.handle_request server rq in
                let rep = reply_of_response rs in
                ((rs, rep), "handle_request/" ^ rep.tier))
          in
          (Span.span r ~name:"response_line" ~rid (fun () -> Proto.response_line rs), rep))

(* Re-run, outside any request, the layers of the sweep a tune key
   triggers: [Driver.Lower.run] per candidate (with the tuner's
   options), [Tuner.score_diag], and [Att.program_to_string] on the
   winner.  Returns the sweep's and the printer's milliseconds. *)
type sweep_totals = {
  stage_ms : (string, float) Hashtbl.t;
  mutable candidates : int;
}

let rerun_sweep (r : Span.t) (tot : sweep_totals) ~(rid : int) (key : key) :
    (float * float) option =
  match key with
  | Plan _ -> None
  | Tune t ->
      let space = Option.value ~default:(Tuner.space_for t.kernel) t.space in
      let kast = Kernels.kernel_of_name ?fp:(fp_of t.et) t.kernel in
      let workload = Tuner.reference_workload t.kernel in
      let t0 = Span.now () in
      let best =
        Span.span r ~name:"sweep" ~rid (fun () ->
            let best = ref None in
            List.iter
              (fun (c : Tuner.candidate) ->
                tot.candidates <- tot.candidates + 1;
                let opts =
                  {
                    Lower.default_opts with
                    Lower.prefer = c.Tuner.cand_opts.A.Codegen.Emit.prefer;
                    max_width = c.Tuner.cand_opts.A.Codegen.Emit.max_width;
                    max_insns = Some Tuner.default_max_insns;
                    lint = true;
                    schedule = true;
                  }
                in
                match
                  Span.span r ~name:"lower" ~rid (fun () ->
                      Lower.run ~opts ~arch:t.arch ~config:c.Tuner.cand_config kast)
                with
                | exception _ -> ()
                | trace -> (
                    List.iter
                      (fun (sr : Trace.stage_record) ->
                        let k = Catalog.driver_stage_key sr.Trace.sr_name in
                        Hashtbl.replace tot.stage_ms k
                          (sr.Trace.sr_ms
                          +. Option.value ~default:0. (Hashtbl.find_opt tot.stage_ms k)))
                      trace.Trace.tr_stages;
                    let prog = Trace.program trace in
                    match
                      Span.span r ~name:"score" ~rid (fun () ->
                          Tuner.score_diag ~et:t.et t.arch t.kernel c prog workload)
                    with
                    | Ok s -> (
                        match !best with
                        | Some (s', _) when s' >= s -> ()
                        | _ -> best := Some (s, prog))
                    | Error _ -> ()))
              space;
            !best)
      in
      let ms_since t = float_of_int (Span.now () - t) /. 1e6 in
      let sweep = ms_since t0 in
      let t1 = Span.now () in
      Option.iter
        (fun (_, prog) ->
          ignore
            (Span.span r ~name:"program_to_string" ~rid (fun () ->
                 Att.program_to_string ~et:t.et ~avx:(t.arch.Arch.simd = Arch.AVX) prog)))
        best;
      Some (sweep, if best = None then 0. else ms_since t1)

let ratio a b = if b > 0. then a /. b else 0.

(* The per-layer metrics of a traced serving run. *)
let layer_values ~(keys : key array) ~(requests : Span.span list)
    ~(replies : (int * reply) list) ~(sweeps : Span.span list)
    ~(sweep_ms : (float * float) option array) ~(tot : sweep_totals)
    ~(untraced_ms : float) : (string * float) list * float =
  let rq = Span.summarize requests and sw = Span.summarize sweeps in
  let total = float_of_int rq.Span.root_ns in
  let pct_ns ns = 100. *. ratio ns total in
  let self name = float_of_int (Span.self_ns rq name) in
  let nreq = float_of_int (List.length replies) in
  let tier_pct t =
    100. *. ratio (float_of_int (Span.calls rq ("handle_request/" ^ t))) nreq
  in
  let is_tune i = match keys.(i) with Tune _ -> true | Plan _ -> false in
  let tuned = List.filter (fun (i, rep) -> is_tune i && rep.tier = "tuned") replies in
  let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0. l in
  let sweep_of i = Option.value ~default:(0., 0.) sweep_ms.(i) in
  let queue_wait =
    sumf (fun (i, rep) -> Float.max 0. (rep.tuning_ms -. fst (sweep_of i))) tuned
  in
  let p2s =
    sumf (fun (i, rep) -> if is_tune i && rep.tier <> "none" then snd (sweep_of i) else 0.) replies
  in
  let visited = sumf (fun (_, rep) -> float_of_int rep.visited) tuned in
  let discarded = sumf (fun (_, rep) -> float_of_int rep.discarded) tuned in
  let sweep_total_ms =
    float_of_int (Span.self_ns sw "sweep" + Span.self_ns sw "lower" + Span.self_ns sw "score")
    /. 1e6
  in
  let stage k = Option.value ~default:0. (Hashtbl.find_opt tot.stage_ms k) in
  let stage_pct k = 100. *. ratio (stage k) sweep_total_ms in
  let score_pct = 100. *. ratio (float_of_int (Span.self_ns sw "score") /. 1e6) sweep_total_ms in
  let stages_pct = List.fold_left (fun acc k -> acc +. stage_pct k) 0. Catalog.driver_stages in
  let traced_ms = ratio (total /. 1e6) nreq in
  let accounted = float_of_int (Span.accounted_ns rq + Span.accounted_ns sw) in
  let roots = float_of_int (rq.Span.root_ns + sw.Span.root_ns) in
  ( [
      ("proto.parse_request.pct", pct_ns (self "parse_request"));
      ("server.handle_request.memory.pct", pct_ns (self "handle_request/memory"));
      ("server.handle_request.tuned.pct", pct_ns (self "handle_request/tuned"));
      ("server.handle_request.coalesced.pct", pct_ns (self "handle_request/coalesced"));
      ("proto.response_line.pct", pct_ns (self "response_line"));
      ("client.loop.pct", pct_ns (self "request"));
      ("registry.tier.memory.pct", tier_pct "memory");
      ("registry.tier.tuned.pct", tier_pct "tuned");
      ("registry.tier.coalesced.pct", tier_pct "coalesced");
      ("registry.compute.pct", pct_ns (1e6 *. sumf (fun (_, rep) -> rep.tuning_ms) replies));
      ("scheduler.queue_wait.est_pct", pct_ns (1e6 *. queue_wait));
      ("att.program_to_string.est_pct", pct_ns (1e6 *. p2s));
      ("tuner.visited", ratio visited (float_of_int (List.length tuned)));
      ("tuner.discarded.pct", 100. *. ratio discarded visited);
      ("tuner.candidates_per_s", ratio (float_of_int tot.candidates) (sweep_total_ms /. 1e3));
      ("sim.score.pct", score_pct);
      ("tuner.sweep.other.pct", if sweep_total_ms > 0. then 100. -. stages_pct -. score_pct else 0.);
      ("trace.overhead_pct", 100. *. ratio (traced_ms -. untraced_ms) untraced_ms);
    ]
    @ List.map (fun k -> ("driver.stage." ^ k ^ ".pct", stage_pct k)) Catalog.driver_stages,
    100. *. Float.abs (accounted -. roots) /. roots )

(* --- results ------------------------------------------------------------------------ *)

(* Everything a serving run measured, turned into its outcome.  Every
   request whose reply was not ok, was degraded or came from an
   unexpected tier is a failed op; so is every distinct served program
   that fails verification, and a trace whose layers do not add up. *)
let outcome ~(keys : key array) ~(first : string option array) ~(requests : int)
    ~(bad : int) ~(unaccounted : float option) ~values ~detail : Catalog.outcome =
  let failures = verify_all keys first in
  let trace_bad = match unaccounted with Some u -> u > 5. | None -> false in
  let nbad = bad + List.length failures + if trace_bad then 1 else 0 in
  {
    Catalog.correct = nbad = 0;
    attempted = requests + Array.length keys + if unaccounted = None then 0 else 1;
    failed = nbad;
    values;
    detail =
      detail
      @ [
          ("keys", Json.Int (Array.length keys));
          ( "failures",
            Json.List (List.map (fun (k, e) -> Json.String (k ^ ": " ^ e)) failures) );
        ]
      @
      match unaccounted with
      | Some u -> [ ("trace", Json.Obj [ ("unaccounted_pct", Json.Float u) ]) ]
      | None -> [];
  }

let end_to_end ~(ok : int) ~(wall : float) ~(latencies : float list) ~tail ~setup_times =
  [
    ("requests_per_s", float_of_int ok /. wall);
    ("latency_p50_ms", Stats.median latencies);
    ("latency_tail_ms", Stats.percentile (Stats.sorted latencies) tail);
    ("setup_s", Stats.median setup_times);
    ("peak_rss_mib", Host.peak_rss_mib ());
  ]

let timing_detail ~(latencies : float list) ~tail ~setup_times =
  let n = List.length latencies in
  [
    ("samples", Json.Int n);
    ("tail_percentile", Json.Float (100. *. tail));
    ("tail_samples_beyond", Json.Int (Stats.beyond n tail));
    ("setup_s", Json.List (List.map (fun s -> Json.Float s) setup_times));
  ]

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* Re-run every tune key's sweep layers on their own recorder, write
   the spans, and derive the per-layer metrics. *)
let traced_layers (ctx : Setup.ctx) ~keys ~(recorders : Span.t list)
    ~(replies : (int * reply) list) ~untraced_ms =
  let sw = Span.create ~base:(List.length recorders * 1_000_000_000) () in
  let tot = { stage_ms = Hashtbl.create 16; candidates = 0 } in
  let sweep_ms = Array.mapi (fun i k -> rerun_sweep sw tot ~rid:i k) keys in
  Option.iter
    (fun path -> Span.write_jsonl path (Span.spans (sw :: recorders)))
    ctx.Setup.trace_out;
  layer_values ~keys ~requests:(Span.spans recorders) ~replies
    ~sweeps:sw.Span.spans ~sweep_ms ~tot ~untraced_ms

(* --- serve-cold -------------------------------------------------------------------- *)

let cold_keys ~smoke : key list =
  if smoke then
    [
      Tune { kernel = Kernels.Axpy; arch = Arch.haswell; et = Et.F64; space = None };
      Tune { kernel = Kernels.Dot; arch = Arch.sandy_bridge; et = Et.F32; space = None };
      Tune { kernel = Kernels.Scal; arch = Arch.piledriver; et = Et.F64; space = None };
      Plan { arch = Arch.sandy_bridge; et = Et.F64 };
    ]
  else
    List.concat_map
      (fun kernel ->
        List.concat_map
          (fun et ->
            List.map (fun arch -> Tune { kernel; arch; et; space = None }) Arch.extended)
          [ Et.F64; Et.F32 ])
      Kernels.names
    @ List.map (fun arch -> Plan { arch; et = Et.F64 }) Arch.extended

let run_cold (ctx : Setup.ctx) ~(tail : float) ~(trace : bool) : Catalog.outcome =
  let keys = Array.of_list (cold_keys ~smoke:ctx.Setup.smoke) in
  let rng = Random.State.make [| ctx.Setup.seed; 0x636f6c64 |] in
  let (_, lines), setup_times =
    Setup.repeat ctx
      ~release:(fun (s, _) -> Server.drain s)
      (fun () -> (new_server (), Array.mapi request_line keys))
  in
  let first = Array.make (Array.length keys) None in
  let bad = ref 0 and requests = ref 0 in
  (* [count] whole seeded passes, each on a fresh server; [handle]
     returns the reply line *)
  let passes ~count handle =
    let samples = Stats.Fbuf.create () in
    let rec go wall n =
      if n = count then (wall, Stats.Fbuf.to_list samples)
      else begin
        let server = new_server () in
        let order = Gemm_workloads.shuffle rng (List.init (Array.length lines) Fun.id) in
        let t0 = Span.now () in
        List.iter
          (fun i ->
            let ts = Span.now () in
            let out = handle server i lines.(i) in
            let ms = float_of_int (Span.now () - ts) /. 1e6 in
            Stats.Fbuf.push samples ms;
            incr requests;
            if tier_of_line out <> Some "tuned" then incr bad;
            if first.(i) = None then first.(i) <- Some out)
          order;
        let pass_wall = float_of_int (Span.now () - t0) /. 1e9 in
        Server.drain server;
        go (wall +. pass_wall) (n + 1)
      end
    in
    go 0. 0
  in
  (* A pass takes 7-11 s on the reference host.  A fixed count, one per
     5 s asked for, keeps every run's work the same whatever the host's
     speed, which the heap's high-water mark depends on. *)
  let count =
    max 1 (int_of_float ((if trace then ctx.Setup.seconds /. 2. else ctx.Setup.seconds) /. 5.))
  in
  let wall, latencies =
    passes ~count (fun server _ line -> Server.handle_line server line)
  in
  let ok = List.length latencies - !bad in
  let values, unaccounted =
    if not trace then (end_to_end ~ok ~wall ~latencies ~tail ~setup_times, None)
    else begin
      let r = Span.create () in
      let replies = ref [] in
      ignore
        (passes ~count (fun server i line ->
             let out, rep = traced_handle r ~rid:i server line in
             replies := (i, rep) :: !replies;
             out));
      let values, u =
        traced_layers ctx ~keys ~recorders:[ r ] ~replies:!replies
          ~untraced_ms:(mean latencies)
      in
      (values, Some u)
    end
  in
  outcome ~keys ~first ~requests:!requests ~bad:!bad ~unaccounted ~values
    ~detail:(timing_detail ~latencies ~tail ~setup_times)

(* --- serve-mixed --------------------------------------------------------------------- *)

let mixed_clients = 2
let hot_share = 0.85

(* One-candidate tune keys, candidate 0 then candidate 1 of each
   kernel's space, over both precisions and every modelled arch, keeping
   only those whose sweep succeeds (a fallback reply is degraded, and a
   degraded reply is a failure): the first [want] of them. *)
let mixed_keys ~smoke : key array =
  let want = if smoke then 10 else 80 in
  let combos =
    List.concat_map
      (fun idx ->
        List.concat_map
          (fun kernel ->
            List.concat_map
              (fun et -> List.map (fun arch -> (idx, kernel, et, arch)) Arch.extended)
              [ Et.F64; Et.F32 ])
          Kernels.names)
      [ 0; 1 ]
  in
  let rec take acc n = function
    | [] -> List.rev acc
    | _ when n = want -> List.rev acc
    | (idx, kernel, et, arch) :: rest -> (
        match List.nth_opt (Tuner.space_for kernel) idx with
        | Some c when not (Tuner.tune ~et ~space:[ c ] arch kernel).Tuner.fell_back ->
            take (Tune { kernel; arch; et; space = Some [ c ] } :: acc) (n + 1) rest
        | _ -> take acc n rest)
  in
  Array.of_list (take [] 0 combos)

(* Split the keys into the warm set (which fits the default LRU) and the
   rest.  The seed shuffles each kernel's keys and the split takes them
   round-robin across kernels, so every seed warms the same mix of
   kernels and only the members change. *)
let hot_and_cold rng (keys : key array) ~(nhot : int) : int array * int array =
  let kernel_of = function Tune t -> t.kernel | Plan _ -> Kernels.Gemm in
  let groups =
    List.map
      (fun k ->
        Gemm_workloads.shuffle rng
          (List.filter
             (fun i -> kernel_of keys.(i) = k)
             (List.init (Array.length keys) Fun.id)))
      Kernels.names
  in
  let rec interleave acc = function
    | [] -> List.rev acc
    | gs ->
        let heads = List.filter_map (function x :: _ -> Some x | [] -> None) gs in
        let tails = List.filter (( <> ) []) (List.map (function _ :: t -> t | [] -> []) gs) in
        interleave (List.rev_append heads acc) tails
  in
  let ranked = Array.of_list (interleave [] groups) in
  (Array.sub ranked 0 nhot, Array.sub ranked nhot (Array.length ranked - nhot))

type client = {
  samples : Stats.Fbuf.t;
  mutable n_ok : int;
  mutable n_bad : int;
  seen : string option array;
  mutable decoded : (int * reply) list;
}

let run_mixed (ctx : Setup.ctx) ~(tail : float) ~(trace : bool) : Catalog.outcome =
  let keys = mixed_keys ~smoke:ctx.Setup.smoke in
  let nkeys = Array.length keys in
  let rng = Random.State.make [| ctx.Setup.seed; 0x6d697864 |] in
  let hot, cold = hot_and_cold rng keys ~nhot:(nkeys * 3 / 5) in
  let lines = Array.mapi request_line keys in
  let warm_bad = ref 0 in
  let server, setup_times =
    Setup.repeat ctx ~release:Server.drain (fun () ->
        let s = new_server () in
        Array.iter
          (fun i ->
            if tier_of_line (Server.handle_line s lines.(i)) <> Some "tuned" then incr warm_bad)
          hot;
        s)
  in
  (* [mixed_clients] closed-loop clients for [seconds]; [handle] returns
     the reply line *)
  let drive ~seconds ~salt handle =
    let t_end = Span.now () + int_of_float (seconds *. 1e9) in
    let clients =
      Array.init mixed_clients (fun _ ->
          {
            samples = Stats.Fbuf.create ();
            n_ok = 0;
            n_bad = 0;
            seen = Array.make nkeys None;
            decoded = [];
          })
    in
    let loop ci =
      let c = clients.(ci) in
      let rng = Random.State.make [| ctx.Setup.seed; salt; ci |] in
      let seq = ref 0 in
      while Span.now () < t_end do
        let i =
          if Random.State.float rng 1. < hot_share then
            hot.(Random.State.int rng (Array.length hot))
          else cold.(Random.State.int rng (Array.length cold))
        in
        let ts = Span.now () in
        let out = handle ci c ~rid:((ci * 1_000_000_000) + !seq) i lines.(i) in
        Stats.Fbuf.push c.samples (float_of_int (Span.now () - ts) /. 1e6);
        incr seq;
        (match tier_of_line out with
        | Some _ -> c.n_ok <- c.n_ok + 1
        | None -> c.n_bad <- c.n_bad + 1);
        if c.seen.(i) = None then c.seen.(i) <- Some out
      done
    in
    let t0 = Span.now () in
    let threads = List.init mixed_clients (Thread.create loop) in
    List.iter Thread.join threads;
    (float_of_int (Span.now () - t0) /. 1e9, clients)
  in
  let seconds = if trace then ctx.Setup.seconds /. 2. else ctx.Setup.seconds in
  let wall, clients =
    drive ~seconds ~salt:1 (fun _ _ ~rid:_ _ line -> Server.handle_line server line)
  in
  let latencies = List.concat_map (fun c -> Stats.Fbuf.to_list c.samples) (Array.to_list clients) in
  let all = ref (Array.to_list clients) in
  let values, unaccounted =
    if not trace then
      let ok = Array.fold_left (fun acc c -> acc + c.n_ok) 0 clients in
      (end_to_end ~ok ~wall ~latencies ~tail ~setup_times, None)
    else begin
      let recorders =
        Array.init mixed_clients (fun ci -> Span.create ~base:(ci * 1_000_000_000) ())
      in
      let _, traced =
        drive ~seconds ~salt:2 (fun ci c ~rid i line ->
            let out, rep = traced_handle recorders.(ci) ~rid server line in
            c.decoded <- (i, rep) :: c.decoded;
            out)
      in
      all := !all @ Array.to_list traced;
      let values, u =
        traced_layers ctx ~keys ~recorders:(Array.to_list recorders)
          ~replies:(List.concat_map (fun c -> c.decoded) (Array.to_list traced))
          ~untraced_ms:(mean latencies)
      in
      (values, Some u)
    end
  in
  Server.drain server;
  let first =
    Array.init nkeys (fun i -> List.find_map (fun c -> c.seen.(i)) !all)
  in
  let sumc f = List.fold_left (fun acc c -> acc + f c) 0 !all in
  outcome ~keys ~first
    ~requests:(sumc (fun c -> c.n_ok + c.n_bad) + Array.length hot)
    ~bad:(sumc (fun c -> c.n_bad) + !warm_bad)
    ~unaccounted ~values
    ~detail:
      (timing_detail ~latencies ~tail ~setup_times
      @ [ ("clients", Json.Int mixed_clients); ("hot_keys", Json.Int (Array.length hot)) ])
