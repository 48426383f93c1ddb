(** Wire protocol of the kernel service: line-delimited JSON over
    {!Augem.Json}.

    One request per line, one response per line, in completion order
    (responses carry the request's [id] verbatim, so clients may
    pipeline).  Requests:

    {v
    {"id":1,"op":"tune","kernel":"gemm","arch":"sandybridge"}
    {"id":2,"op":"tune","kernel":"axpy","arch":"piledriver",
     "deadline_ms":250,
     "space":[{"unroll":["i",8],"prefetch":{"distance":8,"stores":true}}]}
    {"id":3,"op":"stats"}
    {"id":4,"op":"ping"}
    {"id":5,"op":"shutdown"}
    {"id":6,"op":"blocked","arch":"sandybridge","m":1024,"n":1024,"k":1024}
    v}

    A [tune] response carries the tuned assembly plus provenance (which
    cache tier answered, the winning configuration, predicted MFLOPS,
    sweep statistics, tuning wall-clock) and a [degraded] flag — [true]
    when the safe-baseline kernel was served because the request's
    deadline expired before tuning started, the whole search space was
    discarded, the worker running the sweep died, or the key's circuit
    breaker is open (then [provenance.breaker_open] is [true] too; the
    reply carries no error code):

    {v
    {"id":1,"ok":true,"kernel":"gemm","arch":"sandybridge",
     "assembly":".text\n...","degraded":false,
     "provenance":{"tier":"tuned","config":"jam[j:4,i:8]+...",
                   "mflops":21804.0,"visited":48,"discarded":0,
                   "fell_back":false,"deadline_expired":false,
                   "breaker_open":false,"tuning_ms":812.4}}
    v}

    Failures are structured: [{"id":1,"ok":false,"error":{"code":
    "E_overload","detail":"queue at capacity (8)"}}].  Codes:
    [E_overload] (admission queue full), [E_bad_request] (malformed
    JSON, unknown op/kernel/arch, bad space), [E_shutting_down], and
    [E_internal]. *)

type tune_request = {
  tq_kernel : Augem.Ir.Kernels.name;
  tq_arch : Augem.Machine.Arch.t;
  tq_et : Augem.Machine.Etype.t;
      (** scalar precision from the optional ["precision"] wire field
          (["f32"] or ["f64"]); absent means f64, so pre-precision
          clients are untouched *)
  tq_space : Augem.Tuner.candidate list option;
      (** explicit candidate list overriding the kernel's default
          search space *)
  tq_deadline_ms : float option;
}

(** A [blocked] request: plan the full generated blocked DGEMM — tuned
    micro-kernel with its MC/KC/NC blocking triple plus the two packing
    kernels — for one architecture and problem shape:

    {v
    {"id":6,"op":"blocked","arch":"sandybridge","m":1024,"n":1024,"k":1024}
    v}

    [m]/[n]/[k] are optional (default 1024 each) and size the workload
    the blocking sweep optimizes for. *)
type blocked_request = {
  bq_arch : Augem.Machine.Arch.t;
  bq_et : Augem.Machine.Etype.t;
      (** scalar precision from the optional ["precision"] wire field *)
  bq_m : int;
  bq_n : int;
  bq_k : int;
  bq_deadline_ms : float option;
}

type op =
  | Op_tune of tune_request
  | Op_blocked of blocked_request
  | Op_stats
  | Op_ping
  | Op_shutdown

type request = {
  rq_id : Augem.Json.t;  (** echoed verbatim; any JSON value *)
  rq_op : op;
}

(** Which layer of the service answered a [tune] request. *)
type tier =
  | T_memory  (** bounded in-memory LRU *)
  | T_disk  (** persistent on-disk tier *)
  | T_tuned  (** a tuning sweep ran for this request *)
  | T_coalesced  (** single-flight: joined another request's sweep *)

val tier_to_string : tier -> string

type provenance = {
  pv_tier : tier;
  pv_config : string;
  pv_mflops : float;
  pv_visited : int;
  pv_discarded : int;
  pv_fell_back : bool;
  pv_deadline_expired : bool;
  pv_breaker_open : bool;
      (** served the baseline because the key's circuit is open *)
  pv_tuning_ms : float;  (** 0 for pure cache hits *)
}

type reply =
  | R_kernel of {
      rk_kernel : string;
      rk_arch : string;
      rk_assembly : string;
      rk_provenance : provenance;
      rk_degraded : bool;
    }
  | R_blocked of {
      rb_arch : string;
      rb_mc : int;
      rb_kc : int;
      rb_nc : int;  (** tuned blocking triple *)
      rb_mr : int;
      rb_nr : int;  (** the micro-kernel's register tile *)
      rb_micro_config : string;
      rb_micro_assembly : string;
      rb_pack_a_assembly : string;
      rb_pack_b_assembly : string;
      rb_blocked_mflops : float;  (** predicted, blocked driver *)
      rb_streamed_mflops : float;  (** predicted, unblocked baseline *)
      rb_tier : tier;  (** [T_memory] for a plan-cache hit *)
      rb_degraded : bool;
          (** baseline plan served (deadline expired or worker lost) *)
      rb_tuning_ms : float;
    }
      (** Response to [blocked]: all three generated kernels plus the
          blocking triple and the blocked/streamed cycle-model
          predictions at the requested shape. *)
  | R_stats of Augem.Json.t  (** metrics snapshot *)
  | R_pong
  | R_shutting_down  (** acknowledgement of [shutdown] *)

type error = { e_code : string; e_detail : string }

val e_overload : string
val e_bad_request : string
val e_shutting_down : string
val e_internal : string

type response = {
  rs_id : Augem.Json.t;
  rs_result : (reply, error) Stdlib.result;
}

(** Structured overload signal raised by the admission path and turned
    into an [E_overload] response at the transport boundary. *)
exception Overload of string

(** Decode a request.  On failure, returns the best-effort request id
    (for the error response) and a structured [E_bad_request]. *)
val parse_request : string -> (request, Augem.Json.t * error) Stdlib.result

(** Encode a request (the [augem request] client side). *)
val request_to_json : request -> Augem.Json.t

(** A [space] entry: every field optional, absent ones the pipeline's
    defaults.  A jam, unroll or expand factor below 1 is rejected, as
    {!Augem.Script.positive} rejects it in a script; a prefetch
    distance below 1 means no prefetch. *)
val candidate_of_json :
  Augem.Json.t -> (Augem.Tuner.candidate, string) Stdlib.result

val candidate_to_json : Augem.Tuner.candidate -> Augem.Json.t
val response_to_json : response -> Augem.Json.t

(** [response_to_json] rendered on one line (no embedded newlines:
    strings escape them), ready for the wire. *)
val response_line : response -> string
