(* Wire protocol: line-delimited JSON request/response.  See proto.mli
   for the grammar. *)

module A = Augem
module Json = A.Json
module Kernels = A.Ir.Kernels
module Arch = A.Machine.Arch
module Pipeline = A.Transform.Pipeline
module Prefetch = A.Transform.Prefetch
module Plan = A.Codegen.Plan
module Insn = A.Machine.Insn
module Emit = A.Codegen.Emit
module Tuner = A.Tuner
module Etype = A.Machine.Etype

type tune_request = {
  tq_kernel : Kernels.name;
  tq_arch : Arch.t;
  tq_et : Etype.t;
  tq_space : Tuner.candidate list option;
  tq_deadline_ms : float option;
}

type blocked_request = {
  bq_arch : Arch.t;
  bq_et : Etype.t;
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
type request = { rq_id : Json.t; rq_op : op }
type tier = T_memory | T_disk | T_tuned | T_coalesced

let tier_to_string = function
  | T_memory -> "memory"
  | T_disk -> "disk"
  | T_tuned -> "tuned"
  | T_coalesced -> "coalesced"

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
  pv_tuning_ms : float;
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
      rb_nc : int;
      rb_mr : int;
      rb_nr : int;
      rb_micro_config : string;
      rb_micro_assembly : string;
      rb_pack_a_assembly : string;
      rb_pack_b_assembly : string;
      rb_blocked_mflops : float;
      rb_streamed_mflops : float;
      rb_tier : tier;
      rb_degraded : bool;
      rb_tuning_ms : float;
    }
  | R_stats of Json.t
  | R_pong
  | R_shutting_down

type error = { e_code : string; e_detail : string }

let e_overload = "E_overload"
let e_bad_request = "E_bad_request"
let e_shutting_down = "E_shutting_down"
let e_internal = "E_internal"

type response = { rs_id : Json.t; rs_result : (reply, error) Stdlib.result }

exception Overload of string

(* --- candidate (search-space override) decoding ------------------------- *)

(* {"jam":[["j",4],["i",8]], "unroll":["i",8], "expand":8,
    "prefetch":{"distance":8,"stores":true}, "prefer":"auto",
    "width":128}; every field optional, defaults = the pipeline's. *)

let ( let* ) = Result.bind

let as_int what = function
  | Json.Int i -> Ok i
  | _ -> Error (what ^ " must be an integer")

let var_factor what = function
  | Json.List [ Json.String v; Json.Int f ] -> Ok (v, f)
  | _ -> Error (what ^ " must be a [\"var\",factor] pair")

let candidate_of_json (j : Json.t) : (Tuner.candidate, string) Stdlib.result =
  match j with
  | Json.Obj fields ->
      let unknown =
        List.find_opt
          (fun (k, _) ->
            not
              (List.mem k
                 [
                   "jam"; "unroll"; "expand"; "strength_reduce";
                   "scalar_replace"; "prefetch"; "prefer"; "width";
                 ]))
          fields
      in
      let* () =
        match unknown with
        | Some (k, _) -> Error (Printf.sprintf "unknown candidate field %S" k)
        | None -> Ok ()
      in
      let* jam =
        match Json.member "jam" j with
        | None -> Ok Pipeline.default.Pipeline.jam
        | Some (Json.List l) ->
            List.fold_left
              (fun acc x ->
                let* acc = acc in
                let* vf = var_factor "jam entry" x in
                Ok (vf :: acc))
              (Ok []) l
            |> Result.map List.rev
        | Some _ -> Error "jam must be an array of [\"var\",factor] pairs"
      in
      let* inner_unroll =
        match Json.member "unroll" j with
        | None -> Ok Pipeline.default.Pipeline.inner_unroll
        | Some x -> Result.map Option.some (var_factor "unroll" x)
      in
      let* expand_reduction =
        match Json.member "expand" j with
        | None -> Ok Pipeline.default.Pipeline.expand_reduction
        | Some x -> Result.map Option.some (as_int "expand" x)
      in
      let bool_field name default =
        match Json.member name j with
        | None -> Ok default
        | Some (Json.Bool b) -> Ok b
        | Some _ -> Error (name ^ " must be a boolean")
      in
      let* strength_reduce =
        bool_field "strength_reduce" Pipeline.default.Pipeline.strength_reduce
      in
      let* scalar_replace =
        bool_field "scalar_replace" Pipeline.default.Pipeline.scalar_replace
      in
      let* prefetch =
        match Json.member "prefetch" j with
        | None -> Ok None
        | Some Json.Null -> Ok None
        | Some (Json.Obj _ as p) ->
            let* d =
              match Json.member "distance" p with
              | Some x -> as_int "prefetch.distance" x
              | None -> Error "prefetch needs a distance"
            in
            let* stores =
              match Json.member "stores" p with
              | None -> Ok true
              | Some (Json.Bool b) -> Ok b
              | Some _ -> Error "prefetch.stores must be a boolean"
            in
            if d <= 0 then Ok None
            else Ok (Some { Prefetch.pf_distance = d; pf_stores = stores })
        | Some _ -> Error "prefetch must be an object or null"
      in
      let* prefer =
        match Json.member "prefer" j with
        | None -> Ok Emit.default_options.Emit.prefer
        | Some (Json.String "auto") -> Ok Plan.Prefer_auto
        | Some (Json.String "vdup") -> Ok Plan.Prefer_vdup
        | Some (Json.String "shuf") -> Ok Plan.Prefer_shuf
        | Some _ -> Error "prefer must be \"auto\", \"vdup\" or \"shuf\""
      in
      let* max_width =
        match Json.member "width" j with
        | None -> Ok Emit.default_options.Emit.max_width
        | Some (Json.Int 64) -> Ok (Some Insn.W64)
        | Some (Json.Int 128) -> Ok (Some Insn.W128)
        | Some (Json.Int 256) -> Ok (Some Insn.W256)
        | Some _ -> Error "width must be 64, 128 or 256"
      in
      Ok
        {
          Tuner.cand_config =
            {
              Pipeline.jam;
              inner_unroll;
              expand_reduction;
              strength_reduce;
              scalar_replace;
              prefetch;
            };
          cand_opts = { Emit.prefer; max_width };
        }
  | _ -> Error "candidate must be an object"

let candidate_to_json (c : Tuner.candidate) : Json.t =
  let cfg = c.Tuner.cand_config in
  let opts = c.Tuner.cand_opts in
  Json.Obj
    (List.concat
       [
         (match cfg.Pipeline.jam with
         | [] -> []
         | jam ->
             [
               ( "jam",
                 Json.List
                   (List.map
                      (fun (v, f) ->
                        Json.List [ Json.String v; Json.Int f ])
                      jam) );
             ]);
         (match cfg.Pipeline.inner_unroll with
         | None -> []
         | Some (v, f) ->
             [ ("unroll", Json.List [ Json.String v; Json.Int f ]) ]);
         (match cfg.Pipeline.expand_reduction with
         | None -> []
         | Some e -> [ ("expand", Json.Int e) ]);
         [
           ("strength_reduce", Json.Bool cfg.Pipeline.strength_reduce);
           ("scalar_replace", Json.Bool cfg.Pipeline.scalar_replace);
         ];
         (match cfg.Pipeline.prefetch with
         | None -> []
         | Some p ->
             [
               ( "prefetch",
                 Json.Obj
                   [
                     ("distance", Json.Int p.Prefetch.pf_distance);
                     ("stores", Json.Bool p.Prefetch.pf_stores);
                   ] );
             ]);
         [
           ( "prefer",
             Json.String
               (match opts.Emit.prefer with
               | Plan.Prefer_auto -> "auto"
               | Plan.Prefer_vdup -> "vdup"
               | Plan.Prefer_shuf -> "shuf") );
         ];
         (match opts.Emit.max_width with
         | None -> []
         | Some Insn.W64 -> [ ("width", Json.Int 64) ]
         | Some Insn.W128 -> [ ("width", Json.Int 128) ]
         | Some Insn.W256 -> [ ("width", Json.Int 256) ]);
       ])

(* --- request decoding ---------------------------------------------------- *)

let bad detail = { e_code = e_bad_request; e_detail = detail }

let decode_arch ~op (j : Json.t) : (Arch.t, error) Stdlib.result =
  match Json.member "arch" j with
  | Some (Json.String s) -> (
      match Arch.by_name_result s with
      | Ok a -> Ok a
      | Error msg -> Error (bad msg))
  | _ -> Error (bad (op ^ " needs an \"arch\" string"))

(* The precision wire field; absent or null means f64, keeping every
   pre-precision client bit-compatible. *)
let decode_precision (j : Json.t) : (Etype.t, error) Stdlib.result =
  match Json.member "precision" j with
  | None | Some Json.Null -> Ok Etype.F64
  | Some (Json.String s) -> (
      match Etype.of_name s with
      | Some et -> Ok et
      | None ->
          Error
            (bad
               (Printf.sprintf "unknown precision %S (valid: f32, f64)" s)))
  | Some _ -> Error (bad "precision must be \"f32\" or \"f64\"")

let decode_deadline_ms (j : Json.t) : (float option, error) Stdlib.result =
  match Json.member "deadline_ms" j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) when i > 0 -> Ok (Some (float_of_int i))
  | Some (Json.Float f) when f > 0. -> Ok (Some f)
  | Some _ -> Error (bad "deadline_ms must be a positive number")

(* m/n/k of a blocked request: positive integers, defaulting to the
   reference square size. *)
let decode_dim (j : Json.t) (name : string) : (int, error) Stdlib.result =
  match Json.member name j with
  | None | Some Json.Null -> Ok 1024
  | Some (Json.Int i) when i > 0 -> Ok i
  | Some _ ->
      Error (bad (Printf.sprintf "%s must be a positive integer" name))

let request_of_json (j : Json.t) : (request, error) Stdlib.result =
  match j with
  | Json.Obj _ -> (
      let id = Option.value ~default:Json.Null (Json.member "id" j) in
      let with_id r = Result.map (fun op -> { rq_id = id; rq_op = op }) r in
      match Json.member "op" j with
      | Some (Json.String "stats") -> with_id (Ok Op_stats)
      | Some (Json.String "ping") -> with_id (Ok Op_ping)
      | Some (Json.String "shutdown") -> with_id (Ok Op_shutdown)
      | Some (Json.String "tune") ->
          with_id
            (let* kernel =
               match Json.member "kernel" j with
               | Some (Json.String s) -> (
                   match Kernels.name_of_string s with
                   | Some k -> Ok k
                   | None -> Error (bad (Printf.sprintf "unknown kernel %S" s)))
               | _ -> Error (bad "tune needs a \"kernel\" string")
             in
             let* arch = decode_arch ~op:"tune" j in
             let* et = decode_precision j in
             let* space =
               match Json.member "space" j with
               | None | Some Json.Null -> Ok None
               | Some (Json.List []) -> Error (bad "space must not be empty")
               | Some (Json.List cs) ->
                   List.fold_left
                     (fun acc c ->
                       let* acc = acc in
                       match candidate_of_json c with
                       | Ok cand -> Ok (cand :: acc)
                       | Error m -> Error (bad ("bad space candidate: " ^ m)))
                     (Ok []) cs
                   |> Result.map (fun l -> Some (List.rev l))
               | Some _ -> Error (bad "space must be an array of candidates")
             in
             let* deadline_ms = decode_deadline_ms j in
             Ok
               (Op_tune
                  {
                    tq_kernel = kernel;
                    tq_arch = arch;
                    tq_et = et;
                    tq_space = space;
                    tq_deadline_ms = deadline_ms;
                  }))
      | Some (Json.String "blocked") ->
          with_id
            (let* arch = decode_arch ~op:"blocked" j in
             let* et = decode_precision j in
             let* m = decode_dim j "m" in
             let* n = decode_dim j "n" in
             let* k = decode_dim j "k" in
             let* deadline_ms = decode_deadline_ms j in
             Ok
               (Op_blocked
                  {
                    bq_arch = arch;
                    bq_et = et;
                    bq_m = m;
                    bq_n = n;
                    bq_k = k;
                    bq_deadline_ms = deadline_ms;
                  }))
      | Some (Json.String op) ->
          Error (bad (Printf.sprintf "unknown op %S" op))
      | Some _ -> Error (bad "op must be a string")
      | None -> Error (bad "missing \"op\""))
  | _ -> Error (bad "request must be a JSON object")

let parse_request (line : string) :
    (request, Json.t * error) Stdlib.result =
  match Json.parse line with
  | Error msg -> Error (Json.Null, bad msg)
  | Ok j -> (
      let id = Option.value ~default:Json.Null (Json.member "id" j) in
      match request_of_json j with
      | Ok r -> Ok r
      | Error e -> Error (id, e))

let request_to_json (r : request) : Json.t =
  let base = [ ("id", r.rq_id) ] in
  match r.rq_op with
  | Op_stats -> Json.Obj (base @ [ ("op", Json.String "stats") ])
  | Op_ping -> Json.Obj (base @ [ ("op", Json.String "ping") ])
  | Op_shutdown -> Json.Obj (base @ [ ("op", Json.String "shutdown") ])
  | Op_tune t ->
      Json.Obj
        (base
        @ [
            ("op", Json.String "tune");
            ("kernel", Json.String (Kernels.name_to_string t.tq_kernel));
            ("arch", Json.String t.tq_arch.Arch.name);
          ]
        @ (match t.tq_et with
          | Etype.F64 -> []
          | et -> [ ("precision", Json.String (Etype.name et)) ])
        @ (match t.tq_space with
          | None -> []
          | Some cs ->
              [ ("space", Json.List (List.map candidate_to_json cs)) ])
        @
        match t.tq_deadline_ms with
        | None -> []
        | Some ms -> [ ("deadline_ms", Json.Float ms) ])
  | Op_blocked b ->
      Json.Obj
        (base
        @ [
            ("op", Json.String "blocked");
            ("arch", Json.String b.bq_arch.Arch.name);
          ]
        @ (match b.bq_et with
          | Etype.F64 -> []
          | et -> [ ("precision", Json.String (Etype.name et)) ])
        @ [
            ("m", Json.Int b.bq_m);
            ("n", Json.Int b.bq_n);
            ("k", Json.Int b.bq_k);
          ]
        @
        match b.bq_deadline_ms with
        | None -> []
        | Some ms -> [ ("deadline_ms", Json.Float ms) ])

(* --- response encoding --------------------------------------------------- *)

let provenance_to_json (p : provenance) : Json.t =
  Json.Obj
    [
      ("tier", Json.String (tier_to_string p.pv_tier));
      ("config", Json.String p.pv_config);
      ("mflops", Json.Float p.pv_mflops);
      ("visited", Json.Int p.pv_visited);
      ("discarded", Json.Int p.pv_discarded);
      ("fell_back", Json.Bool p.pv_fell_back);
      ("deadline_expired", Json.Bool p.pv_deadline_expired);
      ("breaker_open", Json.Bool p.pv_breaker_open);
      ("tuning_ms", Json.Float p.pv_tuning_ms);
    ]

let response_to_json (r : response) : Json.t =
  match r.rs_result with
  | Ok (R_kernel k) ->
      Json.Obj
        [
          ("id", r.rs_id);
          ("ok", Json.Bool true);
          ("kernel", Json.String k.rk_kernel);
          ("arch", Json.String k.rk_arch);
          ("assembly", Json.String k.rk_assembly);
          ("degraded", Json.Bool k.rk_degraded);
          ("provenance", provenance_to_json k.rk_provenance);
        ]
  | Ok (R_blocked b) ->
      Json.Obj
        [
          ("id", r.rs_id);
          ("ok", Json.Bool true);
          ("arch", Json.String b.rb_arch);
          ( "blocking",
            Json.Obj
              [
                ("mc", Json.Int b.rb_mc);
                ("kc", Json.Int b.rb_kc);
                ("nc", Json.Int b.rb_nc);
              ] );
          ("mr", Json.Int b.rb_mr);
          ("nr", Json.Int b.rb_nr);
          ("micro_config", Json.String b.rb_micro_config);
          ( "assembly",
            Json.Obj
              [
                ("micro", Json.String b.rb_micro_assembly);
                ("pack_a", Json.String b.rb_pack_a_assembly);
                ("pack_b", Json.String b.rb_pack_b_assembly);
              ] );
          ( "mflops",
            Json.Obj
              [
                ("blocked", Json.Float b.rb_blocked_mflops);
                ("streamed", Json.Float b.rb_streamed_mflops);
                ( "speedup",
                  if b.rb_streamed_mflops > 0. then
                    Json.Float (b.rb_blocked_mflops /. b.rb_streamed_mflops)
                  else Json.Null );
              ] );
          ("tier", Json.String (tier_to_string b.rb_tier));
          ("degraded", Json.Bool b.rb_degraded);
          ("tuning_ms", Json.Float b.rb_tuning_ms);
        ]
  | Ok (R_stats s) ->
      Json.Obj [ ("id", r.rs_id); ("ok", Json.Bool true); ("stats", s) ]
  | Ok R_pong ->
      Json.Obj
        [ ("id", r.rs_id); ("ok", Json.Bool true); ("pong", Json.Bool true) ]
  | Ok R_shutting_down ->
      Json.Obj
        [
          ("id", r.rs_id);
          ("ok", Json.Bool true);
          ("shutting_down", Json.Bool true);
        ]
  | Error e ->
      Json.Obj
        [
          ("id", r.rs_id);
          ("ok", Json.Bool false);
          ( "error",
            Json.Obj
              [
                ("code", Json.String e.e_code);
                ("detail", Json.String e.e_detail);
              ] );
        ]

let response_line (r : response) : string = Json.to_string (response_to_json r)
