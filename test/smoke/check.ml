(* The checker behind the smoke aliases (@bench-smoke, @blocked-smoke,
   @native-smoke, @serve-smoke):

     check.exe FILE...

   A [.json] argument is a BENCH_*.json artifact of a --smoke run of
   bench/main.exe; its "experiment" field picks its schema, and a file
   named BENCH_<name>.json must hold experiment <name>.  Any other
   argument is the transcript of a scripted `augem serve --stdio`
   session, one JSON response per line.  Each expected shape is a schema
   value; one interpreter ([walk]) goes through an input and its schema
   together and reports every violation with its JSON path.  The few
   gates that relate two fields or two artifacts are plain functions
   after the schemas, run on inputs that fit their schema.  Exits 1 if
   anything was violated. *)

module Json = Augem.Json

(* --- schemas --------------------------------------------------------- *)

type schema =
  | Leaf of string * (Json.t -> bool)  (** what is expected, and its test *)
  | List of schema  (** a non-empty array of [schema] *)
  | Tuple of schema list  (** an array of exactly these, in order *)
  | Obj of (string * schema) list  (** an object with at least these fields *)
  | Map of string list * schema
      (** an object with at least these keys, every value a [schema] *)
  | Variant of string * (Json.t * schema) list
      (** an object whose field [tag] picks the schema of the whole
          object *)

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let str =
  Leaf ("a non-empty string", function Json.String s -> s <> "" | _ -> false)

let str_is s = Leaf (Printf.sprintf "%S" s, ( = ) (Json.String s))

let longer_than n =
  Leaf
    ( Printf.sprintf "a string of more than %d characters" n,
      function Json.String s -> String.length s > n | _ -> false )

let bool = Leaf ("a boolean", function Json.Bool _ -> true | _ -> false)
let bool_is b = Leaf (string_of_bool b, ( = ) (Json.Bool b))
let int_is n = Leaf (string_of_int n, ( = ) (Json.Int n))

let int_ge n =
  Leaf
    ( Printf.sprintf "an integer >= %d" n,
      function Json.Int i -> i >= n | _ -> false )

let num = Leaf ("a number", fun j -> number j <> None)

let num_ge x =
  Leaf
    ( Printf.sprintf "a number >= %g" x,
      fun j -> match number j with Some f -> f >= x | None -> false )

let positive =
  Leaf
    ( "a positive number",
      fun j -> match number j with Some f -> f > 0. | None -> false )

(* [skipped: true] always comes with a reason; [skipped: false] with the
   measured fields. *)
let skipped_or ~common measured =
  Variant
    ( "skipped",
      [
        (Json.Bool true, Obj (("reason", str) :: common));
        (Json.Bool false, Obj (common @ measured));
      ] )

(* bench/main.exe models these two CPUs, in this order *)
let both_arches fields =
  let arch name = Obj (("arch", str_is name) :: ("model", str) :: fields) in
  Tuple [ arch "sandybridge"; arch "piledriver" ]

(* Only an empty series has a null mean, and [points] is non-empty. *)
let series =
  Obj
    [
      ("label", str);
      ("points", List (Obj [ ("size", int_ge 1); ("mflops", num) ]));
      ("mean_mflops", num);
    ]

let figure =
  let speedup =
    Obj [ ("baseline", str_is "AUGEM"); ("vs", str); ("percent", num) ]
  in
  Obj
    [
      ("title", str);
      ("kernel", str);
      ("x_label", str);
      ( "arches",
        both_arches [ ("series", List series); ("speedups", List speedup) ] );
    ]

let blocking = Obj [ ("mc", int_ge 1); ("kc", int_ge 1); ("nc", int_ge 1) ]
let shape =
  [ ("m", int_ge 1); ("n", int_ge 1); ("k", int_ge 1); ("ok", bool_is true) ]

(* [floor]: blocked over streamed at the largest size, on every arch *)
let full ~precision ~floor =
  Obj
    [
      ("precision", str_is precision);
      ("title", str);
      ("x_label", str);
      ("largest", int_ge 1);
      ( "arches",
        both_arches
          [
            ("blocking", blocking);
            ("mr", int_ge 1);
            ("nr", int_ge 1);
            ("micro_config", str);
            ("series", List series);
            ("speedup_at_largest", num_ge floor);
            ("differential", List (Obj shape));
          ] );
    ]

let table6 =
  let row =
    Obj [ ("routine", str); ("mean_mflops", Map ([ "AUGEM" ], num)) ]
  in
  Obj [ ("title", str); ("arches", both_arches [ ("rows", List row) ]) ]

let sweep =
  Obj
    [
      ("jobs", int_ge 1);
      ( "runs",
        List
          (Obj
             [
               ("arch", str);
               ("kernel", str);
               ("visited", int_ge 0);
               ("discarded", int_ge 0);
               ("fell_back", bool_is false);
               ("best_config", str);
               ("best_mflops", num);
             ]) );
      ( "timings",
        List
          (Obj
             [
               ("jobs", int_ge 1);
               ("wall_s", num);
               ("candidates", int_ge 0);
               ("candidates_per_sec", num);
             ]) );
      ("speedup", num);
      ("speedup_min", num);
      ("speedup_max", num);
      ( "blocked",
        List
          (Obj
             [
               ("arch", str);
               ("precision", str);
               ("candidates", int_ge 1);
               ("blockings", int_ge 0);
               ("wall_s", positive);
             ]) );
    ]

let host_features = [ "sse2"; "avx"; "fma3"; "fma4" ]

(* the kernel that ran, and the size of the model's exact-tie set the
   clock kept it from *)
let picked = Obj [ ("config", str); ("ties", int_ge 1) ]

(* one timed (shape, jobs) point *)
let timed =
  [
    ("jobs", int_ge 1);
    ("mflops", positive);
    ("predicted_mflops", positive);
    ("runs", int_ge 1);
    ("min_s", positive);
    ("mean_s", positive);
    ("max_s", positive);
    (* in round order; [native_samples] relates them to [runs], [min_s] *)
    ("samples_s", List positive);
  ]

let native_gemm ~name ~precision =
  skipped_or
    ~common:[ ("name", str_is name); ("precision", str_is precision) ]
    [
      ("arch", str);
      ("blocking", blocking);
      ("kernels", Map ([ "micro"; "pack_a"; "pack_b"; "scal" ], picked));
      ("differential", List (Obj (("alpha", num) :: ("beta", num) :: shape)));
      ("points", List (Obj (("size", int_ge 1) :: timed)));
      (* the rank-k update whose columns the workers share *)
      ( "rank_k",
        List
          (Obj (("m", int_ge 1) :: ("n", int_ge 1) :: ("k", int_ge 1) :: timed))
      );
    ]

(* exactly one DGEMM and one SGEMM entry, each skipped or measured *)
let native =
  skipped_or
    ~common:[ ("host", Map (host_features, bool)) ]
    [
      ("largest", int_ge 1);
      ( "precisions",
        Tuple
          [
            native_gemm ~name:"DGEMM" ~precision:"f64";
            native_gemm ~name:"SGEMM" ~precision:"f32";
          ] );
    ]

let serve =
  let phase = Obj [ ("count", int_ge 1); ("mean_ms", num); ("max_ms", num) ] in
  Obj
    [
      ("mode", str_is "smoke");
      ("kernels", List str);
      ("clients", int_ge 1);
      ("requests_per_client", int_ge 1);
      ("cold", phase);
      ("warm", phase);
      (* the warm (memory-tier) path is at least 10x faster than cold *)
      ("speedup", num_ge 10.);
      ( "stats",
        Obj
          [
            ("requests", Obj [ ("tune", int_ge 0) ]);
            ("tiers", Obj [ ("tuned", int_ge 0); ("memory", int_ge 0) ]);
          ] );
    ]

let artifact =
  Variant
    ( "experiment",
      List.map
        (fun (name, s) -> (Json.String name, s))
        [
          ("fig18", figure);
          ("fig19", figure);
          ("fig20", figure);
          ("fig21", figure);
          ("full", full ~precision:"f64" ~floor:2.0);
          ("full_f32", full ~precision:"f32" ~floor:1.5);
          ("table6", table6);
          ("sweep", sweep);
          ("native", native);
          ("serve", serve);
        ] )

(* The responses to test/smoke/serve_requests.txt: a tune request from a
   real sweep and its in-memory repeat, a ping, a blocked plan and its
   repeat, and a stats snapshot that agrees exactly with that session. *)
let transcript =
  let response id fields =
    Obj (("id", int_is id) :: ("ok", bool_is true) :: fields)
  in
  let zeros keys = Obj (List.map (fun k -> (k, int_is 0)) keys) in
  Tuple
    [
      response 1
        [
          ("degraded", bool_is false);
          ( "provenance",
            Obj [ ("tier", str_is "tuned"); ("fell_back", bool_is false) ] );
          ("assembly", longer_than 16);
        ];
      response 2 [ ("provenance", Obj [ ("tier", str_is "memory") ]) ];
      response 3 [ ("pong", bool_is true) ];
      response 4 [ ("degraded", bool_is false); ("tier", str_is "tuned") ];
      response 5 [ ("degraded", bool_is false); ("tier", str_is "memory") ];
      response 6
        [
          ( "stats",
            Obj
              [
                ( "requests",
                  Obj
                    [
                      ("tune", int_is 2);
                      ("blocked", int_is 2);
                      ("ping", int_is 1);
                      ("stats", int_is 1);
                    ] );
                ( "tiers",
                  Obj
                    [
                      ("tuned", int_is 2);
                      ("memory", int_is 2);
                      ("coalesced", int_is 0);
                    ] );
                ("rejects", zeros [ "overload" ]);
                ("errors", int_is 0);
                ( "resilience",
                  zeros
                    [
                      "worker_deaths";
                      "worker_restarts";
                      "breaker_open";
                      "breaker_open_total";
                      "cache_quarantined";
                    ] );
                ("degraded", zeros [ "lost"; "breaker_open" ]);
                ("uptime_ms", num_ge 0.);
                ("native", Map ("supported" :: host_features, bool));
                (* only tune and blocked requests are timed *)
                ("request_ms", Obj [ ("count", int_is 4) ]);
              ] );
        ];
    ]

(* --- the interpreter ------------------------------------------------- *)

let violations = ref 0

let violation file fmt =
  Printf.ksprintf
    (fun msg ->
      incr violations;
      Printf.eprintf "check: FAIL %s: %s\n" file msg)
    fmt

let show j =
  let s = Json.to_string j in
  if String.length s > 60 then String.sub s 0 57 ^ "..." else s

let rec walk file path schema (j : Json.t) =
  let field k = path ^ "." ^ k in
  match (schema, j) with
  | Leaf (what, ok), _ ->
      if not (ok j) then
        violation file "%s: expected %s, got %s" path what (show j)
  | List _, Json.List [] -> violation file "%s: expected a non-empty array" path
  | List s, Json.List l ->
      List.iteri (fun i x -> walk file (Printf.sprintf "%s[%d]" path i) s x) l
  | Tuple ss, Json.List l ->
      if List.length ss <> List.length l then
        violation file "%s: expected %d elements, got %d" path (List.length ss)
          (List.length l);
      List.iteri
        (fun i s ->
          Option.iter
            (walk file (Printf.sprintf "%s[%d]" path i) s)
            (List.nth_opt l i))
        ss
  | Obj fields, Json.Obj _ ->
      List.iter
        (fun (k, s) ->
          match Json.member k j with
          | Some v -> walk file (field k) s v
          | None -> violation file "%s: missing" (field k))
        fields
  | Map (keys, s), Json.Obj kvs ->
      List.iter
        (fun k ->
          if not (List.mem_assoc k kvs) then
            violation file "%s: missing" (field k))
        keys;
      List.iter (fun (k, v) -> walk file (field k) s v) kvs
  | Variant (tag, cases), Json.Obj _ -> (
      match Json.member tag j with
      | None -> violation file "%s: missing" (field tag)
      | Some t -> (
          match List.assoc_opt t cases with
          | Some s -> walk file path s j
          | None ->
              violation file "%s: expected one of %s, got %s" (field tag)
                (String.concat ", "
                   (List.map (fun (v, _) -> Json.to_string v) cases))
                (show t)))
  | (List _ | Tuple _), _ ->
      violation file "%s: expected an array, got %s" path (show j)
  | (Obj _ | Map _ | Variant _), _ ->
      violation file "%s: expected an object, got %s" path (show j)

(* --- cross-field gates ----------------------------------------------- *)

(* Field access on inputs that already fit their schema. *)
let ( .%{} ) j k = Option.value (Json.member k j) ~default:Json.Null
let to_num j = Option.value (number j) ~default:Float.nan
let to_list = function Json.List l -> l | _ -> []
let to_str = function Json.String s -> s | j -> Json.to_string j

(* The "AUGEM blocked" MFLOPS at the sweep's largest size, per arch. *)
let blocked_at_largest file j : (string * float) list =
  List.filter_map
    (fun a ->
      let arch = to_str a.%{"arch"} in
      let point =
        List.find_map
          (fun s ->
            if s.%{"label"} <> Json.String "AUGEM blocked" then None
            else
              List.find_opt
                (fun p -> p.%{"size"} = j.%{"largest"})
                (to_list s.%{"points"}))
          (to_list a.%{"series"})
      in
      match point with
      | Some p -> Some (arch, to_num p.%{"mflops"})
      | None ->
          violation file "%s: no \"AUGEM blocked\" point at the largest size %s"
            arch (show j.%{"largest"});
          None)
    (to_list j.%{"arches"})

(* Halving the element width must pay: f32 delivers at least 1.5x the
   f64 MFLOPS at the largest size, on every arch. *)
let f32_over_f64 file ~f64 ~f32 =
  List.iter
    (fun (arch, m32) ->
      Option.iter
        (fun m64 ->
          if not (m64 > 0. && m32 >= 1.5 *. m64) then
            violation file
              "%s: f32 %.0f vs f64 %.0f MFLOPS at the largest size (want \
               f32 >= 1.5x f64 > 0)"
              arch m32 m64)
        (List.assoc_opt arch f64))
    f32

(* The measured SGEMM/DGEMM ordering at the largest size matches the
   model's (f32 has twice the lanes, so both should favour SGEMM), for
   each worker count both precisions were timed at. *)
let native_ordering file j =
  match to_list j.%{"precisions"} with
  | [ d; s ]
    when d.%{"skipped"} = Json.Bool false && s.%{"skipped"} = Json.Bool false
    ->
      let at_largest pr jobs =
        List.fold_left
          (fun best p ->
            if p.%{"jobs"} <> jobs then best
            else
              match best with
              | Some b when to_num b.%{"size"} >= to_num p.%{"size"} -> best
              | _ -> Some p)
          None
          (to_list pr.%{"points"})
      in
      let v p k = to_num p.%{k} in
      List.iter
        (fun jobs ->
          match (at_largest d jobs, at_largest s jobs) with
          | Some pd, Some ps ->
              if pd.%{"size"} <> ps.%{"size"} then
                violation file
                  "jobs %s: DGEMM/SGEMM largest sizes differ: %s vs %s"
                  (show jobs) (show pd.%{"size"}) (show ps.%{"size"})
              else if v ps "mflops" > v pd "mflops"
                      <> (v ps "predicted_mflops" > v pd "predicted_mflops")
              then
                violation file
                  "jobs %s: measured ordering at size %s (SGEMM %.0f vs DGEMM \
                   %.0f) contradicts the model's (%.0f vs %.0f)"
                  (show jobs) (show pd.%{"size"}) (v ps "mflops")
                  (v pd "mflops") (v ps "predicted_mflops")
                  (v pd "predicted_mflops")
          | _ -> ())
        (List.sort_uniq compare
           (List.map (fun p -> p.%{"jobs"}) (to_list d.%{"points"})))
  | _ -> ()

(* Every timed point holds [runs] samples, and the least of them is its
   [min_s]. *)
let native_samples file j =
  List.iter
    (fun pr ->
      List.iter
        (fun p ->
          let samples = List.map to_num (to_list p.%{"samples_s"}) in
          if Json.Int (List.length samples) <> p.%{"runs"} then
            violation file "%s: %d samples_s for %s runs"
              (to_str pr.%{"name"}) (List.length samples) (show p.%{"runs"})
          else if
            List.fold_left Float.min infinity samples <> to_num p.%{"min_s"}
          then
            violation file "%s: least of samples_s %s is not min_s %s"
              (to_str pr.%{"name"}) (show p.%{"samples_s"}) (show p.%{"min_s"}))
        (to_list pr.%{"points"} @ to_list pr.%{"rank_k"}))
    (to_list j.%{"precisions"})

(* The sweep's speed-up, a median, lies within its spread. *)
let sweep_spread file j =
  let v k = to_num j.%{k} in
  if not (v "speedup_min" <= v "speedup" && v "speedup" <= v "speedup_max")
  then
    violation file "speedup %g outside its spread [%g, %g]" (v "speedup")
      (v "speedup_min") (v "speedup_max")

(* The embedded stats snapshot agrees with the request counts. *)
let serve_counts file j =
  let stats = j.%{"stats"} in
  let count phase = int_of_float (to_num j.%{phase}.%{"count"}) in
  let expect what got want =
    if got <> Json.Int want then
      violation file "%s is %s, expected %d" what (show got) want
  in
  expect "stats.tiers.tuned" stats.%{"tiers"}.%{"tuned"} (count "cold");
  expect "stats.tiers.memory" stats.%{"tiers"}.%{"memory"} (count "warm");
  expect "stats.requests.tune" stats.%{"requests"}.%{"tune"}
    (count "cold" + count "warm")

(* --- main ------------------------------------------------------------ *)

let read_transcript file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.mapi (fun i l ->
         match Json.parse l with
         | Ok j -> j
         | Error e ->
             violation (Filename.basename file) "line %d: unparsable JSON (%s)"
               (i + 1) e;
             Json.Null)

(* Walks one input against its schema; returns the artifacts that fit,
   as (experiment, file, value), for the gates. *)
let check file : (string * string * Json.t) list =
  let name = Filename.basename file in
  let before = !violations in
  if Filename.check_suffix file ".json" then
    match Json.of_file file with
    | Error e ->
        violation name "%s" e;
        []
    | Ok j ->
        walk name "$" artifact j;
        (* BENCH_<name>.json holds experiment <name> *)
        (match Filename.chop_suffix_opt ~suffix:".json" name with
        | Some stem when String.starts_with ~prefix:"BENCH_" stem ->
            let want =
              Json.String (String.sub stem 6 (String.length stem - 6))
            in
            if j.%{"experiment"} <> want then
              violation name "$.experiment: expected %s for this file, got %s"
                (Json.to_string want) (show j.%{"experiment"})
        | _ -> ());
        if !violations = before then [ (to_str j.%{"experiment"}, name, j) ]
        else []
  else
    match read_transcript file with
    | lines ->
        walk name "$" transcript (Json.List lines);
        []
    | exception Sys_error e ->
        violation name "%s" e;
        []

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "usage: check.exe FILE...";
    exit 2
  end;
  let valid = List.concat_map check files in
  List.iter
    (fun (experiment, file, j) ->
      match experiment with
      | "native" ->
          native_samples file j;
          native_ordering file j
      | "sweep" -> sweep_spread file j
      | "serve" -> serve_counts file j
      | _ -> ())
    valid;
  let blocked experiment =
    List.find_map
      (fun (e, file, j) ->
        if e = experiment then Some (file, blocked_at_largest file j) else None)
      valid
  in
  (match (blocked "full", blocked "full_f32") with
  | Some (_, f64), Some (file, f32) -> f32_over_f64 file ~f64 ~f32
  | _ -> ());
  if !violations > 0 then begin
    Printf.eprintf "check: %d violation(s)\n" !violations;
    exit 1
  end
  else
    Printf.printf "check: %s fit their schemas\n"
      (String.concat ", " (List.map Filename.basename files))
