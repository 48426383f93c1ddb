(* A small transformation-script language playing the role POET plays
   in the paper: the optimization sequence applied by the Optimized C
   Kernel Generator is expressed as a text script, so tuning drivers
   and users can state configurations without writing OCaml.  A script
   denotes one tuner candidate, the configuration the tuner searches.

   Syntax: one directive per line (or ';'-separated); '#' starts a
   comment.

     unroll_jam <var> <factor>     # register blocking of an outer loop
     unroll <var> <factor>         # innermost loop unrolling
     expand <ways>                 # reduction accumulator expansion
     strength_reduce on|off
     scalar_replace on|off
     prefetch <distance>|off       # software prefetch distance
     prefer auto|vdup|shuf         # SIMD vectorization strategy
     width 64|128|256              # cap the vector width

   Directives apply in the fixed pipeline order of the paper (Figure 1);
   [unroll_jam] directives compose in the order written. *)

open Augem_transform
module Emit = Augem_driver.Emit
module Plan = Augem_codegen.Plan
module Insn = Augem_machine.Insn

(* line (1-based) of the offending directive, and the message *)
exception Script_error of int * string

let err ~line fmt = Fmt.kstr (fun s -> raise (Script_error (line, s))) fmt

(* Split into directives, each tagged with the 1-based source line it
   came from (';'-separated directives share their line). *)
let split_directives (src : string) : (int * string list) list =
  String.split_on_char '\n' src
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.concat_map (fun (ln, line) ->
         String.split_on_char ';' line |> List.map (fun seg -> (ln, seg)))
  |> List.map (fun (ln, seg) ->
         let seg =
           match String.index_opt seg '#' with
           | Some i -> String.sub seg 0 i
           | None -> seg
         in
         ( ln,
           String.split_on_char ' ' seg
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun w -> w <> "") ))
  |> List.filter (fun (_, words) -> words <> [])

let positive n = n >= 1

let int_arg ~line name s =
  match int_of_string_opt s with
  | Some n when positive n -> n
  | Some _ | None -> err ~line "%s expects a positive integer, got %S" name s

let onoff ~line name = function
  | "on" -> true
  | "off" -> false
  | s -> err ~line "%s expects on or off, got %S" name s

let apply_directive (c : Tuner.candidate) ((line, words) : int * string list)
    : Tuner.candidate =
  let cfg = c.Tuner.cand_config and opts = c.Tuner.cand_opts in
  let config cfg = { c with Tuner.cand_config = cfg } in
  match words with
  | [ "unroll_jam"; var; f ] ->
      let jam = cfg.Pipeline.jam @ [ (var, int_arg ~line "unroll_jam" f) ] in
      config { cfg with Pipeline.jam }
  | [ "unroll"; var; f ] ->
      let f = int_arg ~line "unroll" f in
      config { cfg with Pipeline.inner_unroll = Some (var, f) }
  | [ "expand"; w ] ->
      let w = int_arg ~line "expand" w in
      config { cfg with Pipeline.expand_reduction = Some w }
  | [ "strength_reduce"; v ] ->
      let v = onoff ~line "strength_reduce" v in
      config { cfg with Pipeline.strength_reduce = v }
  | [ "scalar_replace"; v ] ->
      config { cfg with Pipeline.scalar_replace = onoff ~line "scalar_replace" v }
  | [ "prefetch"; "off" ] -> config { cfg with Pipeline.prefetch = None }
  | [ "prefetch"; d ] ->
      let pf_distance = int_arg ~line "prefetch" d in
      config
        { cfg with Pipeline.prefetch = Some { Prefetch.pf_distance; pf_stores = true } }
  | [ "prefer"; p ] -> (
      match Plan.prefer_of_name p with
      | Some prefer -> { c with Tuner.cand_opts = { opts with Emit.prefer } }
      | None -> err ~line "prefer expects auto, vdup or shuf, got %S" p)
  | [ "width"; w ] -> (
      (* the bits exactly as written: "0x40" is not 64 here *)
      match Option.bind (int_of_string_opt w) Insn.width_of_bits with
      | Some mw when string_of_int (Insn.width_bits mw) = w ->
          { c with Tuner.cand_opts = { opts with Emit.max_width = Some mw } }
      | _ -> err ~line "width expects 64, 128 or 256, got %S" w)
  | cmd :: _ -> err ~line "unknown directive %S" cmd
  | [] -> c

(* An empty script is the pipeline's defaults under the default emit
   options.  [Script_error] carries the structured (line, message)
   payload. *)
let parse_exn (src : string) : Tuner.candidate =
  List.fold_left apply_directive
    { Tuner.cand_config = Pipeline.default; cand_opts = Emit.default_options }
    (split_directives src)

let parse (src : string) : (Tuner.candidate, string) result =
  match parse_exn src with
  | c -> Ok c
  | exception Script_error (line, msg) ->
      Error (Printf.sprintf "line %d: %s" line msg)

let to_string (c : Tuner.candidate) : string =
  let b = Buffer.create 128 in
  let cfg = c.Tuner.cand_config and opts = c.Tuner.cand_opts in
  List.iter
    (fun (v, f) -> Printf.bprintf b "unroll_jam %s %d\n" v f)
    cfg.Pipeline.jam;
  Option.iter
    (fun (v, f) -> Printf.bprintf b "unroll %s %d\n" v f)
    cfg.Pipeline.inner_unroll;
  Option.iter (Printf.bprintf b "expand %d\n") cfg.Pipeline.expand_reduction;
  if not cfg.Pipeline.strength_reduce then
    Buffer.add_string b "strength_reduce off\n";
  if not cfg.Pipeline.scalar_replace then
    Buffer.add_string b "scalar_replace off\n";
  (match cfg.Pipeline.prefetch with
  | Some p -> Printf.bprintf b "prefetch %d\n" p.Prefetch.pf_distance
  | None -> Buffer.add_string b "prefetch off\n");
  if opts.Emit.prefer <> Plan.Prefer_auto then
    Printf.bprintf b "prefer %s\n" (Plan.prefer_name opts.Emit.prefer);
  Option.iter
    (fun w -> Printf.bprintf b "width %d\n" (Insn.width_bits w))
    opts.Emit.max_width;
  Buffer.contents b
