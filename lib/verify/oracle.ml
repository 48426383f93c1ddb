(* Per-pass differential oracle over the transformation pipeline.
   See oracle.mli. *)

open Augem_ir
module Pipeline = Augem_transform.Pipeline

type reason =
  | R_crash of string
  | R_type_error of string
  | R_eval_fault of string
  | R_diverged of string

type divergence = {
  div_pass : string;
  div_pass_index : int;
  div_reason : reason;
  div_before : Ast.kernel;
  div_after : Ast.kernel option;
  div_diff : string;
}

let reason_to_string = function
  | R_crash m -> "pass crashed: " ^ m
  | R_type_error m -> "output ill-typed: " ^ m
  | R_eval_fault m -> "interpreter fault: " ^ m
  | R_diverged m -> "output diverged: " ^ m

(* --- IR line diff ------------------------------------------------------- *)

(* Classic LCS over pretty-printed lines; equal runs longer than five
   lines are elided.  Kernels are small, O(n*m) is nothing. *)
let diff_lines (a : string) (b : string) : string =
  let la = Array.of_list (String.split_on_char '\n' a) in
  let lb = Array.of_list (String.split_on_char '\n' b) in
  let n = Array.length la and m = Array.length lb in
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if la.(i) = lb.(j) then 1 + lcs.(i + 1).(j + 1)
         else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let out = Buffer.create 256 in
  let equal_run = ref [] in
  let flush_equal () =
    let run = List.rev !equal_run in
    equal_run := [];
    let len = List.length run in
    if len <= 5 then
      List.iter (fun l -> Buffer.add_string out ("  " ^ l ^ "\n")) run
    else (
      List.iteri
        (fun i l ->
          if i < 2 || i >= len - 2 then
            Buffer.add_string out ("  " ^ l ^ "\n")
          else if i = 2 then
            Buffer.add_string out
              (Printf.sprintf "  ... (%d unchanged lines)\n" (len - 4)))
        run)
  in
  let rec go i j =
    if i < n && j < m && la.(i) = lb.(j) then (
      equal_run := la.(i) :: !equal_run;
      go (i + 1) (j + 1))
    else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then (
      flush_equal ();
      Buffer.add_string out ("+ " ^ lb.(j) ^ "\n");
      go i (j + 1))
    else if i < n then (
      flush_equal ();
      Buffer.add_string out ("- " ^ la.(i) ^ "\n");
      go (i + 1) j)
    else flush_equal ()
  in
  go 0 0;
  Buffer.contents out

let divergence_to_string d =
  Printf.sprintf
    "pass #%d \"%s\" miscompiled: %s\n--- IR before / after the pass ---\n%s"
    d.div_pass_index d.div_pass
    (reason_to_string d.div_reason)
    d.div_diff

(* --- randomized inputs -------------------------------------------------- *)

let fill seed n =
  let state = ref (seed land 0x3FFFFFFF) in
  Array.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      (float_of_int !state /. 1073741824.0 *. 2.0) -. 1.0)

(* For single-precision kernels the inputs themselves are rounded to
   f32-representable values, so the real-arithmetic interpreter and the
   f32 machine simulation start from identical data and only accumulate
   rounding inside the computation. *)
let f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let default_inputs ?(sizes = [ 4; 7 ]) ?(seed = 19) (k : Ast.kernel) :
    Eval.arg list list =
  let single =
    Ast.fp_type_of_params k.Ast.k_params ~p_type:(fun p -> p.Ast.p_type)
    = Ast.Float
  in
  let narrow x = if single then f32 x else x in
  List.mapi
    (fun si n ->
      (* large enough for any quadratic subscript of the size params *)
      let buf_len = ((n + 4) * (n + 4)) + (4 * n) + 16 in
      List.mapi
        (fun pi (p : Ast.param) ->
          match p.Ast.p_type with
          | Ast.Int -> Eval.Aint n
          | Ast.Double | Ast.Float ->
              Eval.Adouble (narrow (1.25 +. (0.5 *. float_of_int pi)))
          | Ast.Ptr _ ->
              Eval.Abuf
                (Array.map narrow (fill (seed + (31 * si) + pi) buf_len)))
        k.Ast.k_params)
    sizes

(* --- differential check ------------------------------------------------- *)

let copy_args = List.map (function
  | Eval.Abuf b -> Eval.Abuf (Array.copy b)
  | a -> a)

let bufs_of args =
  List.filter_map (function Eval.Abuf b -> Some b | _ -> None) args

(* Run a kernel on (copies of) the argument set; the resulting buffer
   contents are the observable behaviour. *)
let run_kernel (k : Ast.kernel) (args : Eval.arg list) :
    (float array list, string) result =
  let args = copy_args args in
  match Eval.run k args with
  | _stats -> Ok (bufs_of args)
  | exception Eval.Eval_error m -> Error m

let close ~tol a b = Float.abs (a -. b) <= tol *. (1.0 +. Float.abs a +. Float.abs b)

(* First element-wise mismatch between reference and candidate buffer
   sets, if any. *)
let compare_bufs ~tol (refs : float array list) (got : float array list) :
    string option =
  let rec go bi rs gs =
    match (rs, gs) with
    | [], [] -> None
    | r :: rs', g :: gs' ->
        if Array.length r <> Array.length g then
          Some (Printf.sprintf "buffer #%d length %d vs %d" bi
                  (Array.length r) (Array.length g))
        else
          let bad = ref None in
          Array.iteri
            (fun i x ->
              if !bad = None && not (close ~tol x g.(i)) then
                bad :=
                  Some
                    (Printf.sprintf "buffer #%d element %d: expected %.12g, got %.12g"
                       bi i x g.(i)))
            r;
          (match !bad with None -> go (bi + 1) rs' gs' | some -> some)
    | _ -> Some "buffer count changed"
  in
  go 0 refs got

let check_passes ?(tol = 1e-9) ~inputs (k0 : Ast.kernel) passes :
    (Ast.kernel, divergence) result =
  let refs =
    List.map
      (fun args ->
        match run_kernel k0 args with
        | Ok bufs -> bufs
        | Error m ->
            invalid_arg
              (Printf.sprintf "Oracle.check_passes: source kernel faults: %s" m))
      inputs
  in
  let diverge idx name before after reason =
    Error
      {
        div_pass = name;
        div_pass_index = idx;
        div_reason = reason;
        div_before = before;
        div_after = after;
        div_diff =
          (match after with
          | None -> "(pass produced no output)"
          | Some k' ->
              diff_lines (Pp.kernel_to_string before) (Pp.kernel_to_string k'));
      }
  in
  let rec go idx k = function
    | [] -> Ok k
    | (name, pass) :: rest -> (
        match pass k with
        | exception exn ->
            diverge idx name k None (R_crash (Printexc.to_string exn))
        | k' -> (
            match Typecheck.check_kernel k' with
            | exception Typecheck.Type_error m ->
                diverge idx name k (Some k') (R_type_error m)
            | () ->
                let rec run_inputs inputs refs =
                  match (inputs, refs) with
                  | [], [] -> None
                  | args :: inputs', expect :: refs' -> (
                      match run_kernel k' args with
                      | Error m -> Some (R_eval_fault m)
                      | Ok got -> (
                          match compare_bufs ~tol expect got with
                          | Some m -> Some (R_diverged m)
                          | None -> run_inputs inputs' refs'))
                  | _ -> Some (R_diverged "input/reference count mismatch")
                in
                (match run_inputs inputs refs with
                | Some reason -> diverge idx name k (Some k') reason
                | None -> go (idx + 1) k' rest)))
  in
  go 0 k0 passes

let check ?tol ?inputs (k : Ast.kernel) (config : Pipeline.config) :
    (Ast.kernel, divergence) result =
  let inputs = match inputs with Some i -> i | None -> default_inputs k in
  let tol =
    match tol with
    | Some t -> t
    | None ->
        (* element-type-scaled default: single-precision kernels get the
           f32 epsilon floor, double keeps the historical 1e-9 *)
        let module Et = Augem_machine.Etype in
        let et =
          if
            Ast.fp_type_of_params k.Ast.k_params ~p_type:(fun p ->
                p.Ast.p_type)
            = Ast.Float
          then Et.F32
          else Et.F64
        in
        Et.tol et
  in
  check_passes ~tol ~inputs k (Pipeline.passes config)

let apply_checked ?tol ?inputs (k : Ast.kernel) (config : Pipeline.config) :
    (Ast.kernel, divergence) result =
  match check ?tol ?inputs k config with
  | Error _ as e -> e
  | Ok k' -> (
      (* same final obligation as Pipeline.apply *)
      match Typecheck.check_kernel k' with
      | () -> Ok k'
      | exception Typecheck.Type_error m ->
          Error
            {
              div_pass = "final-typecheck";
              div_pass_index = List.length (Pipeline.passes config);
              div_reason = R_type_error m;
              div_before = k';
              div_after = Some k';
              div_diff = "";
            })

(* --- static machine-code verification ----------------------------------- *)

(* The differential oracle above checks the IR pipeline; this runs the
   machine-code static checker (CFG + dataflow lints) on the final
   generated program, alongside the dynamic comparison the harness
   does.  A thin re-export so verification callers need only this
   module. *)
let check_static ~avx ?params (p : Augem_machine.Insn.program) :
    Augem_analysis.Asmcheck.finding list =
  let config =
    match params with
    | Some params -> Augem_analysis.Asmcheck.config_for ~avx ~params
    | None -> Augem_analysis.Asmcheck.conservative ~avx
  in
  Augem_analysis.Asmcheck.check ~config p
