(* The extension surface beyond the paper: the GER / DSCAL / DCOPY
   kernels (the latter two matched by the new svSCAL / svCOPY
   templates), driven by a transformation script — the mini-POET layer.

     dune exec examples/extension_kernels.exe *)

module A = Augem
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module T = A.Templates.Template
module M = A.Templates.Matcher

let script_text = "unroll i 8\nprefetch 8\n"

let () =
  let script =
    match A.Script.parse script_text with Ok c -> c | Error m -> failwith m
  in
  let generate ~arch =
    A.generate ~arch ~config:script.A.Tuner.cand_config
      ~opts:script.A.Tuner.cand_opts
  in
  Fmt.pr "transformation script:@.%s@." script_text;
  List.iter
    (fun (arch : Arch.t) ->
      Fmt.pr "=== %s ===@." arch.Arch.model;
      List.iter
        (fun kname ->
          let g = generate ~arch kname in
          let v = A.verify g in
          (* which templates did the identifier find? *)
          let regions =
            M.regions (M.identify g.A.g_optimized)
            |> List.map (fun r ->
                   Printf.sprintf "%s(%d)" (T.region_name r) (T.region_size r))
            |> fun l ->
            (match l with x :: _ -> x | [] -> "-")
          in
          let w = A.Tuner.reference_workload kname in
          let est = A.predict g w in
          Fmt.pr "  %-6s matched %-20s verified=%-5b %8.0f M%s/s@."
            (Kernels.name_to_string kname)
            regions v.A.Harness.ok est.A.Sim.Perf.e_mflops
            (match kname with Kernels.Copy -> "elems" | _ -> "flops"))
        Kernels.[ Ger; Scal; Copy ];
      Fmt.pr "@.")
    Arch.extended;
  (* show the generated DSCAL inner loop on Haswell *)
  let g = generate ~arch:Arch.haswell Kernels.Scal in
  let asm = A.assembly g in
  Fmt.pr "--- DSCAL hot loop on %s ---@." Arch.haswell.Arch.model;
  let lines = String.split_on_char '\n' asm in
  let from_body =
    let rec go = function
      | [] -> []
      | l :: rest ->
          if String.length l > 6 && String.sub l 0 6 = ".Lbody" then l :: rest
          else go rest
    in
    go lines
  in
  let rec upto_jl = function
    | [] -> []
    | l :: rest ->
        if String.length l > 3 && String.sub l 1 2 = "jl" then [ l ]
        else l :: upto_jl rest
  in
  List.iter print_endline (upto_jl from_body)
