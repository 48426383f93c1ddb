(* The empirical tuner: every (architecture, kernel) pair must yield a
   viable, verified configuration; discarded counts reflect register
   pressure; the cache is stable. *)

module A = Augem
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module Tuner = A.Tuner

let archs = [ Arch.sandy_bridge; Arch.piledriver ]
let kernels = Kernels.[ Gemm; Gemv; Axpy; Dot; Ger ]

let test_tuner_finds_config () =
  List.iter
    (fun arch ->
      List.iter
        (fun k ->
          let r = Tuner.tuned arch k in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s positive score" arch.Arch.name
               (Kernels.name_to_string k))
            true (r.Tuner.best_score > 0.);
          Alcotest.(check bool) "visited some configurations" true
            (r.Tuner.visited > 1))
        kernels)
    archs

let test_tuned_kernels_verify () =
  List.iter
    (fun arch ->
      List.iter
        (fun k ->
          let r = Tuner.tuned arch k in
          let o = A.Harness.verify k r.Tuner.best_program in
          if not o.A.Harness.ok then
            Alcotest.failf "tuned %s on %s: %s" (Kernels.name_to_string k)
              arch.Arch.name o.A.Harness.detail)
        kernels)
    archs

let test_gemm_discards_big_blockings () =
  (* the gemm space contains configurations that exceed 16 SIMD
     registers; they must be discarded, not crash *)
  let r = Tuner.tune Arch.sandy_bridge Kernels.Gemm in
  Alcotest.(check bool) "some discarded" true (r.Tuner.discarded > 0)

let test_tuner_beats_minimum () =
  (* the tuned gemm must beat the no-unrolling baseline by a wide margin *)
  let arch = Arch.sandy_bridge in
  let r = Tuner.tuned arch Kernels.Gemm in
  let base =
    let cfg = { A.Transform.Pipeline.default with jam = [ ("j", 1); ("i", 1) ] } in
    let g = A.generate ~arch ~config:cfg Kernels.Gemm in
    (A.predict g (Tuner.reference_workload Kernels.Gemm)).A.Sim.Perf.e_mflops
  in
  Alcotest.(check bool)
    (Printf.sprintf "tuned %.0f > 2x scalar %.0f" r.Tuner.best_score base)
    true
    (r.Tuner.best_score > 2.0 *. base)

let test_cache_stable () =
  let r1 = Tuner.tuned Arch.piledriver Kernels.Axpy in
  let r2 = Tuner.tuned Arch.piledriver Kernels.Axpy in
  Alcotest.(check bool) "same result object" true (r1 == r2)

(* [AUGEM_CACHE_DIR=] names no directory: it means no disk tier, not a
   store that fails on every sweep. *)
let test_empty_cache_dir () =
  let saved = Tuner.cache_dir () in
  Fun.protect
    ~finally:(fun () -> Tuner.set_cache_dir saved)
    (fun () ->
      Tuner.set_cache_dir (Some "");
      Alcotest.(check (option string)) "no disk tier" None (Tuner.cache_dir ()))

let test_explicit_workload () =
  let r =
    Tuner.tune ~workload:(A.Sim.Perf.W_gemm { m = 1024; n = 1024; k = 256 })
      Arch.piledriver Kernels.Gemm
  in
  Alcotest.(check bool) "positive" true (r.Tuner.best_score > 0.)

(* --- exact ties ---------------------------------------------------------- *)

module Et = A.Machine.Etype

let config (c : Tuner.candidate) =
  A.Transform.Pipeline.config_to_string c.Tuner.cand_config

let digest et prog =
  Digest.to_hex
    (Digest.string (A.Machine.Att.program_to_string ~et ~avx:true prog))

(* The model's answer on haswell, as the sweeps gave it before they
   returned tie sets: configuration, score bits and program text.  For
   gemm, pack-A, pack-B and SCAL at each precision, then the blocked
   sweep's micro-kernel. *)
let haswell_answers =
  [
    ( Et.F64,
      [
        ( Kernels.Gemm,
          "jam=[j:4,i:12] unroll=- sr=true scalar=true pf=8",
          "0x1.ab6f5b15d97ccp+15", "d64a5a430e938b7d18e80321cb05a0b2" );
        ( Kernels.Pack_a, "jam=[] unroll=i:2 sr=true scalar=true pf=8",
          "0x1.18cbda9ba6597p+11", "03022cd376da7a003d07b3937b3b82b4" );
        ( Kernels.Pack_b, "jam=[] unroll=l:2 sr=true scalar=true pf=8",
          "0x1.18cbda9ba6597p+11", "a2fbb50d580ea75a59bdd1f54ea63ca9" );
        ( Kernels.Scal, "jam=[] unroll=i:4 sr=true scalar=true pf=8",
          "0x1.18cbda9ba6597p+12", "8e7829307bc0ce72f6c4d06b78c66f51" );
      ],
      ( "jam=[j:6,i:8] unroll=- sr=true scalar=true pf=8",
        "0x1.ab6a70913b9d1p+15", "525d87bdd4e2c897c6f1d33992328d93",
        "mc=96 kc=336 nc=1560" ) );
    ( Et.F32,
      [
        ( Kernels.Gemm,
          "jam=[j:6,i:16] unroll=- sr=true scalar=true pf=8",
          "0x1.94179f5542675p+16", "ce9e24e9b24590dcd28b931e3eac5583" );
        ( Kernels.Pack_a, "jam=[] unroll=i:2 sr=true scalar=true pf=8",
          "0x1.15fbc3584e7ebp+12", "3b0e573d3208e272926267bd7310a815" );
        ( Kernels.Pack_b, "jam=[] unroll=l:2 sr=true scalar=true pf=8",
          "0x1.15fbc3584e7ebp+12", "6354e34f52fc25e4d4f6d1a392ddd456" );
        ( Kernels.Scal, "jam=[] unroll=i:8 sr=true scalar=true pf=8",
          "0x1.15fbc3584e7ebp+13", "27af0ec8a52a49c8feb261645fb51b6e" );
      ],
      ( "jam=[j:6,i:16] unroll=- sr=true scalar=true pf=8",
        "0x1.940ed5cbf06e9p+16", "ce9e24e9b24590dcd28b931e3eac5583",
        "mc=96 kc=672 nc=1560" ) );
  ]

(* Each answer is unchanged and heads its tie set; every member of the
   set regenerates, and its program scores exactly the answer's
   score. *)
let test_answers_unchanged () =
  List.iter
    (fun (et, kernels, (micro, bscore, bprog, blocking)) ->
      List.iter
        (fun (k, cfg, score, prog) ->
          let r = Tuner.tune ~et Arch.haswell k in
          let what = Et.name et ^ " " ^ Kernels.name_to_string k in
          Alcotest.(check string) (what ^ " best") cfg (config r.Tuner.best);
          Alcotest.(check string) (what ^ " score") score
            (Printf.sprintf "%h" r.Tuner.best_score);
          Alcotest.(check string) (what ^ " program") prog
            (digest et r.Tuner.best_program);
          let members = Tuner.tie_programs ~et Arch.haswell k r in
          Alcotest.(check (list string)) (what ^ " every member generates")
            (List.map config r.Tuner.ties)
            (List.map (fun (c, _) -> config c) members);
          match members with
          | (c, p) :: rest ->
              Alcotest.(check bool) (what ^ " answer first") true
                (c = r.Tuner.best && p == r.Tuner.best_program);
              List.iter
                (fun (c, p) ->
                  match
                    Tuner.score_diag ~et Arch.haswell k c p
                      (Tuner.reference_workload k)
                  with
                  | Ok s when Float.equal s r.Tuner.best_score -> ()
                  | _ -> Alcotest.failf "%s: %s does not tie" what (config c))
                rest
          | [] -> Alcotest.failf "%s: empty tie set" what)
        kernels;
      let bb = Tuner.tune_blocked ~et Arch.haswell in
      let best = List.hd bb.Tuner.bb_ties in
      let what = Et.name et ^ " blocked" in
      Alcotest.(check string) (what ^ " best") micro
        (config best.Tuner.bm_candidate);
      Alcotest.(check string) (what ^ " score") bscore
        (Printf.sprintf "%h" bb.Tuner.bb_blocked_score);
      Alcotest.(check string) (what ^ " program") bprog
        (digest et best.Tuner.bm_program);
      Alcotest.(check string) (what ^ " blocking") blocking
        (A.Sim.Mem_model.blocking_to_string best.Tuner.bm_blocking))
    haswell_answers

(* The blocked sweep on haswell f64 scores the three prefetch variants
   of the j:6 x i:8 tile equal to the last bit: a three-member set in
   space order. *)
let test_prefetch_variants_tie () =
  let bb = Tuner.tune_blocked Arch.haswell in
  Alcotest.(check (list string)) "micro tie set"
    (List.map
       (fun pf -> "jam=[j:6,i:8] unroll=- sr=true scalar=true pf=" ^ pf)
       [ "8"; "4"; "-" ])
    (List.map (fun m -> config m.Tuner.bm_candidate) bb.Tuner.bb_ties);
  List.iter
    (fun m ->
      Alcotest.(check bool) "same register tile" true
        ((m.Tuner.bm_mr, m.Tuner.bm_nr) = (8, 6));
      match
        Tuner.select_blocking ~et:Et.F64 Arch.haswell m.Tuner.bm_candidate
          m.Tuner.bm_program
          (Tuner.reference_workload Kernels.Gemm)
      with
      | Ok (b, s, _) ->
          Alcotest.(check bool) "own blocking" true (b = m.Tuner.bm_blocking);
          Alcotest.(check (float 0.0)) "same score" bb.Tuner.bb_blocked_score s
      | Error d -> Alcotest.fail (A.Verify.Diag.to_string d))
    bb.Tuner.bb_ties

(* A space whose first candidate is strictly better than the second
   gives a one-member set, and so does a fell-back sweep: its set is
   the safe baseline alone. *)
let test_singleton_ties () =
  let jam j i =
    {
      Tuner.cand_config =
        { A.Transform.Pipeline.default with jam = [ ("j", j); ("i", i) ] };
      cand_opts = A.Codegen.Emit.default_options;
    }
  in
  let r =
    Tuner.tune ~space:[ jam 4 8; jam 1 1 ] Arch.sandy_bridge Kernels.Gemm
  in
  Alcotest.(check (list string)) "strictly better" [ config (jam 4 8) ]
    (List.map config r.Tuner.ties);
  let fb = Tuner.tune ~space:[] Arch.sandy_bridge Kernels.Scal in
  Alcotest.(check bool) "fell back" true fb.Tuner.fell_back;
  Alcotest.(check bool) "baseline alone" true
    (fb.Tuner.ties = [ Tuner.safe_baseline ]);
  let bb = Tuner.tune_blocked ~space:[] Arch.sandy_bridge in
  Alcotest.(check bool) "blocked baseline alone" true
    (List.map (fun m -> m.Tuner.bm_candidate) bb.Tuner.bb_ties
    = [ Tuner.safe_baseline ])

(* --- a tuned miss -------------------------------------------------------- *)

(* [tuned] with an empty cache dir is a disk miss that sweeps and stores
   the sweep's answer, in that order. *)
let test_tuned_miss () =
  let dir = Filename.temp_dir "augem-miss" "" in
  let events = ref [] in
  Fun.protect
    ~finally:(fun () ->
      ignore (A.Tuning_cache.clear ~dir);
      try Sys.rmdir dir with Sys_error _ -> ())
  @@ fun () ->
  let on_event ev = events := ev :: !events in
  let space = List.filteri (fun i _ -> i < 2) (Tuner.space_for Kernels.Scal) in
  let r =
    Tuner.tuned ~cache_dir:dir ~space ~on_event Arch.sandy_bridge Kernels.Scal
  in
  Alcotest.(check (list string)) "miss, sweep, store"
    [ "disk-miss"; "swept"; "store" ]
    (List.rev_map Tuner.cache_event_to_string !events);
  Alcotest.(check (float 0.0)) "the sweep's score"
    (Tuner.tune ~space Arch.sandy_bridge Kernels.Scal).Tuner.best_score
    r.Tuner.best_score

(* --- the corpus the sweeps lower ----------------------------------------- *)

(* Every candidate of every default space, on every modelled arch at
   both precisions, exactly as [generate_candidate_diag] answers it: the
   program's AT&T text or the discard's diagnostic, concatenated in
   sweep order.  Pins what a sweep sees, so a change to how candidates
   are lowered cannot change one byte of a program or a diagnostic. *)
let test_corpus_pinned () =
  let buf = Buffer.create (1 lsl 20) in
  let programs = ref 0 and diagnostics = ref 0 in
  List.iter
    (fun arch ->
      List.iter
        (fun et ->
          List.iter
            (fun name ->
              let kernel =
                Kernels.kernel_of_name ?fp:(A.fp_of_et et) name
              in
              List.iter
                (fun c ->
                  match Tuner.generate_candidate_diag arch name kernel c with
                  | Ok prog ->
                      incr programs;
                      Buffer.add_string buf
                        (A.Machine.Att.program_to_string ~et
                           ~avx:(arch.Arch.simd = Arch.AVX) prog)
                  | Error d ->
                      incr diagnostics;
                      Buffer.add_string buf (A.Verify.Diag.to_string d))
                (Tuner.space_for name))
            Kernels.names)
        [ Et.F64; Et.F32 ])
    Arch.extended;
  Alcotest.(check int) "programs" 822 !programs;
  Alcotest.(check int) "diagnostics" 42 !diagnostics;
  Alcotest.(check string) "digest" "37630dc658f9f27967a687015f919ea2"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Every persistent-cache address digests a space fingerprint, so the
   text a candidate is fingerprinted by must not move: the default
   space of every kernel, and one candidate under each preference and
   each width cap.  Dot's default space expands its reduction, which
   the fingerprint has covered since it stopped sharing axpy's
   address.  Spaces that differ only in the expansion ways, or only in
   whether prefetches cover stores, must not share an address. *)
let test_space_fingerprints_pinned () =
  List.iter2
    (fun name want ->
      Alcotest.(check string)
        (Kernels.name_to_string name)
        want
        (Tuner.space_fingerprint (Tuner.space_for name)))
    Kernels.names
    [
      "5c7bed7467e9718386aa1985b4f37a41"; "1b7e594423a5007967f75e874a022c35";
      "79b682eb8f578a0b91e6d8c593607dd4"; "bf36f15981cdc3a67f944c0ed2915ce6";
      "79b682eb8f578a0b91e6d8c593607dd4"; "79b682eb8f578a0b91e6d8c593607dd4";
      "79b682eb8f578a0b91e6d8c593607dd4"; "79b682eb8f578a0b91e6d8c593607dd4";
      "5722e422039626070cba2bbbab40936c";
    ];
  let unroll8 =
    { A.Transform.Pipeline.default with inner_unroll = Some ("i", 8) }
  in
  List.iter
    (fun (what, config) ->
      let space cand_config = [ { Tuner.safe_baseline with cand_config } ] in
      Alcotest.(check bool) what false
        (Tuner.space_fingerprint (space unroll8)
        = Tuner.space_fingerprint (space config)))
    [
      ("expand alone moves the address",
        { unroll8 with expand_reduction = Some 8 });
      ("prefetching without stores moves the address",
        { unroll8 with
          prefetch =
            Some { A.Transform.Prefetch.pf_distance = 8; pf_stores = false } });
    ];
  let with_opts prefer max_width =
    let cand_opts = { A.Codegen.Emit.prefer; max_width } in
    { Tuner.safe_baseline with Tuner.cand_opts }
  in
  Alcotest.(check string) "every preference and width cap"
    "436acd99a7a729e9064be4637ecf1837"
    (Tuner.space_fingerprint
       (List.map
          (fun p -> with_opts p None)
          A.Codegen.Plan.[ Prefer_auto; Prefer_vdup; Prefer_shuf ]
       @ List.map
           (fun w -> with_opts A.Codegen.Plan.Prefer_auto (Some w))
           A.Machine.Insn.[ W64; W128; W256 ]))

let suite =
  [
    Alcotest.test_case "tuner finds configurations" `Slow
      test_tuner_finds_config;
    Alcotest.test_case "tuned kernels verify" `Slow test_tuned_kernels_verify;
    Alcotest.test_case "register pressure discards" `Slow
      test_gemm_discards_big_blockings;
    Alcotest.test_case "tuned gemm beats scalar baseline" `Quick
      test_tuner_beats_minimum;
    Alcotest.test_case "tuning cache" `Quick test_cache_stable;
    Alcotest.test_case "empty cache dir is no disk tier" `Quick
      test_empty_cache_dir;
    Alcotest.test_case "explicit workload" `Quick test_explicit_workload;
    Alcotest.test_case "haswell answers unchanged, ties scored alike" `Slow
      test_answers_unchanged;
    Alcotest.test_case "haswell f64 prefetch variants tie" `Quick
      test_prefetch_variants_tie;
    Alcotest.test_case "one-member tie sets" `Quick test_singleton_ties;
    Alcotest.test_case "a tuned miss sweeps and stores" `Quick
      test_tuned_miss;
    Alcotest.test_case "sweep corpus pinned" `Slow test_corpus_pinned;
    Alcotest.test_case "space fingerprints pinned" `Quick
      test_space_fingerprints_pinned;
  ]
