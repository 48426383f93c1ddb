(* The domain pool and the parallel tuning sweep.

   The contract under test: [Pool.map] returns results in item order
   whatever the job count, and [Tuner.tune ~jobs:n] is bit-identical to
   [~jobs:1] — same winner, same score, same exact-tie set, same
   failure histogram, same sweep-ordered failure list — for every
   kernel on every modelled architecture, and so is
   [Tuner.tune_blocked ~jobs:n].  The first-seen-maximum
   tie-break (which the prefetch_opts ordering depends on) and the
   space order of the tie set are exactly what a naive parallel
   reduction would break. *)

module A = Augem
module Arch = A.Machine.Arch
module Kernels = A.Ir.Kernels
module Tuner = A.Tuner
module Pool = A.Pool
module Diag = A.Verify.Diag

let archs = [ Arch.sandy_bridge; Arch.piledriver ]
let all_kernels = Kernels.[ Gemm; Gemv; Axpy; Dot; Ger; Scal; Copy ]

(* --- the pool itself ----------------------------------------------------- *)

let test_pool_ordered () =
  let items = List.init 100 Fun.id in
  let expected = List.map (fun x -> (x * x) + 1) items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves item order" jobs)
        expected
        (Pool.map ~jobs (fun x -> (x * x) + 1) items))
    [ 1; 2; 3; 4; 7; 16 ]

let test_pool_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Pool.map ~jobs:4 succ [ 1 ])

let test_pool_unbalanced_costs () =
  (* items deliberately unequal in cost: the atomic cursor hands them
     out dynamically, and order must still be preserved *)
  let items = List.init 40 (fun i -> if i mod 7 = 0 then 40_000 else 10) in
  let spin n =
    let acc = ref 0 in
    for i = 1 to n do
      acc := !acc + i
    done;
    !acc
  in
  Alcotest.(check (list int))
    "unbalanced work, ordered results"
    (List.map spin items)
    (Pool.map ~jobs:4 spin items)

exception Boom of int

let test_pool_exception_deterministic () =
  (* multiple items raise; the earliest in item order must win, for
     every job count *)
  let items = List.init 30 Fun.id in
  let f x = if x mod 11 = 5 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Pool.map ~jobs f items with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom x ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d raises the earliest failure" jobs)
            5 x)
    [ 1; 2; 4 ]

(* --- the persistent team -------------------------------------------------- *)

module Team = A.Team

let with_team size f =
  let t = Team.create size in
  Fun.protect ~finally:(fun () -> Team.release t) (fun () -> f t)

(* Each fork runs every slice index once, more slices than workers
   included; returns how often each index ran. *)
let fork_counts t n =
  let ran = Array.init n (fun _ -> Atomic.make 0) in
  Team.fork t n (fun w -> Atomic.incr ran.(w));
  Array.map Atomic.get ran

let test_team_every_index_once () =
  with_team 3 (fun t ->
      for round = 1 to 200 do
        let n = 1 + (round mod 7) in
        Alcotest.(check (array int))
          (Printf.sprintf "fork %d of %d slices" round n)
          (Array.make n 1) (fork_counts t n)
      done;
      Alcotest.(check int) "helpers started" 2 (Team.helpers t))

(* The caller's slice waits until the other slice has started, so that
   one runs on a helper, which raises. *)
let test_team_helper_exception () =
  with_team 2 (fun t ->
      let caller = Domain.self () in
      let started = Atomic.make 0 in
      (match
         Team.fork t 2 (fun w ->
             Atomic.incr started;
             if Domain.self () <> caller then raise (Boom w);
             while Atomic.get started < 2 do
               Domain.cpu_relax ()
             done)
       with
      | () -> Alcotest.fail "expected the helper's exception"
      | exception Boom _ -> ());
      Alcotest.(check (array int)) "next fork" [| 1; 1; 1 |] (fork_counts t 3))

(* A fork from inside a running fork finds the team busy: its slices
   all run on the domain that called it, in index order. *)
let test_team_busy_runs_on_caller () =
  with_team 2 (fun t ->
      let inner = Array.make 2 [] in
      Team.fork t 2 (fun w ->
          let me = Domain.self () in
          let trail = ref [] in
          Team.fork t 4 (fun i -> trail := (i, Domain.self () = me) :: !trail);
          inner.(w) <- List.rev !trail);
      Array.iter
        (fun trail ->
          Alcotest.(check (list (pair int bool)))
            "inner slices on the caller, in order"
            [ (0, true); (1, true); (2, true); (3, true) ]
            trail)
        inner)

let test_team_release_joins () =
  let t = Team.create 2 in
  Alcotest.(check int) "none before a fork" 0 (Team.helpers t);
  ignore (fork_counts t 2);
  Alcotest.(check int) "one helper" 1 (Team.helpers t);
  Team.release t;
  Alcotest.(check int) "joined" 0 (Team.helpers t);
  Team.release t;
  let caller = Domain.self () in
  let on_caller = Atomic.make 0 in
  Team.fork t 3 (fun _ ->
      if Domain.self () = caller then Atomic.incr on_caller);
  Alcotest.(check int) "a released team forks on its caller" 3
    (Atomic.get on_caller)

(* Idle helpers sleep: the process's user time over a 200 ms sleep
   after a fork stays far below what one spinning helper would burn. *)
let test_team_idle_no_cpu () =
  with_team 2 (fun t ->
      ignore (fork_counts t 2);
      let before = (Unix.times ()).Unix.tms_utime in
      Unix.sleepf 0.2;
      let used = (Unix.times ()).Unix.tms_utime -. before in
      if used >= 0.05 then
        Alcotest.failf "%.0f ms of user time while idle" (used *. 1000.))

(* --- sweep determinism --------------------------------------------------- *)

let check_identical ~what (seq : Tuner.result) (par : Tuner.result) =
  Alcotest.(check bool)
    (what ^ ": best candidate identical")
    true
    (seq.Tuner.best = par.Tuner.best);
  Alcotest.(check (float 0.0))
    (what ^ ": best score bit-identical")
    seq.Tuner.best_score par.Tuner.best_score;
  Alcotest.(check bool)
    (what ^ ": best program identical")
    true
    (seq.Tuner.best_program = par.Tuner.best_program);
  Alcotest.(check bool)
    (what ^ ": tie set identical, in space order")
    true
    (seq.Tuner.ties = par.Tuner.ties);
  Alcotest.(check int) (what ^ ": visited") seq.Tuner.visited par.Tuner.visited;
  Alcotest.(check int)
    (what ^ ": discarded")
    seq.Tuner.discarded par.Tuner.discarded;
  Alcotest.(check bool)
    (what ^ ": fell_back")
    seq.Tuner.fell_back par.Tuner.fell_back;
  Alcotest.(check (list (pair string int)))
    (what ^ ": failure histogram identical")
    seq.Tuner.failure_histogram par.Tuner.failure_histogram;
  Alcotest.(check (list string))
    (what ^ ": failure list identical and sweep-ordered")
    (List.map Diag.to_string seq.Tuner.failures)
    (List.map Diag.to_string par.Tuner.failures)

let test_tune_deterministic_all_kernels () =
  List.iter
    (fun arch ->
      List.iter
        (fun k ->
          let what =
            Printf.sprintf "%s/%s" arch.Arch.name (Kernels.name_to_string k)
          in
          let seq = Tuner.tune ~jobs:1 arch k in
          let par = Tuner.tune ~jobs:4 arch k in
          check_identical ~what seq par)
        all_kernels)
    archs

(* The blocked sweep's tie set is the one [Native_blocked.load] times:
   configurations, programs, blockings and register tiles must match
   member for member, in space order. *)
let test_tune_blocked_deterministic () =
  List.iter
    (fun et ->
      let what = "haswell blocked " ^ A.Machine.Etype.name et in
      let seq = Tuner.tune_blocked ~et ~jobs:1 Arch.haswell in
      let par = Tuner.tune_blocked ~et ~jobs:4 Arch.haswell in
      Alcotest.(check bool) (what ^ ": several members") true
        (List.length seq.Tuner.bb_ties > 1);
      Alcotest.(check bool)
        (what ^ ": tie set identical, in space order")
        true
        (seq.Tuner.bb_ties = par.Tuner.bb_ties);
      Alcotest.(check (float 0.0))
        (what ^ ": blocked score bit-identical")
        seq.Tuner.bb_blocked_score par.Tuner.bb_blocked_score;
      Alcotest.(check (float 0.0))
        (what ^ ": streamed score bit-identical")
        seq.Tuner.bb_streamed_score par.Tuner.bb_streamed_score;
      Alcotest.(check int)
        (what ^ ": blockings visited")
        seq.Tuner.bb_blockings_visited par.Tuner.bb_blockings_visited;
      Alcotest.(check (list string))
        (what ^ ": failure list identical")
        (List.map Diag.to_string seq.Tuner.bb_failures)
        (List.map Diag.to_string par.Tuner.bb_failures))
    A.Machine.Etype.[ F64; F32 ]

let test_tune_deterministic_hostile_space () =
  (* a space where most candidates die: the failure list ordering is
     the part parallelism is most likely to scramble *)
  let space =
    List.concat_map
      (fun j ->
        List.map
          (fun i ->
            {
              Tuner.cand_config =
                { A.Transform.Pipeline.default with jam = [ ("j", j); ("i", i) ] };
              cand_opts = A.Codegen.Emit.default_options;
            })
          [ 2; 8; 32; 64 ])
      [ 1; 4; 16; 64 ]
  in
  let seq = Tuner.tune ~space ~jobs:1 Arch.sandy_bridge Kernels.Gemm in
  let par = Tuner.tune ~space ~jobs:3 Arch.sandy_bridge Kernels.Gemm in
  Alcotest.(check bool) "some candidates discarded" true
    (seq.Tuner.discarded > 0);
  check_identical ~what:"hostile space" seq par

let suite =
  [
    Alcotest.test_case "pool preserves item order" `Quick test_pool_ordered;
    Alcotest.test_case "pool edge cases" `Quick test_pool_empty_and_singleton;
    Alcotest.test_case "pool balances unequal costs" `Quick
      test_pool_unbalanced_costs;
    Alcotest.test_case "pool exception determinism" `Quick
      test_pool_exception_deterministic;
    Alcotest.test_case "team runs every index once per fork" `Quick
      test_team_every_index_once;
    Alcotest.test_case "team re-raises a helper's exception" `Quick
      test_team_helper_exception;
    Alcotest.test_case "busy team forks on its caller" `Quick
      test_team_busy_runs_on_caller;
    Alcotest.test_case "team release joins its helpers" `Quick
      test_team_release_joins;
    Alcotest.test_case "idle team burns no CPU" `Quick test_team_idle_no_cpu;
    Alcotest.test_case "tune jobs:4 == jobs:1, all kernels x arches" `Slow
      test_tune_deterministic_all_kernels;
    Alcotest.test_case "tune determinism on a mostly-hostile space" `Quick
      test_tune_deterministic_hostile_space;
    Alcotest.test_case "tune_blocked jobs:4 == jobs:1, haswell f64 and f32"
      `Slow test_tune_blocked_deterministic;
  ]
