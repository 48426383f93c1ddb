(* Dataflow analyses: liveness (including the loop back-edge fixpoint)
   and the array inventory used for register-queue partitioning. *)

module Ast = Augem.Ir.Ast
module Liveness = Augem.Analysis.Liveness
module Arrays = Augem.Analysis.Arrays
module Kernels = Augem.Ir.Kernels
module SS = Set.Make (String)

let live_after stmts ~live_out =
  Liveness.annotate stmts ~live_out:(SS.of_list live_out)

let test_straightline () =
  let open Ast in
  let stmts =
    [
      Assign (Lvar "a", Double_lit 1.0);
      Assign (Lvar "b", Binop (Add, Var "a", Double_lit 2.0));
      Assign (Lvar "a", Binop (Mul, Var "b", Var "b"));
    ]
  in
  match live_after stmts ~live_out:[ "a" ] with
  | [ (_, l1); (_, l2); (_, l3) ] ->
      Alcotest.(check bool) "a live after stmt1" true (SS.mem "a" l1);
      Alcotest.(check bool) "b live after stmt2" true (SS.mem "b" l2);
      Alcotest.(check bool) "b dead after stmt3" false (SS.mem "b" l3);
      Alcotest.(check bool) "a live at exit" true (SS.mem "a" l3)
  | _ -> Alcotest.fail "arity"

let test_kill_before_use () =
  let open Ast in
  let stmts =
    [ Assign (Lvar "x", Double_lit 0.0); Assign (Lvar "y", Var "x") ]
  in
  match live_after stmts ~live_out:[] with
  | [ (_, l1); (_, l2) ] ->
      Alcotest.(check bool) "x live between" true (SS.mem "x" l1);
      Alcotest.(check bool) "nothing at exit" true (SS.is_empty l2)
  | _ -> Alcotest.fail "arity"

let test_loop_fixpoint () =
  (* a variable read in a loop body is live across the back edge even
     after the statement that re-assigns it later in the body *)
  let open Ast in
  let loop =
    For
      ( { loop_var = "i"; loop_init = Int_lit 0; loop_cmp = Lt;
          loop_bound = Var "n"; loop_step = Int_lit 1 },
        [
          Assign (Lvar "acc", Binop (Add, Var "acc", Var "x"));
          Assign (Lvar "x", Binop (Mul, Var "x", Double_lit 0.5));
        ] )
  in
  let live_in = Liveness.live_stmt loop ~live_out:SS.empty in
  Alcotest.(check bool) "acc live into loop" true (SS.mem "acc" live_in);
  Alcotest.(check bool) "x live into loop" true (SS.mem "x" live_in);
  Alcotest.(check bool) "n live into loop" true (SS.mem "n" live_in);
  Alcotest.(check bool) "loop var not live before init" false
    (SS.mem "i" live_in)

let test_store_keeps_array_live () =
  let open Ast in
  let s = Assign (Lindex ("C", Var "i"), Var "v") in
  let live = Liveness.live_stmt s ~live_out:SS.empty in
  List.iter
    (fun v -> Alcotest.(check bool) (v ^ " live") true (SS.mem v live))
    [ "C"; "i"; "v" ]

let test_defs_block () =
  let open Ast in
  let stmts =
    [
      Decl (Double, "t", None);
      Assign (Lvar "t", Double_lit 1.0);
      For
        ( { loop_var = "i"; loop_init = Int_lit 0; loop_cmp = Lt;
            loop_bound = Int_lit 4; loop_step = Int_lit 1 },
          [ Assign (Lvar "s", Var "t") ] );
    ]
  in
  let defs = Liveness.defs_block stmts in
  Alcotest.(check (list string)) "defs" [ "i"; "s"; "t" ] (SS.elements defs)

let test_base_array_of () =
  List.iter
    (fun (derived, base) ->
      Alcotest.(check string) derived base (Arrays.base_array_of derived))
    [
      ("ptr_A0", "A"); ("ptr_C12", "C"); ("A", "A"); ("ptr_B", "B");
      ("X", "X"); ("res_out", "res_out");
    ]

let test_pointer_inventory () =
  let k = Augem.Transform.Strength_reduction.run Kernels.gemm in
  let bases = Arrays.base_arrays k in
  Alcotest.(check (list string)) "base arrays" [ "A"; "B"; "C" ] bases

let test_accesses () =
  let accs = Arrays.accesses_of_kernel Kernels.axpy in
  let stores = List.filter (fun a -> a.Arrays.acc_is_store) accs in
  Alcotest.(check int) "one store stream" 1 (List.length stores);
  Alcotest.(check string) "store to Y" "Y" (List.hd stores).Arrays.acc_array

(* --- one-pass liveness = the block-by-block recursion -------------------- *)

(* Walk [stmts] and the one-pass tree together, checking each
   statement's live-after set against the recursion the template
   matcher used before it annotated whole trees: [Liveness.annotate]
   per block; a loop body at the loop's live-after ∪ its live-in; an
   [If]'s arms at the [If]'s live-after; a [Tagged] body re-annotated in
   place.  Returns the number of statements checked. *)
let rec check_block where (stmts : Ast.stmt list)
    (tree : Liveness.annotated list) ~(live_out : SS.t) : int =
  Alcotest.(check int) (where ^ ": block length") (List.length stmts)
    (List.length tree);
  List.fold_left2
    (fun (i, n) (s, after) (a : Liveness.annotated) ->
      let where = Printf.sprintf "%s.%d" where i in
      if a.Liveness.an_stmt != s then Alcotest.failf "%s: statement" where;
      if not (SS.equal after a.Liveness.an_after) then
        Alcotest.failf "%s: live after {%s}, expected {%s}" where
          (String.concat "," (SS.elements a.Liveness.an_after))
          (String.concat "," (SS.elements after));
      let nested =
        match (s, a.Liveness.an_nested) with
        | Ast.For (_, body), [ tbody ] ->
            check_block where body tbody
              ~live_out:(SS.union after (Liveness.live_stmt s ~live_out:after))
        | Ast.If (_, _, _, t, f), [ tt; tf ] ->
            check_block where t tt ~live_out:after
            + check_block where f tf ~live_out:after
        | Ast.Tagged (_, body), [ tbody ] ->
            check_block where body tbody ~live_out:after
        | (Ast.Decl _ | Ast.Assign _ | Ast.Prefetch _ | Ast.Comment _), [] -> 0
        | _ -> Alcotest.failf "%s: nested blocks" where
      in
      (i + 1, n + 1 + nested))
    (0, 0)
    (Liveness.annotate stmts ~live_out)
    tree
  |> snd

let check_tree name stmts =
  let tree = Liveness.annotate_tree stmts ~live_out:SS.empty in
  check_block name stmts tree ~live_out:SS.empty

let test_one_pass_gemm () =
  let config =
    { Augem.Transform.Pipeline.default with jam = [ ("j", 6); ("i", 8) ] }
  in
  let trace =
    Augem.Driver.Lower.run ~arch:Augem.Machine.Arch.haswell ~config
      Kernels.gemm
  in
  let n = check_tree "gemm" (Augem.Driver.Trace.optimized trace).Ast.k_body in
  Alcotest.(check bool) (Printf.sprintf "%d statements" n) true (n > 100)

let test_one_pass_if_tagged () =
  let open Ast in
  let loop v bound body =
    For
      ( { loop_var = v; loop_init = Int_lit 0; loop_cmp = Lt;
          loop_bound = Var bound; loop_step = Int_lit 1 },
        body )
  in
  let tag =
    { tag_template = "svSCAL"; tag_params = []; tag_live_out = [ "u" ] }
  in
  let body =
    [
      Decl (Double, "acc", Some (Double_lit 0.0));
      loop "i" "n"
        [
          Decl (Double, "t", Some (Index ("X", Var "i")));
          If
            ( Var "i", Lt, Var "m",
              [ Assign (Lvar "acc", Var "t") ],
              [
                Tagged
                  ( tag,
                    [
                      Assign (Lvar "u", Binop (Mul, Var "t", Var "s"));
                      Assign (Lindex ("Y", Var "i"), Var "u");
                    ] );
                Comment "else";
              ] );
          loop "j" "k"
            [
              Prefetch (Prefetch_read, "X", Binop (Add, Var "i", Var "j"));
              Assign (Lvar "acc", Binop (Mul, Var "acc", Var "s"));
            ];
          (* the counter stays live past a loop that does not reset it *)
          Assign (Lindex ("Z", Var "j"), Var "acc");
        ];
      Assign (Lindex ("R", Int_lit 0), Var "acc");
    ]
  in
  Alcotest.(check int) "statements" 14 (check_tree "nest" body)

let suite =
  [
    Alcotest.test_case "straight-line liveness" `Quick test_straightline;
    Alcotest.test_case "kill before use" `Quick test_kill_before_use;
    Alcotest.test_case "loop back-edge fixpoint" `Quick test_loop_fixpoint;
    Alcotest.test_case "stores keep operands live" `Quick
      test_store_keeps_array_live;
    Alcotest.test_case "defs of a block" `Quick test_defs_block;
    Alcotest.test_case "base array naming" `Quick test_base_array_of;
    Alcotest.test_case "array inventory after SR" `Quick test_pointer_inventory;
    Alcotest.test_case "access collection" `Quick test_accesses;
    Alcotest.test_case "one-pass liveness: jammed gemm" `Quick
      test_one_pass_gemm;
    Alcotest.test_case "one-pass liveness: if and tagged nest" `Quick
      test_one_pass_if_tagged;
  ]
