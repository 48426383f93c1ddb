(* Abstract syntax of the low-level C subset that AUGEM consumes and
   transforms.  The language is deliberately small: straight-line
   arithmetic over [int] and [double] scalars, element accesses through
   array/pointer variables, counted [for] loops, and software-prefetch
   statements.  This matches the "simple C implementation" inputs shown
   in Figures 12 and 15-17 of the paper, as well as the low-level
   three-address form produced by the Optimized C Kernel Generator. *)

type dtype =
  | Int
  | Double
  | Float (* single precision; typing treats it like [Double], codegen
             derives the kernel's element type from it *)
  | Ptr of dtype

(* The floating-point dtypes.  A kernel is monomorphic in its FP type:
   every FP param, array and scalar shares one precision, derived from
   the parameter list (see [fp_type_of_params]). *)
let rec is_fp_dtype = function
  | Double | Float -> true
  | Int -> false
  | Ptr t -> is_fp_dtype t

let rec base_dtype = function Ptr t -> base_dtype t | t -> t

(* The FP element type of a parameter list: [Float] if any param
   involves it, else [Double] (the default for all-integer kernels,
   which generate no FP code anyway). *)
let fp_type_of_params (params : 'p list) ~(p_type : 'p -> dtype) : dtype =
  if List.exists (fun p -> base_dtype (p_type p) = Float) params then Float
  else Double

type binop =
  | Add
  | Sub
  | Mul
  | Div

type cmpop =
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne

type expr =
  | Int_lit of int
  | Double_lit of float
  | Var of string
  | Index of string * expr (* a[e] where a is an array or pointer variable *)
  | Binop of binop * expr * expr
  | Neg of expr

type lvalue =
  | Lvar of string
  | Lindex of string * expr

type prefetch_hint =
  | Prefetch_read (* prefetcht0 *)
  | Prefetch_write (* prefetchw / prefetcht0 depending on ISA *)

(* A counted loop [for (v = init; v cmp bound; v = v + step) body].
   [step] must be a positive integer literal for the loop restructuring
   passes to apply; the front end accepts any expression. *)
type loop_header = {
  loop_var : string;
  loop_init : expr;
  loop_cmp : cmpop;
  loop_bound : expr;
  loop_step : expr;
}

type stmt =
  | Decl of dtype * string * expr option
  | Assign of lvalue * expr
  | For of loop_header * stmt list
  | If of expr * cmpop * expr * stmt list * stmt list
  | Prefetch of prefetch_hint * string * expr (* hint, base variable, element offset *)
  | Comment of string
  | Tagged of tag * stmt list
      (* region annotated by the Template Identifier; [tag] names the
         matched template and records its parameters and live-range
         information (paper section 2.2). *)

and tag = {
  tag_template : string; (* e.g. "mmCOMP", "mmUnrolledCOMP" *)
  tag_params : (string * string) list; (* template parameter bindings *)
  tag_live_out : string list; (* scalars live after the region *)
}

type param = {
  p_name : string;
  p_type : dtype;
}

(* A kernel is a C function with [void] return type. *)
type kernel = {
  k_name : string;
  k_params : param list;
  k_body : stmt list;
}

(* Constructors used pervasively by the transformation passes. *)

let var v = Var v
let ( +! ) a b = Binop (Add, a, b)
let ( -! ) a b = Binop (Sub, a, b)
let ( *! ) a b = Binop (Mul, a, b)
let ( /! ) a b = Binop (Div, a, b)

(* Structural size of an expression, used by tests and the simplifier. *)
let rec expr_size = function
  | Int_lit _ | Double_lit _ | Var _ -> 1
  | Index (_, e) | Neg e -> 1 + expr_size e
  | Binop (_, a, b) -> 1 + expr_size a + expr_size b

let rec stmt_count stmts =
  let one = function
    | Decl _ | Assign _ | Prefetch _ | Comment _ -> 1
    | For (_, body) -> 1 + stmt_count body
    | If (_, _, _, t, f) -> 1 + stmt_count t + stmt_count f
    | Tagged (_, body) -> stmt_count body
  in
  List.fold_left (fun acc s -> acc + one s) 0 stmts

(* [subst_expr v e' e] substitutes expression [e'] for every occurrence
   of scalar variable [v] inside [e].  Array base names are name spaces
   of their own and are not substituted. *)
let rec subst_expr v e' e =
  match e with
  | Int_lit _ | Double_lit _ -> e
  | Var x -> if String.equal x v then e' else e
  | Index (a, i) -> Index (a, subst_expr v e' i)
  | Binop (op, a, b) -> Binop (op, subst_expr v e' a, subst_expr v e' b)
  | Neg a -> Neg (subst_expr v e' a)

let subst_lvalue v e' = function
  | Lvar x -> Lvar x
  | Lindex (a, i) -> Lindex (a, subst_expr v e' i)

let rec subst_stmt v e' s =
  match s with
  | Decl (t, x, init) -> Decl (t, x, Option.map (subst_expr v e') init)
  | Assign (lv, e) -> Assign (subst_lvalue v e' lv, subst_expr v e' e)
  | For (h, body) ->
      if String.equal h.loop_var v then s
      else
        let h =
          {
            h with
            loop_init = subst_expr v e' h.loop_init;
            loop_bound = subst_expr v e' h.loop_bound;
            loop_step = subst_expr v e' h.loop_step;
          }
        in
        For (h, List.map (subst_stmt v e') body)
  | If (a, c, b, t, f) ->
      If
        ( subst_expr v e' a,
          c,
          subst_expr v e' b,
          List.map (subst_stmt v e') t,
          List.map (subst_stmt v e') f )
  | Prefetch (h, base, off) -> Prefetch (h, base, subst_expr v e' off)
  | Comment _ -> s
  | Tagged (tag, body) -> Tagged (tag, List.map (subst_stmt v e') body)

(* Rename a scalar variable (definition sites included), used by the
   unroll passes when expanding accumulators. *)
let rec rename_stmt ~from ~into s =
  let re = subst_expr from (Var into) in
  let rl = function
    | Lvar x -> Lvar (if String.equal x from then into else x)
    | Lindex (a, i) -> Lindex (a, re i)
  in
  match s with
  | Decl (t, x, init) ->
      Decl (t, (if String.equal x from then into else x), Option.map re init)
  | Assign (lv, e) -> Assign (rl lv, re e)
  | For (h, body) ->
      if String.equal h.loop_var from then s
      else
        let h =
          {
            h with
            loop_init = re h.loop_init;
            loop_bound = re h.loop_bound;
            loop_step = re h.loop_step;
          }
        in
        For (h, List.map (rename_stmt ~from ~into) body)
  | If (a, c, b, t, f) ->
      If
        ( re a,
          c,
          re b,
          List.map (rename_stmt ~from ~into) t,
          List.map (rename_stmt ~from ~into) f )
  | Prefetch (h, base, off) -> Prefetch (h, base, re off)
  | Comment _ -> s
  | Tagged (tag, body) -> Tagged (tag, List.map (rename_stmt ~from ~into) body)

(* Free scalar variables read by an expression. *)
let rec expr_reads e acc =
  match e with
  | Int_lit _ | Double_lit _ -> acc
  | Var x -> x :: acc
  | Index (a, i) -> expr_reads i (a :: acc)
  | Binop (_, a, b) -> expr_reads a (expr_reads b acc)
  | Neg a -> expr_reads a acc

let expr_vars e = List.sort_uniq String.compare (expr_reads e [])
