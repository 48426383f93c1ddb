(** Abstract syntax of the low-level C subset AUGEM consumes and
    transforms: straight-line arithmetic over [int] and [double]
    scalars, element accesses through array/pointer variables, counted
    [for] loops, and software-prefetch statements — the "simple C
    implementation" inputs of the paper's Figures 12 and 15-17, as well
    as the three-address form produced by the Optimized C Kernel
    Generator. *)

type dtype =
  | Int
  | Double
  | Float
      (** single precision; typed like [Double], the element type of
          the generated code is derived from the parameter list *)
  | Ptr of dtype

val is_fp_dtype : dtype -> bool
(** [Double], [Float], or a pointer chain ending in one. *)

val base_dtype : dtype -> dtype
(** Strip [Ptr] wrappers. *)

val fp_type_of_params : 'p list -> p_type:('p -> dtype) -> dtype
(** The FP element type of a parameter list: [Float] if any parameter
    involves it, else [Double].  Kernels are monomorphic in their FP
    type. *)

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
  | Index of string * expr  (** [a[e]]: array or pointer element *)
  | Binop of binop * expr * expr
  | Neg of expr

type lvalue =
  | Lvar of string
  | Lindex of string * expr

type prefetch_hint =
  | Prefetch_read
  | Prefetch_write

(** A counted loop [for (v = init; v cmp bound; v += step)].  The loop
    restructuring passes require a positive integer-literal [step]. *)
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
  | Prefetch of prefetch_hint * string * expr
      (** hint, base pointer, element offset *)
  | Comment of string
  | Tagged of tag * stmt list
      (** region annotated by the Template Identifier (paper 2.2) *)

and tag = {
  tag_template : string;  (** e.g. "mmCOMP", "mmUnrolledCOMP" *)
  tag_params : (string * string) list;
  tag_live_out : string list;  (** scalars live after the region *)
}

type param = {
  p_name : string;
  p_type : dtype;
}

(** A kernel: a C function with [void] return type. *)
type kernel = {
  k_name : string;
  k_params : param list;
  k_body : stmt list;
}

(** {1 Constructors} *)

val var : string -> expr
val ( +! ) : expr -> expr -> expr
val ( -! ) : expr -> expr -> expr
val ( *! ) : expr -> expr -> expr
val ( /! ) : expr -> expr -> expr

(** {1 Traversals} *)

(** Structural size of an expression. *)
val expr_size : expr -> int

val stmt_count : stmt list -> int

(** Substitute an expression for every occurrence of a scalar variable
    (array base names are a namespace of their own). *)
val subst_expr : string -> expr -> expr -> expr

val subst_lvalue : string -> expr -> lvalue -> lvalue
val subst_stmt : string -> expr -> stmt -> stmt

(** Rename a scalar variable, definition sites included (used by
    unroll&jam when expanding accumulators). *)
val rename_stmt : from:string -> into:string -> stmt -> stmt

val expr_reads : expr -> string list -> string list

(** Free variables of an expression (array bases included), sorted. *)
val expr_vars : expr -> string list
