(** A small transformation-script language playing the role POET plays
    in the paper: the optimization sequence of the Optimized C Kernel
    Generator expressed as text.  A script denotes one
    {!Tuner.candidate}: its pipeline configuration and emit options.

    Syntax — one directive per line (or ';'-separated), ['#'] comments:
    {v
      unroll_jam <var> <factor>     # register blocking of an outer loop
      unroll <var> <factor>         # innermost loop unrolling
      expand <ways>                 # reduction accumulator expansion
      strength_reduce on|off
      scalar_replace on|off
      prefetch <distance>|off
      prefer auto|vdup|shuf         # SIMD vectorization strategy
      width 64|128|256              # cap the vector width
    v}
    An empty script is {!Augem_transform.Pipeline.default} under
    {!Augem_driver.Emit.default_options}. *)

(** 1-based line number of the offending directive, and the message.
    Directives separated by [';'] on one line share that line. *)
exception Script_error of int * string

(** [Error] messages are prefixed with ["line N: "]. *)
val parse : string -> (Tuner.candidate, string) result

val parse_exn : string -> Tuner.candidate

(** Render back to directive text; [parse (to_string c) = Ok c] for
    every candidate the language can state (every candidate of
    {!Tuner.space_for} among them). *)
val to_string : Tuner.candidate -> string

(** The integers a factor ([unroll_jam], [unroll], [expand]) or a
    prefetch distance may take: [n >= 1].  The service's candidate
    decoder holds jam, unroll and expand factors to the same check. *)
val positive : int -> bool
