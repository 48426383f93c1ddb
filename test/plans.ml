(* The tuned blocked plans the suites share.  Tuning one takes about a
   second, so each is made once per test binary, on first use. *)

module Blocked = Augem.Blocked
module Arch = Augem.Machine.Arch
module Et = Augem.Machine.Etype

(* The first modelled architecture's plans, which the tiny-blocking
   cases run. *)
let arch = List.hd Arch.all
let f64 = lazy (Blocked.plan ~jobs:1 arch)
let f32 = lazy (Blocked.plan ~et:Et.F32 ~jobs:1 arch)

(* The plans the benchmark and the bench's native experiment load on an
   FMA3 host. *)
let haswell =
  [
    (Et.F64, lazy (Blocked.plan ~jobs:1 Arch.haswell));
    (Et.F32, lazy (Blocked.plan ~et:Et.F32 ~jobs:1 Arch.haswell));
  ]
