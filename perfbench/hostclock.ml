(* Host wall time.  [now_ns] reads CLOCK_MONOTONIC without allocating,
   cheap enough to bracket every VM access in the traced run. *)

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9
