(* Performance-regression harness: crypto microbenchmarks (optimized
   vs boxed reference) plus the fixed-seed workload matrix.  Writes
   BENCH_perf.json (schema autarky-perf/2) in the current directory —
   the committed baseline lives at the repository root. *)

let run () =
  print_endline "== perf: performance-regression harness ==";
  ignore
    (Harness.Perf.run ~quick:false ~seed:42 ~jobs:(Par.get_jobs ())
       ~out:"BENCH_perf.json" ())
