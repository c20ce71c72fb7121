(* Modeled reference values at seed 42, full size.

   fleet-serve and paging-clusters repeat numbers committed elsewhere in
   the repository: BENCH_serve.json (the autarky-serve/2 fleet totals
   and pooled p99) and the uthash/clusters/sgx2 row of BENCH_perf.json.
   paging-ratelimit and oram-kv have no committed counterpart, and
   BENCH_perf.json does not carry the clock totals; those values were
   recorded when this benchmark was defined.  Any change to
   one of them is a change to the simulator's modeled behaviour. *)

type paging = {
  ops : int;
  accesses : int;
  cycles_per_access : string;  (* printed "%.2f", as BENCH_perf.json does *)
  faults : int;
  total_cycles : int;  (* exact modeled clock total of the phase *)
}

let paging_clusters =
  {
    ops = 8_000;
    accesses = 83_883;
    cycles_per_access = "171412.13";
    faults = 41_456;
    total_cycles = 14_378_563_722;
  }

let paging_ratelimit =
  {
    ops = 100_000;
    accesses = 1_700_000;
    cycles_per_access = "2365.09";
    faults = 98_812;
    total_cycles = 4_020_647_414;
  }

let oram_kv =
  {
    ops = 100_000;
    accesses = 1_700_000;
    cycles_per_access = "26869.19";
    faults = 0;
    total_cycles = 45_677_628_472;
  }

type fleet = {
  end_cycle : int;
  arrivals : int;
  served : int;
  shed : int;
  missed : int;
  p99 : float;
}

let fleet_serve =
  {
    end_cycle = 360_439_950;
    arrivals = 1_254_591;
    served = 1_106_740;
    shed = 147_851;
    missed = 0;
    p99 = 122_879.0;
  }
