(* Scenario front end: the 3-tenant default and the fleet-scale serving
   scenarios, the one SLO report (autarky-serve/2) and its JSON writer.

   Every number in the report is virtual (cycles, counts, rates derived
   from the modeled clock), so the JSON is bit-identical across runs of
   the same (scenario, seed) — the property the @serve determinism
   alias locks in.  This module would be called [Serve.Harness] if that
   name did not shadow the [Harness] library inside this one. *)

type tenant_report = {
  tr_name : string;
  tr_workload : string;
  tr_policy : string;
  tr_generator : string;
  tr_arrivals : int;
  tr_served : int;
  tr_shed : int;
  tr_missed : int;
  tr_terminations : int;
  tr_restarts : int;
  tr_refused : bool;
  tr_faults : int;
  tr_balloon_released_pages : int;
  tr_balloon_in_frames : int;
  tr_partition_end : int;
  tr_epc_limit_end : int;
  tr_svc_mean_cycles : float;
  tr_latency : Metrics.Stats.summary;  (* virtual cycles *)
  tr_latency_method : string;  (* "exact" (Stats) or "sketch" *)
  tr_sketch : Metrics.Sketch.t option;  (* the sketch itself, for pooling *)
  tr_throughput_rps : float;  (* requests per virtual second *)
  tr_shed_rate : float;
  tr_departed : bool;
  tr_arrive_after : int;
  tr_depart_after : int;  (* -1 when the tenant never departs *)
  tr_boot_cycles : int;  (* churn cold-start cost; 0 for initial tenants *)
}

type report = {
  rp_seed : int;
  rp_quick : bool;
  rp_tenants : tenant_report list;
  rp_end_cycle : int;
  rp_virtual_seconds : float;
  rp_arbiter_moves : int;
  rp_digest : string option;
  rp_arrivals : int;
  rp_served : int;
  rp_shed : int;
  rp_missed : int;
  rp_joins : int;  (* tenants that arrived after cycle 0 *)
  rp_departures : int;
  rp_refused : int;
  rp_boot_cycles_total : int;  (* summed churn cold-start cost *)
  rp_latency : Metrics.Stats.summary;  (* pooled over every tenant *)
  rp_latency_method : string;  (* "pooled-sketch" or "pooled-exact" *)
}

let tenant_report ~virtual_seconds tn =
  let cfg = Tenant.config tn in
  {
    tr_name = cfg.Tenant.name;
    tr_workload = Tenant.workload_name cfg.Tenant.workload;
    tr_policy = Harness.Policy.name cfg.Tenant.policy;
    tr_generator = Tenant.generator_name cfg.Tenant.generator;
    tr_arrivals = Tenant.arrivals tn;
    tr_served = Tenant.served tn;
    tr_shed = Tenant.shed tn;
    tr_missed = Tenant.missed tn;
    tr_terminations = Tenant.terminations tn;
    tr_restarts = Tenant.restarts tn;
    tr_refused = Tenant.state tn = Tenant.Refused;
    tr_faults = Tenant.faults tn;
    tr_balloon_released_pages = Tenant.balloon_released_pages tn;
    tr_balloon_in_frames = Tenant.balloon_in_frames tn;
    tr_partition_end = Hypervisor.Vmm.partition_frames (Tenant.vm tn);
    tr_epc_limit_end =
      (try Sim_os.Kernel.epc_limit (Tenant.proc tn) with Invalid_argument _ -> 0);
    tr_svc_mean_cycles = Tenant.svc_mean tn;
    tr_latency = Tenant.latency_summary tn;
    tr_latency_method =
      (match Tenant.sketch tn with Some _ -> "sketch" | None -> "exact");
    tr_sketch = Tenant.sketch tn;
    tr_throughput_rps =
      (if virtual_seconds > 0.0 then float_of_int (Tenant.served tn) /. virtual_seconds
       else 0.0);
    tr_shed_rate =
      (let a = Tenant.arrivals tn in
       if a > 0 then float_of_int (Tenant.shed tn + Tenant.missed tn) /. float_of_int a
       else 0.0);
    tr_departed = Tenant.state tn = Tenant.Departed;
    tr_arrive_after = (Tenant.config tn).Tenant.arrive_after;
    tr_depart_after =
      (match (Tenant.config tn).Tenant.depart_after with
      | Some d -> d
      | None -> -1);
    tr_boot_cycles = Tenant.boot_cycles tn;
  }

let report_of_result ~seed ~quick (res : Engine.result) =
  let model = Sgx.Machine.model res.Engine.r_machine in
  let virtual_seconds =
    float_of_int res.Engine.r_end_cycle /. model.Metrics.Cost_model.freq_hz
  in
  let rows =
    Array.to_list (Array.map (tenant_report ~virtual_seconds) res.Engine.r_tenants)
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 rows in
  let count p = sum (fun t -> if p t then 1 else 0) in
  let latency, meth = Tenant.pooled_latency res.Engine.r_tenants in
  {
    rp_seed = seed;
    rp_quick = quick;
    rp_tenants = rows;
    rp_end_cycle = res.Engine.r_end_cycle;
    rp_virtual_seconds = virtual_seconds;
    rp_arbiter_moves = res.Engine.r_arbiter_moves;
    rp_digest = res.Engine.r_digest;
    rp_arrivals = sum (fun t -> t.tr_arrivals);
    rp_served = sum (fun t -> t.tr_served);
    rp_shed = sum (fun t -> t.tr_shed);
    rp_missed = sum (fun t -> t.tr_missed);
    rp_joins = count (fun t -> t.tr_arrive_after > 0);
    rp_departures = count (fun t -> t.tr_departed);
    rp_refused = count (fun t -> t.tr_refused);
    rp_boot_cycles_total = sum (fun t -> t.tr_boot_cycles);
    rp_latency = latency;
    rp_latency_method = meth;
  }

(* --- default scenario -------------------------------------------------- *)

(* Three tenants sharing one machine, one per protection policy:

   - [kv]: memcached-style store under page clusters, moderate open-loop
     load — the well-behaved tenant whose p99 the SLO test watches.
   - [spell]: multi-dictionary spell-check server under ORAM, a small
     closed-loop client population.
   - [hash]: uthash table under rate-limiting, open-loop at 2.5x its
     service rate — deliberately overloaded, so its bounded queue sheds
     and its deadline drops requests while the other tenants ride out
     the pressure inside their own partitions. *)
let default_scenario ~quick =
  let r n = if quick then n else 4 * n in
  [
    {
      Tenant.name = "kv";
      workload = Tenant.Kvstore;
      policy = Tenant.Clusters;
      partition_frames = 320;
      epc_limit = 256;
      enclave_pages = 1_024;
      heap_pages = 512;
      generator = Tenant.Open_loop { load = 0.6 };
      queue_capacity = 32;
      deadline = None;
      requests = r 240;
      arrive_after = 0;
      depart_after = None;
    };
    {
      Tenant.name = "spell";
      workload = Tenant.Spellcheck;
      policy = Tenant.Oram;
      partition_frames = 320;
      epc_limit = 256;
      enclave_pages = 1_024;
      heap_pages = 256;
      generator = Tenant.Closed_loop { clients = 4; think = 2.0 };
      queue_capacity = 16;
      deadline = None;
      requests = r 160;
      arrive_after = 0;
      depart_after = None;
    };
    {
      Tenant.name = "hash";
      workload = Tenant.Uthash;
      policy = Tenant.Rate_limit;
      partition_frames = 256;
      epc_limit = 160;
      enclave_pages = 1_024;
      heap_pages = 512;
      generator = Tenant.Open_loop { load = 2.5 };
      queue_capacity = 16;
      deadline = Some 10.0;
      requests = r 480;
      arrive_after = 0;
      depart_after = None;
    };
  ]

(* The fleet-scale scenario packs [tenants] tenants onto one machine in
   a fixed per-index mix (kv/clusters moderate open loop, uthash under
   heavy-tailed Pareto arrivals, diurnal late joiners, a small
   closed-loop spellcheck population, and an overloaded uthash tenant
   that departs mid-run).

   [span] approximates the quick-mode virtual span of the scenario at
   the default seed; churn times are placed as fractions of it so joins
   land in the opening stretch and departures mid-run in both quick and
   full mode (the full timeline is ~16x the quick one, and so are the
   churn offsets). *)
let fleet_scenario ~tenants ~quick =
  if tenants <= 0 then
    invalid_arg "Serve.Driver.fleet_scenario: tenants must be positive";
  let r n = if quick then n else 16 * n in
  let span = r 10_000_000 in
  List.init tenants (fun i ->
      let base name =
        {
          Tenant.name = Printf.sprintf "%s%03d" name i;
          workload = Tenant.Kvstore;
          policy = Tenant.Clusters;
          partition_frames = 160;
          epc_limit = 128;
          enclave_pages = 512;
          heap_pages = 128;
          generator = Tenant.Open_loop { load = 0.6 };
          queue_capacity = 16;
          deadline = None;
          requests = r 800;
          arrive_after = 0;
          depart_after = None;
        }
      in
      match i mod 10 with
      | 0 | 1 | 2 | 3 -> base "kv"
      | 4 | 5 ->
        {
          (base "ht") with
          Tenant.workload = Tenant.Uthash;
          policy = Tenant.Rate_limit;
          heap_pages = 96;
          generator = Tenant.Heavy_tail { load = 0.8; alpha = 1.5 };
          requests = r 750;
        }
      | 6 | 7 ->
        (* Late joiners: parked until [arrive_after], then pay the
           cold-start build on the timeline and serve a diurnal load. *)
        {
          (base "di") with
          Tenant.workload = Tenant.Uthash;
          policy = Tenant.Preload;
          partition_frames = 224;
          epc_limit = 192;
          heap_pages = 96;
          generator = Tenant.Diurnal { load = 0.7; depth = 0.6; period = 400.0 };
          requests = r 700;
          arrive_after = (span * 4 / 100) + (i * r 1_000);
        }
      | 8 ->
        {
          (base "cl") with
          Tenant.workload = Tenant.Spellcheck;
          policy = Tenant.Oram;
          heap_pages = 96;
          generator = Tenant.Closed_loop { clients = 2; think = 1.0 };
          requests = r 150;
        }
      | _ ->
        (* Overloaded tenant that departs mid-run; arrivals scheduled
           past the departure are dropped uncounted. *)
        {
          (base "ov") with
          Tenant.workload = Tenant.Uthash;
          policy = Tenant.Rate_limit;
          heap_pages = 96;
          generator = Tenant.Open_loop { load = 2.2 };
          queue_capacity = 8;
          deadline = Some 10.0;
          requests = r 1_800;
          depart_after = Some ((span * 55 / 100) + (i * r 2_000));
        })

(* --- JSON -------------------------------------------------------------- *)

(* Error bound of the pooled percentiles: the sketch's, 0 for an exact pool. *)
let rel_error r =
  if r.rp_latency_method = "pooled-sketch" then Metrics.Sketch.relative_error
  else 0.0

let f2 key get = Harness.Schema.fixed ~decimals:2 key get

let summary_fields =
  Harness.Schema.
    [
      int "count" (fun s -> s.Metrics.Stats.s_count);
      f2 "mean" (fun s -> s.Metrics.Stats.s_mean);
      f2 "p50" (fun s -> s.Metrics.Stats.s_p50);
      f2 "p95" (fun s -> s.Metrics.Stats.s_p95);
      f2 "p99" (fun s -> s.Metrics.Stats.s_p99);
      f2 "max" (fun s -> s.Metrics.Stats.s_max);
    ]

(* The autarky-serve/2 report: fleet totals (including churn counts), the
   pooled latency roll-up labeled with its method and error bound, and
   one row per tenant.  [trace_digest] appears only when the run traced,
   so the untraced fleet baseline carries no such key. *)
let report_decl =
  Harness.Schema.(
    report ~schema:"autarky-serve/2"
      [
        bool "quick" (fun r -> r.rp_quick);
        int "seed" (fun r -> r.rp_seed);
        int "tenants_n" (fun r -> List.length r.rp_tenants);
        int "end_cycle" (fun r -> r.rp_end_cycle);
        f2 "virtual_seconds" (fun r -> r.rp_virtual_seconds);
        int "arbiter_moves" (fun r -> r.rp_arbiter_moves);
        str_opt "trace_digest" (fun r -> r.rp_digest);
        obj "totals" Fun.id
          [
            int "arrivals" (fun r -> r.rp_arrivals);
            int "served" (fun r -> r.rp_served);
            int "shed" (fun r -> r.rp_shed);
            int "deadline_missed" (fun r -> r.rp_missed);
            int "joins" (fun r -> r.rp_joins);
            int "departures" (fun r -> r.rp_departures);
            int "refused" (fun r -> r.rp_refused);
            int "boot_cycles_total" (fun r -> r.rp_boot_cycles_total);
          ];
        obj "fleet_latency" Fun.id
          (str "method" (fun r -> r.rp_latency_method)
          :: fixed ~decimals:5 "rel_error" rel_error
          :: map (fun r -> r.rp_latency) summary_fields);
        rows "tenants" (fun r -> r.rp_tenants)
          [
            str "name" (fun t -> t.tr_name);
            str "workload" (fun t -> t.tr_workload);
            str "policy" (fun t -> t.tr_policy);
            str "generator" (fun t -> t.tr_generator);
            int "arrivals" (fun t -> t.tr_arrivals);
            int "served" (fun t -> t.tr_served);
            int "shed" (fun t -> t.tr_shed);
            int "deadline_missed" (fun t -> t.tr_missed);
            int "terminations" (fun t -> t.tr_terminations);
            int "restarts" (fun t -> t.tr_restarts);
            bool "refused" (fun t -> t.tr_refused);
            bool "departed" (fun t -> t.tr_departed);
            int "arrive_after" (fun t -> t.tr_arrive_after);
            int "depart_after" (fun t -> t.tr_depart_after);
            int "boot_cycles" (fun t -> t.tr_boot_cycles);
            int "faults" (fun t -> t.tr_faults);
            f2 "svc_mean_cycles" (fun t -> t.tr_svc_mean_cycles);
            f2 "throughput_rps" (fun t -> t.tr_throughput_rps);
            f2 "shed_rate" (fun t -> t.tr_shed_rate);
            str "latency_method" (fun t -> t.tr_latency_method);
            obj "latency_cycles" (fun t -> t.tr_latency) summary_fields;
          ];
      ])

let spec = Harness.Schema.spec report_decl
let to_json r = Harness.Schema.to_json report_decl r

(* --- driver ------------------------------------------------------------ *)

let print_summary r =
  Printf.printf
    "serve: %d tenants, %d arrivals, %d virtual cycles (%.4f s), seed %d%s\n"
    (List.length r.rp_tenants) r.rp_arrivals r.rp_end_cycle r.rp_virtual_seconds
    r.rp_seed
    (if r.rp_quick then " (quick)" else "");
  Option.iter (Printf.printf "serve: trace digest %s\n") r.rp_digest;
  Printf.printf
    "serve: served %d, shed %d, missed %d (shed rate %.1f%%), arbiter moved \
     %d time(s)\n"
    r.rp_served r.rp_shed r.rp_missed
    (if r.rp_arrivals > 0 then
       100.0 *. float_of_int (r.rp_shed + r.rp_missed) /. float_of_int r.rp_arrivals
     else 0.0)
    r.rp_arbiter_moves;
  Printf.printf
    "serve: churn — %d join(s) (cold-start %d cycles total), %d departure(s), \
     %d refused\n"
    r.rp_joins r.rp_boot_cycles_total r.rp_departures r.rp_refused;
  let s = r.rp_latency in
  Printf.printf
    "serve: fleet latency (%s, rel err <= %.1f%%): p50 %.0f, p95 %.0f, p99 \
     %.0f, max %.0f cycles over %d samples\n"
    r.rp_latency_method (100.0 *. rel_error r) s.Metrics.Stats.s_p50
    s.Metrics.Stats.s_p95 s.Metrics.Stats.s_p99 s.Metrics.Stats.s_max
    s.Metrics.Stats.s_count;
  Printf.printf "  %-6s %-10s %-11s %8s %7s %6s %7s %10s %10s %10s %7s\n" "tenant"
    "workload" "policy" "arrivals" "served" "shed" "missed" "p50 cyc" "p99 cyc"
    "rps" "shed%";
  List.iter
    (fun t ->
      let s = t.tr_latency in
      Printf.printf "  %-6s %-10s %-11s %8d %7d %6d %7d %10.0f %10.0f %10.1f %6.1f%%%s\n"
        t.tr_name t.tr_workload t.tr_policy t.tr_arrivals t.tr_served t.tr_shed
        t.tr_missed s.Metrics.Stats.s_p50 s.Metrics.Stats.s_p99 t.tr_throughput_rps
        (100.0 *. t.tr_shed_rate)
        (if t.tr_refused then " [refused]"
         else if t.tr_restarts > 0 then Printf.sprintf " [%d restarts]" t.tr_restarts
         else ""))
    r.rp_tenants

type scenario = Default | Fleet of int

let run ?(quick = false) ?(seed = 42) ?(no_arbiter = false) ?out ?(print = true)
    ~scenario () =
  let p = Engine.default_params ~seed in
  let p = if no_arbiter then { p with Engine.p_arbiter = None } else p in
  let cfgs, params =
    match scenario with
    | Default -> (default_scenario ~quick, p)
    | Fleet tenants ->
      (* Untraced (the trace would be O(arrivals) memory) and with sketch
         latency accounting, so fleet memory stays O(tenants). *)
      ( fleet_scenario ~tenants ~quick,
        { p with Engine.p_trace = false; p_sketch = true } )
  in
  let r = report_of_result ~seed ~quick (Engine.run ~params cfgs) in
  if print then print_summary r;
  Option.iter
    (fun file ->
      Harness.Microjson.to_file file (to_json r);
      if print then Printf.printf "serve: wrote %s\n" file)
    out;
  r

(* --- regression gate (serve --check) ------------------------------------ *)

(* Relative drift, symmetric-safe for zero baselines (mirrors
   [Harness.Perf.check]). *)
let drift ~base ~cur =
  if base = 0.0 then (if cur = 0.0 then 0.0 else infinity)
  else abs_float (cur -. base) /. abs_float base

(* CI gate against the committed BENCH_serve.json (autarky-serve/2).

   Two layers, like the perf gate:

   - exact checks on the baseline file itself: schema, per-row and
     total conservation (arrivals = served + shed + deadline_missed),
     totals equal to the sum of the rows — corruption or a
     hand-edited baseline fails before anything is re-run;
   - a quick-mode re-run at the baseline's (seed, tenants_n), comparing
     the intensive metrics — fleet p50/p95/p99/mean and the overall
     shed rate — within [tolerance].  Intensive metrics are stable
     between quick and full runs of the same scenario shape; extensive
     counts (arrivals, end_cycle) scale with the run length and are
     deliberately not compared. *)
let check ~baseline ?(tolerance = 0.25) () =
  let module J = Harness.Microjson in
  let failures = ref [] in
  let fail_cell fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let ctx = baseline in
  (try
     let bj = J.of_file baseline in
     (match J.member "schema" bj with
     | Some (J.Str "autarky-serve/2") -> ()
     | Some (J.Str other) ->
       failwith (Printf.sprintf "schema %s is not autarky-serve/2" other)
     | _ -> failwith "missing schema field");
     let totals = J.mem_exn ~ctx "totals" bj in
     let ti k = J.int_ ~ctx (J.mem_exn ~ctx k totals) in
     let b_arrivals = ti "arrivals" in
     let b_served = ti "served" in
     let b_shed = ti "shed" in
     let b_missed = ti "deadline_missed" in
     if b_arrivals <> b_served + b_shed + b_missed then
       fail_cell "baseline totals: %d arrivals <> %d served + %d shed + %d missed"
         b_arrivals b_served b_shed b_missed;
     let rows = J.arr ~ctx (J.mem_exn ~ctx "tenants" bj) in
     let sums = ref (0, 0, 0, 0) in
     List.iter
       (fun row ->
         let ri k = J.int_ ~ctx (J.mem_exn ~ctx k row) in
         let name = J.str ~ctx (J.mem_exn ~ctx "name" row) in
         let a = ri "arrivals" and s = ri "served" in
         let sh = ri "shed" and m = ri "deadline_missed" in
         if a <> s + sh + m then
           fail_cell "baseline tenant %s: %d arrivals <> %d+%d+%d" name a s sh m;
         let ta, ts, tsh, tm = !sums in
         sums := (ta + a, ts + s, tsh + sh, tm + m))
       rows;
     let ta, ts, tsh, tm = !sums in
     if (ta, ts, tsh, tm) <> (b_arrivals, b_served, b_shed, b_missed) then
       fail_cell "baseline totals disagree with the sum of the tenant rows";
     let seed = J.int_ ~ctx (J.mem_exn ~ctx "seed" bj) in
     let tenants = J.int_ ~ctx (J.mem_exn ~ctx "tenants_n" bj) in
     if List.length rows <> tenants then
       fail_cell "baseline has %d tenant rows, tenants_n says %d"
         (List.length rows) tenants;
     let bl = J.mem_exn ~ctx "fleet_latency" bj in
     let bf k = J.num ~ctx (J.mem_exn ~ctx k bl) in
     (match J.str ~ctx (J.mem_exn ~ctx "method" bl) with
     | "pooled-sketch" | "pooled-exact" -> ()
     | other -> fail_cell "baseline fleet_latency method %S unknown" other);
     let base_shed_rate =
       if b_arrivals > 0 then
         float_of_int (b_shed + b_missed) /. float_of_int b_arrivals
       else 0.0
     in
     Printf.printf "serve: checking against %s (seed %d, %d tenants, \
                    tolerance %.0f%%)\n"
       baseline seed tenants (100.0 *. tolerance);
     let cur =
       run ~quick:true ~seed ~print:false ~scenario:(Fleet tenants) ()
     in
     if cur.rp_arrivals <> cur.rp_served + cur.rp_shed + cur.rp_missed then
       fail_cell "re-run conservation: %d arrivals <> %d+%d+%d" cur.rp_arrivals
         cur.rp_served cur.rp_shed cur.rp_missed;
     if cur.rp_latency_method <> "pooled-sketch" then
       fail_cell "re-run fleet latency method %S is not pooled-sketch"
         cur.rp_latency_method;
     let s = cur.rp_latency in
     let cur_shed_rate =
       if cur.rp_arrivals > 0 then
         float_of_int (cur.rp_shed + cur.rp_missed)
         /. float_of_int cur.rp_arrivals
       else 0.0
     in
     let cells =
       [
         ("fleet p50 cycles", bf "p50", s.Metrics.Stats.s_p50);
         ("fleet p95 cycles", bf "p95", s.Metrics.Stats.s_p95);
         ("fleet p99 cycles", bf "p99", s.Metrics.Stats.s_p99);
         ("fleet mean cycles", bf "mean", s.Metrics.Stats.s_mean);
         ("shed rate", base_shed_rate, cur_shed_rate);
       ]
     in
     Printf.printf "  %-18s %14s %14s %8s %s\n" "metric" "baseline" "current"
       "drift" "verdict";
     List.iter
       (fun (name, base, cur) ->
         let d = drift ~base ~cur in
         let ok = d <= tolerance in
         if not ok then fail_cell "%s drifted %.1f%%" name (100.0 *. d);
         Printf.printf "  %-18s %14.2f %14.2f %7.1f%% %s\n" name base cur
           (100.0 *. d)
           (if ok then "ok" else "FAIL"))
       cells
   with
  | Failure m -> fail_cell "%s: %s" baseline m
  | J.Parse_error m -> fail_cell "%s: parse error: %s" baseline m
  | Sys_error m -> fail_cell "%s" m);
  match !failures with
  | [] ->
    Printf.printf "serve: check ok\n";
    true
  | fs ->
    List.iter (fun m -> Printf.printf "serve: CHECK FAILED: %s\n" m) (List.rev fs);
    false
