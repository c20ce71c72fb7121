(* Scenario front end: the default 3-tenant mixed-policy serving
   scenario, the SLO report, and the BENCH_serve.json writer.

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
  {
    rp_seed = seed;
    rp_quick = quick;
    rp_tenants =
      Array.to_list (Array.map (tenant_report ~virtual_seconds) res.Engine.r_tenants);
    rp_end_cycle = res.Engine.r_end_cycle;
    rp_virtual_seconds = virtual_seconds;
    rp_arbiter_moves = res.Engine.r_arbiter_moves;
    rp_digest = res.Engine.r_digest;
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

(* --- JSON -------------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json r =
  let b = Buffer.create 4_096 in
  let f = Printf.sprintf "%.2f" in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"autarky-serve/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" r.rp_quick);
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.rp_seed);
  Buffer.add_string b (Printf.sprintf "  \"end_cycle\": %d,\n" r.rp_end_cycle);
  Buffer.add_string b
    (Printf.sprintf "  \"virtual_seconds\": %s,\n" (f r.rp_virtual_seconds));
  Buffer.add_string b
    (Printf.sprintf "  \"arbiter_moves\": %d,\n" r.rp_arbiter_moves);
  (match r.rp_digest with
  | Some d ->
    Buffer.add_string b (Printf.sprintf "  \"trace_digest\": \"%s\",\n" (json_escape d))
  | None -> ());
  Buffer.add_string b "  \"tenants\": [\n";
  List.iteri
    (fun i t ->
      let s = t.tr_latency in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"workload\": \"%s\", \"policy\": \"%s\", \
            \"generator\": \"%s\", \"arrivals\": %d, \"served\": %d, \
            \"shed\": %d, \"deadline_missed\": %d, \"terminations\": %d, \
            \"restarts\": %d, \"refused\": %b, \"faults\": %d, \
            \"balloon_released_pages\": %d, \"balloon_in_frames\": %d, \
            \"partition_end\": %d, \"epc_limit_end\": %d, \
            \"svc_mean_cycles\": %s, \"throughput_rps\": %s, \
            \"shed_rate\": %s, \"latency_cycles\": {\"count\": %d, \
            \"mean\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s, \
            \"max\": %s}}%s\n"
           (json_escape t.tr_name) (json_escape t.tr_workload)
           (json_escape t.tr_policy) (json_escape t.tr_generator) t.tr_arrivals
           t.tr_served t.tr_shed t.tr_missed t.tr_terminations t.tr_restarts
           t.tr_refused t.tr_faults t.tr_balloon_released_pages
           t.tr_balloon_in_frames t.tr_partition_end t.tr_epc_limit_end
           (f t.tr_svc_mean_cycles) (f t.tr_throughput_rps) (f t.tr_shed_rate)
           s.Metrics.Stats.s_count (f s.Metrics.Stats.s_mean)
           (f s.Metrics.Stats.s_p50) (f s.Metrics.Stats.s_p95)
           (f s.Metrics.Stats.s_p99) (f s.Metrics.Stats.s_max)
           (if i = List.length r.rp_tenants - 1 then "" else ",")))
    r.rp_tenants;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  Buffer.contents b

(* --- driver ------------------------------------------------------------ *)

let print_summary r =
  Printf.printf "serve: %d tenants, %d virtual cycles (%.4f s), seed %d%s\n"
    (List.length r.rp_tenants) r.rp_end_cycle r.rp_virtual_seconds r.rp_seed
    (if r.rp_quick then " (quick)" else "");
  (match r.rp_digest with
  | Some d -> Printf.printf "serve: trace digest %s\n" d
  | None -> ());
  if r.rp_arbiter_moves > 0 then
    Printf.printf "serve: arbiter rebalanced %d time(s)\n" r.rp_arbiter_moves;
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

let run ?(quick = false) ?(seed = 42) ?(no_arbiter = false) ?out ?(print = true)
    () =
  let params =
    let p = Engine.default_params ~seed in
    if no_arbiter then { p with Engine.p_arbiter = None } else p
  in
  let res = Engine.run ~params (default_scenario ~quick) in
  let r = report_of_result ~seed ~quick res in
  if print then print_summary r;
  (match out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (to_json r);
    close_out oc;
    if print then Printf.printf "serve: wrote %s\n" file);
  r

let run_scenario ?(quick = false) ~params cfgs =
  let res = Engine.run ~params cfgs in
  report_of_result ~seed:params.Engine.p_seed ~quick res

(* --- fleet ------------------------------------------------------------- *)

(* A fleet is K independent members of the default scenario, each with
   its own machine and a seed split from the root via
   [Parallel.Pool.shard_seed] — so member i's report depends only on
   (root seed, i), never on how many domains ran the fleet.  Members
   shard across a domain pool; the merge (summed counts, merged latency
   summaries, per-member digests in shard order) is serial. *)

type fleet_tenant = {
  ft_name : string;
  ft_workload : string;
  ft_policy : string;
  ft_arrivals : int;
  ft_served : int;
  ft_shed : int;
  ft_missed : int;
  ft_latency : Metrics.Stats.summary;  (* merged across members *)
  ft_latency_method : string;  (* "pooled-sketch" or "worst-of-shards" *)
  ft_throughput_rps : float;  (* mean over members *)
}

type fleet_report = {
  fr_quick : bool;
  fr_root_seed : int;
  fr_members : report list;  (* ordered by shard index *)
  fr_tenants : fleet_tenant list;
}

let fleet_aggregate members =
  match members with
  | [] -> []
  | first :: _ ->
    let all = List.concat_map (fun m -> m.rp_tenants) members in
    List.map
      (fun t0 ->
        let rows = List.filter (fun t -> t.tr_name = t0.tr_name) all in
        let sum f = List.fold_left (fun acc t -> acc + f t) 0 rows in
        let n = float_of_int (List.length rows) in
        (* When every member carries a sketch (the fleet ran with
           [~sketch:true]) the merge is exact bucket addition and the
           percentiles describe the pooled distribution (within
           [Metrics.Sketch.relative_error]).  Otherwise fall back to the
           conservative worst-of-shards summary merge — and say so. *)
        let sketches = List.filter_map (fun t -> t.tr_sketch) rows in
        let latency, meth =
          if List.length sketches = List.length rows then
            ( Metrics.Sketch.summary (Metrics.Sketch.merged sketches),
              "pooled-sketch" )
          else
            ( Metrics.Stats.merge_summaries
                (List.map (fun t -> t.tr_latency) rows),
              "worst-of-shards" )
        in
        {
          ft_name = t0.tr_name;
          ft_workload = t0.tr_workload;
          ft_policy = t0.tr_policy;
          ft_arrivals = sum (fun t -> t.tr_arrivals);
          ft_served = sum (fun t -> t.tr_served);
          ft_shed = sum (fun t -> t.tr_shed);
          ft_missed = sum (fun t -> t.tr_missed);
          ft_latency = latency;
          ft_latency_method = meth;
          ft_throughput_rps =
            List.fold_left (fun acc t -> acc +. t.tr_throughput_rps) 0.0 rows /. n;
        })
      first.rp_tenants

let fleet_to_json fr =
  let b = Buffer.create 4_096 in
  let f = Printf.sprintf "%.2f" in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"autarky-fleet/2\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" fr.fr_quick);
  Buffer.add_string b (Printf.sprintf "  \"root_seed\": %d,\n" fr.fr_root_seed);
  Buffer.add_string b "  \"members\": [\n";
  let last_m = List.length fr.fr_members - 1 in
  List.iteri
    (fun i m ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"shard\": %d, \"seed\": %d, \"end_cycle\": %d, \
            \"arbiter_moves\": %d%s}%s\n"
           i m.rp_seed m.rp_end_cycle m.rp_arbiter_moves
           (match m.rp_digest with
           | Some d -> Printf.sprintf ", \"trace_digest\": \"%s\"" (json_escape d)
           | None -> "")
           (if i = last_m then "" else ",")))
    fr.fr_members;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"tenants\": [\n";
  let last_t = List.length fr.fr_tenants - 1 in
  List.iteri
    (fun i t ->
      let s = t.ft_latency in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"workload\": \"%s\", \"policy\": \"%s\", \
            \"arrivals\": %d, \"served\": %d, \"shed\": %d, \
            \"deadline_missed\": %d, \"throughput_rps\": %s, \
            \"latency_merge\": \"%s\", \
            \"latency_cycles\": {\"count\": %d, \"mean\": %s, \"p50\": %s, \
            \"p95\": %s, \"p99\": %s, \"max\": %s}}%s\n"
           (json_escape t.ft_name) (json_escape t.ft_workload)
           (json_escape t.ft_policy) t.ft_arrivals t.ft_served t.ft_shed
           t.ft_missed (f t.ft_throughput_rps)
           (json_escape t.ft_latency_method) s.Metrics.Stats.s_count
           (f s.Metrics.Stats.s_mean) (f s.Metrics.Stats.s_p50)
           (f s.Metrics.Stats.s_p95) (f s.Metrics.Stats.s_p99)
           (f s.Metrics.Stats.s_max)
           (if i = last_t then "" else ",")))
    fr.fr_tenants;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  Buffer.contents b

let print_fleet fr =
  Printf.printf "serve: fleet of %d member(s), root seed %d%s\n"
    (List.length fr.fr_members) fr.fr_root_seed
    (if fr.fr_quick then " (quick)" else "");
  List.iteri
    (fun i m ->
      Printf.printf "  member %d: seed %d, %d virtual cycles%s\n" i m.rp_seed
        m.rp_end_cycle
        (match m.rp_digest with
        | Some d -> Printf.sprintf ", digest %s" d
        | None -> ""))
    fr.fr_members;
  Printf.printf "  %-6s %-10s %-11s %8s %7s %6s %7s %10s %10s %10s\n" "tenant"
    "workload" "policy" "arrivals" "served" "shed" "missed" "p50 cyc" "p99 cyc"
    "rps";
  List.iter
    (fun t ->
      let s = t.ft_latency in
      Printf.printf "  %-6s %-10s %-11s %8d %7d %6d %7d %10.0f %10.0f %10.1f [%s]\n"
        t.ft_name t.ft_workload t.ft_policy t.ft_arrivals t.ft_served t.ft_shed
        t.ft_missed s.Metrics.Stats.s_p50 s.Metrics.Stats.s_p99
        t.ft_throughput_rps t.ft_latency_method)
    fr.fr_tenants

let fleet ?(quick = false) ?(seed = 42) ?(members = 4) ?(jobs = 1)
    ?(no_arbiter = false) ?(sketch = false) ?out ?(print = true) () =
  if members <= 0 then
    invalid_arg "Serve.Driver.fleet: members must be positive";
  let reports =
    Parallel.Pool.map ~jobs
      (fun shard ->
        let mseed = Parallel.Pool.shard_seed ~root:seed ~shard in
        let params =
          let p = Engine.default_params ~seed:mseed in
          let p = if no_arbiter then { p with Engine.p_arbiter = None } else p in
          { p with Engine.p_sketch = sketch }
        in
        let res = Engine.run ~params (default_scenario ~quick) in
        report_of_result ~seed:mseed ~quick res)
      (List.init members (fun i -> i))
  in
  let fr =
    {
      fr_quick = quick;
      fr_root_seed = seed;
      fr_members = reports;
      fr_tenants = fleet_aggregate reports;
    }
  in
  if print then print_fleet fr;
  (match out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (fleet_to_json fr);
    close_out oc;
    if print then Printf.printf "serve: wrote %s\n" file);
  fr

(* --- fleet scale: one machine, many tenants ----------------------------- *)

(* The fleet-scale scenario packs [tenants] tenants onto one machine in
   a fixed per-index mix (kv/clusters moderate open loop, uthash under
   heavy-tailed Pareto arrivals, diurnal late joiners, a small
   closed-loop spellcheck population, and an overloaded uthash tenant
   that departs mid-run).  Every tenant runs with sketch latency
   accounting (O(1) state), so fleet memory is O(tenants), never
   O(arrivals).

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

type fleet_scale_report = {
  fs_quick : bool;
  fs_seed : int;
  fs_tenants_n : int;
  fs_rows : tenant_report list;  (* ordered by tenant index *)
  fs_end_cycle : int;
  fs_virtual_seconds : float;
  fs_arbiter_moves : int;
  fs_arrivals : int;
  fs_served : int;
  fs_shed : int;
  fs_missed : int;
  fs_joins : int;  (* tenants that arrived after cycle 0 *)
  fs_departures : int;
  fs_refused : int;
  fs_boot_cycles_total : int;  (* summed churn cold-start cost *)
  fs_fleet_latency : Metrics.Stats.summary;
  fs_latency_method : string;  (* "pooled-sketch" or "worst-of-shards" *)
}

(* The autarky-serve/2 report: fleet totals, the pooled-sketch roll-up
   (labeled with its merge method and error bound — satellite of the
   [Metrics.Stats.merge_summaries] conservative-tail caveat), and one
   row per tenant including the churn fields.  No worker-count-dependent
   value appears anywhere, so the bytes are identical at any [jobs]. *)
let fleet_scale_to_json fs =
  let b = Buffer.create 65_536 in
  let f = Printf.sprintf "%.2f" in
  let summ s =
    Printf.sprintf
      "{\"count\": %d, \"mean\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s, \
       \"max\": %s}"
      s.Metrics.Stats.s_count (f s.Metrics.Stats.s_mean)
      (f s.Metrics.Stats.s_p50) (f s.Metrics.Stats.s_p95)
      (f s.Metrics.Stats.s_p99) (f s.Metrics.Stats.s_max)
  in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"autarky-serve/2\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" fs.fs_quick);
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" fs.fs_seed);
  Buffer.add_string b (Printf.sprintf "  \"tenants_n\": %d,\n" fs.fs_tenants_n);
  Buffer.add_string b (Printf.sprintf "  \"end_cycle\": %d,\n" fs.fs_end_cycle);
  Buffer.add_string b
    (Printf.sprintf "  \"virtual_seconds\": %s,\n" (f fs.fs_virtual_seconds));
  Buffer.add_string b
    (Printf.sprintf "  \"arbiter_moves\": %d,\n" fs.fs_arbiter_moves);
  Buffer.add_string b
    (Printf.sprintf
       "  \"totals\": {\"arrivals\": %d, \"served\": %d, \"shed\": %d, \
        \"deadline_missed\": %d, \"joins\": %d, \"departures\": %d, \
        \"refused\": %d, \"boot_cycles_total\": %d},\n"
       fs.fs_arrivals fs.fs_served fs.fs_shed fs.fs_missed fs.fs_joins
       fs.fs_departures fs.fs_refused fs.fs_boot_cycles_total);
  Buffer.add_string b
    (Printf.sprintf
       "  \"fleet_latency\": {\"method\": \"%s\", \"rel_error\": %s, \
        \"count\": %d, \"mean\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s, \
        \"max\": %s},\n"
       (json_escape fs.fs_latency_method)
       (Printf.sprintf "%.5f" Metrics.Sketch.relative_error)
       fs.fs_fleet_latency.Metrics.Stats.s_count
       (f fs.fs_fleet_latency.Metrics.Stats.s_mean)
       (f fs.fs_fleet_latency.Metrics.Stats.s_p50)
       (f fs.fs_fleet_latency.Metrics.Stats.s_p95)
       (f fs.fs_fleet_latency.Metrics.Stats.s_p99)
       (f fs.fs_fleet_latency.Metrics.Stats.s_max));
  Buffer.add_string b "  \"tenants\": [\n";
  let last = List.length fs.fs_rows - 1 in
  List.iteri
    (fun i t ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"workload\": \"%s\", \"policy\": \"%s\", \
            \"generator\": \"%s\", \"arrivals\": %d, \"served\": %d, \
            \"shed\": %d, \"deadline_missed\": %d, \"terminations\": %d, \
            \"restarts\": %d, \"refused\": %b, \"departed\": %b, \
            \"arrive_after\": %d, \"depart_after\": %d, \"boot_cycles\": %d, \
            \"faults\": %d, \"svc_mean_cycles\": %s, \"throughput_rps\": %s, \
            \"shed_rate\": %s, \"latency_method\": \"%s\", \
            \"latency_cycles\": %s}%s\n"
           (json_escape t.tr_name) (json_escape t.tr_workload)
           (json_escape t.tr_policy) (json_escape t.tr_generator) t.tr_arrivals
           t.tr_served t.tr_shed t.tr_missed t.tr_terminations t.tr_restarts
           t.tr_refused t.tr_departed t.tr_arrive_after t.tr_depart_after
           t.tr_boot_cycles t.tr_faults (f t.tr_svc_mean_cycles)
           (f t.tr_throughput_rps) (f t.tr_shed_rate)
           (json_escape t.tr_latency_method) (summ t.tr_latency)
           (if i = last then "" else ",")))
    fs.fs_rows;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  Buffer.contents b

let print_fleet_scale fs =
  Printf.printf
    "serve: fleet-scale %d tenants, %d arrivals, %d virtual cycles (%.4f s), \
     seed %d%s\n"
    fs.fs_tenants_n fs.fs_arrivals fs.fs_end_cycle fs.fs_virtual_seconds
    fs.fs_seed
    (if fs.fs_quick then " (quick)" else "");
  Printf.printf
    "serve: served %d, shed %d, missed %d (shed rate %.1f%%), arbiter moved \
     %d time(s)\n"
    fs.fs_served fs.fs_shed fs.fs_missed
    (if fs.fs_arrivals > 0 then
       100.0 *. float_of_int (fs.fs_shed + fs.fs_missed)
       /. float_of_int fs.fs_arrivals
     else 0.0)
    fs.fs_arbiter_moves;
  Printf.printf
    "serve: churn — %d join(s) (cold-start %d cycles total), %d departure(s), \
     %d refused\n"
    fs.fs_joins fs.fs_boot_cycles_total fs.fs_departures fs.fs_refused;
  let s = fs.fs_fleet_latency in
  Printf.printf
    "serve: fleet latency (%s, rel err <= %.1f%%): p50 %.0f, p95 %.0f, p99 \
     %.0f, max %.0f cycles over %d samples\n"
    fs.fs_latency_method
    (100.0 *. Metrics.Sketch.relative_error)
    s.Metrics.Stats.s_p50 s.Metrics.Stats.s_p95 s.Metrics.Stats.s_p99
    s.Metrics.Stats.s_max s.Metrics.Stats.s_count

let run_fleet_scale ?(quick = false) ?(seed = 42) ?(tenants = 100) ?(jobs = 1)
    ?out ?(print = true) () =
  let cfgs = fleet_scenario ~tenants ~quick in
  let params =
    {
      (Engine.default_params ~seed) with
      Engine.p_trace = false;  (* the trace would be O(arrivals) memory *)
      p_sketch = true;
    }
  in
  let res = Engine.run ~params cfgs in
  let model = Sgx.Machine.model res.Engine.r_machine in
  let virtual_seconds =
    float_of_int res.Engine.r_end_cycle /. model.Metrics.Cost_model.freq_hz
  in
  (* Row extraction shards over the pool; the merge is task-ordered, so
     the report — and its JSON — is byte-identical at any [jobs]. *)
  let rows =
    Parallel.Pool.map ~jobs
      (fun i -> tenant_report ~virtual_seconds res.Engine.r_tenants.(i))
      (List.init (Array.length res.Engine.r_tenants) (fun i -> i))
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 rows in
  let sketches = List.filter_map (fun t -> t.tr_sketch) rows in
  let fleet_latency, meth =
    if List.length sketches = List.length rows && sketches <> [] then
      (Metrics.Sketch.summary (Metrics.Sketch.merged sketches), "pooled-sketch")
    else
      ( Metrics.Stats.merge_summaries (List.map (fun t -> t.tr_latency) rows),
        "worst-of-shards" )
  in
  let fs =
    {
      fs_quick = quick;
      fs_seed = seed;
      fs_tenants_n = tenants;
      fs_rows = rows;
      fs_end_cycle = res.Engine.r_end_cycle;
      fs_virtual_seconds = virtual_seconds;
      fs_arbiter_moves = res.Engine.r_arbiter_moves;
      fs_arrivals = sum (fun t -> t.tr_arrivals);
      fs_served = sum (fun t -> t.tr_served);
      fs_shed = sum (fun t -> t.tr_shed);
      fs_missed = sum (fun t -> t.tr_missed);
      fs_joins = sum (fun t -> if t.tr_arrive_after > 0 then 1 else 0);
      fs_departures = sum (fun t -> if t.tr_departed then 1 else 0);
      fs_refused = sum (fun t -> if t.tr_refused then 1 else 0);
      fs_boot_cycles_total = sum (fun t -> t.tr_boot_cycles);
      fs_fleet_latency = fleet_latency;
      fs_latency_method = meth;
    }
  in
  if print then print_fleet_scale fs;
  (match out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (fleet_scale_to_json fs);
    close_out oc;
    if print then Printf.printf "serve: wrote %s\n" file);
  fs

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
let check ~baseline ?(tolerance = 0.25) ?(jobs = 1) () =
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
     | "pooled-sketch" | "worst-of-shards" -> ()
     | other -> fail_cell "baseline fleet_latency method %S unknown" other);
     let base_shed_rate =
       if b_arrivals > 0 then
         float_of_int (b_shed + b_missed) /. float_of_int b_arrivals
       else 0.0
     in
     Printf.printf "serve: checking against %s (seed %d, %d tenants, \
                    tolerance %.0f%%)\n"
       baseline seed tenants (100.0 *. tolerance);
     let cur = run_fleet_scale ~quick:true ~seed ~tenants ~jobs ~print:false () in
     if cur.fs_arrivals <> cur.fs_served + cur.fs_shed + cur.fs_missed then
       fail_cell "re-run conservation: %d arrivals <> %d+%d+%d" cur.fs_arrivals
         cur.fs_served cur.fs_shed cur.fs_missed;
     if cur.fs_latency_method <> "pooled-sketch" then
       fail_cell "re-run fleet latency method %S is not pooled-sketch"
         cur.fs_latency_method;
     let s = cur.fs_fleet_latency in
     let cur_shed_rate =
       if cur.fs_arrivals > 0 then
         float_of_int (cur.fs_shed + cur.fs_missed)
         /. float_of_int cur.fs_arrivals
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
