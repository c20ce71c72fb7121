(* Tests for the harness: system wiring, address-space carving,
   measurement, and the report formatters. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_reserve_carving () =
  let sys = Helpers.autarky_system ~enclave_pages:64 () in
  let a = Harness.System.reserve sys ~pages:10 in
  let b = Harness.System.reserve sys ~pages:10 in
  checki "contiguous" (a + 10) b;
  checkb "within enclave" true
    (Sgx.Enclave.contains_vpage (Harness.System.enclave sys) a);
  checkb "exhaustion detected" true
    (try ignore (Harness.System.reserve sys ~pages:1_000); false
     with Invalid_argument _ -> true)

let test_allocator_region () =
  let sys = Helpers.autarky_system () in
  let heap = Harness.System.allocator sys ~pages:32 ~cluster_pages:4 in
  let p = Autarky.Allocator.alloc_page heap in
  checkb "allocates inside enclave" true
    (Sgx.Enclave.contains_vpage (Harness.System.enclave sys) p);
  checkb "clusters registry shared" true
    (Autarky.Clusters.registered (Harness.System.clusters_of heap) p)

let test_vm_routes_to_cpu () =
  let sys = Helpers.autarky_system () in
  let b = Harness.System.reserve sys ~pages:1 in
  let vm = Harness.System.vm sys () in
  vm.Workloads.Vm.read (b * Sgx.Types.page_bytes);
  checkb "tlb miss recorded" true
    (Metrics.Counters.get (Harness.System.counters sys) "mmu.tlb_miss" > 0)

let test_vm_instrument_override () =
  let sys = Helpers.autarky_system () in
  let hits = ref 0 in
  let vm = Harness.System.vm sys ~instrument:(fun _ _ -> incr hits) () in
  vm.Workloads.Vm.read 0;
  vm.Workloads.Vm.write 0;
  vm.Workloads.Vm.exec 0;
  checki "all three routed" 3 !hits

let test_vm_compute_charges () =
  let sys = Helpers.autarky_system () in
  let vm = Harness.System.vm sys () in
  let before = Metrics.Clock.now (Harness.System.clock sys) in
  vm.Workloads.Vm.compute 12345;
  checki "charged" (before + 12345) (Metrics.Clock.now (Harness.System.clock sys))

let test_pin_makes_resident () =
  let sys = Helpers.autarky_system () in
  let _burn = Harness.System.reserve sys ~pages:128 in
  let b = Harness.System.reserve sys ~pages:8 in
  let pages = List.init 8 (fun i -> b + i) in
  Harness.System.pin sys pages;
  let pager = Autarky.Runtime.pager (Harness.System.runtime_exn sys) in
  checkb "all resident" true (List.for_all (Autarky.Pager.resident pager) pages)

let test_measure_resets_and_counts () =
  let sys = Helpers.autarky_system () in
  let b = Harness.System.reserve sys ~pages:1 in
  let vm = Harness.System.vm sys () in
  (* Pollute the clock, then measure a known phase. *)
  Sgx.Machine.charge (Harness.System.machine sys) 1_000_000;
  let r =
    Harness.Measure.run sys (fun () -> vm.Workloads.Vm.compute 5_000)
  in
  let cm = Metrics.Cost_model.default in
  checki "clock was reset (eenter+eexit+compute)" (cm.eenter + cm.eexit + 5_000)
    r.Harness.Measure.cycles;
  checki "no faults" 0 r.Harness.Measure.page_faults;
  checkb "seconds positive" true (r.Harness.Measure.seconds > 0.0);
  ignore b

let test_measure_throughput_math () =
  let r =
    { Harness.Measure.cycles = 3_900_000_000; seconds = 1.0; page_faults = 50;
      tlb_misses = 0; pages_fetched = 0; pages_evicted = 0; counters = [] }
  in
  checkb "ops/s" true (Harness.Measure.throughput r ~ops:100 = 100.0);
  checkb "faults/s" true (Harness.Measure.fault_rate r = 50.0)

let test_legacy_system_has_no_runtime () =
  let sys = Helpers.legacy_system () in
  checkb "no runtime" true (Harness.System.runtime sys = None);
  checkb "runtime_exn raises" true
    (try ignore (Harness.System.runtime_exn sys); false
     with Invalid_argument _ -> true)

let test_report_formatters () =
  Alcotest.(check string) "pct" "6.30%" (Harness.Report.pct 0.063);
  Alcotest.(check string) "si k" "12.4k" (Harness.Report.si 12_400.0);
  Alcotest.(check string) "si M" "3.50M" (Harness.Report.si 3_500_000.0);
  Alcotest.(check string) "si G" "2.00G" (Harness.Report.si 2e9);
  Alcotest.(check string) "si small" "42.0" (Harness.Report.si 42.0);
  Alcotest.(check string) "f2" "3.14" (Harness.Report.f2 3.14159)

(* --- bench-report schema validation ------------------------------------ *)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let mini_serve2 =
  {|{
  "schema": "autarky-serve/2",
  "quick": true,
  "seed": 7,
  "tenants_n": 1,
  "end_cycle": 10,
  "virtual_seconds": 0.01,
  "arbiter_moves": 0,
  "totals": {"arrivals": 4, "served": 4, "shed": 0, "deadline_missed": 0,
    "joins": 0, "departures": 0, "refused": 0, "boot_cycles_total": 0},
  "fleet_latency": {"method": "pooled-sketch", "rel_error": 0.03125,
    "count": 4, "mean": 1.0, "p50": 1.0, "p95": 2.0, "p99": 2.0, "max": 2.0},
  "tenants": [
    {"name": "kv", "workload": "kvstore", "policy": "clusters",
     "generator": "open-loop", "arrivals": 4, "served": 4, "shed": 0,
     "deadline_missed": 0, "terminations": 0, "restarts": 0,
     "refused": false, "departed": false, "arrive_after": 0,
     "depart_after": -1, "boot_cycles": 0, "faults": 0,
     "svc_mean_cycles": 1.0, "throughput_rps": 1.0, "shed_rate": 0.0,
     "latency_method": "sketch",
     "latency_cycles": {"count": 4, "mean": 1.0, "p50": 1.0, "p95": 2.0,
       "p99": 2.0, "max": 2.0}}
  ]
}|}

let test_schema_accepts_valid () =
  match
    Harness.Schema.validate ~ctx:"mini" (Harness.Microjson.of_string mini_serve2)
  with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected errors: %s" (String.concat "; " es)

let test_schema_rejects_unknown () =
  let doc = {|{"schema": "autarky-mystery/9", "quick": true}|} in
  match Harness.Schema.validate ~ctx:"x" (Harness.Microjson.of_string doc) with
  | Ok () -> Alcotest.fail "unknown schema accepted"
  | Error [ e ] ->
    Alcotest.(check bool) "mentions schema" true
      (contains ~affix:"unknown schema" e)
  | Error es -> Alcotest.failf "expected one error, got %d" (List.length es)

let test_schema_rejects_missing_schema_field () =
  match
    Harness.Schema.validate ~ctx:"x" (Harness.Microjson.of_string {|{"quick": true}|})
  with
  | Ok () -> Alcotest.fail "schemaless document accepted"
  | Error _ -> ()

let test_schema_rejects_missing_row_key () =
  (* Drop a required row key and the validator must name it. *)
  let doc =
    (* Cut the latency_method key out of the valid document. *)
    let needle = {|"latency_method": "sketch",|} in
    let i =
      let n = String.length mini_serve2 and m = String.length needle in
      let rec go i =
        if i + m > n then -1
        else if String.sub mini_serve2 i m = needle then i
        else go (i + 1)
      in
      go 0
    in
    String.sub mini_serve2 0 i
    ^ String.sub mini_serve2
        (i + String.length needle)
        (String.length mini_serve2 - i - String.length needle)
  in
  match Harness.Schema.validate ~ctx:"x" (Harness.Microjson.of_string doc) with
  | Ok () -> Alcotest.fail "missing row key accepted"
  | Error es ->
    Alcotest.(check bool) "names the key" true
      (List.exists (fun e -> contains ~affix:"latency_method" e) es)

let test_schema_rejects_wrong_shape () =
  let doc =
    {|{"schema": "autarky-serve/2", "quick": 1, "seed": 7, "tenants_n": 0,
       "end_cycle": 0, "virtual_seconds": 0, "arbiter_moves": 0,
       "totals": {}, "fleet_latency": {}, "tenants": []}|}
  in
  match Harness.Schema.validate ~ctx:"x" (Harness.Microjson.of_string doc) with
  | Ok () -> Alcotest.fail "bool-typed field accepted as number"
  | Error es ->
    Alcotest.(check bool) "names quick" true
      (List.exists (fun e -> contains ~affix:{|"quick"|} e) es)

(* The gate reads the baseline's %.2f-rounded figures; a fresh run of
   the same (quick, seed) must match them exactly, not to a tolerance. *)
let test_perf_check_exact_at_zero_tolerance () =
  let file = Filename.temp_file "perf_check" ".json" in
  ignore (Harness.Perf.run ~quick:true ~seed:5 ~out:file ());
  let ok = Harness.Perf.check ~baseline:file ~tolerance:0. () in
  Sys.remove file;
  checkb "re-run equals its own baseline at tolerance 0" true ok

let suite =
  [
    ("reserve carving", `Quick, test_reserve_carving);
    ("allocator region", `Quick, test_allocator_region);
    ("vm routes to cpu", `Quick, test_vm_routes_to_cpu);
    ("vm instrument override", `Quick, test_vm_instrument_override);
    ("vm compute charges", `Quick, test_vm_compute_charges);
    ("pin makes resident", `Quick, test_pin_makes_resident);
    ("measure resets and counts", `Quick, test_measure_resets_and_counts);
    ("measure throughput math", `Quick, test_measure_throughput_math);
    ("legacy system has no runtime", `Quick, test_legacy_system_has_no_runtime);
    ("report formatters", `Quick, test_report_formatters);
    ("schema accepts valid report", `Quick, test_schema_accepts_valid);
    ("schema rejects unknown schema", `Quick, test_schema_rejects_unknown);
    ("schema rejects missing schema field", `Quick,
     test_schema_rejects_missing_schema_field);
    ("schema rejects missing row key", `Quick,
     test_schema_rejects_missing_row_key);
    ("schema rejects wrong shape", `Quick, test_schema_rejects_wrong_shape);
    ("perf check exact at tolerance 0", `Quick,
     test_perf_check_exact_at_zero_tolerance);
  ]
