(* Tests for the virtual-time serving subsystem: event ordering,
   fixed-seed determinism, admission accounting, SLO isolation of
   well-behaved tenants from an overloaded neighbour, and the
   restart-monitor cutoff under hypervisor-attack churn. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* The report as written to disk. *)
let json r = Harness.Microjson.to_string (Serve.Driver.to_json r)

(* --- event queue ------------------------------------------------------- *)

let test_event_queue_ordering () =
  let q = Serve.Event_queue.create () in
  List.iter (fun at -> Serve.Event_queue.push q ~at at)
    [ 30; 5; 17; 5; 90; 1; 17; 17 ];
  checki "length" 8 (Serve.Event_queue.length q);
  checkb "peek is minimum" true (Serve.Event_queue.peek_time q = Some 1);
  let popped = ref [] in
  let rec drain () =
    if Serve.Event_queue.pop q then begin
      checki "payload equals time"
        (Serve.Event_queue.popped_at q)
        (Serve.Event_queue.popped_payload q);
      popped := Serve.Event_queue.popped_at q :: !popped;
      drain ()
    end
  in
  drain ();
  checkb "sorted" true
    (List.rev !popped = [ 1; 5; 5; 17; 17; 17; 30; 90 ]);
  checkb "empty after drain" true (Serve.Event_queue.is_empty q)

let test_event_queue_fifo_ties () =
  (* Simultaneous events pop in push order (the determinism tie-break). *)
  let q = Serve.Event_queue.create () in
  List.iter (fun tag -> Serve.Event_queue.push q ~at:7 tag) [ 10; 11; 12; 13 ];
  let order = ref [] in
  let rec drain () =
    if Serve.Event_queue.pop q then begin
      order := Serve.Event_queue.popped_payload q :: !order;
      drain ()
    end
  in
  drain ();
  checkb "fifo among ties" true (List.rev !order = [ 10; 11; 12; 13 ])

(* --- scenarios --------------------------------------------------------- *)

(* A small two-tenant scenario that runs in well under a second. *)
let small_cfgs ?(hash_load = 2.5) ?(hash_requests = 120)
    ?(hash_deadline = Some 12.0) () =
  [
    {
      Serve.Tenant.name = "kv";
      workload = Serve.Tenant.Kvstore;
      policy = Serve.Tenant.Clusters;
      partition_frames = 192;
      epc_limit = 160;
      enclave_pages = 512;
      heap_pages = 256;
      generator = Serve.Tenant.Open_loop { load = 0.5 };
      queue_capacity = 16;
      deadline = None;
      requests = 80;
      arrive_after = 0;
      depart_after = None;
    };
    {
      Serve.Tenant.name = "hash";
      workload = Serve.Tenant.Uthash;
      policy = Serve.Tenant.Rate_limit;
      partition_frames = 160;
      epc_limit = 96;
      enclave_pages = 512;
      heap_pages = 256;
      generator = Serve.Tenant.Open_loop { load = hash_load };
      queue_capacity = 8;
      deadline = hash_deadline;
      requests = hash_requests;
      arrive_after = 0;
      depart_after = None;
    };
  ]

let params ?(seed = 11) ?arbiter ?attack ?(max_restarts = 3) () =
  let p = Serve.Engine.default_params ~seed in
  {
    p with
    Serve.Engine.p_spare_frames = 64;
    p_calibration = 8;
    p_max_restarts = max_restarts;
    p_arbiter = arbiter;
    p_attack = attack;
  }

(* The report of one engine run over [cfgs]. *)
let run_scenario ~params cfgs =
  Serve.Driver.report_of_result ~seed:params.Serve.Engine.p_seed ~quick:true
    (Serve.Engine.run ~params cfgs)

let test_fixed_seed_determinism () =
  let run () =
    run_scenario
      ~params:(params ~arbiter:Serve.Engine.default_arbiter ())
      (small_cfgs ())
  in
  let r1 = run () and r2 = run () in
  checks "identical reports" (json r1) (json r2);
  checkb "digest present" true (r1.Serve.Driver.rp_digest <> None);
  checks "identical trace digests"
    (Option.get r1.Serve.Driver.rp_digest)
    (Option.get r2.Serve.Driver.rp_digest);
  checkb "digest written to the JSON" true
    (Harness.Microjson.member "trace_digest"
       (Serve.Driver.to_json r1)
    = Some (Harness.Microjson.Str (Option.get r1.Serve.Driver.rp_digest)))

let test_admission_accounting () =
  let r =
    run_scenario ~params:(params ()) (small_cfgs ())
  in
  List.iter
    (fun t ->
      checki
        (t.Serve.Driver.tr_name ^ ": verdicts partition arrivals")
        t.Serve.Driver.tr_arrivals
        (t.Serve.Driver.tr_served + t.Serve.Driver.tr_shed
       + t.Serve.Driver.tr_missed);
      checki
        (t.Serve.Driver.tr_name ^ ": every arrival generated")
        t.Serve.Driver.tr_arrivals
        (if t.Serve.Driver.tr_name = "kv" then 80 else 120);
      checki
        (t.Serve.Driver.tr_name ^ ": latency samples = served")
        t.Serve.Driver.tr_served
        t.Serve.Driver.tr_latency.Metrics.Stats.s_count)
    r.Serve.Driver.rp_tenants

let test_overload_sheds_neighbour_keeps_slo () =
  (* The overloaded tenant sheds; the well-behaved tenant's p99 stays
     within 2x of what it sees with no overloaded neighbour at all. *)
  let loaded =
    run_scenario
      ~params:(params ~arbiter:Serve.Engine.default_arbiter ())
      (small_cfgs ())
  in
  let unloaded =
    run_scenario
      ~params:(params ~arbiter:Serve.Engine.default_arbiter ())
      (small_cfgs ~hash_load:0.3 ~hash_requests:40 ())
  in
  let find name r =
    List.find (fun t -> t.Serve.Driver.tr_name = name) r.Serve.Driver.rp_tenants
  in
  let hash = find "hash" loaded in
  checkb "overloaded tenant sheds" true
    (hash.Serve.Driver.tr_shed + hash.Serve.Driver.tr_missed > 0);
  let kv_loaded = find "kv" loaded and kv_unloaded = find "kv" unloaded in
  checki "well-behaved tenant serves everything" kv_loaded.Serve.Driver.tr_arrivals
    kv_loaded.Serve.Driver.tr_served;
  let p99l = kv_loaded.Serve.Driver.tr_latency.Metrics.Stats.s_p99 in
  let p99u = kv_unloaded.Serve.Driver.tr_latency.Metrics.Stats.s_p99 in
  if p99l > 2.0 *. p99u then
    Alcotest.failf "kv p99 %.0f exceeds 2x unloaded p99 %.0f" p99l p99u

let test_arbiter_moves_frames_toward_pressure () =
  let r =
    run_scenario
      ~params:(params ~arbiter:Serve.Engine.default_arbiter ())
      (small_cfgs ())
  in
  checkb "arbiter acted" true (r.Serve.Driver.rp_arbiter_moves > 0);
  let hash =
    List.find (fun t -> t.Serve.Driver.tr_name = "hash") r.Serve.Driver.rp_tenants
  in
  checkb "pressured tenant gained frames" true
    (hash.Serve.Driver.tr_balloon_in_frames > 0);
  checkb "pressured tenant partition grew" true
    (hash.Serve.Driver.tr_partition_end > 160)

(* Satellite: restart churn under serving.  A hypervisor that keeps
   transparently evicting the victim's pages forces repeated detected
   terminations; the restart monitor allows a bounded number of attested
   restarts and then refuses — from that point every arrival sheds, and
   the co-tenant is unaffected. *)
let test_restart_monitor_refuses_churning_tenant () =
  let r =
    run_scenario
      ~params:
        (params ~max_restarts:1
           ~attack:{ Serve.Engine.atk_victim = "hash"; atk_every = 3 }
           ())
      (* No deadline: the victim's post-restart backlog must still execute
         (and keep getting attacked) rather than time out untouched. *)
      (small_cfgs ~hash_requests:160 ~hash_deadline:None ())
  in
  let find name =
    List.find (fun t -> t.Serve.Driver.tr_name = name) r.Serve.Driver.rp_tenants
  in
  let hash = find "hash" in
  checkb "victim terminated repeatedly" true
    (hash.Serve.Driver.tr_terminations > 1);
  checkb "restarts bounded by monitor" true (hash.Serve.Driver.tr_restarts <= 1);
  checkb "victim refused re-admission" true hash.Serve.Driver.tr_refused;
  checkb "post-refusal arrivals shed" true
    (hash.Serve.Driver.tr_shed > hash.Serve.Driver.tr_terminations);
  checki "verdicts still partition arrivals" hash.Serve.Driver.tr_arrivals
    (hash.Serve.Driver.tr_served + hash.Serve.Driver.tr_shed
   + hash.Serve.Driver.tr_missed);
  let kv = find "kv" in
  checkb "co-tenant unaffected" true (not kv.Serve.Driver.tr_refused);
  checki "co-tenant serves everything" kv.Serve.Driver.tr_arrivals
    kv.Serve.Driver.tr_served

(* --- admission ring ---------------------------------------------------- *)

let test_ring_fifo () =
  let r = Serve.Ring.create ~capacity:3 in
  checkb "empty" true (Serve.Ring.is_empty r);
  Serve.Ring.push r 10;
  Serve.Ring.push r 20;
  Serve.Ring.push r 30;
  checkb "full" true (Serve.Ring.is_full r);
  checkb "push on full raises" true
    (match Serve.Ring.push r 40 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checki "peek head" 10 (Serve.Ring.peek r);
  checki "pop fifo" 10 (Serve.Ring.pop r);
  Serve.Ring.push r 40;  (* wraps around the fixed slots *)
  checki "order kept across wrap" 20 (Serve.Ring.pop r);
  checki "order kept across wrap 2" 30 (Serve.Ring.pop r);
  checki "order kept across wrap 3" 40 (Serve.Ring.pop r);
  checkb "pop on empty raises" true
    (match Serve.Ring.pop r with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Serve.Ring.push r 1;
  Serve.Ring.clear r;
  checkb "clear empties" true (Serve.Ring.is_empty r);
  checkb "capacity validated" true
    (match Serve.Ring.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- allocation-free hot paths ----------------------------------------- *)

(* Steady-state push/pop on the int-packed structures must not allocate:
   warm the structure past any growth, then measure a long churn.  Each
   window is the minimum over three identical 10k-op trials
   ({!Helpers.min_alloc_bytes}). *)
let test_hot_paths_allocation_free () =
  let q = Serve.Event_queue.create () in
  (* Refill the backing array to its steady-state depth before each
     trial: growth is the only allowed allocation. *)
  let fill () = for i = 1 to 1_024 do Serve.Event_queue.push q ~at:i i done in
  let a =
    Helpers.min_alloc_bytes ~setup:fill (fun () ->
        for i = 1 to 10_000 do
          ignore (Serve.Event_queue.pop q);
          Serve.Event_queue.push q ~at:(1_024 + i) i
        done;
        while Serve.Event_queue.pop q do () done)
  in
  if a > 128.0 then
    Alcotest.failf "event queue allocated %.0f bytes over 10k ops" a;
  let r = Serve.Ring.create ~capacity:64 in
  let b =
    Helpers.min_alloc_bytes (fun () ->
        for i = 1 to 10_000 do
          Serve.Ring.push r i;
          ignore (Serve.Ring.pop r)
        done)
  in
  if b > 128.0 then Alcotest.failf "ring allocated %.0f bytes over 10k ops" b;
  let sk = Metrics.Sketch.create () in
  Metrics.Sketch.add_int sk 1;
  let c =
    Helpers.min_alloc_bytes (fun () ->
        for i = 1 to 10_000 do Metrics.Sketch.add_int sk (i * 97) done)
  in
  if c > 128.0 then
    Alcotest.failf "sketch add_int allocated %.0f bytes over 10k ops" c

(* Per-served-request allocation of the whole engine loop, measured
   differentially (two runs of the same scenario, different request
   counts) so boot/calibration/report costs cancel out.  The measured
   value (~6.0 kB/request) is dominated by the simulated enclave
   workload body — kvstore hashing and MMU walks allocate on their own
   account; the serving machinery around it (event queue, admission
   ring, sketch) contributes zero, as the preceding test shows.  The
   8,000 B bound (about 1.3x the measured value) exists to catch
   regressions that reintroduce per-event boxing in the engine loop on
   top of that floor. *)
let test_request_path_allocation_bounded () =
  let run requests =
    let cfgs =
      [ { (List.hd (small_cfgs ())) with Serve.Tenant.requests; name = "kv" } ]
    in
    let params =
      { (params ()) with Serve.Engine.p_trace = false; p_sketch = true }
    in
    Helpers.min_alloc_bytes (fun () -> ignore (run_scenario ~params cfgs))
  in
  ignore (run 50);  (* warm any lazy initialisation *)
  let small = run 200 in
  let large = run 1_000 in
  let per_request = (large -. small) /. 800.0 in
  if per_request > 8_000.0 then
    Alcotest.failf "served-request path allocates %.0f bytes/request"
      per_request

(* --- sketch-mode accounting -------------------------------------------- *)

let test_sketch_mode_matches_exact_counts () =
  let run sketch =
    run_scenario
      ~params:{ (params ()) with Serve.Engine.p_sketch = sketch }
      (small_cfgs ())
  in
  let exact = run false and sk = run true in
  List.iter2
    (fun e s ->
      checki (e.Serve.Driver.tr_name ^ ": arrivals agree")
        e.Serve.Driver.tr_arrivals s.Serve.Driver.tr_arrivals;
      checki (e.Serve.Driver.tr_name ^ ": served agree")
        e.Serve.Driver.tr_served s.Serve.Driver.tr_served;
      checki (e.Serve.Driver.tr_name ^ ": shed agree") e.Serve.Driver.tr_shed
        s.Serve.Driver.tr_shed;
      checks (e.Serve.Driver.tr_name ^ ": methods label backends") "exact"
        e.Serve.Driver.tr_latency_method;
      checks (s.Serve.Driver.tr_name ^ ": methods label backends") "sketch"
        s.Serve.Driver.tr_latency_method;
      checkb (e.Serve.Driver.tr_name ^ ": sketch present") true
        (s.Serve.Driver.tr_sketch <> None);
      let ep = e.Serve.Driver.tr_latency.Metrics.Stats.s_p99 in
      let sp = s.Serve.Driver.tr_latency.Metrics.Stats.s_p99 in
      checkb (e.Serve.Driver.tr_name ^ ": p99 within sketch bound") true
        (sp >= ep
        && sp <= (ep *. (1.0 +. Metrics.Sketch.relative_error)) +. 1.0))
    exact.Serve.Driver.rp_tenants sk.Serve.Driver.rp_tenants

let test_json_unchanged_by_sketch_flag_default () =
  (* p_sketch defaults to false: the report of the default engine must
     not change shape or values vs an explicit exact run. *)
  let r1 =
    run_scenario ~params:(params ()) (small_cfgs ())
  in
  let r2 =
    run_scenario
      ~params:{ (params ()) with Serve.Engine.p_sketch = false }
      (small_cfgs ())
  in
  checks "identical JSON" (json r1)
    (json r2)

(* --- new generators in the engine --------------------------------------- *)

let test_heavy_tail_and_diurnal_deterministic () =
  let cfgs =
    [
      { (List.hd (small_cfgs ())) with
        Serve.Tenant.name = "par";
        generator = Serve.Tenant.Heavy_tail { load = 0.8; alpha = 1.5 };
        requests = 120;
      };
      { (List.nth (small_cfgs ()) 1) with
        Serve.Tenant.name = "dirn";
        generator = Serve.Tenant.Diurnal { load = 0.7; depth = 0.6; period = 200.0 };
        requests = 120;
        deadline = None;
      };
    ]
  in
  let run () = run_scenario ~params:(params ()) cfgs in
  let r1 = run () and r2 = run () in
  checks "identical reports" (json r1) (json r2);
  List.iter
    (fun t ->
      checki
        (t.Serve.Driver.tr_name ^ ": verdicts partition arrivals")
        t.Serve.Driver.tr_arrivals
        (t.Serve.Driver.tr_served + t.Serve.Driver.tr_shed
       + t.Serve.Driver.tr_missed);
      checki (t.Serve.Driver.tr_name ^ ": every arrival generated") 120
        t.Serve.Driver.tr_arrivals)
    r1.Serve.Driver.rp_tenants

(* --- tenant churn ------------------------------------------------------- *)

let churn_cfgs () =
  [
    List.hd (small_cfgs ());
    { (List.nth (small_cfgs ~hash_load:0.8 ~hash_deadline:None ()) 1) with
      Serve.Tenant.name = "late";
      arrive_after = 400_000;
      requests = 60;
    };
    { (List.hd (small_cfgs ())) with
      Serve.Tenant.name = "gone";
      workload = Serve.Tenant.Uthash;
      generator = Serve.Tenant.Open_loop { load = 1.0 };
      requests = 500;
      depart_after = Some 1_000_000;
    };
  ]

let test_churn_join_and_depart () =
  let r =
    run_scenario ~params:(params ()) (churn_cfgs ())
  in
  let find name =
    List.find (fun t -> t.Serve.Driver.tr_name = name) r.Serve.Driver.rp_tenants
  in
  let late = find "late" in
  checkb "joiner paid a cold start" true (late.Serve.Driver.tr_boot_cycles > 0);
  checki "joiner generated its full stream" 60 late.Serve.Driver.tr_arrivals;
  checki "joiner accounting conserves" late.Serve.Driver.tr_arrivals
    (late.Serve.Driver.tr_served + late.Serve.Driver.tr_shed
   + late.Serve.Driver.tr_missed);
  checkb "run extends past the join" true
    (r.Serve.Driver.rp_end_cycle
    > late.Serve.Driver.tr_arrive_after + late.Serve.Driver.tr_boot_cycles);
  let gone = find "gone" in
  checkb "departer left" true gone.Serve.Driver.tr_departed;
  checkb "departer arrivals truncated uncounted" true
    (gone.Serve.Driver.tr_arrivals < 500);
  checki "departer accounting conserves" gone.Serve.Driver.tr_arrivals
    (gone.Serve.Driver.tr_served + gone.Serve.Driver.tr_shed
   + gone.Serve.Driver.tr_missed);
  let kv = find "kv" in
  checki "steady tenant unaffected" kv.Serve.Driver.tr_arrivals
    kv.Serve.Driver.tr_served

let test_churn_deterministic () =
  let run () =
    run_scenario ~params:(params ()) (churn_cfgs ())
  in
  let r1 = run () and r2 = run () in
  checks "identical churn reports" (json r1)
    (json r2)

let test_churn_join_goes_through_monitor () =
  (* A parked tenant's cold start goes through the restart monitor like
     any other attested start: with the budget squeezed to one start
     per tenant while an attack churns the victim, the late joiner
     still books exactly its own join and conserves its arrivals. *)
  let cfgs =
    [
      List.hd (small_cfgs ());
      { (List.nth (small_cfgs ~hash_requests:160 ~hash_deadline:None ()) 1) with
        Serve.Tenant.arrive_after = 0;
      };
      { (List.nth (small_cfgs ~hash_load:0.8 ~hash_deadline:None ()) 1) with
        Serve.Tenant.name = "late";
        arrive_after = 400_000;
        requests = 40;
      };
    ]
  in
  let r =
    run_scenario
      ~params:
        (params ~max_restarts:1
           ~attack:{ Serve.Engine.atk_victim = "hash"; atk_every = 3 }
           ())
      cfgs
  in
  let late =
    List.find (fun t -> t.Serve.Driver.tr_name = "late") r.Serve.Driver.rp_tenants
  in
  (* The monitor allowed one start for "late" (its join); its arrivals
     still partition exactly. *)
  checkb "join was attested (cold-start charged)" true
    (late.Serve.Driver.tr_boot_cycles > 0);
  checki "late accounting conserves" late.Serve.Driver.tr_arrivals
    (late.Serve.Driver.tr_served + late.Serve.Driver.tr_shed
   + late.Serve.Driver.tr_missed)

(* --- the one report: fleet scale and the 3-tenant default ---------------- *)

let run_report ?no_arbiter scenario =
  Serve.Driver.run ~quick:true ~seed:5 ?no_arbiter ~print:false ~scenario ()

let test_fleet_scale_report () =
  let fleet = run_report (Serve.Driver.Fleet 12) in
  checki "tenant rows" 12 (List.length fleet.Serve.Driver.rp_tenants);
  checkb "churn happened" true
    (fleet.Serve.Driver.rp_joins > 0 && fleet.Serve.Driver.rp_departures > 0);
  checkb "cold starts charged" true (fleet.Serve.Driver.rp_boot_cycles_total > 0);
  List.iter
    (fun t ->
      checks (t.Serve.Driver.tr_name ^ ": sketch accounting") "sketch"
        t.Serve.Driver.tr_latency_method)
    fleet.Serve.Driver.rp_tenants;
  (* Both scenarios report through the same path: the totals conserve
     and the roll-up pools every served request. *)
  let default = run_report Serve.Driver.Default in
  List.iter
    (fun (r, meth) ->
      checki (meth ^ ": conservation") r.Serve.Driver.rp_arrivals
        (r.Serve.Driver.rp_served + r.Serve.Driver.rp_shed
       + r.Serve.Driver.rp_missed);
      checks (meth ^ ": roll-up method") meth r.Serve.Driver.rp_latency_method;
      checki (meth ^ ": roll-up counts served") r.Serve.Driver.rp_served
        r.Serve.Driver.rp_latency.Metrics.Stats.s_count)
    [ (fleet, "pooled-sketch"); (default, "pooled-exact") ];
  (* --no-arbiter reaches both scenarios: no move, every partition ends
     at its configured size. *)
  checkb "arbiter acts when enabled" true (default.Serve.Driver.rp_arbiter_moves > 0);
  List.iter
    (fun (scenario, cfgs) ->
      let r = run_report ~no_arbiter:true scenario in
      checki "no arbiter moves" 0 r.Serve.Driver.rp_arbiter_moves;
      List.iter2
        (fun t c ->
          checki (t.Serve.Driver.tr_name ^ ": static partition")
            c.Serve.Tenant.partition_frames t.Serve.Driver.tr_partition_end)
        r.Serve.Driver.rp_tenants cfgs)
    [
      (Serve.Driver.Fleet 12, Serve.Driver.fleet_scenario ~tenants:12 ~quick:true);
      (Serve.Driver.Default, Serve.Driver.default_scenario ~quick:true);
    ]

let test_fleet_scale_json_validates () =
  let fleet = run_report (Serve.Driver.Fleet 6) in
  let default = run_report Serve.Driver.Default in
  checkb "only the default scenario traces" true
    (fleet.Serve.Driver.rp_digest = None && default.Serve.Driver.rp_digest <> None);
  List.iter
    (fun (ctx, r) ->
      let j = Harness.Microjson.of_string (json r) in
      (match Harness.Schema.validate [ Serve.Driver.spec ] ~ctx j with
      | Ok () -> ()
      | Error es -> Alcotest.failf "serve/2 JSON invalid: %s" (String.concat "; " es));
      checkb (ctx ^ ": schema") true
        (Harness.Microjson.member "schema" j
        = Some (Harness.Microjson.Str "autarky-serve/2"));
      checkb (ctx ^ ": trace_digest only when traced")
        (r.Serve.Driver.rp_digest <> None)
        (Harness.Microjson.member "trace_digest" j <> None))
    [ ("fleet", fleet); ("default", default) ]

let test_check_gate_round_trip () =
  (* A baseline written by the quick fleet-scale run must pass its own
     gate (drift 0), and a corrupted one must fail the exact layer. *)
  let file = Filename.temp_file "serve_check" ".json" in
  ignore
    (Serve.Driver.run ~quick:true ~seed:5 ~out:file ~print:false
       ~scenario:(Serve.Driver.Fleet 6) ());
  checkb "self-check passes" true
    (Serve.Driver.check ~baseline:file ~tolerance:0.01 ());
  (* Break conservation in the totals. *)
  let ic = open_in file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let broken =
    Str.global_replace (Str.regexp {|"served": [0-9]+,|}) {|"served": 1,|} s
  in
  let oc = open_out file in
  output_string oc broken;
  close_out oc;
  checkb "corrupt baseline fails" false
    (Serve.Driver.check ~baseline:file ~tolerance:0.01 ());
  Sys.remove file

let suite =
  [
    ("event queue orders by time", `Quick, test_event_queue_ordering);
    ("event queue breaks ties FIFO", `Quick, test_event_queue_fifo_ties);
    ("fixed-seed determinism", `Quick, test_fixed_seed_determinism);
    ("admission accounting", `Quick, test_admission_accounting);
    ("overload sheds, neighbour keeps SLO", `Quick,
     test_overload_sheds_neighbour_keeps_slo);
    ("arbiter moves frames toward pressure", `Quick,
     test_arbiter_moves_frames_toward_pressure);
    ("restart monitor refuses churning tenant", `Quick,
     test_restart_monitor_refuses_churning_tenant);
    ("ring is a bounded fifo", `Quick, test_ring_fifo);
    ("hot paths allocation-free", `Quick, test_hot_paths_allocation_free);
    ("request path allocation bounded", `Quick,
     test_request_path_allocation_bounded);
    ("sketch mode matches exact counts", `Quick,
     test_sketch_mode_matches_exact_counts);
    ("json unchanged by sketch flag default", `Quick,
     test_json_unchanged_by_sketch_flag_default);
    ("heavy-tail and diurnal deterministic", `Quick,
     test_heavy_tail_and_diurnal_deterministic);
    ("churn join and depart", `Quick, test_churn_join_and_depart);
    ("churn deterministic", `Quick, test_churn_deterministic);
    ("churn join goes through monitor", `Quick,
     test_churn_join_goes_through_monitor);
    ("fleet-scale report", `Quick, test_fleet_scale_report);
    ("fleet-scale json validates", `Quick, test_fleet_scale_json_validates);
    ("check gate round trip", `Quick, test_check_gate_round_trip);
  ]
