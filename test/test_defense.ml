(* Tests for the adaptive-defense subsystem: live policy switching on a
   tenant (working-set preservation, the no-switch-mid-request
   invariant, Heisenberg's capacity refusal), the escalation controller
   against the serving engine, and the SLO-under-attack harness's
   canonical-matrix determinism. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- standalone tenant ------------------------------------------------- *)

(* One tenant on its own machine, driven directly (no engine), mirroring
   the engine's boot sequence. *)
let mk_tenant ?(policy = Serve.Tenant.Rate_limit) ?(heap_pages = 96)
    ?(epc_limit = 192) () =
  let partition = 256 in
  let machine = Sgx.Machine.create ~epc_frames:(partition + 64) () in
  let hv = Hypervisor.Vmm.create machine in
  let vm = Hypervisor.Vmm.create_vm hv ~name:"t0" ~epc_frames:partition in
  let cfg =
    {
      Serve.Tenant.name = "t0";
      workload = Serve.Tenant.Uthash;
      policy;
      partition_frames = partition;
      epc_limit;
      enclave_pages = 512;
      heap_pages;
      generator = Serve.Tenant.Open_loop { load = 0.5 };
      queue_capacity = 16;
      deadline = None;
      requests = 0;
      arrive_after = 0;
      depart_after = None;
    }
  in
  Serve.Tenant.create ~machine ~hv ~vm ~seed_base:4242 cfg

let serve_some tn n =
  for _ = 1 to n do
    Serve.Tenant.request tn ~key:(Serve.Tenant.next_key tn)
  done

(* An Eulerian circuit of the complete directed graph on the four
   kinds (indices into [Harness.Policy.all]): walking it from any kind
   takes every ordered switch a -> b (a <> b) exactly once. *)
let every_switch = [| 0; 1; 0; 2; 0; 3; 1; 2; 1; 3; 2; 3 |]

let test_set_policy_preserves_working_set () =
  let kinds = Array.of_list Harness.Policy.all in
  Array.iteri
    (fun boot_i boot ->
      let tn = mk_tenant ~policy:boot () in
      let sys = Serve.Tenant.sys tn in
      let machine = Harness.System.machine sys in
      let enclave = Harness.System.enclave sys in
      let name = Harness.Policy.name in
      serve_some tn 6;
      (* The ground-truth bytes of one key's pages, snapshotted the first
         time a demand policy holds them resident: they must survive
         every switch, including the sealed handoffs through ORAM. *)
      let key = 3 in
      let snapshot = ref [] in
      let check_pages what =
        if Serve.Tenant.active_policy tn = Serve.Tenant.Oram then
          checkb (what ^ ": heap lives in the oblivious store") true
            (Serve.Tenant.resident_heap_pages tn = [])
        else begin
          Serve.Tenant.request tn ~key;
          let pages = Serve.Tenant.probe_pages tn ~key in
          checkb "uthash offers a page oracle" true (pages <> []);
          match !snapshot with
          | [] ->
            snapshot :=
              List.filter_map
                (fun vpage ->
                  Option.map
                    (fun d -> (vpage, Sgx.Page_data.to_bytes d))
                    (Sgx.Instructions.page_data machine enclave ~vpage))
                pages;
            checkb (what ^ ": probe pages resident") true (!snapshot <> [])
          | snap ->
            List.iter
              (fun (vpage, before) ->
                match Sgx.Instructions.page_data machine enclave ~vpage with
                | None ->
                  Alcotest.failf "%s: page 0x%x not resident after refault"
                    what vpage
                | Some d ->
                  checkb
                    (Printf.sprintf "%s: page 0x%x bytes preserved" what vpage)
                    true
                    (Bytes.equal before (Sgx.Page_data.to_bytes d)))
              snap
        end
      in
      check_pages ("boot " ^ name boot);
      let start =
        let rec find i = if every_switch.(i) = boot_i then i else find (i + 1) in
        find 0
      in
      let committed = ref 0 in
      for step = 1 to Array.length every_switch do
        let target =
          kinds.(every_switch.((start + step) mod Array.length every_switch))
        in
        let from_ = Serve.Tenant.active_policy tn in
        let what = Printf.sprintf "%s -> %s" (name from_) (name target) in
        (* After a refusal the walk resumes from the kept policy, so the
           next rung may already be in place. *)
        if from_ <> target then begin
          let before = Serve.Tenant.policy_switches tn in
          (match Serve.Tenant.set_policy tn target with
          | () ->
            incr committed;
            checkb (what ^ ": policy updated") true
              (Serve.Tenant.active_policy tn = target);
            checki (what ^ ": switch counted") (before + 1)
              (Serve.Tenant.policy_switches tn)
          | exception Invalid_argument _ when target = Serve.Tenant.Preload ->
            checkb (what ^ ": refused, previous policy kept") true
              (Serve.Tenant.active_policy tn = from_);
            checki (what ^ ": refusal is not a switch") before
              (Serve.Tenant.policy_switches tn));
          serve_some tn 3;
          check_pages what
        end
      done;
      checki
        ("boot " ^ name boot ^ ": committed switches")
        !committed
        (Serve.Tenant.policy_switches tn))
    kinds

let test_set_policy_mid_request_raises () =
  (* Balloon most of the working set away so the next requests must
     demand-fetch; an on_fetch hook firing inside a request is
     mid-request by construction. *)
  let tn = mk_tenant () in
  let os = Harness.System.os (Serve.Tenant.sys tn) in
  serve_some tn 4;
  let released =
    Sim_os.Kernel.request_balloon os (Serve.Tenant.proc tn) ~pages:60
  in
  checkb "balloon evicted part of the working set" true (released > 0);
  let hooks = Sim_os.Kernel.hooks os in
  let saved = hooks.Sim_os.Kernel.on_fetch in
  let fired = ref false in
  hooks.Sim_os.Kernel.on_fetch <-
    (fun _ _ ->
      fired := true;
      Serve.Tenant.set_policy tn Serve.Tenant.Clusters);
  let raised = ref false in
  (try
     for _ = 1 to 50 do
       if not !raised then
         try Serve.Tenant.request tn ~key:(Serve.Tenant.next_key tn)
         with Invalid_argument _ -> raised := true
     done
   with e ->
     hooks.Sim_os.Kernel.on_fetch <- saved;
     raise e);
  hooks.Sim_os.Kernel.on_fetch <- saved;
  checkb "a fetch fired mid-request" true !fired;
  checkb "mid-request switch rejected" true !raised;
  checkb "policy unchanged" true
    (Serve.Tenant.active_policy tn = Serve.Tenant.Rate_limit);
  checki "no switch committed" 0 (Serve.Tenant.policy_switches tn);
  (* The aborted request must not wedge the tenant. *)
  serve_some tn 3

let test_preload_refusal_rolls_back () =
  (* budget = epc_limit - 64 = 56 < 96 heap pages: Heisenberg's capacity
     condition refuses, and the previous policy must be reinstalled. *)
  let tn = mk_tenant ~epc_limit:120 () in
  serve_some tn 4;
  let refused =
    try
      Serve.Tenant.set_policy tn Serve.Tenant.Preload;
      false
    with Invalid_argument _ -> true
  in
  checkb "preload over budget refused" true refused;
  checkb "previous policy reinstalled" true
    (Serve.Tenant.active_policy tn = Serve.Tenant.Rate_limit);
  checki "refusal is not a switch" 0 (Serve.Tenant.policy_switches tn);
  serve_some tn 4

let test_preload_serves_without_faults () =
  let tn = mk_tenant ~policy:Serve.Tenant.Preload () in
  (* The protected set is the allocator's used pages (the workload may
     not consume the whole configured heap region). *)
  let set = List.length (Serve.Tenant.resident_heap_pages tn) in
  checkb "protected set resident at boot" true (set > 0);
  let faults0 = Serve.Tenant.faults tn in
  serve_some tn 12;
  checki "no demand faults while preloaded" faults0 (Serve.Tenant.faults tn);
  checki "set still fully resident" set
    (List.length (Serve.Tenant.resident_heap_pages tn))

(* --- controller -------------------------------------------------------- *)

let test_controller_rejects_empty_ladder () =
  let raised =
    try
      ignore
        (Defense.Controller.create
           { Defense.Controller.default_config with dc_ladder = [] });
      false
    with Invalid_argument _ -> true
  in
  checkb "empty ladder rejected" true raised

let quiet_cfgs () =
  [
    {
      Serve.Tenant.name = "kv";
      workload = Serve.Tenant.Kvstore;
      policy = Serve.Tenant.Rate_limit;
      partition_frames = 192;
      epc_limit = 160;
      enclave_pages = 512;
      heap_pages = 128;
      generator = Serve.Tenant.Open_loop { load = 0.5 };
      queue_capacity = 16;
      deadline = None;
      requests = 60;
      arrive_after = 0;
      depart_after = None;
    };
    {
      Serve.Tenant.name = "hash";
      workload = Serve.Tenant.Uthash;
      policy = Serve.Tenant.Clusters;
      partition_frames = 192;
      epc_limit = 160;
      enclave_pages = 512;
      heap_pages = 128;
      generator = Serve.Tenant.Open_loop { load = 0.5 };
      queue_capacity = 16;
      deadline = None;
      requests = 60;
      arrive_after = 0;
      depart_after = None;
    };
  ]

let test_controller_holds_steady_without_attack () =
  (* Under a calm fleet the controller must neither escalate nor change
     what the tenants serve. *)
  let run hooks =
    let params =
      {
        (Serve.Engine.default_params ~seed:11) with
        Serve.Engine.p_spare_frames = 64;
        p_calibration = 8;
        p_hooks = hooks;
      }
    in
    Serve.Engine.run ~params (quiet_cfgs ())
  in
  let ctl = Defense.Controller.create Defense.Controller.default_config in
  let hooks =
    {
      Serve.Engine.h_period = 10.0;
      h_on_start = Defense.Controller.on_start ctl;
      h_on_tick = Defense.Controller.on_tick ctl;
      h_before_request = (fun _ ~at:_ ~tenant:_ ~key:_ -> ());
      h_after_request = (fun _ ~at:_ ~tenant:_ ~verdict:_ -> ());
    }
  in
  let with_ctl = run (Some hooks) in
  let without = run None in
  checkb "controller ticked" true (Defense.Controller.ticks ctl > 0);
  checki "no escalations" 0 (Defense.Controller.escalations ctl);
  checki "no de-escalations" 0 (Defense.Controller.de_escalations ctl);
  checkb "steady holds not kept as events" true
    (Defense.Controller.events ctl = []);
  Array.iter2
    (fun a b ->
      let n = Serve.Tenant.name a in
      checki (n ^ ": served unchanged") (Serve.Tenant.served b)
        (Serve.Tenant.served a);
      checki (n ^ ": shed unchanged") (Serve.Tenant.shed b)
        (Serve.Tenant.shed a);
      checki (n ^ ": terminations unchanged") (Serve.Tenant.terminations b)
        (Serve.Tenant.terminations a);
      checkb (n ^ ": policy untouched") true
        (Serve.Tenant.active_policy a = Serve.Tenant.active_policy b))
    with_ctl.Serve.Engine.r_tenants without.Serve.Engine.r_tenants

(* --- waves ------------------------------------------------------------- *)

let test_wave_names_round_trip () =
  List.iter
    (fun k ->
      checkb (Defense.Waves.name k) true
        (Defense.Waves.of_name (Defense.Waves.name k) = Some k))
    Defense.Waves.all;
  checkb "unknown name" true (Defense.Waves.of_name "zerg-rush" = None)

let test_wave_rejects_malformed_window () =
  let raised f = try f (); false with Invalid_argument _ -> true in
  checkb "until < from_" true
    (raised (fun () ->
         ignore
           (Defense.Waves.create ~kind:Defense.Waves.Copycat_storm
              ~victim:"v" ~from_:10 ~until:9)));
  checkb "negative from_" true
    (raised (fun () ->
         ignore
           (Defense.Waves.create ~kind:Defense.Waves.Copycat_storm
              ~victim:"v" ~from_:(-1) ~until:10)))

(* --- SLO-under-attack harness ------------------------------------------ *)

let phase_of cell name =
  List.find (fun p -> p.Defense.Defend.pr_phase = name)
    cell.Defense.Defend.dl_phases

let test_defend_cell_escalates_and_recovers () =
  let cells =
    Defense.Defend.run ~quick:true
      ~adversaries:[ Defense.Waves.Kingsguard_churn ]
      ~ladder_filter:[ "standard" ] ~seed:42 ~jobs:1 ()
  in
  checki "one cell" 1 (List.length cells);
  let c = List.hd cells in
  checks "adversary" "kingsguard" c.Defense.Defend.dl_adversary;
  checkb "controller escalated under attack" true
    (c.Defense.Defend.dl_escalations > 0);
  checkb "hysteresis de-escalated after the wave" true
    (c.Defense.Defend.dl_de_escalations > 0);
  checkb "victim survived the wave" true
    (not c.Defense.Defend.dl_victim_refused);
  checkb "controller committed switches on the victim" true
    (c.Defense.Defend.dl_policy_switches > 0);
  checkb "phases in order" true
    (List.map (fun p -> p.Defense.Defend.pr_phase) c.Defense.Defend.dl_phases
    = [ "before"; "during"; "after" ]);
  let before = phase_of c "before" and after = phase_of c "after" in
  checki "calm before the wave" 0 before.Defense.Defend.pr_terminations;
  checki "no terminations after recovery" 0
    after.Defense.Defend.pr_terminations;
  checkb "no bits leak outside the wave" true
    (before.Defense.Defend.pr_bits_observed = 0.
    && after.Defense.Defend.pr_bits_observed = 0.);
  let arrivals =
    List.fold_left
      (fun a p -> a + p.Defense.Defend.pr_arrivals)
      0 c.Defense.Defend.dl_phases
  in
  checki "phases partition the arrivals" c.Defense.Defend.dl_requests arrivals;
  checkb "deterministic digest present" true
    (c.Defense.Defend.dl_digest <> None)

let test_defend_filtered_sweep_reproduces_matrix () =
  (* Shard seeds are keyed to the canonical (unfiltered) matrix index,
     so a filtered sweep must reproduce the full matrix's cells
     bit-for-bit — digests included. *)
  let full = Defense.Defend.run ~quick:true ~seed:7 ~jobs:1 () in
  let filtered =
    Defense.Defend.run ~quick:true
      ~adversaries:[ Defense.Waves.Copycat_storm ]
      ~ladder_filter:[ "heisenberg" ] ~seed:7 ~jobs:1 ()
  in
  checki "one filtered cell" 1 (List.length filtered);
  let f = List.hd filtered in
  let same =
    List.find
      (fun c ->
        c.Defense.Defend.dl_adversary = f.Defense.Defend.dl_adversary
        && c.Defense.Defend.dl_ladder = f.Defense.Defend.dl_ladder)
      full
  in
  checkb "digest matches the canonical cell" true
    (f.Defense.Defend.dl_digest = same.Defense.Defend.dl_digest);
  checkb "phase rows match the canonical cell" true
    (f.Defense.Defend.dl_phases = same.Defense.Defend.dl_phases);
  checki "timeline length matches"
    (List.length same.Defense.Defend.dl_timeline)
    (List.length f.Defense.Defend.dl_timeline)

let suite =
  [
    ("set_policy preserves the working set", `Quick,
     test_set_policy_preserves_working_set);
    ("set_policy mid-request raises", `Quick,
     test_set_policy_mid_request_raises);
    ("preload refusal rolls back", `Quick, test_preload_refusal_rolls_back);
    ("preload serves without faults", `Quick,
     test_preload_serves_without_faults);
    ("controller rejects empty ladder", `Quick,
     test_controller_rejects_empty_ladder);
    ("controller holds steady without attack", `Quick,
     test_controller_holds_steady_without_attack);
    ("wave names round-trip", `Quick, test_wave_names_round_trip);
    ("wave rejects malformed window", `Quick,
     test_wave_rejects_malformed_window);
    ("defend cell escalates and recovers", `Quick,
     test_defend_cell_escalates_and_recovers);
    ("filtered sweep reproduces the matrix", `Quick,
     test_defend_filtered_sweep_reproduces_matrix);
  ]
