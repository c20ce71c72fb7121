(* The red-team adversary suite (lib/redteam): the Leakage edge-case
   guards it leans on, victim determinism under a null adversary, the
   ground-truth behavior of each adversary against the configurations
   where the paper predicts full leakage / full masking, and scoreboard
   determinism across worker counts. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

(* --- Leakage edge cases ------------------------------------------------- *)

let test_entropy_edge_cases () =
  checkf "empty distribution" 0.0 (Attacks.Leakage.entropy_bits []);
  checkf "single outcome" 0.0 (Attacks.Leakage.entropy_bits [ 1.0 ]);
  checkf "all-zero mass" 0.0 (Attacks.Leakage.entropy_bits [ 0.0; 0.0; 0.0 ]);
  (* Raw counts are normalized by their sum. *)
  checkf "counts normalized" 2.0
    (Attacks.Leakage.entropy_bits [ 3.0; 3.0; 3.0; 3.0 ]);
  checkf "skewed counts" 1.0 (Attacks.Leakage.entropy_bits [ 5.0; 5.0 ]);
  (* Already-normalized input takes the untouched path. *)
  checkf "normalized untouched" 1.0 (Attacks.Leakage.entropy_bits [ 0.5; 0.5 ]);
  let h = Attacks.Leakage.entropy_bits [ 1e-300; 1e-300 ] in
  checkb "tiny mass is finite" true (Float.is_finite h);
  checkf "tiny mass normalizes to uniform" 1.0 h

let test_entropy_rejects_invalid () =
  Alcotest.check_raises "negative probability"
    (Invalid_argument
       "Leakage.entropy_bits: probabilities must be finite and >= 0")
    (fun () -> ignore (Attacks.Leakage.entropy_bits [ 0.5; -0.1 ]));
  Alcotest.check_raises "NaN probability"
    (Invalid_argument
       "Leakage.entropy_bits: probabilities must be finite and >= 0")
    (fun () -> ignore (Attacks.Leakage.entropy_bits [ Float.nan ]));
  Alcotest.check_raises "infinite probability"
    (Invalid_argument
       "Leakage.entropy_bits: probabilities must be finite and >= 0")
    (fun () -> ignore (Attacks.Leakage.entropy_bits [ Float.infinity ]))

let test_leakage_helper_guards () =
  checkf "uniform n=8" 3.0 (Attacks.Leakage.uniform_entropy_bits ~n:8);
  checkb "uniform n=0 rejected" true
    (try
       ignore (Attacks.Leakage.uniform_entropy_bits ~n:0);
       false
     with Invalid_argument _ -> true);
  checkb "negative faults rejected" true
    (try
       ignore (Attacks.Leakage.rate_limit_leak_bound ~faults:(-1) ~managed_pages:4);
       false
     with Invalid_argument _ -> true);
  checkb "zero-size cluster rejected" true
    (try
       ignore
         (Attacks.Leakage.cluster_guess_probability ~item_bytes:256
            ~cluster_pages:0 ~page_bytes:4096);
       false
     with Invalid_argument _ -> true)

(* --- victims ------------------------------------------------------------ *)

let cfg ?(policy = Redteam.Victim.Rate_limit) ?(mech = `Sgx1) ?(seed = 7) () =
  { Redteam.Victim.policy; mech; symbols = 8; alphabet = 8; seed }

let null_run v =
  Redteam.Victim.run v ~before:(fun _ -> ()) ~after:(fun _ -> ())

let test_null_adversary_deterministic () =
  List.iter
    (fun policy ->
      let mk () = Redteam.Victim.create (cfg ~policy ()) in
      let v1 = mk () and v2 = mk () in
      checkb "same secret" true
        (Redteam.Victim.secret v1 = Redteam.Victim.secret v2);
      checkb "run 1 completes" true (null_run v1 = Redteam.Victim.Completed);
      checkb "run 2 completes" true (null_run v2 = Redteam.Victim.Completed);
      checks "identical trace digests" (Redteam.Victim.digest v1)
        (Redteam.Victim.digest v2))
    Redteam.Victim.all_policies

let test_victim_runs_once () =
  let v = Redteam.Victim.create (cfg ~policy:Redteam.Victim.Baseline ()) in
  checkb "first run" true (null_run v = Redteam.Victim.Completed);
  Alcotest.check_raises "second run rejected"
    (Invalid_argument "Victim.run: a victim can only be run once") (fun () ->
      ignore (null_run v))

(* --- adversaries: ground truth ------------------------------------------ *)

let run_adv adv c = adv.Redteam.Adversary.run (fun () -> Redteam.Victim.create c)

let test_copycat_owns_baseline () =
  (* Single-stepping against a legacy kernel recovers the exact secret:
     the marker fault lands after secret+1 scratch reads. *)
  let v, r = run_adv Redteam.Copycat.adversary (cfg ~policy:Baseline ()) in
  let secret = Redteam.Victim.secret v in
  checkb "completed" true (r.res_outcome = Redteam.Adversary.Completed);
  checki "one observation per request" (Array.length secret)
    (List.length r.res_observations);
  List.iter
    (fun ob ->
      checkb "exact symbol recovered" true
        (ob.Redteam.Adversary.ob_candidates
        = [ secret.(ob.Redteam.Adversary.ob_request) ]))
    r.res_observations

let test_copycat_detected_by_autarky () =
  List.iter
    (fun mech ->
      let _, r = run_adv Redteam.Copycat.adversary (cfg ~mech ()) in
      checkb "detected" true
        (match r.Redteam.Adversary.res_outcome with
        | Redteam.Adversary.Detected _ -> true
        | Redteam.Adversary.Completed -> false);
      checki "no observations" 0 (List.length r.res_observations);
      checki "one termination" 1 r.res_terminations)
    [ `Sgx1; `Sgx2 ]

let test_branch_shadow_outside_threat_model () =
  (* The branch channel is not a paging channel: it completes — and
     leaks — against every policy, motivating the paper's §3 scoping. *)
  List.iter
    (fun policy ->
      let v, r = run_adv Redteam.Branch_shadow.adversary (cfg ~policy ()) in
      let secret = Redteam.Victim.secret v in
      checkb "completed" true (r.res_outcome = Redteam.Adversary.Completed);
      List.iter
        (fun ob ->
          checkb "truth among candidates" true
            (List.mem
               secret.(ob.Redteam.Adversary.ob_request)
               ob.Redteam.Adversary.ob_candidates))
        r.res_observations;
      checkb "observed something" true (r.res_observations <> []))
    [ Redteam.Victim.Baseline; Redteam.Victim.Rate_limit; Redteam.Victim.Oram ]

let test_pigeonhole_masked_by_oram () =
  List.iter
    (fun mech ->
      let _, r =
        run_adv Redteam.Pigeonhole.adversary (cfg ~policy:Oram ~mech ())
      in
      checkb "completed" true (r.res_outcome = Redteam.Adversary.Completed);
      List.iter
        (fun ob ->
          checkb "no data-page fetch observed" true
            (ob.Redteam.Adversary.ob_candidates = []))
        r.res_observations)
    [ `Sgx1; `Sgx2 ]

let test_kingsguard_ladder () =
  (* Against legacy: the A/D channel completes silently.  Against any
     Autarky policy: all three rungs die, one termination each. *)
  let _, r = run_adv Redteam.Kingsguard.adversary (cfg ~policy:Baseline ()) in
  checkb "legacy survives the ladder" true
    (r.res_outcome = Redteam.Adversary.Completed);
  checki "no terminations under legacy" 0 r.res_terminations;
  let _, r = run_adv Redteam.Kingsguard.adversary (cfg ~policy:Clusters ()) in
  checkb "autarky detects" true
    (match r.Redteam.Adversary.res_outcome with
    | Redteam.Adversary.Detected _ -> true
    | Redteam.Adversary.Completed -> false);
  checki "every rung terminated" 3 r.res_terminations

(* --- scoreboard --------------------------------------------------------- *)

let test_registry () =
  checkb "four adversaries" true
    (List.map (fun a -> a.Redteam.Adversary.id) Redteam.Scoreboard.adversaries
    = [ "copycat"; "branch-shadow"; "pigeonhole"; "kingsguard" ]);
  checkb "lookup hit" true
    (match Redteam.Scoreboard.find_adversary "pigeonhole" with
    | Some a -> a.Redteam.Adversary.id = "pigeonhole"
    | None -> false);
  checkb "lookup miss" true (Redteam.Scoreboard.find_adversary "nsa" = None);
  checki "seven configurations" 7 (List.length Redteam.Scoreboard.configs)

let test_scoreboard_jobs_deterministic () =
  let run jobs =
    Redteam.Scoreboard.run ~quick:true
      ~adversaries:[ Redteam.Copycat.adversary; Redteam.Pigeonhole.adversary ]
      ~policies:[ Redteam.Victim.Baseline; Redteam.Victim.Clusters ]
      ~seed:11 ~jobs ()
  in
  let j1 = run 1 and j4 = run 4 in
  checki "six cells" 6 (List.length j1);
  checks "byte-identical reports"
    (Harness.Microjson.to_string (Redteam.Scoreboard.to_json ~quick:true ~seed:11 j1))
    (Harness.Microjson.to_string (Redteam.Scoreboard.to_json ~quick:true ~seed:11 j4))

let test_scoreboard_json_validates () =
  let cells =
    Redteam.Scoreboard.run ~quick:true
      ~adversaries:[ Redteam.Copycat.adversary ]
      ~policies:[ Redteam.Victim.Baseline; Redteam.Victim.Clusters ]
      ~seed:11 ~jobs:1 ()
  in
  let j = Redteam.Scoreboard.to_json ~quick:true ~seed:11 cells in
  checkb "survives the writer and reader" true
    (Harness.Microjson.(of_string (to_string j)) = j);
  match Harness.Schema.validate [ Redteam.Scoreboard.spec ] ~ctx:"redteam" j with
  | Ok () -> ()
  | Error es -> Alcotest.failf "redteam JSON invalid: %s" (String.concat "; " es)

let test_scoreboard_masked_cell () =
  (* The acceptance cell: a policy under which an adversary's take is
     exactly 0.0 bits while the legacy baseline bleeds. *)
  let cells =
    Redteam.Scoreboard.run ~quick:true
      ~adversaries:[ Redteam.Copycat.adversary ]
      ~policies:[ Redteam.Victim.Baseline; Redteam.Victim.Rate_limit ]
      ~mechs:[ `Sgx1 ] ~seed:3 ~jobs:1 ()
  in
  match cells with
  | [ base; rl ] ->
    checkb "baseline leaks everything" true
      (base.Redteam.Scoreboard.c_bits_leaked
      = base.Redteam.Scoreboard.c_bits_ideal);
    checkf "autarky leaks nothing" 0.0 rl.Redteam.Scoreboard.c_bits_leaked;
    checkf "termination channel is one bit" 1.0
      rl.Redteam.Scoreboard.c_termination_bits
  | cells -> Alcotest.failf "expected 2 cells, got %d" (List.length cells)

let suite =
  [
    Alcotest.test_case "leakage: entropy edge cases" `Quick
      test_entropy_edge_cases;
    Alcotest.test_case "leakage: invalid distributions rejected" `Quick
      test_entropy_rejects_invalid;
    Alcotest.test_case "leakage: helper guards" `Quick
      test_leakage_helper_guards;
    Alcotest.test_case "victim: null adversary deterministic" `Quick
      test_null_adversary_deterministic;
    Alcotest.test_case "victim: runs once" `Quick test_victim_runs_once;
    Alcotest.test_case "copycat: recovers secret from legacy" `Quick
      test_copycat_owns_baseline;
    Alcotest.test_case "copycat: detected by autarky" `Quick
      test_copycat_detected_by_autarky;
    Alcotest.test_case "branch-shadow: outside the paging threat model"
      `Quick test_branch_shadow_outside_threat_model;
    Alcotest.test_case "pigeonhole: masked by oram" `Quick
      test_pigeonhole_masked_by_oram;
    Alcotest.test_case "kingsguard: escalation ladder" `Quick
      test_kingsguard_ladder;
    Alcotest.test_case "scoreboard: registry" `Quick test_registry;
    Alcotest.test_case "scoreboard: jobs-independent" `Quick
      test_scoreboard_jobs_deterministic;
    Alcotest.test_case "scoreboard: autarky masks the copycat cell" `Quick
      test_scoreboard_masked_cell;
    Alcotest.test_case "scoreboard: json validates against its spec" `Quick
      test_scoreboard_json_validates;
  ]
