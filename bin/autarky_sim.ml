(* autarky_sim — command-line driver for the Autarky simulator.

     autarky_sim costs                      print the cycle-cost model
     autarky_sim run [options]              run a workload under a scheme
     autarky_sim trace [options]            run a workload and export its event trace
     autarky_sim attack [options]           mount the controlled channel
     autarky_sim kernels                    list the Fig. 7 applications

   Examples:
     autarky_sim run --workload kvstore --scheme clusters --cluster-pages 10
     autarky_sim run --workload kernel:canneal --scheme rate-limit
     autarky_sim trace --workload kvstore --scheme clusters --out t.jsonl --digest
     autarky_sim attack --workload jpeg --autarky
*)

open Cmdliner

let page = Sgx.Types.page_bytes

(* --- costs ------------------------------------------------------------ *)

let costs_cmd =
  let doc = "Print the calibrated cycle-cost model." in
  let run () =
    let m = Metrics.Cost_model.default in
    let rows =
      [ ("EENTER", m.eenter); ("EEXIT", m.eexit); ("AEX", m.aex);
        ("ERESUME", m.eresume); ("EWB", m.ewb); ("ELDU", m.eldu);
        ("EAUG", m.eaug); ("EACCEPT", m.eaccept); ("EACCEPTCOPY", m.eacceptcopy);
        ("EMODPR", m.emodpr); ("EMODT", m.emodt); ("EREMOVE", m.eremove);
        ("exitless host call", m.exitless_call); ("syscall", m.syscall);
        ("OS fault handler", m.os_fault_handler);
        ("TLB shootdown", m.tlb_shootdown);
        ("runtime handler", m.runtime_handler);
        ("AEX-elided entry", m.aex_elided_entry);
        ("in-enclave resume", m.inenclave_resume);
        ("memory access", m.mem_access); ("DRAM access", m.dram_access);
        ("TLB walk", m.tlb_walk); ("A/D check", m.ad_check) ]
    in
    Printf.printf "%-22s %10s\n" "event" "cycles";
    List.iter (fun (n, c) -> Printf.printf "%-22s %10d\n" n c) rows;
    Printf.printf "%-22s %10.2f\n" "hw crypto (cyc/B)" m.hw_crypto_cpb;
    Printf.printf "%-22s %10.2f\n" "sw crypto (cyc/B)" m.sw_crypto_cpb;
    Printf.printf "%-22s %10.2e\n" "frequency (Hz)" m.freq_hz
  in
  Cmd.v (Cmd.info "costs" ~doc) Term.(const run $ const ())

(* --- shared options ---------------------------------------------------- *)

let workload_arg =
  let doc =
    "Workload: uthash, kvstore, spellcheck, jpeg, fontrender, or \
     kernel:NAME (e.g. kernel:canneal)."
  in
  Arg.(value & opt string "kvstore" & info [ "w"; "workload" ] ~doc)

(* A scheme is a heap policy ([Harness.Policy]'s name table), or
   [None] for the non-self-paging baseline. *)
let schemes =
  ("baseline", None)
  :: List.map (fun k -> (Harness.Policy.name k, Some k)) Harness.Policy.all

let scheme_name s = fst (List.find (fun (_, v) -> v = s) schemes)

let scheme_arg =
  let doc = "Scheme: " ^ Arg.doc_alts_enum schemes ^ "." in
  Arg.(
    value
    & opt (enum schemes) (Some Harness.Policy.Rate_limit)
    & info [ "s"; "scheme" ] ~doc)

let cluster_pages_arg =
  let doc = "Pages per cluster (clusters scheme)." in
  Arg.(value & opt int 10 & info [ "cluster-pages" ] ~doc)

let epc_mb_arg =
  let doc = "EPC allowance for the enclave, in MiB." in
  Arg.(value & opt int 24 & info [ "epc-mb" ] ~doc)

let ops_arg =
  let doc = "Operations to measure." in
  Arg.(value & opt int 2_000 & info [ "n"; "ops" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the sharded sections (0 = one per core).  \
     Changes wall-clock only: modeled results and trace digests are \
     identical at any job count."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc ~docv:"N")

(* --- run ---------------------------------------------------------------- *)

type workload_instance = {
  wi_op : int -> unit;     (* serve request i *)
  wi_unit : string;
}

type built = {
  b_sys : Harness.System.t;
  b_op : int -> unit;
  b_unit : string;
}

(* One simulated platform (the perf-cell geometry scaled to --epc-mb)
   + policy + workload, shared by the [run] and [trace] subcommands.
   [on_system] runs as soon as the platform exists (before any policy or
   workload construction) so the trace subcommand can attach sinks that
   see the whole stream. *)
let build_workload ?(trace = false) ?(on_system = fun _ -> ()) ~workload ~scheme
    ~cluster_pages ~epc_mb ~seed () =
  let epc_limit = epc_mb * 1_048_576 / page in
  let build vm ~alloc ~rng ~heap_pages =
    match String.split_on_char ':' workload with
    | [ "uthash" ] ->
      let t =
        Workloads.Uthash.create ~vm ~alloc ~rng ~n_items:(heap_pages * 12)
          ~item_bytes:256 ~target_chain:10
      in
      { wi_op = (fun i -> ignore (Workloads.Uthash.find t ~key:(i * 7919 mod Workloads.Uthash.n_items t)));
        wi_unit = "lookups" }
    | [ "kvstore" ] ->
      let n_entries = heap_pages * 3 in
      let kv =
        Workloads.Kvstore.create ~vm ~alloc ~rng ~n_entries ~value_bytes:1_024 ()
      in
      let dist = Metrics.Dist.scrambled_zipfian ~n:n_entries () in
      let gen = Workloads.Ycsb.workload_c ~dist ~rng in
      { wi_op =
          (fun _ ->
            match Workloads.Ycsb.next gen with
            | Workloads.Ycsb.Get k -> ignore (Workloads.Kvstore.get kv ~key:k)
            | _ -> ());
        wi_unit = "GETs" }
    | [ "spellcheck" ] ->
      let d =
        Workloads.Spellcheck.load_dictionary ~vm ~alloc ~rng ~name:"en"
          ~n_words:20_000 ()
      in
      let dist = Metrics.Dist.zipfian ~n:20_000 () in
      { wi_op = (fun _ -> ignore (Workloads.Spellcheck.check d ~word:(Metrics.Dist.sample dist rng)));
        wi_unit = "words" }
    | [ "jpeg" ] ->
      let codec = Workloads.Jpeg.create ~vm ~alloc ~blocks_w:64 ~blocks_h:1 in
      let image = Workloads.Jpeg.random_image ~rng ~blocks_w:64 ~blocks_h:1 () in
      { wi_op = (fun _ -> Workloads.Jpeg.decode codec ~image ());
        wi_unit = "block rows" }
    | [ "fontrender" ] ->
      let f = Workloads.Fontrender.create ~vm ~alloc ~glyphs:96 ~code_pages:20 in
      { wi_op = (fun i -> Workloads.Fontrender.render_glyph f (i mod 96));
        wi_unit = "glyphs" }
    | [ "kernel"; name ] ->
      let spec =
        try Workloads.Kernels.find name
        with Not_found -> failwith (Printf.sprintf "unknown kernel %S" name)
      in
      { wi_op =
          (fun _ -> Workloads.Kernels.run spec ~vm ~rng ~units:1 ());
        wi_unit = "units" }
    | _ -> failwith (Printf.sprintf "unknown workload %S" workload)
  in
  match
    Harness.Perf.cell ~trace ~on_system ~epc_limit ~cluster_pages
      ~policy:scheme ~seed build
  with
  | sys, wi -> { b_sys = sys; b_op = wi.wi_op; b_unit = wi.wi_unit }
  | exception (Failure msg | Invalid_argument msg) ->
    (* An unknown workload, or a preload set over the pager budget. *)
    Printf.eprintf "error      : %s\n" msg;
    exit 1

let run_cmd =
  let doc = "Run a workload under a protection scheme and report stats." in
  let run workload scheme cluster_pages epc_mb ops seed =
    let b = build_workload ~workload ~scheme ~cluster_pages ~epc_mb ~seed () in
    let sys = b.b_sys in
    let r =
      Harness.Measure.run sys (fun () ->
          for i = 1 to ops do
            b.b_op i
          done)
    in
    Printf.printf "workload   : %s under %s (EPC %d MiB)\n" workload
      (scheme_name scheme) epc_mb;
    Printf.printf "ops        : %d %s in %.3f ms simulated (%.0f/s)\n" ops
      b.b_unit
      (1000.0 *. r.Harness.Measure.seconds)
      (Harness.Measure.throughput r ~ops);
    Printf.printf "faults     : %d (%.0f/s), fetched %d, evicted %d pages\n"
      r.Harness.Measure.page_faults (Harness.Measure.fault_rate r)
      r.Harness.Measure.pages_fetched r.Harness.Measure.pages_evicted;
    Printf.printf "tlb misses : %d\n" r.Harness.Measure.tlb_misses
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ workload_arg $ scheme_arg $ cluster_pages_arg $ epc_mb_arg
      $ ops_arg $ seed_arg)

(* --- trace --------------------------------------------------------------- *)

let trace_cmd =
  let doc =
    "Run a workload with event tracing enabled and export the trace \
     (JSONL and/or a streaming FNV-1a digest for golden-trace comparison)."
  in
  let out_arg =
    let doc = "Write the trace as JSON Lines to $(docv) ('-' = stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc ~docv:"FILE")
  in
  let digest_arg =
    let doc = "Print a streaming FNV-1a digest of the canonical JSONL trace." in
    Arg.(value & flag & info [ "digest" ] ~doc)
  in
  let os_view_arg =
    let doc =
      "Export only the OS-visible projection of the trace (what an \
       untrusted OS could observe): enclave-private events are dropped \
       and self-paging faults are masked to the enclave base."
    in
    Arg.(value & flag & info [ "os-view" ] ~doc)
  in
  let run workload scheme cluster_pages epc_mb ops seed out digest os_view =
    (* Default export: JSONL on stdout unless --out/--digest says otherwise. *)
    let out = if out = None && not digest then Some "-" else out in
    let oc, close_oc =
      match out with
      | None -> (None, fun () -> ())
      | Some "-" -> (Some stdout, fun () -> ())
      | Some file ->
        let ch = open_out file in
        (Some ch, fun () -> close_out ch)
    in
    (* When the JSONL stream goes to stdout, keep it parseable: the
       human-readable summary moves to stderr. *)
    let summary_oc = if out = Some "-" then stderr else stdout in
    let wrap s = if os_view then Trace.Sink.os_view s else s in
    let exported = ref (fun () -> 0) in
    let digest_of = ref None in
    let on_system sys =
      let tr = Harness.System.tracer_exn sys in
      let counting, count = Trace.Sink.counting () in
      exported := count;
      Trace.Recorder.add_sink tr (wrap counting);
      (match oc with
      | None -> ()
      | Some ch -> Trace.Recorder.add_sink tr (wrap (Trace.Sink.jsonl_channel ch)));
      if digest then begin
        let sink, result = Trace.Sink.digest () in
        digest_of := Some result;
        Trace.Recorder.add_sink tr (wrap sink)
      end
    in
    let b =
      build_workload ~trace:true ~on_system ~workload ~scheme ~cluster_pages
        ~epc_mb ~seed ()
    in
    let sys = b.b_sys in
    Harness.System.mark sys "measurement-start";
    (* Run directly (not via Measure.run, which resets the clock): event
       timestamps stay monotonic from platform construction onward. *)
    Harness.System.run_in_enclave sys (fun () ->
        for i = 1 to ops do
          b.b_op i
        done);
    Harness.System.mark sys "measurement-end";
    let tr = Harness.System.tracer_exn sys in
    Trace.Recorder.close tr;
    close_oc ();
    Printf.fprintf summary_oc
      "trace      : %s under %s, %d %s (seed %d)\n" workload (scheme_name scheme) ops
      b.b_unit seed;
    Printf.fprintf summary_oc
      "events     : %d emitted%s (ring retained %d of %d, dropped %d)\n"
      (Trace.Recorder.emitted tr)
      (if os_view then
         Printf.sprintf ", %d exported in OS view" (!exported ())
       else "")
      (Trace.Recorder.retained tr)
      (Trace.Recorder.capacity tr)
      (Trace.Recorder.dropped tr);
    (match !digest_of with
    | None -> ()
    | Some result -> Printf.fprintf summary_oc "digest     : %s\n" (result ()))
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ workload_arg $ scheme_arg $ cluster_pages_arg $ epc_mb_arg
      $ ops_arg $ seed_arg $ out_arg $ digest_arg $ os_view_arg)

(* --- attack -------------------------------------------------------------- *)

let attack_cmd =
  let doc = "Mount the controlled-channel attack on a victim enclave." in
  let autarky_arg =
    Arg.(value & flag & info [ "autarky" ] ~doc:"Use a self-paging enclave.")
  in
  let run autarky seed =
    let rng = Metrics.Rng.create ~seed:(Int64.of_int seed) in
    let sys =
      Harness.System.create ~epc_frames:512 ~epc_limit:256 ~enclave_pages:1_024
        ~self_paging:autarky ~budget:128 ()
    in
    let b = Harness.System.reserve sys ~pages:4 in
    if autarky then Harness.System.pin sys (List.init 4 (fun i -> b + i));
    let vm = Harness.System.vm sys () in
    let secret = Array.init 64 (fun _ -> Metrics.Rng.int rng 4) in
    (try
       let _, attack =
         Attacks.Controlled_channel.run ~os:(Harness.System.os sys)
           ~proc:(Harness.System.proc sys)
           ~monitored:(List.init 4 (fun i -> b + i))
           (fun () ->
             Harness.System.run_in_enclave sys (fun () ->
                 Array.iter (fun s -> vm.Workloads.Vm.read ((b + s) * page)) secret))
       in
       let recovered =
         Attacks.Oracle.recover
           ~trace:(Attacks.Controlled_channel.trace attack)
           ~signature_of:(fun vp ->
             let i = vp - b in
             if i >= 0 && i < 4 then Some i else None)
       in
       let expected =
         Array.to_list secret
         |> List.fold_left
              (fun acc s -> match acc with x :: _ when x = s -> acc | _ -> s :: acc)
              []
         |> List.rev
       in
       Printf.printf
         "victim completed; attacker observed %d faults and recovered %.0f%% of \
          the secret access sequence\n"
         (Attacks.Controlled_channel.observed_faults attack)
         (100.0 *. Attacks.Oracle.accuracy ~expected ~recovered)
     with Sgx.Types.Enclave_terminated { reason; _ } ->
       Printf.printf "attack detected by the Autarky runtime: %s\n" reason)
  in
  Cmd.v (Cmd.info "attack" ~doc) Term.(const run $ autarky_arg $ seed_arg)

(* --- inject -------------------------------------------------------------- *)

let inject_cmd =
  let doc =
    "Run the Byzantine-OS fault-injection campaign: N seeds x M scenarios \
     per policy, differentially checked against uninjected golden runs.  \
     Exits non-zero if any run resolves into silent corruption, a hang, a \
     crash, or (with --verify-determinism) a non-deterministic verdict."
  in
  let seeds_arg =
    let doc = "Number of seeds per (policy, scenario) cell." in
    Arg.(value & opt int 5 & info [ "seeds" ] ~doc)
  in
  let inj_ops_arg =
    let doc = "Workload operations per run." in
    Arg.(value & opt int 120 & info [ "n"; "ops" ] ~doc)
  in
  let scenarios_arg =
    let doc =
      "Comma-separated scenarios (default all): bit-flip, replay, \
       drop-blob, epc-burst, limit-shrink, balloon-storm, reentry."
    in
    Arg.(value & opt (some string) None & info [ "scenarios" ] ~doc)
  in
  let policies_arg =
    let doc =
      "Comma-separated policies (default all): rate-limit, clusters, oram."
    in
    Arg.(value & opt (some string) None & info [ "policies" ] ~doc)
  in
  let verify_arg =
    let doc = "Re-execute every injected cell and require an identical \
               verdict, injection count and trace digest." in
    Arg.(value & flag & info [ "verify-determinism" ] ~doc)
  in
  let max_restarts_arg =
    let doc = "Restart-monitor budget (restarts per window)." in
    Arg.(value & opt int 3 & info [ "max-restarts" ] ~doc)
  in
  let digests_arg =
    let doc =
      "Print the trace digest of every injected run, one line per cell in \
       campaign order — the CI determinism gate diffs this output across \
       $(b,--jobs) values."
    in
    Arg.(value & flag & info [ "print-digests" ] ~doc)
  in
  (* Report every unknown name in one message, not just the first. *)
  let parse_csv ~what ~of_name = function
    | None -> None
    | Some s ->
      let names =
        String.split_on_char ',' s
        |> List.filter_map (fun x ->
               let x = String.trim x in
               if x = "" then None else Some x)
      in
      let unknown = List.filter (fun x -> of_name x = None) names in
      if unknown <> [] then
        failwith
          (Printf.sprintf "unknown %s: %s"
             (if List.length unknown = 1 then what
              else if String.ends_with ~suffix:"y" what then
                String.sub what 0 (String.length what - 1) ^ "ies"
              else what ^ "s")
             (String.concat ", " (List.map (Printf.sprintf "%S") unknown)));
      Some (List.filter_map of_name names)
  in
  let snapshot_dir_arg =
    let doc =
      "Auto-snapshot: keep a rolling in-memory capture of every injected \
       cell (taken before each operation) and, when a run resolves into a \
       Detected verdict, seal the capture — the system state just before \
       the fatal operation — into $(docv) for $(b,snapshot replay)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-dir" ] ~doc ~docv:"DIR")
  in
  let run seeds ops scenarios policies verify max_restarts jobs print_digests
      snapshot_dir =
    let scenarios =
      parse_csv ~what:"scenario" ~of_name:Inject.Fault.of_name scenarios
    in
    let policies =
      parse_csv ~what:"policy" ~of_name:Inject.Campaign.policy_of_name policies
    in
    let checkpoint, on_detected =
      match snapshot_dir with
      | None -> (None, None)
      | Some dir -> Snapshot_cmd.detected_hooks ~dir
    in
    let s =
      Inject.Campaign.run
        ~seeds:(List.init seeds (fun i -> i + 1))
        ~ops ?scenarios ?policies ~verify_determinism:verify ~max_restarts
        ~jobs ?checkpoint ?on_detected ()
    in
    if print_digests then
      List.iter
        (fun (r : Inject.Campaign.run_result) ->
          Printf.printf "digest     : %-12s %-14s seed %d %s\n"
            (Inject.Campaign.policy_name r.r_policy)
            (Inject.Fault.name r.r_scenario) r.r_seed r.r_digest)
        s.runs;
    (* Verdict table: one row per (policy, scenario), outcomes tallied
       across seeds.  Deterministic: row order follows the campaign's
       policy/scenario order, and all inputs are seeded. *)
    Printf.printf "%-12s %-14s %6s | %9s %8s %8s %6s\n" "policy" "scenario"
      "inject" "recovered" "degraded" "detected" "BAD";
    let cells =
      List.fold_left
        (fun acc (r : Inject.Campaign.run_result) ->
          let key = (r.r_policy, r.r_scenario) in
          let n_rec, n_deg, n_det, n_bad, n_inj =
            Option.value (List.assoc_opt key acc) ~default:(0, 0, 0, 0, 0)
          in
          let cell =
            match r.r_outcome with
            | Inject.Fault.Recovered ->
              (n_rec + 1, n_deg, n_det, n_bad, n_inj + r.r_injected)
            | Inject.Fault.Degraded ->
              (n_rec, n_deg + 1, n_det, n_bad, n_inj + r.r_injected)
            | Inject.Fault.Detected _ ->
              (n_rec, n_deg, n_det + 1, n_bad, n_inj + r.r_injected)
            | _ -> (n_rec, n_deg, n_det, n_bad + 1, n_inj + r.r_injected)
          in
          (key, cell) :: List.remove_assoc key acc)
        [] s.runs
      |> List.rev
    in
    List.iter
      (fun ((p, sc), (n_rec, n_deg, n_det, n_bad, n_inj)) ->
        Printf.printf "%-12s %-14s %6d | %9d %8d %8d %6d\n"
          (Inject.Campaign.policy_name p)
          (Inject.Fault.name sc) n_inj n_rec n_deg n_det n_bad)
      cells;
    List.iter
      (fun (m : Inject.Campaign.monitor_row) ->
        Printf.printf
          "monitor    : %-12s %s, termination channel <= %.0f bits\n"
          m.m_identity
          (if m.m_refused then "REFUSES further restarts" else "allows restarts")
          m.m_leaked)
      s.monitor;
    Printf.printf "campaign   : %d runs, %d unsafe, %d non-deterministic -> %s\n"
      (List.length s.runs) s.unsafe s.nondeterministic
      (if s.ok then "OK" else "FAILED");
    if not s.ok then exit 1
  in
  Cmd.v (Cmd.info "inject" ~doc)
    Term.(
      const run $ seeds_arg $ inj_ops_arg $ scenarios_arg $ policies_arg
      $ verify_arg $ max_restarts_arg $ jobs_arg $ digests_arg
      $ snapshot_dir_arg)

(* --- perf ------------------------------------------------------------------ *)

let perf_cmd =
  let doc =
    "Run the performance-regression harness: crypto microbenchmarks \
     (optimized vs boxed reference) plus a fixed-seed workload matrix, \
     reporting wall ns/access, allocated bytes/access and modeled cycles."
  in
  let quick_arg =
    let doc =
      "CI smoke mode: fewer iterations and a reduced matrix; no JSON file \
       unless $(b,--out) is given."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let out_arg =
    let doc =
      "Write the autarky-perf/2 JSON report to $(docv).  Defaults to \
       BENCH_perf.json in full mode, no file in quick mode."
    in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc ~docv:"FILE")
  in
  let check_arg =
    let doc =
      "Regression gate: load the autarky-perf/2 $(docv) and compare matrix \
       cells against $(b,--against) (or a fresh matrix run at the \
       baseline's own quick/seed).  Exits non-zero when any cell drifts \
       beyond $(b,--tolerance)."
    in
    Arg.(value & opt (some string) None & info [ "check" ] ~doc ~docv:"BASELINE")
  in
  let against_arg =
    let doc =
      "With $(b,--check): compare $(docv) (another autarky-perf/2 report) \
       instead of re-running the matrix — e.g. the CI determinism step \
       diffs a --jobs 1 report against a --jobs 4 one at --tolerance 0."
    in
    Arg.(value & opt (some string) None & info [ "against" ] ~doc ~docv:"FILE")
  in
  let tolerance_arg =
    let doc =
      "Allowed relative drift in modeled cycles and fault counts for \
       $(b,--check); 0 demands exact equality.  Wall-clock fields are \
       not gated unless $(b,--wall-ceiling-ns) is given."
    in
    Arg.(value & opt float 0.25 & info [ "tolerance" ] ~doc ~docv:"T")
  in
  let wall_ceiling_arg =
    let doc =
      "With $(b,--check): fail any rate-limit matrix cell whose wall \
       ns/access exceeds $(docv) — an absolute bound locking in the \
       flat-core speedup (keep it generous: wall time is \
       machine-dependent)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "wall-ceiling-ns" ] ~doc ~docv:"NS")
  in
  let alloc_ceiling_arg =
    let doc =
      "With $(b,--check): fail when the current matrix's median allocated \
       bytes/access exceeds $(docv) (deterministic, so the bound can be \
       tight)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "alloc-ceiling" ] ~doc ~docv:"BYTES")
  in
  let run quick out seed jobs check against tolerance wall_ceiling alloc_ceiling =
    match check with
    | Some baseline ->
      if
        not
          (Harness.Perf.check ~baseline ?against ~tolerance
             ?wall_ceiling_ns:wall_ceiling ?alloc_ceiling ~jobs ())
      then
        exit 1
    | None ->
      let out =
        match (out, quick) with
        | Some f, _ -> Some f
        | None, false -> Some "BENCH_perf.json"
        | None, true -> None
      in
      ignore (Harness.Perf.run ~quick ~seed ~jobs ?out ())
  in
  Cmd.v (Cmd.info "perf" ~doc)
    Term.(
      const run $ quick_arg $ out_arg $ seed_arg $ jobs_arg $ check_arg
      $ against_arg $ tolerance_arg $ wall_ceiling_arg $ alloc_ceiling_arg)

(* --- serve ----------------------------------------------------------------- *)

let serve_cmd =
  let doc =
    "Run the multi-tenant serving benchmark: enclave tenants served in \
     virtual time on one machine, with bounded admission queues, an EPC \
     arbiter rebalancing vEPC between tenant VMs, and a deterministic \
     autarky-serve/2 SLO report.  Without $(b,--tenants), runs three \
     tenants (kvstore/clusters, spellcheck/ORAM, uthash/rate-limit) \
     under a trace."
  in
  let quick_arg =
    let doc =
      "CI smoke mode: shorter request streams; no JSON file unless \
       $(b,--out) is given."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let no_arbiter_arg =
    let doc = "Disable the EPC arbiter (static partitions only)." in
    Arg.(value & flag & info [ "no-arbiter" ] ~doc)
  in
  let out_arg =
    let doc =
      "Write the JSON report to $(docv).  With $(b,--tenants), defaults to \
       BENCH_serve.json in full mode (the committed baseline); otherwise \
       no file is written unless this flag is given."
    in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc ~docv:"FILE")
  in
  let tenants_arg =
    let doc =
      "Fleet-scale mode: pack $(docv) tenants (fixed mix of open-loop, \
       heavy-tailed, diurnal, closed-loop and overloaded classes, with \
       churn joins and departures) onto one machine, untraced and with \
       Metrics.Sketch latency accounting."
    in
    let positive =
      Arg.conv
        ( (fun s ->
            match int_of_string_opt s with
            | Some n when n > 0 -> Ok n
            | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))),
          Format.pp_print_int )
    in
    Arg.(value & opt (some positive) None & info [ "tenants" ] ~doc ~docv:"N")
  in
  let check_arg =
    let doc =
      "Regression gate: validate the committed autarky-serve/2 baseline \
       $(docv) (schema, exact arrival conservation), re-run the \
       fleet-scale scenario in quick mode at the baseline's (seed, \
       tenants), and fail if any intensive metric (fleet p50/p95/p99/mean \
       latency, shed rate) drifts more than $(b,--tolerance)."
    in
    Arg.(value & opt (some string) None & info [ "check" ] ~doc ~docv:"FILE")
  in
  let tolerance_arg =
    let doc = "Allowed relative drift per metric with $(b,--check)." in
    Arg.(value & opt float 0.25 & info [ "tolerance" ] ~doc ~docv:"T")
  in
  let run quick no_arbiter out seed tenants check tolerance =
    match (check, tenants) with
    | Some baseline, _ ->
      if not (Serve.Driver.check ~baseline ~tolerance ()) then exit 1
    | None, Some n ->
      let out =
        match (out, quick) with
        | Some f, _ -> Some f
        | None, false -> Some "BENCH_serve.json"
        | None, true -> None
      in
      ignore
        (Serve.Driver.run ~quick ~seed ~no_arbiter ?out
           ~scenario:(Serve.Driver.Fleet n) ())
    | None, None ->
      (* The committed BENCH_serve.json is the --tenants 100 run; the
         3-tenant run only writes a file when asked, so it cannot
         clobber the baseline. *)
      ignore
        (Serve.Driver.run ~quick ~seed ~no_arbiter ?out
           ~scenario:Serve.Driver.Default ())
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ quick_arg $ no_arbiter_arg $ out_arg $ seed_arg $ tenants_arg
      $ check_arg $ tolerance_arg)

(* --- bench-validate -------------------------------------------------------- *)

let bench_validate_cmd =
  let doc =
    "Validate committed benchmark reports against the schema registry: \
     every file must carry a known \"schema\" string and every required \
     field and row key that schema declares.  Catches writers drifting \
     from their declared schema before a --check gate misreads the \
     baseline.  With no FILES, validates every BENCH_*.json in the \
     current directory."
  in
  let files_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"FILES")
  in
  let run files =
    let files =
      match files with
      | [] ->
        Sys.readdir "."
        |> Array.to_list
        |> List.filter (fun f ->
               String.length f > 6
               && String.sub f 0 6 = "BENCH_"
               && Filename.check_suffix f ".json")
        |> List.sort compare
      | fs -> fs
    in
    if files = [] then begin
      print_endline "bench-validate: no BENCH_*.json files found";
      exit 1
    end;
    let failed = ref false in
    List.iter
      (fun f ->
        match Harness.Schema.validate_file f with
        | Ok () -> Printf.printf "bench-validate: %s ok\n" f
        | Error es ->
          failed := true;
          List.iter (Printf.printf "bench-validate: FAIL %s\n") es)
      files;
    if !failed then exit 1
  in
  Cmd.v (Cmd.info "bench-validate" ~doc) Term.(const run $ files_arg)

(* --- redteam --------------------------------------------------------------- *)

let redteam_cmd =
  let doc =
    "Run the red-team adversary suite: every registered adversary \
     (CopyCat single-stepping, Branch Shadowing, Pigeonhole fault-pattern \
     spying, the KingsGuard tamper ladder) against every (policy x SGX \
     version) victim, scored as bits leaked per the paper's §5.2.3 \
     accounting, with §5.3 termination-channel bits reported separately."
  in
  let list_arg =
    let doc = "List the adversary registry with descriptions and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let quick_arg =
    let doc =
      "CI smoke mode: 16 requests over a 16-symbol alphabet instead of 48 \
       over 32; no JSON file unless $(b,--out) is given."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let adversaries_arg =
    let doc =
      "Comma-separated adversaries (default all): copycat, branch-shadow, \
       pigeonhole, kingsguard."
    in
    Arg.(value & opt (some string) None & info [ "adversaries" ] ~doc)
  in
  let policies_arg =
    let doc =
      "Comma-separated victim policies (default all): baseline, rate-limit, \
       clusters, oram."
    in
    Arg.(value & opt (some string) None & info [ "policies" ] ~doc)
  in
  let mechs_arg =
    let doc =
      "Comma-separated paging mechanisms (default both): sgx1, sgx2.  The \
       baseline victim only exists on sgx1 and is never dropped by this \
       filter."
    in
    Arg.(value & opt (some string) None & info [ "mechs" ] ~doc)
  in
  let out_arg =
    let doc =
      "Write the autarky-redteam/1 JSON scoreboard to $(docv).  Defaults to \
       BENCH_redteam.json in full mode, no file in quick mode.  The file \
       contains no wall-clock fields: it is byte-identical at any \
       $(b,--jobs)."
    in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc ~docv:"FILE")
  in
  (* Report every unknown name in one message, not just the first (same
     fail-fast contract as the inject campaign's filters). *)
  let parse_csv ~what ~of_name = function
    | None -> None
    | Some s ->
      let names =
        String.split_on_char ',' s
        |> List.filter_map (fun x ->
               let x = String.trim x in
               if x = "" then None else Some x)
      in
      let unknown = List.filter (fun x -> of_name x = None) names in
      if unknown <> [] then
        failwith
          (Printf.sprintf "unknown %s: %s"
             (if List.length unknown = 1 then what
              else if String.ends_with ~suffix:"y" what then
                String.sub what 0 (String.length what - 1) ^ "ies"
              else what ^ "s")
             (String.concat ", " (List.map (Printf.sprintf "%S") unknown)));
      Some (List.filter_map of_name names)
  in
  let run list quick adversaries policies mechs out seed jobs =
    if list then
      List.iter
        (fun (a : Redteam.Adversary.t) ->
          Printf.printf "%-14s %s\n" a.id a.description)
        Redteam.Scoreboard.adversaries
    else begin
      let adversaries =
        parse_csv ~what:"adversary" ~of_name:Redteam.Scoreboard.find_adversary
          adversaries
      in
      let policies =
        parse_csv ~what:"policy" ~of_name:Redteam.Victim.policy_of_name
          policies
      in
      let mechs =
        parse_csv ~what:"mech" ~of_name:Redteam.Victim.mech_of_name mechs
      in
      let cells =
        Redteam.Scoreboard.run ~quick ?adversaries ?policies ?mechs ~seed ~jobs
          ()
      in
      Redteam.Scoreboard.print_table cells;
      let out =
        match (out, quick) with
        | Some f, _ -> Some f
        | None, false -> Some "BENCH_redteam.json"
        | None, true -> None
      in
      match out with
      | None -> ()
      | Some file ->
        let json = Redteam.Scoreboard.to_json ~quick ~seed cells in
        Out_channel.with_open_bin file (fun oc ->
            Out_channel.output_string oc json);
        Printf.printf "wrote      : %s (%d cells)\n" file (List.length cells)
    end
  in
  Cmd.v (Cmd.info "redteam" ~doc)
    Term.(
      const run $ list_arg $ quick_arg $ adversaries_arg $ policies_arg
      $ mechs_arg $ out_arg $ seed_arg $ jobs_arg)

(* --- defend ---------------------------------------------------------------- *)

let defend_cmd =
  let doc =
    "Run the SLO-under-attack harness: scripted attack waves (CopyCat \
     storm, KingsGuard A/D churn, Pigeonhole fetch spy, balloon storm) \
     against a live two-tenant serving fleet with the per-tenant defense \
     controller escalating policies in place, reporting p99 / shed / bits \
     leaked before, during and after each wave."
  in
  let list_arg =
    let doc = "List the attack waves and policy ladders and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let quick_arg =
    let doc =
      "CI smoke mode: 120 victim requests instead of 280; no JSON file \
       unless $(b,--out) is given."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let adversaries_arg =
    let doc =
      "Comma-separated attack waves (default all): copycat, kingsguard, \
       pigeonhole, balloon-storm."
    in
    Arg.(value & opt (some string) None & info [ "adversaries" ] ~doc)
  in
  let policies_arg =
    let doc =
      "Comma-separated policy ladders (default both): standard (rate-limit \
       -> clusters -> oram), heisenberg (adds the preload rung)."
    in
    Arg.(value & opt (some string) None & info [ "policies" ] ~doc)
  in
  let out_arg =
    let doc =
      "Write the autarky-defense/1 JSON report to $(docv).  Defaults to \
       BENCH_defense.json in full mode, no file in quick mode.  Apart from \
       the informational $(b,wall) block, the file is byte-identical at any \
       $(b,--jobs)."
    in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc ~docv:"FILE")
  in
  (* Same fail-fast contract as inject/redteam: report every unknown name
     in one message. *)
  let parse_csv ~what ~of_name = function
    | None -> None
    | Some s ->
      let names =
        String.split_on_char ',' s
        |> List.filter_map (fun x ->
               let x = String.trim x in
               if x = "" then None else Some x)
      in
      let unknown = List.filter (fun x -> of_name x = None) names in
      if unknown <> [] then
        failwith
          (Printf.sprintf "unknown %s: %s"
             (if List.length unknown = 1 then what
              else if String.ends_with ~suffix:"y" what then
                String.sub what 0 (String.length what - 1) ^ "ies"
              else what ^ "s")
             (String.concat ", " (List.map (Printf.sprintf "%S") unknown)));
      Some (List.filter_map of_name names)
  in
  let run list quick adversaries policies out seed jobs =
    if list then begin
      List.iter
        (fun k ->
          Printf.printf "%-14s %s\n" (Defense.Waves.name k)
            (Defense.Waves.description k))
        Defense.Waves.all;
      List.iter
        (fun l ->
          Printf.printf "%-14s %s\n" l
            (String.concat " -> "
               (List.map Harness.Policy.name
                  (Option.get (Defense.Defend.find_ladder l)))))
        Defense.Defend.ladder_names
    end
    else begin
      let adversaries =
        parse_csv ~what:"adversary" ~of_name:Defense.Waves.of_name adversaries
      in
      let ladder_filter =
        parse_csv ~what:"ladder"
          ~of_name:(fun l ->
            if Defense.Defend.find_ladder l = None then None else Some l)
          policies
      in
      let cells =
        Defense.Defend.run ~quick ?adversaries ?ladder_filter ~seed ~jobs ()
      in
      Defense.Defend.print_table cells;
      let out =
        match (out, quick) with
        | Some f, _ -> Some f
        | None, false -> Some "BENCH_defense.json"
        | None, true -> None
      in
      match out with
      | None -> ()
      | Some file ->
        let json = Defense.Defend.to_json ~quick ~seed cells in
        Out_channel.with_open_bin file (fun oc ->
            Out_channel.output_string oc json);
        Printf.printf "wrote      : %s (%d cells)\n" file (List.length cells)
    end
  in
  Cmd.v (Cmd.info "defend" ~doc)
    Term.(
      const run $ list_arg $ quick_arg $ adversaries_arg $ policies_arg
      $ out_arg $ seed_arg $ jobs_arg)

(* --- kernels --------------------------------------------------------------- *)

let kernels_cmd =
  let doc = "List the Phoenix/PARSEC kernel specifications (Fig. 7)." in
  let run () =
    Printf.printf "%-10s %-8s %10s %10s %8s\n" "name" "suite" "ws (MB)"
      "cold frac" "cyc/acc";
    List.iter
      (fun (s : Workloads.Kernels.spec) ->
        Printf.printf "%-10s %-8s %10d %10.4f %8d\n" s.k_name
          (match s.suite with `Phoenix -> "phoenix" | `Parsec -> "parsec")
          (s.ws_pages * page / 1_048_576)
          s.cold_fraction s.compute_per_access)
      Workloads.Kernels.suite
  in
  Cmd.v (Cmd.info "kernels" ~doc) Term.(const run $ const ())

let () =
  let doc = "Autarky self-paging enclave simulator" in
  let info = Cmd.info "autarky_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            costs_cmd;
            run_cmd;
            trace_cmd;
            attack_cmd;
            inject_cmd;
            kernels_cmd;
            perf_cmd;
            serve_cmd;
            bench_validate_cmd;
            redteam_cmd;
            defend_cmd;
            Snapshot_cmd.cmd;
          ]))
