(* The reproduction harness: one entry per table/figure of the paper's
   evaluation (§7).  With no arguments every experiment runs; pass
   experiment ids to run a subset.

     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- fig6 fig8     # a subset
     dune exec bench/main.exe -- --jobs 4 fig8 # shard cells over 4 domains
*)

let experiments =
  [
    ("arch-overhead", "§7 nbench: per-TLB-fill A/D check (geomean 0.07%)",
     Exp_arch.run);
    ("fig5", "Figure 5: paging latency breakdown, SGXv1 vs SGXv2", Exp_fig5.run);
    ("fig6", "Figure 6: uthash — cluster size vs ORAM", Exp_fig6.run);
    ("fig7", "Figure 7: rate-limited paging, Phoenix/PARSEC", Exp_fig7.run);
    ("table2", "Table 2: libjpeg / Hunspell / FreeType end-to-end", Exp_table2.run);
    ("fig8", "Figure 8: Memcached, four distributions x four schemes", Exp_fig8.run);
    ("attacks", "§7.3 security: published attacks, legacy vs Autarky",
     Exp_attacks.run);
    ("ablation", "design-choice sweeps (batch size, cache size, check cost, write-back)",
     Exp_ablation.run);
    ("perf", "perf-regression harness: crypto micro + workload matrix \
              (BENCH_perf.json)", Exp_perf.run);
    ("serve", "fleet-scale serving: 100 tenants, sketch latencies, churn \
               (BENCH_serve.json)", Exp_serve.run);
    ("redteam", "red-team adversary suite: bits-leaked scoreboard across \
                 policies x SGX versions (BENCH_redteam.json)",
     Exp_redteam.run);
    ("defense", "SLO-under-attack: live escalation controller vs scripted \
                 attack waves (BENCH_defense.json)",
     Exp_defense.run);
  ]

let usage () =
  print_endline "usage: main.exe [--jobs N] [experiment ...]";
  print_endline
    "  --jobs N   worker domains for sharded experiment cells (0 = one per \
     core);";
  print_endline
    "             results are identical at any N, only wall clock changes";
  print_endline "experiments:";
  List.iter (fun (id, descr, _) -> Printf.printf "  %-14s %s\n" id descr) experiments

let bad_jobs s =
  Printf.eprintf "--jobs expects an integer, got %s\n"
    (match s with Some v -> Printf.sprintf "%S" v | None -> "nothing");
  exit 2

(* Strip --jobs/-j from the argument list (setting Par's worker count),
   returning the experiment ids. *)
let rec strip_jobs acc = function
  | [] -> List.rev acc
  | ("--jobs" | "-j") :: rest -> (
    match rest with
    | n :: rest' -> (
      match int_of_string_opt n with
      | Some j -> Par.set_jobs j; strip_jobs acc rest'
      | None -> bad_jobs (Some n))
    | [] -> bad_jobs None)
  | a :: rest when String.starts_with ~prefix:"--jobs=" a -> (
    let v = String.sub a 7 (String.length a - 7) in
    match int_of_string_opt v with
    | Some j -> Par.set_jobs j; strip_jobs acc rest
    | None -> bad_jobs (Some v))
  | a :: rest -> strip_jobs (a :: acc) rest

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "--help" ] | [ "-h" ] | [ "help" ] -> usage ()
  | args -> (
    match strip_jobs [] args with
    | [] ->
      print_endline "Autarky reproduction bench — all experiments";
      List.iter (fun (_, _, run) -> run ()) experiments
    | ids ->
      (* Validate the whole request before running anything: a typo in the
         last id must not cost the hours of experiments named before it —
         and report every unknown id at once, not just the first. *)
      let unknown =
        List.filter
          (fun id -> not (List.exists (fun (i, _, _) -> i = id) experiments))
          ids
      in
      (match unknown with
      | [] -> ()
      | _ ->
        Printf.eprintf "unknown experiment%s: %s\n"
          (if List.length unknown > 1 then "s" else "")
          (String.concat ", " (List.map (Printf.sprintf "%S") unknown));
        usage ();
        exit 1);
      List.iter
        (fun id ->
          let _, _, run = List.find (fun (i, _, _) -> i = id) experiments in
          run ())
        ids)
