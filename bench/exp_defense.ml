(* SLO-under-attack: scripted adversary waves against the live serving
   fleet with the escalation controller in place, reporting p99 / shed /
   bits leaked before, during and after each wave plus the controller's
   decision timeline.  Writes BENCH_defense.json (schema
   autarky-defense/2) in the current directory — the committed baseline
   lives at the repository root.  Same run and writer as
   `autarky_sim defend`: byte-identical at any --jobs. *)

let run () =
  print_endline "== defense: SLO-under-attack, waves x policy ladders ==";
  let cells = Defense.Defend.run ~quick:false ~seed:42 ~jobs:(Par.get_jobs ()) () in
  Defense.Defend.print_table cells;
  Defense.Defend.write ~out:"BENCH_defense.json" ~quick:false ~seed:42 cells
