(* Red-team scoreboard: every adversary against every policy x SGX
   version, scored in bits leaked (§5.2.3).  Writes BENCH_redteam.json
   (schema autarky-redteam/1) in the current directory — the committed
   baseline lives at the repository root.  Same run and writer as
   `autarky_sim redteam`. *)

let run () =
  print_endline "== redteam: adversary suite, bits-leaked scoreboard ==";
  let cells =
    Redteam.Scoreboard.run ~quick:false ~seed:42 ~jobs:(Par.get_jobs ()) ()
  in
  Redteam.Scoreboard.print_table cells;
  Redteam.Scoreboard.write ~out:"BENCH_redteam.json" ~quick:false ~seed:42 cells
