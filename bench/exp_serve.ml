(* Fleet-scale serving benchmark: 100 tenants on one machine — the
   fixed class mix (kv/clusters open loop, heavy-tailed uthash, diurnal
   late joiners, closed-loop spellcheck, overloaded departers) with
   streaming-sketch latency accounting and a pooled-sketch fleet
   roll-up.  Writes BENCH_serve.json (schema autarky-serve/2) in the
   current directory — the committed baseline lives at the repository
   root and is bit-reproducible from the fixed seed.  Same run as
   `autarky_sim serve --tenants 100`. *)

let run () =
  print_endline "== serve: fleet-scale serving benchmark ==";
  ignore
    (Serve.Driver.run ~seed:42 ~out:"BENCH_serve.json"
       ~scenario:(Serve.Driver.Fleet 100) ())
