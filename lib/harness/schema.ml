(* The benchmark-report schema registry and shape validator.

   One entry per schema string a writer in this tree emits.  When a
   writer grows a field, add it here in the same change — the CI
   bench-validate step diffs committed baselines against this registry,
   so a silent rename shows up as a red gate, not as a stale baseline
   that Perf.check or Serve.Driver.check misreads. *)

type field_kind = Bool | Num | Str | Obj | Rows of string list
type spec = { required : (string * field_kind) list }

let summary_keys = [ "count"; "mean"; "p50"; "p95"; "p99"; "max" ]

let known =
  [
    ( "autarky-perf/2",
      {
        required =
          [
            ("quick", Bool);
            ("seed", Num);
            ("page_bytes", Num);
            ("wall", Obj);
            ( "micro",
              Rows
                [
                  "name"; "iters"; "new_wall_ns_per_op";
                  "new_alloc_bytes_per_op"; "ref_wall_ns_per_op";
                  "ref_alloc_bytes_per_op"; "speedup_wall";
                ] );
            ( "matrix",
              Rows
                [
                  "workload"; "policy"; "mech"; "ops"; "accesses";
                  "wall_ns_per_access"; "alloc_bytes_per_access";
                  "modeled_cycles_per_access"; "page_faults";
                ] );
          ];
      } );
    ( "autarky-serve/2",
      {
        required =
          [
            ("quick", Bool);
            ("seed", Num);
            ("tenants_n", Num);
            ("end_cycle", Num);
            ("virtual_seconds", Num);
            ("arbiter_moves", Num);
            ("totals", Obj);
            ("fleet_latency", Obj);
            ( "tenants",
              Rows
                [
                  "name"; "workload"; "policy"; "generator"; "arrivals";
                  "served"; "shed"; "deadline_missed"; "terminations";
                  "restarts"; "refused"; "departed"; "arrive_after";
                  "depart_after"; "boot_cycles"; "faults"; "svc_mean_cycles";
                  "throughput_rps"; "shed_rate"; "latency_method";
                  "latency_cycles";
                ] );
          ];
      } );
    ( "autarky-redteam/1",
      {
        required =
          [
            ("quick", Bool);
            ("seed", Num);
            ( "cells",
              Rows
                [
                  "adversary"; "policy"; "mech"; "outcome"; "reason";
                  "requests"; "alphabet"; "observations"; "bits_leaked";
                  "bits_ideal"; "guess_probability"; "blind_guess_probability";
                  "probes"; "terminations"; "termination_bits"; "digest";
                ] );
          ];
      } );
    ( "autarky-defense/1",
      {
        required =
          [
            ("quick", Bool);
            ("seed", Num);
            ("wall", Obj);
            ( "cells",
              Rows
                [
                  "adversary"; "ladder"; "victim"; "requests"; "ticks";
                  "escalations"; "de_escalations"; "failed_switches";
                  "policy_switches"; "final_policy"; "victim_refused";
                  "bits_observed"; "bits_terminations"; "probes"; "digest";
                ] );
          ];
      } );
  ]

let kind_name = function
  | Bool -> "bool"
  | Num -> "number"
  | Str -> "string"
  | Obj -> "object"
  | Rows _ -> "array of objects"

let shape_ok kind (v : Microjson.t) =
  match (kind, v) with
  | Bool, Microjson.Bool _ -> true
  | Num, Microjson.Num _ -> true
  | Str, Microjson.Str _ -> true
  | Obj, Microjson.Obj _ -> true
  | Rows _, Microjson.Arr _ -> true
  | _ -> false

(* The fixed latency summary object every serve-family row embeds. *)
let check_summary ~ctx ~where errs v =
  match v with
  | Microjson.Obj _ ->
    List.iter
      (fun k ->
        if Microjson.member k v = None then
          errs := Printf.sprintf "%s: %s.latency_cycles missing %S" ctx where k
                  :: !errs)
      summary_keys
  | _ -> errs := Printf.sprintf "%s: %s.latency_cycles not an object" ctx where :: !errs

let validate ~ctx j =
  let errs = ref [] in
  (match Microjson.member "schema" j with
  | None -> errs := Printf.sprintf "%s: missing \"schema\" field" ctx :: !errs
  | Some (Microjson.Str s) -> (
    match List.assoc_opt s known with
    | None -> errs := Printf.sprintf "%s: unknown schema %S" ctx s :: !errs
    | Some spec ->
      List.iter
        (fun (field, kind) ->
          match Microjson.member field j with
          | None ->
            errs := Printf.sprintf "%s: missing field %S" ctx field :: !errs
          | Some v when not (shape_ok kind v) ->
            errs :=
              Printf.sprintf "%s: field %S is not a %s" ctx field
                (kind_name kind)
              :: !errs
          | Some v -> (
            match kind with
            | Rows keys ->
              let rows = match v with Microjson.Arr l -> l | _ -> [] in
              List.iteri
                (fun i row ->
                  match row with
                  | Microjson.Obj _ ->
                    List.iter
                      (fun k ->
                        match Microjson.member k row with
                        | None ->
                          errs :=
                            Printf.sprintf "%s: %s[%d] missing key %S" ctx
                              field i k
                            :: !errs
                        | Some inner ->
                          if k = "latency_cycles" then
                            check_summary ~ctx
                              ~where:(Printf.sprintf "%s[%d]" field i)
                              errs inner)
                      keys
                  | _ ->
                    errs :=
                      Printf.sprintf "%s: %s[%d] is not an object" ctx field i
                      :: !errs)
                rows
            | _ -> ()))
        spec.required)
  | Some _ -> errs := Printf.sprintf "%s: \"schema\" is not a string" ctx :: !errs);
  match List.rev !errs with [] -> Ok () | es -> Error es

let validate_file path =
  match Microjson.of_file path with
  | j -> validate ~ctx:path j
  | exception Microjson.Parse_error m ->
    Error [ Printf.sprintf "%s: parse error: %s" path m ]
  | exception Sys_error m -> Error [ m ]
