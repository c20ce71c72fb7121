(* Resumable long-horizon workload runner: a perf-matrix cell
   ([Harness.Perf.cell], workload x policy x mechanism) driven as a
   stepped world so a horizon can be cut into time slices — run to
   operation N, seal, resume (same or different process), continue —
   with the determinism contract checked by trace digest + counter
   fingerprint equality against the straight-through run.

   Differences from the perf matrix's measured run, all deliberate:
   - tracing is on, with a digest sink attached at build time, so
     every run yields a comparable digest;
   - each operation is its own enclave entry (the quiescent point);
   - no wall-clock, no [Gc] sampling, no clock reset: the virtual
     clock runs monotonically from build so "cycle at capture" means
     something across slices. *)

module System = Harness.System

type spec = {
  sp_workload : string;  (* ycsb | uthash | kvstore *)
  sp_policy : string;  (* rate-limit | clusters | oram *)
  sp_mech : string;  (* sgx1 | sgx2 *)
  sp_seed : int;
  sp_ops : int;
}

let spec_label s =
  Printf.sprintf "longrun/%s/%s/%s/seed%d/ops%d" s.sp_workload s.sp_policy
    s.sp_mech s.sp_seed s.sp_ops

let parse_cell (w, p, m) =
  let bad what v valid =
    Error
      (Printf.sprintf "unknown %s %S (want one of %s)" what v
         (String.concat ", " valid))
  in
  match (Harness.Policy.of_name p, Harness.Perf.mech_of_name m) with
  | _ when not (List.mem w Harness.Perf.workloads) ->
    bad "workload" w Harness.Perf.workloads
  | Some policy, Some mech when List.mem policy Harness.Perf.policies ->
    Ok (policy, mech)
  | Some _, Some _ | None, _ ->
    bad "policy" p (List.map Harness.Policy.name Harness.Perf.policies)
  | _, None -> bad "mech" m [ "sgx1"; "sgx2" ]

let cell_of_string str =
  match String.split_on_char ':' str with
  | [ w; p; m ] -> Result.map (fun _ -> (w, p, m)) (parse_cell (w, p, m))
  | _ -> Error (Printf.sprintf "bad cell %S (want workload:policy:mech)" str)

type world = {
  w_spec : spec;
  w_sys : System.t;
  w_op : int -> unit;
  w_digest : unit -> string;
  mutable w_done : int;
}

let kind = "longrun"

let build spec =
  let policy, mech =
    match parse_cell (spec.sp_workload, spec.sp_policy, spec.sp_mech) with
    | Ok pm -> pm
    | Error msg -> invalid_arg ("Longrun.build: " ^ msg)
  in
  let digest = ref (fun () -> "") in
  let on_system sys =
    let sink, result = Trace.Sink.digest () in
    Trace.Recorder.add_sink (System.tracer_exn sys) sink;
    digest := result
  in
  let sys, op =
    Harness.Perf.cell ~trace:true ~on_system ~mech ~policy:(Some policy)
      ~seed:spec.sp_seed
      (Harness.Perf.workload spec.sp_workload)
  in
  {
    w_spec = spec;
    w_sys = sys;
    w_op = (fun i -> System.run_in_enclave sys (fun () -> op i));
    w_digest = !digest;
    w_done = 0;
  }

let step w =
  if w.w_done >= w.w_spec.sp_ops then false
  else begin
    w.w_op (w.w_done + 1);
    w.w_done <- w.w_done + 1;
    true
  end

let machine w = System.machine w.w_sys

(* One comparable line per completed horizon: the whole
   resume-equivalence check is a string equality over this. *)
type outcome = {
  o_spec : spec;
  o_done : int;
  o_cycles : int;
  o_faults : int;
  o_digest : string;
  o_counters : string;
}

let outcome w =
  {
    o_spec = w.w_spec;
    o_done = w.w_done;
    o_cycles = Metrics.Clock.now (System.clock w.w_sys);
    o_faults = Metrics.Counters.get (System.counters w.w_sys) "cpu.page_fault";
    o_digest = w.w_digest ();
    o_counters = World.counters_fingerprint (System.counters w.w_sys);
  }

let outcome_line o =
  Printf.sprintf
    "longrun %s:%s:%s seed %d ops %d/%d cycles %d faults %d digest %s counters %s"
    o.o_spec.sp_workload o.o_spec.sp_policy o.o_spec.sp_mech o.o_spec.sp_seed
    o.o_done o.o_spec.sp_ops o.o_cycles o.o_faults o.o_digest o.o_counters

(* --- sliced execution -------------------------------------------------- *)

let sanitize s = String.map (function '/' -> '_' | c -> c) s

let image_path ~dir spec =
  Filename.concat dir (sanitize (spec_label spec) ^ ".snap")

(* Run a built (or restored) world forward.  [stop_at] pauses the world
   at that operation count and seals it; [snapshot_every] additionally
   seals every K operations along the way (each save bumps the
   monotonic counter, so the newest image is always the freshest).
   Returns [Ok outcome] when the horizon completed, [Error path] when
   the world was paused into [path]. *)
let advance ?stop_at ?snapshot_every ?store ?dir w =
  let store =
    match store with
    | Some s -> s
    | None -> Image.Store.in_memory ()
  in
  let path () =
    match dir with
    | Some d -> image_path ~dir:d w.w_spec
    | None -> invalid_arg "Longrun.advance: snapshotting requires ~dir"
  in
  let seal () =
    let p = path () in
    ignore
      (World.save ~store ~kind ~label:(spec_label w.w_spec)
         ~machine:(machine w) w ~path:p);
    p
  in
  let stop = Option.value stop_at ~default:max_int in
  let rec go () =
    if w.w_done >= stop && w.w_done < w.w_spec.sp_ops then Error (seal ())
    else if not (step w) then Ok (outcome w)
    else begin
      (match snapshot_every with
      | Some k when k > 0 && w.w_done mod k = 0 && w.w_done < w.w_spec.sp_ops ->
        ignore (seal ())
      | _ -> ());
      go ()
    end
  in
  go ()

let resume ?store ~path () =
  World.load ?store ~kind ~machine_of:machine ~path ()
  |> Result.map (fun (_h, w) -> w)
