(* The repository benchmark.

     bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]

   Runs one workload in this process, on one domain, for about S
   seconds of repetitions.  Each repetition builds a fresh platform
   (timed as set-up) and runs the same measured phase on it, so every
   repetition does identical modeled work and host figures are medians
   over repetitions.  With --trace 0 it prints the end-to-end metrics;
   with --trace 1 it runs one untraced repetition and then traced ones,
   and prints the per-layer metrics.  Either way it runs the
   correctness checks, prints every metric by name with its unit, and
   ends with one JSON line:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   perfbench/README.md explains the workloads and metrics. *)

(* --- metrics -------------------------------------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("sim_accesses_per_s", "1/s");
    ("alloc_bytes_per_access", "B/access");
    ("peak_heap_mb", "MB");
    ("modeled_cycles_per_access", "cycles/access");
  ]

let per_layer =
  [
    ("sgx.access.count", "count");
    ("sgx.access.self_ns", "ns");
    ("sgx.access.self_cycles", "cycles");
    ("sgx.tlb_miss.count", "count");
    ("sgx.tlb_hit_ratio", "ratio");
    ("sgx.page_fault.count", "count");
    ("sgx.aex.count", "count");
    ("sgx.eenter.count", "count");
    ("sgx.ewb.count", "count");
    ("sgx.eldu.count", "count");
    ("sgx.eaug.count", "count");
    ("sgx.eremove.count", "count");
    ("workloads.op.count", "count");
    ("workloads.self_ns", "ns");
    ("workloads.self_cycles", "cycles");
    ("autarky.miss.count", "count");
    ("autarky.miss.ns", "ns");
    ("autarky.miss.self_ns", "ns");
    ("autarky.miss.cycles", "cycles");
    ("autarky.miss.self_cycles", "cycles");
    ("autarky.pages_fetched", "count");
    ("autarky.pages_evicted", "count");
    ("autarky.fetch_batches", "count");
    ("autarky.fetch_retries", "count");
    ("autarky.fetch_useful_ratio", "ratio");
    ("sim_os.call.count", "count");
    ("sim_os.call.ns", "ns");
    ("sim_os.call.cycles", "cycles");
    ("sim_os.fetch.count", "count");
    ("sim_os.fetch.ns", "ns");
    ("sim_os.evict.count", "count");
    ("sim_os.evict.ns", "ns");
    ("sim_os.aug.count", "count");
    ("sim_os.aug.ns", "ns");
    ("sim_os.remove.count", "count");
    ("sim_os.remove.ns", "ns");
    ("sim_os.blob.count", "count");
    ("sim_os.blob.ns", "ns");
    ("sim_os.refused.count", "count");
    ("sim_crypto.seal.count", "count");
    ("sim_crypto.unseal.count", "count");
    ("sim_crypto.seal_ns", "ns");
    ("sim_crypto.unseal_ns", "ns");
    ("sim_crypto.seal_batch_ns", "ns");
    ("sim_crypto.seal_alloc_bytes", "B");
    ("sim_crypto.payload_seal_ns", "ns");
    ("sim_crypto.payload_unseal_ns", "ns");
    ("sim_crypto.payload_seal_batch_ns", "ns");
    ("sim_crypto.est_share", "ratio");
    ("oram.read.count", "count");
    ("oram.read.ns", "ns");
    ("oram.read.cycles", "cycles");
    ("oram.write.count", "count");
    ("oram.write.ns", "ns");
    ("oram.write.cycles", "cycles");
    ("oram.path.count", "count");
    ("oram.cache_miss.count", "count");
    ("oram.cache_hit_ratio", "ratio");
    ("serve.start_s", "s");
    ("serve.step.count", "count");
    ("serve.sched_step_ns", "ns");
    ("serve.request_step_ns", "ns");
    ("serve.report_s", "s");
    ("serve.arbiter_moves", "count");
    ("fleet_p50_cycles", "cycles");
    ("fleet_p99_cycles", "cycles");
    ("shed_rate", "ratio");
    ("gc.minor_words_per_access", "words/access");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
    ("trace.unattributed_cycles", "cycles");
  ]

(* --- one repetition ------------------------------------------------------- *)

type rep = {
  setup_s : float;
  phase_s : float;  (* host time of the measured phase *)
  alloc_bytes : float;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
  ops : int;  (* operations (paging) or arrivals (fleet) *)
  accesses : int;
  cycles : int;  (* modeled cycles of the measured phase *)
  modeled : (string * string) list;
      (* every modeled output: must repeat exactly, traced or not *)
  failures : string list;
  layer : (string * float) list;  (* traced repetitions only *)
  slices : int array;
      (* host ns of each fixed slice of the measured phase, in order *)
}

(* Host time and allocation of a measured phase. *)
type phase = {
  ph_t0 : int;
  ph_a0 : float;
  ph_minor0 : float;
  ph_mi0 : int;
  ph_ma0 : int;
}

let phase_begin () =
  let s = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  {
    ph_a0 = a0;
    ph_minor0 = s.Gc.minor_words;
    ph_mi0 = s.Gc.minor_collections;
    ph_ma0 = s.Gc.major_collections;
    ph_t0 = Hostclock.now_ns ();
  }

(* [phase_end ph k] calls [k] with the phase's host seconds, allocated
   bytes, minor words and minor/major collection counts. *)
let phase_end ph k =
  let t1 = Hostclock.now_ns () in
  let a1 = Gc.allocated_bytes () in
  let s = Gc.quick_stat () in
  k
    (float_of_int (t1 - ph.ph_t0) *. 1e-9)
    (a1 -. ph.ph_a0)
    (s.Gc.minor_words -. ph.ph_minor0)
    (s.Gc.minor_collections - ph.ph_mi0)
    (s.Gc.major_collections - ph.ph_ma0)

let counter cs name = Option.value (List.assoc_opt name cs) ~default:0
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Figures both kinds of workload read from the machine's counters. *)
let counter_layers cs ~accesses =
  let f name = float_of_int (counter cs name) in
  [
    ("sgx.access.count", float_of_int accesses);
    ("sgx.tlb_miss.count", f "mmu.tlb_miss");
    (* A faulting access translates again once the page is in, so the
       TLB sees one lookup per access plus one per fault. *)
    ( "sgx.tlb_hit_ratio",
      1.0
      -. ratio (counter cs "mmu.tlb_miss")
           (accesses + counter cs "cpu.page_fault") );
    ("sgx.page_fault.count", f "cpu.page_fault");
    ("sgx.aex.count", f "sgx.aex");
    ("sgx.eenter.count", f "sgx.eenter");
    ("sgx.ewb.count", f "sgx.ewb");
    ("sgx.eldu.count", f "sgx.eldu");
    ("sgx.eaug.count", f "sgx.eaug");
    ("sgx.eremove.count", f "sgx.eremove");
    ("autarky.pages_fetched", f "rt.pages_fetched");
    ("autarky.pages_evicted", f "rt.pages_evicted");
    ("autarky.fetch_batches", f "rt.fetch_batches");
    ("autarky.fetch_retries", f "rt.fetch_retries");
    ("oram.path.count", f "oram.access");
    ("oram.cache_miss.count", f "oram_cache.miss");
  ]

(* Span figures of a traced paging repetition. *)
let span_layers (tr : Layers.t) cs ~cycles =
  let fi = float_of_int in
  let os f = fi (Layers.sum f Layers.os_layers) in
  let entry name l =
    [
      ("sim_os." ^ name ^ ".count", fi tr.Layers.count.(l));
      ("sim_os." ^ name ^ ".ns", fi tr.Layers.total_ns.(l));
    ]
  in
  let oram name l =
    [
      ("oram." ^ name ^ ".count", fi tr.Layers.count.(l));
      ("oram." ^ name ^ ".ns", fi tr.Layers.total_ns.(l));
      ("oram." ^ name ^ ".cycles", fi tr.Layers.total_cyc.(l));
    ]
  in
  let outside = cycles - tr.Layers.top_cyc in
  [
    ("sgx.access.self_ns", fi tr.Layers.self_ns.(Layers.access));
    ("sgx.access.self_cycles", fi tr.Layers.self_cyc.(Layers.access));
    ("workloads.op.count", fi tr.Layers.count.(Layers.op));
    ("workloads.self_ns", fi tr.Layers.self_ns.(Layers.op));
    ("workloads.self_cycles", fi tr.Layers.self_cyc.(Layers.op));
    ("autarky.miss.count", fi tr.Layers.count.(Layers.miss));
    ("autarky.miss.ns", fi tr.Layers.total_ns.(Layers.miss));
    ("autarky.miss.self_ns", fi tr.Layers.self_ns.(Layers.miss));
    ("autarky.miss.cycles", fi tr.Layers.total_cyc.(Layers.miss));
    ("autarky.miss.self_cycles", fi tr.Layers.self_cyc.(Layers.miss));
    ( "autarky.fetch_useful_ratio",
      ratio tr.Layers.count.(Layers.miss) (counter cs "rt.pages_fetched") );
    ("sim_os.call.count", os (fun l -> tr.Layers.count.(l)));
    ("sim_os.call.ns", os (fun l -> tr.Layers.total_ns.(l)));
    ("sim_os.call.cycles", os (fun l -> tr.Layers.total_cyc.(l)));
    ("sim_os.refused.count", fi tr.Layers.refused);
    ( "sim_crypto.seal.count",
      fi (counter cs "sgx.ewb" + tr.Layers.blob_seals) );
    ( "sim_crypto.unseal.count",
      fi (counter cs "sgx.eldu" + tr.Layers.blob_unseals) );
    ( "trace.unattributed_cycles",
      fi (cycles - (Layers.self_cycles_sum tr + outside)) );
  ]
  @ entry "fetch" Layers.os_fetch
  @ entry "evict" Layers.os_evict
  @ entry "aug" Layers.os_aug
  @ entry "remove" Layers.os_remove
  @ entry "blob" Layers.os_blob
  @ oram "read" Layers.oram_read
  @ oram "write" Layers.oram_write

let paging_rep ~workload ~policy ~mech ~ops ~slice_ops ~seed ~traced =
  let tracer = if traced then Some (Layers.create ()) else None in
  let t0 = Hostclock.now_ns () in
  let cell = Cell.build ?tracer ~workload ~policy ~mech ~seed () in
  let setup_s = Hostclock.seconds_since t0 in
  let sys = cell.Cell.sys in
  let clock = Harness.System.clock sys in
  let cpu = Harness.System.cpu sys in
  let acc0 = Sgx.Cpu.accesses cpu in
  let hits () =
    match cell.Cell.cache with
    | Some c -> (Autarky.Oram_cache.hits c, Autarky.Oram_cache.misses c)
    | None -> (0, 0)
  in
  let h0, m0 = hits () in
  let resident =
    Autarky.Pager.resident_count
      (Autarky.Runtime.pager (Harness.System.runtime_exn sys))
  in
  let op =
    match tracer with
    | None -> cell.Cell.op
    | Some tr ->
      Layers.start tr ~cycles:(fun () -> Metrics.Clock.now clock);
      Layers.span1 tr Layers.op cell.Cell.op
  in
  let slices = Array.make ((ops + slice_ops - 1) / slice_ops) 0 in
  let loop () =
    let t = ref (Hostclock.now_ns ()) in
    Array.iteri
      (fun k _ ->
        for i = (k * slice_ops) + 1 to min ops ((k + 1) * slice_ops) do
          op i
        done;
        let now = Hostclock.now_ns () in
        slices.(k) <- now - !t;
        t := now)
      slices
  in
  let ph = phase_begin () in
  let result =
    match Harness.Measure.run sys loop with
    | r -> Ok r
    | exception Sgx.Types.Enclave_terminated { reason; _ } -> Error reason
  in
  phase_end ph @@ fun phase_s alloc_bytes minor_words minor_gcs major_gcs ->
  Option.iter Layers.stop tracer;
  let accesses = Sgx.Cpu.accesses cpu - acc0 in
  let h1, m1 = hits () in
  let cycles, faults, cs =
    match result with
    | Ok r ->
      ( r.Harness.Measure.cycles,
        r.Harness.Measure.page_faults,
        r.Harness.Measure.counters )
    | Error _ -> (0, 0, [])
  in
  (* Each paging workload must exercise the mechanism it measures:
     the pager faults under clusters and rate-limiting, never under
     ORAM. *)
  let failures =
    match result with
    | Error reason -> [ Printf.sprintf "enclave terminated: %s" reason ]
    | Ok _ when policy <> Cell.Oram && faults = 0 ->
      [ "no page faults: the workload does not exercise the pager" ]
    | Ok _ when policy = Cell.Oram && faults <> 0 ->
      [ Printf.sprintf "%d page faults under ORAM (expected none)" faults ]
    | Ok _ -> []
  in
  let failures =
    match tracer with
    | Some tr when not (Layers.well_formed tr) ->
      "traced run: spans did not nest" :: failures
    | _ -> failures
  in
  let layer =
    match tracer with
    | None -> []
    | Some tr ->
      counter_layers cs ~accesses
      @ span_layers tr cs ~cycles
      @ [ ("oram.cache_hit_ratio", ratio (h1 - h0) (h1 - h0 + m1 - m0)) ]
  in
  {
    setup_s;
    phase_s;
    alloc_bytes;
    minor_words;
    minor_gcs;
    major_gcs;
    ops;
    accesses;
    cycles;
    modeled =
      [
        ("ops", string_of_int ops);
        ("accesses", string_of_int accesses);
        ("cycles", string_of_int cycles);
        ("faults", string_of_int faults);
        ("resident_at_start", string_of_int resident);
        ("oram_cache", Printf.sprintf "%d/%d" (h1 - h0) (m1 - m0));
      ]
      @ List.map (fun (k, v) -> ("counter." ^ k, string_of_int v)) cs;
    failures;
    layer;
    slices;
  }

(* Steps per timing slice of the fleet's measured phase (about 40 ms). *)
let fleet_slice_steps = 20_000

let fleet_rep ~quick ~seed ~traced =
  let t0 = Hostclock.now_ns () in
  let f = Fleet.start ~quick ~seed in
  let setup_s = Hostclock.seconds_since t0 in
  let m = f.Fleet.machine in
  let ctr = Sgx.Machine.counters m in
  let clock = m.Sgx.Machine.clock in
  let eenter = (Sgx.Machine.hot m).Sgx.Machine.c_eenter in
  let snap0 = Metrics.Counters.snapshot ctr in
  let c0 = Metrics.Clock.now clock in
  let steps = ref 0 in
  let slices = ref [] and slice_t0 = ref 0 in
  let end_slice () =
    let now = Hostclock.now_ns () in
    slices := (now - !slice_t0) :: !slices;
    slice_t0 := now
  in
  let req_ns = ref 0 and req_cyc = ref 0 in
  let sched_ns = ref 0 and sched_cyc = ref 0 in
  let step =
    if not traced then fun () -> Fleet.step f
    else fun () ->
      let e0 = Metrics.Counters.cell_get eenter in
      let cy = Metrics.Clock.now clock in
      let t = Hostclock.now_ns () in
      let more = Fleet.step f in
      let dt = Hostclock.now_ns () - t in
      let dc = Metrics.Clock.now clock - cy in
      if Metrics.Counters.cell_get eenter <> e0 then begin
        req_ns := !req_ns + dt;
        req_cyc := !req_cyc + dc
      end
      else begin
        sched_ns := !sched_ns + dt;
        sched_cyc := !sched_cyc + dc
      end;
      more
  in
  let ph = phase_begin () in
  slice_t0 := Hostclock.now_ns ();
  while step () do
    incr steps;
    if !steps mod fleet_slice_steps = 0 then end_slice ()
  done;
  incr steps;
  end_slice ();
  phase_end ph @@ fun phase_s alloc_bytes minor_words minor_gcs major_gcs ->
  let cycles = Metrics.Clock.now clock - c0 in
  let accesses = Fleet.accesses f in
  let cs =
    List.filter_map
      (fun (k, v) ->
        let d = v - counter snap0 k in
        if d <> 0 then Some (k, d) else None)
      (Metrics.Counters.snapshot ctr)
  in
  let t2 = Hostclock.now_ns () in
  let o = Fleet.finish f ~quick ~seed in
  let report_s = Hostclock.seconds_since t2 in
  let failures =
    List.concat
      [
        (if o.Fleet.o_unbalanced <> [] then
           [
             Printf.sprintf "arrivals <> served + shed + missed for %s"
               (String.concat ", " o.Fleet.o_unbalanced);
           ]
         else []);
        (if o.Fleet.o_arrivals
            <> o.Fleet.o_served + o.Fleet.o_shed + o.Fleet.o_missed
         then [ "fleet arrivals <> served + shed + missed" ]
         else []);
        (if o.Fleet.o_terminations <> 0 then
           [ Printf.sprintf "%d enclave terminations" o.Fleet.o_terminations ]
         else []);
        (if o.Fleet.o_served = 0 then [ "no request served" ] else []);
      ]
  in
  let shed_rate =
    ratio (o.Fleet.o_shed + o.Fleet.o_missed) o.Fleet.o_arrivals
  in
  let layer =
    if not traced then []
    else
      counter_layers cs ~accesses
      @ [
          ( "workloads.op.count",
            float_of_int (o.Fleet.o_served + o.Fleet.o_terminations) );
          ("serve.start_s", setup_s);
          ("serve.step.count", float_of_int !steps);
          ("serve.sched_step_ns", float_of_int !sched_ns);
          ("serve.request_step_ns", float_of_int !req_ns);
          ("serve.report_s", report_s);
          ("serve.arbiter_moves", float_of_int o.Fleet.o_arbiter_moves);
          ("fleet_p50_cycles", o.Fleet.o_p50);
          ("fleet_p99_cycles", o.Fleet.o_p99);
          ("shed_rate", shed_rate);
          ( "trace.unattributed_cycles",
            float_of_int (cycles - (!req_cyc + !sched_cyc)) );
        ]
  in
  let i = string_of_int in
  {
    setup_s;
    phase_s;
    alloc_bytes;
    minor_words;
    minor_gcs;
    major_gcs;
    ops = o.Fleet.o_arrivals;
    accesses;
    cycles;
    modeled =
      [
        ("end_cycle", i o.Fleet.o_end_cycle);
        ("arrivals", i o.Fleet.o_arrivals);
        ("served", i o.Fleet.o_served);
        ("shed", i o.Fleet.o_shed);
        ("missed", i o.Fleet.o_missed);
        ("terminations", i o.Fleet.o_terminations);
        ("arbiter_moves", i o.Fleet.o_arbiter_moves);
        ("fleet_p50_cycles", Printf.sprintf "%.2f" o.Fleet.o_p50);
        ("fleet_p99_cycles", Printf.sprintf "%.2f" o.Fleet.o_p99);
        ("fleet_samples", i o.Fleet.o_samples);
        ("shed_rate", Printf.sprintf "%.6f" shed_rate);
        ("accesses", i accesses);
        ("cycles", i cycles);
      ]
      @ List.map (fun (k, v) -> ("counter." ^ k, i v)) cs;
    failures;
    layer;
    slices = Array.of_list (List.rev !slices);
  }

(* --- workloads ------------------------------------------------------------ *)

type workload = {
  name : string;
  rep : quick:bool -> seed:int -> traced:bool -> rep;
  reference : rep -> string list;
      (* failed reference checks, at seed 42 and full size *)
}

let modeled_field r k = Option.value (List.assoc_opt k r.modeled) ~default:"?"

let check_paging (ref_ : Reference.paging) r =
  let cpa =
    Printf.sprintf "%.2f"
      (float_of_int r.cycles /. float_of_int (max 1 r.accesses))
  in
  let faults = modeled_field r "faults" in
  List.concat
    [
      (if r.accesses <> ref_.Reference.accesses then
         [
           Printf.sprintf "accesses %d, reference %d" r.accesses
             ref_.Reference.accesses;
         ]
       else []);
      (if cpa <> ref_.Reference.cycles_per_access then
         [
           Printf.sprintf "modeled cycles/access %s, reference %s" cpa
             ref_.Reference.cycles_per_access;
         ]
       else []);
      (if faults <> string_of_int ref_.Reference.faults then
         [
           Printf.sprintf "page faults %s, reference %d" faults
             ref_.Reference.faults;
         ]
       else []);
      (if r.cycles <> ref_.Reference.total_cycles then
         [
           Printf.sprintf "modeled cycles %d, reference %d" r.cycles
             ref_.Reference.total_cycles;
         ]
       else []);
    ]

let check_fleet r =
  let f = Reference.fleet_serve in
  let want =
    [
      ("end_cycle", string_of_int f.Reference.end_cycle);
      ("arrivals", string_of_int f.Reference.arrivals);
      ("served", string_of_int f.Reference.served);
      ("shed", string_of_int f.Reference.shed);
      ("missed", string_of_int f.Reference.missed);
      ("fleet_p99_cycles", Printf.sprintf "%.2f" f.Reference.p99);
    ]
  in
  List.filter_map
    (fun (k, v) ->
      let got = modeled_field r k in
      if got = v then None
      else Some (Printf.sprintf "%s %s, reference %s" k got v))
    want

(* [slice_ops] sets the timing slices of the measured phase to about
   50 ms each. *)
let paging name ~workload ~policy ~mech ~slice_ops (ref_ : Reference.paging)
    =
  {
    name;
    rep =
      (fun ~quick ~seed ~traced ->
        let ops = if quick then 1_000 else ref_.Reference.ops in
        paging_rep ~workload ~policy ~mech ~ops ~slice_ops ~seed ~traced);
    reference = check_paging ref_;
  }

let workloads =
  [
    {
      name = "fleet-serve";
      rep = (fun ~quick ~seed ~traced -> fleet_rep ~quick ~seed ~traced);
      reference = check_fleet;
    };
    paging "paging-clusters" ~workload:Cell.Uthash_lookup ~policy:Cell.Clusters
      ~mech:`Sgx2 ~slice_ops:200 Reference.paging_clusters;
    paging "paging-ratelimit" ~workload:Cell.Kv_ycsb_a ~policy:Cell.Rate_limit
      ~mech:`Sgx1 ~slice_ops:5_000 Reference.paging_ratelimit;
    paging "oram-kv" ~workload:Cell.Kv_ycsb_a ~policy:Cell.Oram ~mech:`Sgx1
      ~slice_ops:5_000 Reference.oram_kv;
  ]

(* --- sealing calibration -------------------------------------------------- *)

(* Host ns and allocated bytes per call of [f], median over blocks of
   [iters] calls. *)
let per_call ~iters f =
  f ();
  let samples =
    List.init 5 (fun _ ->
        let a0 = Gc.allocated_bytes () in
        let t0 = Hostclock.now_ns () in
        for _ = 1 to iters do
          f ()
        done;
        let ns =
          float_of_int (Hostclock.now_ns () - t0) /. float_of_int iters
        in
        (ns, (Gc.allocated_bytes () -. a0) /. float_of_int iters))
  in
  let med sel =
    let s = List.sort Float.compare (List.map sel samples) in
    List.nth s 2
  in
  (med fst, med snd)

let batch_pages = 10

type sealing = {
  seal_ns : float;
  unseal_ns : float;
  batch_ns : float;  (* per page of a cluster-sized [seal_batch_into] *)
  seal_alloc : float;
}

(* Time the public Sealer entry points on pages of [bytes]: one seal,
   one unseal, and one page of a cluster-sized batch seal. *)
let calibrate_sealer ~quick ~bytes =
  let iters = if quick then 100 else 1_000 in
  let sealer = Sim_crypto.Sealer.create ~master_key:"perfbench" in
  let page = Bytes.init bytes (fun i -> Char.chr (i * 31 land 0xFF)) in
  let vaddr = 0x10000L and version = 1L in
  let seal_ns, seal_alloc =
    per_call ~iters (fun () ->
        ignore (Sim_crypto.Sealer.seal sealer ~vaddr ~version page))
  in
  let sealed = Sim_crypto.Sealer.seal sealer ~vaddr ~version page in
  let unseal_ns, _ =
    per_call ~iters (fun () ->
        match
          Sim_crypto.Sealer.unseal sealer ~vaddr ~expected_version:version
            sealed
        with
        | Ok _ -> ()
        | Error _ -> failwith "sealer calibration: unseal rejected a seal")
  in
  let batch_ns, _ =
    per_call ~iters:(max 1 (iters / batch_pages)) (fun () ->
        Sim_crypto.Sealer.seal_batch_into sealer ~n:batch_pages
          ~vaddr:(fun i ->
            Int64.add vaddr (Int64.of_int (i * Sgx.Types.page_bytes)))
          ~version:(fun _ -> version)
          ~plaintext:(fun _ -> page)
          ~sink:(fun _ _ -> ()))
  in
  {
    seal_ns;
    unseal_ns;
    batch_ns = batch_ns /. float_of_int batch_pages;
    seal_alloc;
  }

(* --- the run -------------------------------------------------------------- *)

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list (List.sort Float.compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A new repetition is not started once this much of the 180 s a run
   may take has gone, beyond the minimum count. *)
let hard_stop_s = 120.0

(* Repeat [f] until the run has used about [seconds]: a repetition is
   started only if, judging by the last one, it would end no more than
   half a repetition past the deadline. *)
let repeat ~t0 ~seconds ~min_reps f =
  let rec go acc n last =
    let elapsed = Hostclock.seconds_since t0 in
    if
      n >= min_reps
      && (elapsed +. (last /. 2.0) >= seconds || elapsed +. last > hard_stop_s)
    then List.rev acc
    else begin
      Gc.full_major ();
      let s = Hostclock.now_ns () in
      let r = f n in
      go (r :: acc) (n + 1) (Hostclock.seconds_since s)
    end
  in
  go [] 0 0.0

(* The measured phase as it runs when nothing interferes: every
   repetition runs the same slices of identical work, so each slice's
   fastest time over the repetitions is summed.  The host's speed
   swings by tens of percent every few seconds; the fastest of several
   ~50 ms samples of the same work filters that out, where the time of
   a whole repetition cannot. *)
let best_phase_s reps =
  let n = Array.length (List.hd reps).slices in
  let best k =
    List.fold_left (fun acc r -> min acc r.slices.(k)) max_int reps
  in
  float_of_int (List.fold_left ( + ) 0 (List.init n best)) *. 1e-9

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~failures ~attempted metrics =
  List.iter
    (fun (name, value, unit_) ->
      Printf.printf "metric %-30s %16s %s\n" name (json_number value) unit_)
    metrics;
  Printf.printf "check_failures %d count\n" (List.length failures);
  List.iter (fun f -> Printf.printf "check FAILED: %s\n" f) failures;
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit_) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_number value) unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failures = []) attempted (List.length failures) body

let run w ~quick ~seed ~seconds ~trace =
  let t0 = Hostclock.now_ns () in
  let rep traced = w.rep ~quick ~seed ~traced in
  (* The traced run alternates untraced and traced repetitions, so both
     see the same host conditions and the tracing overhead compares
     like with like. *)
  let untraced, reps =
    if trace then
      let all = repeat ~t0 ~seconds ~min_reps:2 (fun n -> rep (n mod 2 = 1)) in
      let odd = List.filteri (fun i _ -> i mod 2 = 1) all in
      (List.filteri (fun i _ -> i mod 2 = 0) all, odd)
    else ([], repeat ~t0 ~seconds ~min_reps:3 (fun _ -> rep false))
  in
  let base = match untraced with b :: _ -> Some b | [] -> None in
  let first = List.hd reps in
  let dedup l = List.sort_uniq String.compare l in
  let failures =
    dedup
      (List.concat
         [
           List.concat_map (fun r -> r.failures) (untraced @ reps);
           (if List.for_all (fun r -> r.modeled = first.modeled) reps then []
            else [ "modeled outputs differ between repetitions" ]);
           (if
              List.for_all
                (fun r -> Array.length r.slices = Array.length first.slices)
                (untraced @ reps)
            then []
            else [ "repetitions ran different numbers of timing slices" ]);
           (if List.for_all (fun b -> b.modeled = first.modeled) untraced
            then []
            else [ "traced modeled outputs differ from the untraced run" ]);
           (if seed = 42 && not quick then w.reference first else []);
         ])
  in
  let failures =
    let unattributed =
      List.filter_map
        (fun r -> List.assoc_opt "trace.unattributed_cycles" r.layer)
        reps
    in
    if List.exists (fun v -> v <> 0.0) unattributed then
      failures @ [ "per-layer modeled cycles do not sum to the clock total" ]
    else failures
  in
  Printf.printf
    "perfbench: %s, seed %d, %s size, %d %srepetition(s) in %.1f s\n" w.name
    seed
    (if quick then "quick" else "full")
    (List.length reps)
    (if trace then "traced " else "")
    (Hostclock.seconds_since t0);
  List.iteri
    (fun i r ->
      Printf.printf "rep %d: setup %.3f s, phase %.3f s, %d accesses, %.0f B\n"
        (i + 1) r.setup_s r.phase_s r.accesses r.alloc_bytes)
    (untraced @ reps);
  Printf.printf "modeled: %s\n"
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ v) first.modeled));
  let per_access r v = v /. float_of_int (max 1 r.accesses) in
  let metrics =
    match base with
    | None ->
      let med f = median (List.map f reps) in
      let peak_mb =
        let words = (Gc.quick_stat ()).Gc.top_heap_words in
        float_of_int (words * (Sys.word_size / 8)) /. 1048576.0
      in
      [
        ("setup_s", med (fun r -> r.setup_s));
        ( "sim_accesses_per_s",
          float_of_int first.accesses /. best_phase_s reps );
        ("alloc_bytes_per_access", med (fun r -> per_access r r.alloc_bytes));
        ("peak_heap_mb", peak_mb);
        ( "modeled_cycles_per_access",
          per_access first (float_of_int first.cycles) );
      ]
    | Some b ->
      (* The simulator seals a page's payload (Page_data.payload_bytes,
         64 B by default) while charging modeled cycles for 4 KiB, so
         the share estimate uses timings at the payload size; the 4 KiB
         timings show what sealing whole pages would cost. *)
      let page = calibrate_sealer ~quick ~bytes:Sgx.Types.page_bytes in
      let payload =
        calibrate_sealer ~quick ~bytes:!Sgx.Page_data.payload_bytes
      in
      let untraced_s = best_phase_s untraced in
      let layer name =
        median
          (List.filter_map (fun r -> List.assoc_opt name r.layer) reps)
      in
      (* Kernel EWBs seal one page at a time; the other seals are the
         runtime's SGXv2 evictions, sealed through [seal_batch_into]. *)
      let ewb = layer "sgx.ewb.count" in
      let est_ns =
        (ewb *. payload.seal_ns)
        +. ((layer "sim_crypto.seal.count" -. ewb) *. payload.batch_ns)
        +. (layer "sim_crypto.unseal.count" *. payload.unseal_ns)
      in
      let run_level =
        [
          ("sim_crypto.seal_ns", page.seal_ns);
          ("sim_crypto.unseal_ns", page.unseal_ns);
          ("sim_crypto.seal_batch_ns", page.batch_ns);
          ("sim_crypto.seal_alloc_bytes", page.seal_alloc);
          ("sim_crypto.payload_seal_ns", payload.seal_ns);
          ("sim_crypto.payload_unseal_ns", payload.unseal_ns);
          ("sim_crypto.payload_seal_batch_ns", payload.batch_ns);
          ("sim_crypto.est_share", est_ns /. (untraced_s *. 1e9));
          ("gc.minor_words_per_access", per_access b b.minor_words);
          ("gc.minor_collections", float_of_int b.minor_gcs);
          ("gc.major_collections", float_of_int b.major_gcs);
          ( "trace.overhead_pct",
            100.0 *. ((best_phase_s reps /. untraced_s) -. 1.0) );
        ]
      in
      List.map
        (fun (name, _) ->
          match List.assoc_opt name run_level with
          | Some v -> (name, v)
          | None -> (name, layer name))
        per_layer
  in
  let units = if trace then per_layer else end_to_end in
  let metrics =
    List.map (fun (name, v) -> (name, v, List.assoc name units)) metrics
  in
  let failures =
    if List.for_all (fun (_, v, _) -> Float.is_finite v) metrics then failures
    else failures @ [ "a metric is not a finite number" ]
  in
  let attempted =
    List.fold_left (fun acc r -> acc + r.ops) 0 (untraced @ reps)
  in
  print_result ~failures ~attempted metrics

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 in
  let trace = ref 0 and quick = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ("--quick", Arg.Set quick, " small inputs (self-test)");
    ]
  in
  let usage =
    "bench.exe --workload {"
    ^ String.concat "|" (List.map (fun w -> w.name) workloads)
    ^ "} [--seed N] [--seconds S] [--trace 0|1] [--quick]"
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline usage;
    exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
    prerr_endline "--trace takes 0 or 1";
    exit 2
  | Some w ->
    run w ~quick:!quick ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
