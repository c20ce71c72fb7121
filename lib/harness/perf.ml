(* Performance-regression harness (BENCH_perf.json).

   Two sections:

   - [micro]: wall-clock and allocation rates of the crypto hot paths,
     measured for both the optimized implementations and the preserved
     boxed references ({!Sim_crypto.Chacha20_ref} & co.), so the
     speedup of the unboxed rewrite is itself a regression-tested
     number.

   - [matrix]: a fixed-seed workload matrix (ycsb / uthash / kvstore x
     rate-limit / clusters / oram x SGXv1 / SGXv2) reporting real wall
     nanoseconds per access, allocated bytes per access
     ({!alloc_bytes}) and modeled cycles per access.

   Wall-clock numbers vary run to run; the JSON schema
   ("autarky-perf/1") is stable so downstream tooling can diff fields
   across commits. *)

type micro_row = {
  mi_name : string;
  mi_iters : int;
  mi_new_ns : float;  (* wall ns per op, optimized implementation *)
  mi_new_alloc : float;  (* allocated bytes per op *)
  mi_ref_ns : float;  (* wall ns per op, boxed reference *)
  mi_ref_alloc : float;
}

let speedup r = if r.mi_new_ns > 0.0 then r.mi_ref_ns /. r.mi_new_ns else 0.0

type matrix_row = {
  mx_workload : string;
  mx_policy : string;
  mx_mech : string;
  mx_ops : int;
  mx_accesses : int;  (* VM accesses the ops performed (deterministic) *)
  mx_wall_ns : float;  (* wall ns per access *)
  mx_alloc : float;  (* allocated bytes per access *)
  mx_cycles : float;  (* modeled cycles per access *)
  mx_faults : int;
}

type report = {
  r_quick : bool;
  r_seed : int;
  r_jobs : int;  (* domains the matrix ran on (wall metadata only) *)
  r_matrix_wall_s : float;  (* wall clock of the whole matrix section *)
  r_micro : micro_row list;
  r_matrix : matrix_row list;
}

(* --- measurement ------------------------------------------------------ *)

(* OCaml 5.1's [Gc.allocated_bytes] counts the not yet collected part
   of the minor heap in words, not bytes: a short window reads 1/8 of
   its allocation, and jumps by 7/8 of the minor heap (1,835,008 B at
   the default 256k words) when a collection falls inside it.  The
   exact minor-word counter plus the direct major allocations has
   neither fault.  The counter reads are ordered so that their own
   allocation stays outside the window. *)
let alloc_bytes f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let x = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  ( x,
    (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
    *. float_of_int (Sys.word_size / 8) )

(* Best-of-[reps] minimum for both wall time and allocation rate: the
   minimum filters scheduler noise from the former (the per-op
   allocation itself is deterministic). *)
let time_alloc ?(reps = 5) ~iters f =
  f ();
  (* warmup: fault in code paths and scratch buffers *)
  let n = float_of_int iters in
  let best = ref infinity in
  let alloc = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let (), a =
      alloc_bytes (fun () ->
          for _ = 1 to iters do
            f ()
          done)
    in
    let t1 = Unix.gettimeofday () in
    best := Float.min !best ((t1 -. t0) *. 1e9 /. n);
    alloc := Float.min !alloc (a /. n)
  done;
  (!best, !alloc)

(* --- micro section ---------------------------------------------------- *)

let page_bytes = Sgx.Types.page_bytes

let micro_section ~quick =
  let iters = if quick then 300 else 3_000 in
  let page = Bytes.init page_bytes (fun i -> Char.chr (i land 0xFF)) in
  let key = Sim_crypto.Chacha20.key_of_string "perf-bench-key" in
  let nonce = Bytes.make 12 'n' in
  let sip_key = Bytes.init 16 Char.chr in
  let sip_new = Sim_crypto.Siphash.key_of_bytes sip_key in
  let sip_ref = Sim_crypto.Siphash_ref.key_of_bytes sip_key in
  let payload = Bytes.sub page 0 !Sgx.Page_data.payload_bytes in
  let sealer_new = Sim_crypto.Sealer.create ~master_key:"perf" in
  let sealer_ref = Sim_crypto.Sealer_ref.create ~master_key:"perf" in
  let roundtrip_new data () =
    let s = Sim_crypto.Sealer.seal sealer_new ~vaddr:0x1000L ~version:1L data in
    assert (Result.is_ok
      (Sim_crypto.Sealer.unseal sealer_new ~vaddr:0x1000L ~expected_version:1L s))
  in
  let roundtrip_ref data () =
    let s = Sim_crypto.Sealer_ref.seal sealer_ref ~vaddr:0x1000L ~version:1L data in
    assert (Result.is_ok
      (Sim_crypto.Sealer_ref.unseal sealer_ref ~vaddr:0x1000L ~expected_version:1L s))
  in
  let cases =
    [
      ( "chacha20.xor_stream/page",
        (fun () -> ignore (Sim_crypto.Chacha20.xor_stream ~key ~nonce page)),
        fun () -> ignore (Sim_crypto.Chacha20_ref.xor_stream ~key ~nonce page) );
      ( "siphash.hash/page",
        (fun () -> ignore (Int64.to_int (Sim_crypto.Siphash.hash sip_new page))),
        fun () -> ignore (Sim_crypto.Siphash_ref.hash sip_ref page) );
      ("sealer.seal+unseal/page", roundtrip_new page, roundtrip_ref page);
      (* The payload the simulator actually seals per page. *)
      ("sealer.seal+unseal/payload", roundtrip_new payload, roundtrip_ref payload);
    ]
  in
  List.map
    (fun (name, new_op, ref_op) ->
      let new_ns, new_alloc = time_alloc ~iters new_op in
      let ref_ns, ref_alloc = time_alloc ~iters ref_op in
      {
        mi_name = name;
        mi_iters = iters;
        mi_new_ns = new_ns;
        mi_new_alloc = new_alloc;
        mi_ref_ns = ref_ns;
        mi_ref_alloc = ref_alloc;
      })
    cases

(* --- matrix section --------------------------------------------------- *)

(* The default cell geometry: a 4 MiB EPC, small enough that the 16 MiB
   heap pages heavily, large enough that the pinned ORAM cache (2/3 of
   EPC) fits the paging budget (EPC - 256). *)
let cell ?(trace = false) ?(on_system = fun _ -> ()) ?(mech = `Sgx1)
    ?(epc_limit = 1_024) ?(cluster_pages = 10) ~policy ~seed build =
  let rng = Metrics.Rng.create ~seed:(Int64.of_int seed) in
  let sys =
    System.create ~mech ~trace ~epc_frames:(epc_limit + 1_024) ~epc_limit
      ~enclave_pages:(8 * epc_limit) ~self_paging:(policy <> None)
      ~budget:(max 64 (epc_limit - 256))
      ()
  in
  on_system sys;
  let heap_pages = 4 * epc_limit in
  let heap = System.allocator sys ~pages:heap_pages ~cluster_pages in
  let slot = Policy.create sys ~heap in
  let spec =
    Policy.spec ~oram_cache_pages:(max 64 (epc_limit * 2 / 3)) ~oram_tree_seed:9
  in
  Option.iter (fun k -> Policy.prepare slot (spec k)) policy;
  let built =
    build (Policy.vm slot) ~alloc:(Autarky.Allocator.alloc heap) ~rng
      ~heap_pages
  in
  if policy <> None then Policy.install slot;
  (sys, built)

let workloads = [ "ycsb"; "uthash"; "kvstore" ]
let policies = Policy.[ Rate_limit; Clusters; Oram ]
let mech_name = function `Sgx1 -> "sgx1" | `Sgx2 -> "sgx2"

let mech_of_name = function
  | "sgx1" -> Some `Sgx1
  | "sgx2" -> Some `Sgx2
  | _ -> None

let workload name vm ~alloc ~rng ~heap_pages =
  match name with
  | "ycsb" ->
    let n_entries = heap_pages * 3 in
    let kv =
      Workloads.Kvstore.create ~vm ~alloc ~rng ~n_entries ~value_bytes:1_024 ()
    in
    let dist = Metrics.Dist.scrambled_zipfian ~n:n_entries () in
    let gen = Workloads.Ycsb.workload_c ~dist ~rng in
    fun _ ->
      (match Workloads.Ycsb.next gen with
      | Workloads.Ycsb.Get k -> ignore (Workloads.Kvstore.get kv ~key:k)
      | _ -> ())
  | "uthash" ->
    let t =
      Workloads.Uthash.create ~vm ~alloc ~rng ~n_items:(heap_pages * 12)
        ~item_bytes:256 ~target_chain:10
    in
    let n = Workloads.Uthash.n_items t in
    (* Uthash emits no progress events of its own; the request is the
       natural progress unit (cf. bench/exp_fig7.ml). *)
    fun i ->
      ignore (Workloads.Uthash.find t ~key:(i * 7919 mod n));
      vm.Workloads.Vm.progress ()
  | "kvstore" ->
    let n_entries = heap_pages * 3 in
    let kv =
      Workloads.Kvstore.create ~vm ~alloc ~rng ~n_entries ~value_bytes:1_024 ()
    in
    let dist = Metrics.Dist.uniform ~n:n_entries in
    fun _ ->
      ignore (Workloads.Kvstore.get kv ~key:(Metrics.Dist.sample dist rng))
  | other ->
    invalid_arg (Printf.sprintf "Perf.workload: unknown workload %S" other)

(* One matrix cell = one fresh platform: a self-paging enclave under the
   given policy and paging mechanism, driven by a fixed-seed workload. *)
let run_cell ~workload:name ~policy ~mech ~seed ~ops =
  let sys, op = cell ~mech ~policy:(Some policy) ~seed (workload name) in
  let acc0 = Sgx.Cpu.accesses (System.cpu sys) in
  let t0 = Unix.gettimeofday () in
  let r, alloc =
    alloc_bytes (fun () ->
        Measure.run sys (fun () ->
            for i = 1 to ops do
              op i
            done))
  in
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  (* Per-access figures divide by the VM accesses the ops actually
     performed (one kvstore get is ~17 accesses), not by ops — the
     original report divided by ops under a *_per_access name, inflating
     every figure by the accesses-per-op factor. *)
  let accesses = Sgx.Cpu.accesses (System.cpu sys) - acc0 in
  let n = float_of_int (max 1 accesses) in
  {
    mx_workload = name;
    mx_policy = Policy.name policy;
    mx_mech = mech_name mech;
    mx_ops = ops;
    mx_accesses = accesses;
    mx_wall_ns = wall_ns /. n;
    mx_alloc = alloc /. n;
    mx_cycles = float_of_int r.Measure.cycles /. n;
    mx_faults = r.Measure.page_faults;
  }

(* The matrix is embarrassingly parallel: every cell builds a fresh
   platform (own counters, clock, trace-free) and the simulator keeps
   no cross-platform state, so cells shard across domains with results
   merged back in cell order — modeled cycles, faults and allocation
   are bit-identical at any [jobs]; only the wall fields move. *)
let matrix_cells ~quick =
  let workloads = if quick then [ "ycsb" ] else workloads in
  let mechs = [ `Sgx1; `Sgx2 ] in
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun policy -> List.map (fun mech -> (workload, policy, mech)) mechs)
        policies)
    workloads

let matrix_section ~quick ~seed ~jobs =
  let ops = if quick then 1_000 else 8_000 in
  Parallel.Pool.map ~jobs
    (fun (workload, policy, mech) -> run_cell ~workload ~policy ~mech ~seed ~ops)
    (matrix_cells ~quick)

(* --- JSON ------------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json r =
  let b = Buffer.create 4_096 in
  let f = Printf.sprintf "%.2f" in
  Buffer.add_string b "{\n";
  (* /2: per-access figures divide by true VM accesses (an "accesses"
     field records the divisor); /1 divided by ops under the same
     field names. *)
  Buffer.add_string b "  \"schema\": \"autarky-perf/2\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" r.r_quick);
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" r.r_seed);
  Buffer.add_string b (Printf.sprintf "  \"page_bytes\": %d,\n" page_bytes);
  (* Wall metadata lives in one clearly-named object: everything under
     "wall" (plus the *wall* per-row fields) is machine-dependent and
     excluded from determinism/regression comparison. *)
  Buffer.add_string b
    (Printf.sprintf "  \"wall\": {\"jobs\": %d, \"matrix_s\": %s},\n" r.r_jobs
       (f r.r_matrix_wall_s));
  Buffer.add_string b "  \"micro\": [\n";
  List.iteri
    (fun i m ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"iters\": %d, \"new_wall_ns_per_op\": %s, \
            \"new_alloc_bytes_per_op\": %s, \"ref_wall_ns_per_op\": %s, \
            \"ref_alloc_bytes_per_op\": %s, \"speedup_wall\": %s}%s\n"
           (json_escape m.mi_name) m.mi_iters (f m.mi_new_ns) (f m.mi_new_alloc)
           (f m.mi_ref_ns) (f m.mi_ref_alloc)
           (f (speedup m))
           (if i = List.length r.r_micro - 1 then "" else ",")))
    r.r_micro;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"matrix\": [\n";
  List.iteri
    (fun i m ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"policy\": \"%s\", \"mech\": \"%s\", \
            \"ops\": %d, \"accesses\": %d, \"wall_ns_per_access\": %s, \
            \"alloc_bytes_per_access\": %s, \"modeled_cycles_per_access\": %s, \
            \"page_faults\": %d}%s\n"
           (json_escape m.mx_workload) (json_escape m.mx_policy)
           (json_escape m.mx_mech) m.mx_ops m.mx_accesses (f m.mx_wall_ns)
           (f m.mx_alloc) (f m.mx_cycles) m.mx_faults
           (if i = List.length r.r_matrix - 1 then "" else ",")))
    r.r_matrix;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  Buffer.contents b

(* --- driver ----------------------------------------------------------- *)

let print_summary r =
  Printf.printf "perf: crypto microbenchmarks (%s mode)\n"
    (if r.r_quick then "quick" else "full");
  Printf.printf "  %-26s %12s %12s %10s %14s\n" "op" "new ns/op" "ref ns/op"
    "speedup" "new alloc B/op";
  List.iter
    (fun m ->
      Printf.printf "  %-26s %12.0f %12.0f %9.1fx %14.0f\n" m.mi_name m.mi_new_ns
        m.mi_ref_ns (speedup m) m.mi_new_alloc)
    r.r_micro;
  Printf.printf "perf: workload matrix (seed %d)\n" r.r_seed;
  Printf.printf "  %-9s %-11s %-5s %12s %12s %14s %8s\n" "workload" "policy"
    "mech" "wall ns/acc" "alloc B/acc" "cycles/acc" "faults";
  List.iter
    (fun m ->
      Printf.printf "  %-9s %-11s %-5s %12.0f %12.1f %14.0f %8d\n" m.mx_workload
        m.mx_policy m.mx_mech m.mx_wall_ns m.mx_alloc m.mx_cycles m.mx_faults)
    r.r_matrix

let run ?(quick = false) ?(seed = 42) ?(jobs = 1) ?out () =
  let micro = micro_section ~quick in
  let t0 = Unix.gettimeofday () in
  let matrix = matrix_section ~quick ~seed ~jobs in
  let matrix_wall_s = Unix.gettimeofday () -. t0 in
  let r =
    {
      r_quick = quick;
      r_seed = seed;
      r_jobs = (if jobs <= 0 then Parallel.Pool.default_jobs () else jobs);
      r_matrix_wall_s = matrix_wall_s;
      r_micro = micro;
      r_matrix = matrix;
    }
  in
  print_summary r;
  Printf.printf "perf: matrix wall %.2f s at %d job(s)\n" r.r_matrix_wall_s
    r.r_jobs;
  (match out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (to_json r);
    close_out oc;
    Printf.printf "perf: wrote %s\n" file);
  r

(* --- regression gate --------------------------------------------------- *)

(* A matrix cell as the gate sees it: identity (workload/policy/mech),
   the deterministic measurements (ops, modeled cycles, faults) that
   are compared, and the informational wall figure. *)
type gate_cell = {
  g_key : string * string * string;
  g_ops : int;
  g_accesses : int;
  g_cycles : float;
  g_faults : int;
  g_wall_ns : float;
  g_alloc : float;
}

let gate_cells_of_json ~ctx j =
  let open Microjson in
  mem_exn ~ctx "matrix" j |> arr ~ctx
  |> List.map (fun cell ->
         let field k = mem_exn ~ctx:(ctx ^ ".matrix") k cell in
         let s k = str ~ctx (field k) in
         {
           g_key = (s "workload", s "policy", s "mech");
           g_ops = int_ ~ctx (field "ops");
           g_accesses = int_ ~ctx (field "accesses");
           g_cycles = num ~ctx (field "modeled_cycles_per_access");
           g_faults = int_ ~ctx (field "page_faults");
           g_wall_ns = num ~ctx (field "wall_ns_per_access");
           g_alloc = num ~ctx (field "alloc_bytes_per_access");
         })

let key_name (w, p, m) = Printf.sprintf "%s/%s/%s" w p m

(* Relative drift, symmetric-safe for zero baselines. *)
let drift ~base ~cur =
  if base = 0.0 then (if cur = 0.0 then 0.0 else infinity)
  else Float.abs (cur -. base) /. Float.abs base

let check ~baseline ?against ?(tolerance = 0.25) ?wall_ceiling_ns ?alloc_ceiling
    ?(jobs = 1) () =
  let load path =
    let j = Microjson.of_file path in
    (match Microjson.(member "schema" j) with
    | Some (Microjson.Str "autarky-perf/2") -> ()
    | _ -> failwith (path ^ ": not an autarky-perf/2 report"));
    j
  in
  let bj = load baseline in
  let base = gate_cells_of_json ~ctx:baseline bj in
  let cur, cur_label =
    match against with
    | Some path -> (gate_cells_of_json ~ctx:path (load path), path)
    | None ->
      (* Re-run the matrix at the baseline's own shape and seed so the
         comparison is cell-for-cell.  The micro section is skipped:
         the gate is about modeled cycles; wall-clock micro numbers
         cannot gate anything on a shared CI runner. *)
      let quick = Microjson.(bool_ ~ctx:baseline (mem_exn ~ctx:baseline "quick" bj)) in
      let seed = Microjson.(int_ ~ctx:baseline (mem_exn ~ctx:baseline "seed" bj)) in
      Printf.printf "perf: re-running the %s matrix (seed %d) against %s\n%!"
        (if quick then "quick" else "full")
        seed baseline;
      let r =
        {
          r_quick = quick;
          r_seed = seed;
          r_jobs = jobs;
          r_matrix_wall_s = 0.0;
          r_micro = [];
          r_matrix = matrix_section ~quick ~seed ~jobs;
        }
      in
      (* Through the same writer and reader as the baseline, so both
         sides carry the JSON's rounding. *)
      let ctx = "this run" in
      (gate_cells_of_json ~ctx (Microjson.of_string (to_json r)), ctx)
  in
  let assoc cells = List.map (fun c -> (c.g_key, c)) cells in
  let base_a = assoc base and cur_a = assoc cur in
  let failures = ref [] in
  let fail_cell fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k cur_a) then
        fail_cell "cell %s missing from %s" (key_name k) cur_label)
    base_a;
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k base_a) then
        fail_cell "cell %s not in baseline" (key_name k))
    cur_a;
  Printf.printf "  %-22s %14s %14s %8s %9s  %s\n" "cell" "base cyc/acc"
    "cur cyc/acc" "drift" "faults" "verdict";
  List.iter
    (fun (k, b) ->
      match List.assoc_opt k cur_a with
      | None -> ()
      | Some c ->
        let d = drift ~base:b.g_cycles ~cur:c.g_cycles in
        let fd =
          drift ~base:(float_of_int b.g_faults) ~cur:(float_of_int c.g_faults)
        in
        let bad = ref [] in
        if c.g_ops <> b.g_ops then
          bad := Printf.sprintf "ops %d vs %d" b.g_ops c.g_ops :: !bad;
        if c.g_accesses <> b.g_accesses then
          bad :=
            Printf.sprintf "accesses %d vs %d" b.g_accesses c.g_accesses :: !bad;
        if d > tolerance then bad := Printf.sprintf "cycles drift %.1f%%" (100. *. d) :: !bad;
        if fd > tolerance then bad := Printf.sprintf "faults drift %.1f%%" (100. *. fd) :: !bad;
        Printf.printf "  %-22s %14.0f %14.0f %7.1f%% %4d/%-4d  %s\n" (key_name k)
          b.g_cycles c.g_cycles (100.0 *. d) b.g_faults c.g_faults
          (if !bad = [] then "ok" else "REGRESSION");
        if !bad <> [] then
          fail_cell "cell %s: %s" (key_name k) (String.concat ", " !bad))
    base_a;
  (* Absolute ceilings locking in the flat-core speedup.  The wall
     ceiling applies to the current run's rate-limit cells (the cells
     the rewrite targets; wall time is machine-dependent, so the bound
     is generous).  The alloc ceiling bounds the matrix-median
     allocation per access, which is deterministic. *)
  (match wall_ceiling_ns with
  | None -> ()
  | Some ceiling ->
    List.iter
      (fun c ->
        let _, policy, _ = c.g_key in
        if policy = "rate-limit" && c.g_wall_ns > ceiling then
          fail_cell "cell %s: wall %.0f ns/access exceeds ceiling %.0f"
            (key_name c.g_key) c.g_wall_ns ceiling)
      cur);
  (match alloc_ceiling with
  | None -> ()
  | Some ceiling ->
    let sorted = List.sort Float.compare (List.map (fun c -> c.g_alloc) cur) in
    let n = List.length sorted in
    if n > 0 then begin
      let median =
        if n mod 2 = 1 then List.nth sorted (n / 2)
        else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.0
      in
      Printf.printf "perf: matrix median alloc %.1f B/access (ceiling %.0f)\n"
        median ceiling;
      if median > ceiling then
        fail_cell "matrix median alloc %.1f B/access exceeds ceiling %.0f" median
          ceiling
    end);
  let ok = !failures = [] in
  if ok then
    Printf.printf "perf: %d cells within %.0f%% of %s (%s)\n"
      (List.length base_a) (100.0 *. tolerance) baseline
      (if wall_ceiling_ns <> None || alloc_ceiling <> None then
         "wall/alloc ceilings enforced"
       else "wall/alloc informational only")
  else begin
    Printf.printf "perf: regression gate FAILED against %s:\n" baseline;
    List.iter (fun m -> Printf.printf "  - %s\n" m) (List.rev !failures)
  end;
  ok
