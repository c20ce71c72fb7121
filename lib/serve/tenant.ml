(* One tenant = one VM (static vEPC partition) hosting one self-paging
   enclave that serves keyed requests from a fixed-seed distribution.

   A tenant owns everything below the request: the guest process, the
   Autarky runtime with the tenant's protection policy, the workload
   structure built inside the enclave, and the virtual-time server state
   (busy-until cycle, bounded admission queue, latency statistics).  The
   engine only ever sees [request], [reboot] and the counters.

   Rebuilding after a termination ([reboot]) replays the same build seed,
   so an attested restart produces a byte-identical enclave image — the
   restarted instance is the same program, which is what the restart
   monitor attests.  The *policy* is no longer fixed at boot: the defense
   controller may call [set_policy] at a request boundary, and a reboot
   comes back up under the escalated policy, not the configured one.

   The policy lives in a {!Harness.Policy} slot: the workload is built
   over the slot's VM, which routes memory traffic and progress events
   through whichever policy is installed, so a live tenant can switch
   onto ORAM — and back off it — without rebooting. *)

module System = Harness.System
module Policy = Harness.Policy
module Vmm = Hypervisor.Vmm

type workload_kind = Kvstore | Spellcheck | Uthash
type policy_kind = Policy.kind = Rate_limit | Clusters | Oram | Preload

let workload_name = function
  | Kvstore -> "kvstore"
  | Spellcheck -> "spellcheck"
  | Uthash -> "uthash"

type generator =
  | Open_loop of { load : float }
  | Closed_loop of { clients : int; think : float }
  | Heavy_tail of { load : float; alpha : float }
  | Diurnal of { load : float; depth : float; period : float }

let generator_name = function
  | Open_loop { load } -> Printf.sprintf "open(load=%.2f)" load
  | Closed_loop { clients; think } ->
    Printf.sprintf "closed(n=%d,think=%.1f)" clients think
  | Heavy_tail { load; alpha } ->
    Printf.sprintf "pareto(load=%.2f,alpha=%.1f)" load alpha
  | Diurnal { load; depth; period } ->
    Printf.sprintf "diurnal(load=%.2f,depth=%.2f,period=%.0f)" load depth period

type config = {
  name : string;
  workload : workload_kind;
  policy : policy_kind;
  partition_frames : int;
  epc_limit : int;
  enclave_pages : int;
  heap_pages : int;
  generator : generator;
  queue_capacity : int;
  deadline : float option;
  requests : int;
  arrive_after : int;
  depart_after : int option;
}

type slice = {
  sl_sys : System.t;
  sl_proc : Sim_os.Kernel.proc;
  mutable sl_op : int -> unit;
  mutable sl_probe : int -> int list;
  sl_heap : Autarky.Allocator.t;
  sl_epc_limit : int;  (* the allowance this incarnation booted with *)
  sl_policy : Policy.t;
  (* Pre-allocated request thunk: [request] writes the key into the cell
     and passes the same closure to the enclave entry every time, so the
     served-request path allocates no per-call closure. *)
  sl_req_key : int ref;
  mutable sl_req_thunk : unit -> unit;
}

type state = Parked | Active | Refused | Departed

type t = {
  cfg : config;
  machine : Sgx.Machine.t;
  hv : Vmm.t;
  vm : Vmm.vm;
  build_seed : int64;
  key_rng : Metrics.Rng.t;
  gen_rng : Metrics.Rng.t;
  calib_rng : Metrics.Rng.t;
  dist : Metrics.Dist.t;
  mutable slice : slice option;
  mutable active_policy : policy_kind;  (* survives reboots *)
  mutable in_request : bool;
  mutable policy_switches : int;
  mutable state : state;
  mutable free_at : int;
  queue : Ring.t;  (* completion cycles of admitted, unfinished requests *)
  lat : Metrics.Stats.t;
  lat_sketch : Metrics.Sketch.t option;
      (* [Some _] switches latency accounting from the store-every-sample
         [lat] to O(1) sketch state (the fleet-scale path). *)
  mutable boot_cycles : int;  (* cold-start cost of a churn join; 0 otherwise *)
  mutable svc_mean : float;
  mutable arrivals : int;
  mutable served : int;
  mutable shed : int;
  mutable missed : int;
  mutable terminations : int;
  mutable restarts : int;
  mutable faults_acc : int;  (* faults handled by previous incarnations *)
  mutable faults_last_seen : int;  (* arbiter's bookmark *)
  mutable balloon_released_pages : int;
  mutable balloon_in_frames : int;
  mutable balloon_upcalls : int;
}

let n_keys cfg =
  match cfg.workload with
  | Kvstore -> cfg.heap_pages * 3
  | Spellcheck -> cfg.heap_pages * 48
  | Uthash -> cfg.heap_pages * 12

let slice_exn t =
  match t.slice with
  | Some s -> s
  | None -> invalid_arg "Serve.Tenant: tenant has no live enclave"

(* The tenant's spec for [kind].  The ORAM cache is sized from the
   allowance this incarnation booted with, and the tree seed derives
   from the build seed alone, so an escalation after a reboot replays
   the identical structure. *)
let policy_spec t ~epc_limit kind =
  Policy.spec
    ~oram_cache_pages:(max 32 (epc_limit / 2))
    ~oram_tree_seed:(Int64.to_int t.build_seed + 9)
    kind

(* Build one incarnation: guest process, platform slice, policy, workload. *)
let build_slice t =
  let cfg = t.cfg in
  let avail = Vmm.partition_frames t.vm - Vmm.committed_frames t.vm in
  let epc_limit = min cfg.epc_limit avail in
  if epc_limit < 48 then
    invalid_arg
      (Printf.sprintf "Serve.Tenant %s: partition too small to (re)boot (%d frames)"
         cfg.name avail);
  let proc =
    Vmm.create_guest_proc t.hv t.vm ~size_pages:cfg.enclave_pages
      ~self_paging:true ~epc_limit
  in
  let os = Vmm.guest_os t.vm in
  let sys = System.attach ~machine:t.machine ~os ~proc () in
  let rt = System.runtime_exn sys in
  (* Re-register the balloon upcall with an accounting wrapper so the
     report can show how many pages each tenant ballooned away — and the
     defense controller can read upcall pressure as an attack signal. *)
  Sim_os.Kernel.set_balloon_handler os proc (fun pages ->
      t.balloon_upcalls <- t.balloon_upcalls + 1;
      let released = Autarky.Runtime.balloon_release rt ~pages in
      t.balloon_released_pages <- t.balloon_released_pages + released;
      released);
  let heap = System.allocator sys ~pages:cfg.heap_pages ~cluster_pages:10 in
  let alloc ~bytes = Autarky.Allocator.alloc heap ~bytes in
  let build_rng = Metrics.Rng.create ~seed:t.build_seed in
  let sl =
    {
      sl_sys = sys;
      sl_proc = proc;
      sl_op = (fun _ -> ());
      sl_probe = (fun _ -> []);
      sl_heap = heap;
      sl_epc_limit = epc_limit;
      sl_policy = Policy.create sys ~heap;
      sl_req_key = ref 0;
      sl_req_thunk = (fun () -> ());
    }
  in
  sl.sl_req_thunk <- (fun () -> sl.sl_op !(sl.sl_req_key));
  Policy.prepare sl.sl_policy (policy_spec t ~epc_limit t.active_policy);
  let vm = Policy.vm sl.sl_policy in
  let op, probe =
    match cfg.workload with
    | Kvstore ->
      let kv =
        Workloads.Kvstore.create ~vm ~alloc ~rng:build_rng ~n_entries:(n_keys cfg)
          ~value_bytes:1_024 ()
      in
      ((fun k -> ignore (Workloads.Kvstore.get kv ~key:k)), fun _ -> [])
    | Spellcheck ->
      let d =
        Workloads.Spellcheck.load_dictionary ~vm ~alloc ~rng:build_rng
          ~name:cfg.name ~n_words:(n_keys cfg) ()
      in
      ( (fun k -> ignore (Workloads.Spellcheck.check d ~word:k)),
        fun k -> Workloads.Spellcheck.signature d ~word:k )
    | Uthash ->
      let u =
        Workloads.Uthash.create ~vm ~alloc ~rng:build_rng ~n_items:(n_keys cfg)
          ~item_bytes:256 ~target_chain:10
      in
      (* Uthash emits no progress events of its own; the request is the
         natural progress unit. *)
      ( (fun k ->
          ignore (Workloads.Uthash.find u ~key:k);
          vm.Workloads.Vm.progress ()),
        fun k -> Workloads.Uthash.probe_pages u ~key:k )
  in
  sl.sl_op <- op;
  sl.sl_probe <- probe;
  Policy.install sl.sl_policy;
  sl

let create ?(sketch = false) ~machine ~hv ~vm ~seed_base cfg =
  let seed k = Int64.of_int ((seed_base * 31) + k) in
  let t =
    {
      cfg;
      machine;
      hv;
      vm;
      build_seed = seed 0;
      key_rng = Metrics.Rng.create ~seed:(seed 1);
      gen_rng = Metrics.Rng.create ~seed:(seed 2);
      calib_rng = Metrics.Rng.create ~seed:(seed 3);
      dist =
        (match cfg.workload with
        | Kvstore -> Metrics.Dist.scrambled_zipfian ~n:(n_keys cfg) ()
        | Spellcheck -> Metrics.Dist.zipfian ~n:(n_keys cfg) ()
        | Uthash -> Metrics.Dist.uniform ~n:(n_keys cfg));
      slice = None;
      active_policy = cfg.policy;
      in_request = false;
      policy_switches = 0;
      state = (if cfg.arrive_after > 0 then Parked else Active);
      free_at = 0;
      queue = Ring.create ~capacity:(max 1 cfg.queue_capacity);
      lat = Metrics.Stats.create ();
      lat_sketch = (if sketch then Some (Metrics.Sketch.create ()) else None);
      boot_cycles = 0;
      svc_mean = 1.0;
      arrivals = 0;
      served = 0;
      shed = 0;
      missed = 0;
      terminations = 0;
      restarts = 0;
      faults_acc = 0;
      faults_last_seen = 0;
      balloon_released_pages = 0;
      balloon_in_frames = 0;
      balloon_upcalls = 0;
    }
  in
  (* A parked tenant (arrive_after > 0) owns its VM partition from the
     start — static vEPC partitioning reserves the slice — but builds no
     enclave until {!boot} at its join event, so the cold-start cost
     lands on the virtual timeline, not in setup. *)
  if t.state <> Parked then t.slice <- Some (build_slice t);
  t

let config t = t.cfg
let name t = t.cfg.name
let sys t = (slice_exn t).sl_sys
let proc t = (slice_exn t).sl_proc
let vm t = t.vm
let dist t = t.dist
let key_rng t = t.key_rng
let gen_rng t = t.gen_rng
let state t = t.state
let set_refused t = t.state <- Refused
let free_at t = t.free_at
let set_free_at t at = t.free_at <- at
let queue t = t.queue
let latencies t = t.lat

let record_latency t ~cycles =
  match t.lat_sketch with
  | Some sk -> Metrics.Sketch.add_int sk cycles
  | None -> Metrics.Stats.add t.lat (float_of_int cycles)

let sketch t = t.lat_sketch

let latency_summary t =
  match t.lat_sketch with
  | Some sk -> Metrics.Sketch.summary sk
  | None -> Metrics.Stats.summary t.lat

(* One engine run gives every tenant the same backend, so the pool is
   either all sketches (bucket addition) or all exact sample sets. *)
let pooled_latency ts =
  let ts = Array.to_list ts in
  match List.filter_map sketch ts with
  | [] ->
    ( Metrics.Stats.summary (Metrics.Stats.merged (List.map latencies ts)),
      "pooled-exact" )
  | sks when List.length sks = List.length ts ->
    (Metrics.Sketch.summary (Metrics.Sketch.merged sks), "pooled-sketch")
  | _ ->
    invalid_arg "Serve.Tenant.pooled_latency: mixed sketch and exact tenants"

let boot_cycles t = t.boot_cycles
let svc_mean t = t.svc_mean
let set_svc_mean t m = t.svc_mean <- m
let active_policy t = t.active_policy
let policy_switches t = t.policy_switches
let balloon_upcalls t = t.balloon_upcalls

let heap_region t =
  let sl = slice_exn t in
  (Autarky.Allocator.base_vpage sl.sl_heap, t.cfg.heap_pages)

let resident_heap_pages t =
  let sl = slice_exn t in
  match System.runtime sl.sl_sys with
  | None -> []
  | Some rt ->
    let pager = Autarky.Runtime.pager rt in
    List.filter
      (Autarky.Pager.resident pager)
      (Autarky.Allocator.allocated_pages sl.sl_heap)

let set_policy t kind =
  if t.in_request then
    invalid_arg
      (Printf.sprintf
         "Serve.Tenant.set_policy %s: cannot switch policies mid-request"
         t.cfg.name);
  let sl = slice_exn t in
  if t.active_policy <> kind then begin
    Policy.switch sl.sl_policy
      (policy_spec t ~epc_limit:sl.sl_epc_limit kind);
    t.active_policy <- kind;
    t.policy_switches <- t.policy_switches + 1
  end

let incarnation_faults t =
  match t.slice with
  | None -> 0
  | Some s -> (
    match System.runtime s.sl_sys with
    | Some rt -> Autarky.Runtime.faults_handled rt
    | None -> 0)

let faults t = t.faults_acc + incarnation_faults t

let next_key t = Metrics.Dist.sample t.dist t.key_rng

(* Calibration draws uniformly over the key space rather than from the
   serving distribution: a skewed distribution would calibrate on a few
   hot (soon-resident) keys and wildly underestimate the steady-state
   service time, turning a nominally moderate open-loop load into an
   accidental overload.  Uniform draws include the cold tail, so the
   estimate errs conservative. *)
let calib_key t = Metrics.Rng.int t.calib_rng (Metrics.Dist.size t.dist)

(* No [Fun.protect]: the wrapper and its two closures would be the last
   per-request allocations on the served-request hot path.  The thunk is
   built once per incarnation; only the key cell is written here. *)
let request t ~key =
  let s = slice_exn t in
  s.sl_req_key := key;
  t.in_request <- true;
  match System.run_in_enclave s.sl_sys s.sl_req_thunk with
  | () -> t.in_request <- false
  | exception e ->
    t.in_request <- false;
    raise e

let probe_pages t ~key = (slice_exn t).sl_probe key

let arrivals t = t.arrivals
let served t = t.served
let shed t = t.shed
let missed t = t.missed
let terminations t = t.terminations
let restarts t = t.restarts
let incr_arrivals t = t.arrivals <- t.arrivals + 1
let incr_served t = t.served <- t.served + 1
let incr_shed t = t.shed <- t.shed + 1
let incr_missed t = t.missed <- t.missed + 1
let incr_terminations t = t.terminations <- t.terminations + 1
let balloon_released_pages t = t.balloon_released_pages
let balloon_in_frames t = t.balloon_in_frames
let add_balloon_in t n = t.balloon_in_frames <- t.balloon_in_frames + n
let faults_last_seen t = t.faults_last_seen
let set_faults_last_seen t v = t.faults_last_seen <- v

let reboot t =
  (match t.slice with
  | Some s ->
    t.faults_acc <- t.faults_acc + incarnation_faults t;
    Vmm.destroy_guest_proc t.hv t.vm s.sl_proc;
    t.slice <- None
  | None -> ());
  t.in_request <- false;
  t.slice <- Some (build_slice t);
  t.restarts <- t.restarts + 1

(* Churn: a parked tenant joins the fleet.  The caller (the engine's
   Join event) brackets this in a clock span so the build — the
   cold-start attestation cost — lands on the virtual timeline. *)
let boot t =
  if t.state <> Parked then
    invalid_arg (Printf.sprintf "Serve.Tenant.boot %s: not parked" t.cfg.name);
  t.slice <- Some (build_slice t);
  t.state <- Active

let set_boot_cycles t c = t.boot_cycles <- c

let depart t =
  (match t.slice with
  | Some s ->
    t.faults_acc <- t.faults_acc + incarnation_faults t;
    Vmm.destroy_guest_proc t.hv t.vm s.sl_proc;
    t.slice <- None
  | None -> ());
  t.in_request <- false;
  Ring.clear t.queue;
  t.state <- Departed
