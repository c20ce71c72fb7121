(* The three single-enclave workloads, built the way the perf matrix
   builds its cells (Harness.Perf.run_cell): a 4 MiB EPC (1,024
   frames), a 16 MiB heap of 10-page clusters, and the EPC budget at
   EPC - 256 so the pinned ORAM cache (2/3 of EPC) fits.  Nothing here
   is shared with Harness.Perf; the shape is repeated so that the
   paging-clusters cell can be checked against the committed
   BENCH_perf.json row.

   With a tracer, the same platform is built with the tracing wrappers
   installed on its public seams; without one, the seams are left as
   the simulator builds them. *)

type policy = Clusters | Rate_limit | Oram
type workload = Uthash_lookup | Kv_ycsb_a

type t = {
  sys : Harness.System.t;
  op : int -> unit;
  cache : Autarky.Oram_cache.t option;
}

let epc_limit = 1_024
let heap_pages = 4 * epc_limit

let build ?tracer ~workload ~policy ~mech ~seed () =
  let wrap f = match tracer with Some tr -> f tr | None -> Fun.id in
  let rng = Metrics.Rng.create ~seed:(Int64.of_int seed) in
  let sys =
    Harness.System.create ~mech
      ?wrap_os:(Option.map Layers.wrap_os tracer)
      ~epc_frames:(epc_limit + 1_024) ~epc_limit
      ~enclave_pages:(8 * epc_limit) ~self_paging:true
      ~budget:(epc_limit - 256) ()
  in
  let heap = Harness.System.allocator sys ~pages:heap_pages ~cluster_pages:10 in
  let alloc ~bytes = Autarky.Allocator.alloc heap ~bytes in
  let rt = Harness.System.runtime_exn sys in
  let install p = Autarky.Runtime.set_policy rt (wrap Layers.wrap_policy p) in
  let manage_heap () =
    Harness.System.manage sys (Autarky.Allocator.allocated_pages heap)
  in
  let cpu_access a k = Sgx.Cpu.access (Harness.System.cpu sys) a k in
  (* [finish] runs after the workload is built, as in the perf cells:
     the heap build itself runs under the pinned policy. *)
  let vm, finish, cache =
    match policy with
    | Rate_limit ->
      let rl =
        Autarky.Policy_rate_limit.create ~runtime:rt ~max_faults_per_unit:512 ()
      in
      ( Harness.System.vm sys
          ~on_progress:(fun () -> Autarky.Policy_rate_limit.progress rl)
          (),
        (fun () ->
          install (Autarky.Policy_rate_limit.policy rl);
          manage_heap ()),
        None )
    | Clusters ->
      ( Harness.System.vm sys (),
        (fun () ->
          let pc =
            Autarky.Policy_clusters.create ~runtime:rt
              ~clusters:(Autarky.Allocator.clusters heap)
          in
          install (Autarky.Policy_clusters.policy pc);
          manage_heap ()),
        None )
    | Oram ->
      let cache_pages = epc_limit * 2 / 3 in
      let cache_base = Harness.System.reserve sys ~pages:cache_pages in
      let oram =
        Oram.Path_oram.create ~clock:(Harness.System.clock sys)
          ~rng:(Metrics.Rng.create ~seed:9L) ~n_blocks:heap_pages ()
      in
      let cache =
        Autarky.Oram_cache.create ~machine:(Harness.System.machine sys)
          ~enclave:(Harness.System.enclave sys) ~touch:cpu_access ~oram
          ~data_base_vpage:(Autarky.Allocator.base_vpage heap)
          ~n_pages:heap_pages ~cache_base_vpage:cache_base
          ~capacity_pages:cache_pages ()
      in
      Harness.System.pin sys (List.init cache_pages (fun i -> cache_base + i));
      let pol = Autarky.Policy_oram.create ~runtime:rt ~cache in
      let accessor = Autarky.Policy_oram.accessor pol ~fallback:cpu_access in
      ( Harness.System.vm sys
          ~instrument:(wrap Layers.wrap_instrument accessor)
          (),
        (fun () -> install (Autarky.Policy_oram.policy pol)),
        Some cache )
  in
  let vm = wrap Layers.wrap_vm vm in
  let op =
    match workload with
    | Uthash_lookup ->
      let t =
        Workloads.Uthash.create ~vm ~alloc ~rng ~n_items:(heap_pages * 12)
          ~item_bytes:256 ~target_chain:10
      in
      let n = Workloads.Uthash.n_items t in
      (* One lookup is one unit of progress, as in the perf cell. *)
      fun i ->
        ignore (Workloads.Uthash.find t ~key:(i * 7919 mod n));
        vm.Workloads.Vm.progress ()
    | Kv_ycsb_a ->
      let n_entries = heap_pages * 3 in
      let kv =
        Workloads.Kvstore.create ~vm ~alloc ~rng ~n_entries ~value_bytes:1_024
          ()
      in
      let gen =
        Workloads.Ycsb.workload_a ~dist:(Metrics.Dist.uniform ~n:n_entries) ~rng
      in
      fun _ ->
        (match Workloads.Ycsb.next gen with
        | Workloads.Ycsb.Get k -> ignore (Workloads.Kvstore.get kv ~key:k)
        | Workloads.Ycsb.Put k -> Workloads.Kvstore.set kv ~key:k
        | _ -> invalid_arg "YCSB-A yields only gets and updates")
  in
  finish ();
  { sys; op; cache }
