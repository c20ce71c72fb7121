(* Shared plumbing for the reproduction experiments. *)

let page = Sgx.Types.page_bytes

(* The three applications schemes used across experiments. *)
type scheme = Baseline | Rate_limit | Clusters of int | Oram_cached

let scheme_name = function
  | Baseline -> "baseline"
  | Rate_limit -> "rate-limit"
  | Clusters n -> Printf.sprintf "%d-page clusters" n
  | Oram_cached -> "ORAM"

(* Build a system + heap for a scheme.  [vm] is the workload-facing
   memory interface (routed through the ORAM cache under [Oram_cached]);
   [finish ()] must be called after the workload data structures are
   built, to install the policy and mark the heap managed. *)
type built = {
  sys : Harness.System.t;
  heap : Autarky.Allocator.t;
  vm : Workloads.Vm.t;
  finish : unit -> unit;
}

let build ~scheme ~epc_frames ~epc_limit ~enclave_pages ~heap_pages
    ?(budget = 0) ?(oram_cache_pages = 0) ?(rate_limit = max_int) () =
  let spec : Harness.Policy.spec option =
    match scheme with
    | Baseline -> None
    | Rate_limit -> Some (Rate_limit { max_faults_per_unit = rate_limit })
    | Clusters _ -> Some Clusters
    | Oram_cached ->
      Some (Oram { cache_pages = oram_cache_pages; tree_seed = 1234 })
  in
  let budget = if budget = 0 then max 1 (epc_limit - 64) else budget in
  let sys =
    Harness.System.create ~epc_frames ~epc_limit ~enclave_pages
      ~self_paging:(spec <> None) ~budget ()
  in
  let cluster_pages = match scheme with Clusters n -> n | _ -> 16 in
  let heap = Harness.System.allocator sys ~pages:heap_pages ~cluster_pages in
  let slot = Harness.Policy.create sys ~heap in
  Option.iter (Harness.Policy.prepare slot) spec;
  let finish () = if spec <> None then Harness.Policy.install slot in
  { sys; heap; vm = Harness.Policy.vm slot; finish }

let throughput_of_cycles ~ops cycles =
  let m = Metrics.Cost_model.default in
  float_of_int ops /. Metrics.Cost_model.seconds m cycles
