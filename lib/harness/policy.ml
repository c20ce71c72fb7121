(* One policy-install path for a self-paging enclave's heap.

   Every heap cell (perf matrix, long-run snapshots, the CLI, the paper
   experiments, serving tenants) boots its policy here in two steps —
   [prepare] before the workload is built, [install] after — and a live
   switch is a teardown followed by the same two steps.  The slot's VM
   dispatches through two mutable fields, so the workload built once
   keeps working whichever policy is installed.  The dispatch costs
   nothing in the model (no charge, no trace). *)

type spec =
  | Rate_limit of { max_faults_per_unit : int }
  | Clusters
  | Oram of { cache_pages : int; tree_seed : int }
  | Preload

(* Declared after [spec] so that an unannotated constructor means the
   kind. *)
type kind = Rate_limit | Clusters | Oram | Preload

let all = [ Rate_limit; Clusters; Oram; Preload ]

let name = function
  | Rate_limit -> "rate-limit"
  | Clusters -> "clusters"
  | Oram -> "oram"
  | Preload -> "preload"

let of_name s = List.find_opt (fun k -> name k = s) all

let spec ~oram_cache_pages ~oram_tree_seed : kind -> spec = function
  | Rate_limit -> Rate_limit { max_faults_per_unit = 512 }
  | Clusters -> Clusters
  | Oram -> Oram { cache_pages = oram_cache_pages; tree_seed = oram_tree_seed }
  | Preload -> Preload

type oram_parts = {
  tree : Oram.Path_oram.t;
  cache : Autarky.Oram_cache.t;
  pol : Autarky.Policy_oram.t;
  cache_pages : Sgx.Types.vpage list;
}

type t = {
  sys : System.t;
  heap : Autarky.Allocator.t;
  boot_budget : int;
  mutable vm : Workloads.Vm.t;
  (* What the VM dispatches through: the ORAM accessor, and the rate
     limiter that counts progress events. *)
  mutable accessor : (Sgx.Types.vaddr -> Sgx.Types.access_kind -> unit) option;
  mutable limiter : Autarky.Policy_rate_limit.t option;
  mutable managed : bool;  (* heap pages marked enclave-managed yet? *)
  (* The ORAM machinery survives a de-escalation so a later
     re-escalation reuses the same (deterministically seeded) tree and
     cache. *)
  mutable oram : oram_parts option;
  mutable spec : spec option;  (* prepared, or installed once [installed] *)
  mutable installed : bool;
}

let create sys ~heap =
  let boot_budget =
    match System.runtime sys with
    | Some rt -> Autarky.Pager.budget (Autarky.Runtime.pager rt)
    | None -> 0
  in
  let t =
    {
      sys;
      heap;
      boot_budget;
      vm = Workloads.Vm.null;  (* replaced below *)
      accessor = None;
      limiter = None;
      managed = false;
      oram = None;
      spec = None;
      installed = false;
    }
  in
  t.vm <-
    System.vm sys
      ~instrument:(fun a k ->
        match t.accessor with
        | Some f -> f a k
        | None -> Sgx.Cpu.access (System.cpu t.sys) a k)
      ~on_progress:(fun () ->
        match t.limiter with
        | Some rl -> Autarky.Policy_rate_limit.progress rl
        | None -> ())
      ();
  t

let vm t = t.vm

let manage_heap t =
  if not t.managed then begin
    System.manage t.sys (Autarky.Allocator.allocated_pages t.heap);
    t.managed <- true
  end

(* Build the PathORAM tree, the pinned cache and the policy object. *)
let build_oram t ~cache_pages ~tree_seed =
  let sys = t.sys in
  let n_pages = Autarky.Allocator.pages t.heap in
  let cache_base = System.reserve sys ~pages:cache_pages in
  let tree =
    Oram.Path_oram.create ~clock:(System.clock sys)
      ~rng:(Metrics.Rng.create ~seed:(Int64.of_int tree_seed))
      ~n_blocks:n_pages ()
  in
  let cache =
    Autarky.Oram_cache.create ~machine:(System.machine sys)
      ~enclave:(System.enclave sys)
      ~touch:(fun a k -> Sgx.Cpu.access (System.cpu sys) a k)
      ~oram:tree
      ~data_base_vpage:(Autarky.Allocator.base_vpage t.heap)
      ~n_pages ~cache_base_vpage:cache_base ~capacity_pages:cache_pages ()
  in
  let cache_pages = List.init cache_pages (fun i -> cache_base + i) in
  System.pin sys cache_pages;
  let pol =
    Autarky.Policy_oram.create ~runtime:(System.runtime_exn sys) ~cache
  in
  { tree; cache; pol; cache_pages }

let prepare t (spec : spec) =
  let rt = System.runtime_exn t.sys in
  (match spec with
  | Rate_limit { max_faults_per_unit } ->
    t.limiter <-
      Some (Autarky.Policy_rate_limit.create ~runtime:rt ~max_faults_per_unit ())
  | Clusters | Preload -> ()
  | Oram { cache_pages; tree_seed } ->
    let parts =
      match t.oram with
      | Some p ->
        System.refetch t.sys p.cache_pages;
        p
      | None ->
        let p = build_oram t ~cache_pages ~tree_seed in
        t.oram <- Some p;
        p
    in
    t.accessor <-
      Some
        (Autarky.Policy_oram.accessor parts.pol ~fallback:(fun a k ->
             Sgx.Cpu.access (System.cpu t.sys) a k)));
  t.spec <- Some spec;
  t.installed <- false

let install t =
  let rt = System.runtime_exn t.sys in
  (match t.spec with
  | None -> invalid_arg "Harness.Policy.install: nothing prepared"
  | Some _ when t.installed ->
    invalid_arg "Harness.Policy.install: already installed"
  | Some (Rate_limit _) ->
    Autarky.Runtime.set_policy rt
      (Autarky.Policy_rate_limit.policy (Option.get t.limiter));
    manage_heap t
  | Some Clusters ->
    Autarky.Runtime.set_policy rt
      (Autarky.Policy_clusters.policy
         (Autarky.Policy_clusters.create ~runtime:rt
            ~clusters:(Autarky.Allocator.clusters t.heap)));
    manage_heap t
  | Some Preload ->
    let pp =
      Autarky.Policy_preload.create ~runtime:rt
        ~pages:(Autarky.Allocator.allocated_pages t.heap) ()
    in
    Autarky.Runtime.set_policy rt (Autarky.Policy_preload.policy pp);
    manage_heap t;
    Autarky.Policy_preload.preload pp
  | Some (Oram _) ->
    Autarky.Runtime.set_policy rt
      (Autarky.Policy_oram.policy (Option.get t.oram).pol));
  t.installed <- true

(* Tear the installed policy down to a neutral demand-paged state. *)
let teardown t pager : spec -> unit = function
  | Oram _ -> (
    match t.oram with
    | Some p ->
      ignore (Autarky.Oram_cache.flush p.cache);
      t.accessor <- None;
      Autarky.Pager.evict pager
        (List.filter (Autarky.Pager.resident pager) p.cache_pages)
    | None -> ())
  | Rate_limit _ -> t.limiter <- None
  | Clusters | Preload -> ()

(* Prepare + install on a live heap.  Onto ORAM this is the sealed
   state handoff: every resident heap page leaves the EPC through the
   pager's seal-and-evict path, then the working set is charged into the
   oblivious store, block by block.  The previous policy may have
   ballooned the pager budget down toward its floor; the escalation
   rebuilds the memory plan, so the boot budget comes back first —
   pinning the cache into a 16-page budget would evict the cache's own
   pages.  Later pressure reaches the ORAM policy's own balloon handler,
   which shrinks the cache. *)
let reinstall t pager (spec : spec) =
  match spec with
  | Oram _ ->
    if Autarky.Pager.budget pager < t.boot_budget then
      Autarky.Pager.set_budget pager t.boot_budget;
    let resident_heap =
      List.filter
        (Autarky.Pager.resident pager)
        (Autarky.Allocator.allocated_pages t.heap)
    in
    Autarky.Pager.evict pager resident_heap;
    prepare t spec;
    let parts = Option.get t.oram in
    let base = Autarky.Allocator.base_vpage t.heap in
    List.iter
      (fun vp ->
        Oram.Path_oram.access parts.tree ~block:(vp - base) (fun _ -> ()))
      resident_heap;
    install t
  | Rate_limit _ | Clusters | Preload ->
    prepare t spec;
    install t

let switch t spec =
  let from_ =
    match t.spec with
    | Some s when t.installed -> s
    | _ -> invalid_arg "Harness.Policy.switch: no policy installed"
  in
  let pager = Autarky.Runtime.pager (System.runtime_exn t.sys) in
  teardown t pager from_;
  match reinstall t pager spec with
  | () -> ()
  | exception Invalid_argument msg ->
    (* A refused escalation (preload set over budget) must leave the
       enclave under a working policy: reinstall the previous one.  The
       rollback cannot itself raise Invalid_argument — rate limiting and
       clusters never do, and an ORAM rollback reuses the surviving
       parts. *)
    reinstall t pager from_;
    raise (Invalid_argument msg)
