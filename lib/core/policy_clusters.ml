type t = {
  runtime : Runtime.t;
  cl : Clusters.t;
  mutable min_budget : int;
  mutable fetches : int;
  mutable balloon_calls : int;
  in_fetch : Sgx.Flat.t;  (* scratch: pages of the current fetch set *)
  c_degraded : Metrics.Counters.cell;
}

let create ~runtime ~clusters =
  {
    runtime;
    cl = clusters;
    min_budget = 32;
    fetches = 0;
    balloon_calls = 0;
    in_fetch = Sgx.Flat.create ~size:256 ();
    c_degraded =
      Metrics.Counters.cell
        (Sgx.Machine.counters (Runtime.machine runtime))
        "rt.policy_degraded";
  }

let set_min_budget t n =
  assert (n > 0);
  t.min_budget <- n
let clusters t = t.cl
let cluster_fetches t = t.fetches

let emit t k =
  match Sgx.Machine.tracer (Runtime.machine t.runtime) with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr
      ~enclave:(Runtime.enclave t.runtime).Sgx.Enclave.id
      ~actor:(Trace.Event.Policy "page-clusters") (k ())

(* A victim cluster must not overlap the incoming fetch set: evicting
   pages we are about to fetch would both waste work and break the
   residence invariant for partially-evicted clusters. *)
let rec overlaps in_fetch = function
  | [] -> false
  | vp :: rest -> Sgx.Flat.mem in_fetch vp || overlaps in_fetch rest

let choose_victims t ~fetching () =
  let pager = Runtime.pager t.runtime in
  Sgx.Flat.clear t.in_fetch;
  List.iter (fun vp -> Sgx.Flat.set t.in_fetch vp 1) fetching;
  match
    Pager.find_oldest pager 64 (fun vp ->
        not (overlaps t.in_fetch (Clusters.evict_set t.cl vp)))
  with
  | -1 -> []
  | vp -> List.filter (Pager.resident pager) (Clusters.evict_set t.cl vp)

let on_miss t vp _sf =
  let pager = Runtime.pager t.runtime in
  let fetch_set = Clusters.fetch_set t.cl vp in
  let need = List.filter (fun p -> not (Pager.resident pager p)) fetch_set in
  if List.length need > Pager.budget pager then
    Sgx.Types.sgx_errorf
      "cluster fetch set of %d pages exceeds the runtime budget of %d"
      (List.length need) (Pager.budget pager);
  (* Inlined emit: the thunk form would capture [need] and allocate a
     closure per miss even with tracing off. *)
  (match Sgx.Machine.tracer (Runtime.machine t.runtime) with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr
      ~enclave:(Runtime.enclave t.runtime).Sgx.Enclave.id
      ~actor:(Trace.Event.Policy "page-clusters")
      (Trace.Event.Decision
         { policy = "page-clusters"; action = "cluster-fetch"; vpages = need }));
  Pager.make_room pager ~incoming:(List.length need)
    ~victims:(choose_victims t ~fetching:need);
  Pager.fetch pager need;
  t.fetches <- t.fetches + 1

(* Ballooning: release whole clusters only — single-cluster eviction
   preserves the residence invariant.  Sustained pressure (a second and
   further upcalls) also shrinks the pager budget toward [min_budget]
   (which must stay above the largest cluster fetch set): degraded
   cluster churn instead of a starvation termination. *)
let balloon t n =
  t.balloon_calls <- t.balloon_calls + 1;
  let pager = Runtime.pager t.runtime in
  let released = ref 0 in
  let stuck = ref false in
  while !released < n && not !stuck do
    match choose_victims t ~fetching:[] () with
    | [] -> stuck := true
    | vs ->
      Pager.evict pager vs;
      released := !released + List.length vs
  done;
  if t.balloon_calls >= 2 then begin
    let shrunk = max t.min_budget (Pager.budget pager - n) in
    if shrunk < Pager.budget pager then begin
      Pager.set_budget pager shrunk;
      Metrics.Counters.cell_incr t.c_degraded;
      emit t (fun () ->
          Trace.Event.Decision
            { policy = "page-clusters"; action = "degrade-shrink-budget";
              vpages = [] })
    end
  end;
  !released

let policy t =
  { Runtime.pol_name = "page-clusters";
    pol_on_miss = (fun vp sf -> on_miss t vp sf);
    pol_balloon = (fun n -> balloon t n) }
