(* The virtual-time discrete-event serving loop.

   Time is a pure event timeline measured in cycles: arrivals, client
   think times and arbiter ticks live on the {!Event_queue}; service
   durations are measured by running each request to completion on the
   shared machine clock ({!Metrics.Clock.start_span}) and re-projected
   onto the timeline as [completion = max arrival busy_until + cycles].
   Nothing reads wall-clock time, so a (scenario, seed) pair determines
   every number in the result bit-for-bit.

   Admission control per tenant: requests are shed when the bounded
   queue is full (or the tenant was refused restart by the attestation
   monitor), dropped when their queueing delay would exceed the
   deadline, and otherwise executed synchronously.  An
   [Enclave_terminated] escaping a request goes through the restart
   monitor: [Allow] reboots the tenant (the reboot's cycles land in the
   same measurement span, so restart cost shows up as server busy
   time); [Refuse] pins the tenant to [Refused] and every later request
   sheds — the termination channel is closed by admission control.

   Tenant churn rides the same timeline: a config with
   [arrive_after > 0] parks the tenant until a Join event, whose
   handler builds the enclave inside a clock span (cold-start
   attestation cost, charged as busy time through [free_at]) after the
   restart monitor admits the identity; [depart_after] schedules a
   Leave event that destroys the guest process, after which the
   tenant's remaining generated arrivals are dropped uncounted.

   The EPC arbiter is the hypervisor-level half of §5.2.1/§5.4: each
   tick it compares per-tenant fault pressure (faults handled since the
   previous tick) and, when the gap is large enough, moves a batch of
   frames from the calmest VM to the most pressured one via
   [Vmm.rebalance] — which internally evicts the donor's OS-managed
   pages and issues cooperative balloon upcalls — then raises the
   beneficiary's OS allowance and pager budget.

   Events are bit-packed ints on an int-payload heap (tag in the low 3
   bits, tenant index and client id above), and the per-event outcome
   is an int code until a defense hook actually needs the [verdict]
   variant — together with the tenants' reusable request thunks and
   ring queues this keeps the served-request path free of per-event
   allocation (measured by the allocation tests in
   test/test_serve.ml). *)

module Vmm = Hypervisor.Vmm
module System = Harness.System

type attack = { atk_victim : string; atk_every : int }

type arbiter = {
  arb_period : float;  (* ticks every [period] x (max tenant mean service) *)
  arb_step : int;  (* frames moved per rebalance *)
  arb_min_partition : int;  (* never shrink a VM below this *)
  arb_threshold : int;  (* min fault-pressure gap before acting *)
}

let default_arbiter =
  { arb_period = 40.0; arb_step = 32; arb_min_partition = 96; arb_threshold = 16 }

type verdict = Served of int | Shed | Deadline_missed

(* The defense-orchestration seam: an optional observer/controller that
   the engine calls at well-defined points of the event loop.  [None]
   leaves the loop bit-for-bit identical to the hook-free engine — the
   defense tick is never scheduled and no closure runs. *)
type hook_ctx = {
  cx_tenants : Tenant.t array;
  cx_machine : Sgx.Machine.t;
  cx_hv : Vmm.t;
  cx_monitor : Autarky.Restart_monitor.t;
  cx_emit : tenant:string -> action:string -> detail:int -> unit;
}

type hooks = {
  h_period : float;  (* defense tick every [h_period] x (max mean service) *)
  h_on_start : hook_ctx -> unit;
  h_on_tick : hook_ctx -> at:int -> unit;
  h_before_request : hook_ctx -> at:int -> tenant:int -> key:int -> unit;
  h_after_request : hook_ctx -> at:int -> tenant:int -> verdict:verdict -> unit;
}

type params = {
  p_seed : int;
  p_spare_frames : int;
  p_calibration : int;
  p_max_restarts : int;
  p_arbiter : arbiter option;
  p_attack : attack option;
  p_trace : bool;
  p_sketch : bool;
  p_hooks : hooks option;
}

let default_params ~seed =
  {
    p_seed = seed;
    p_spare_frames = 128;
    p_calibration = 16;
    p_max_restarts = 3;
    p_arbiter = Some default_arbiter;
    p_attack = None;
    p_trace = true;
    p_sketch = false;
    p_hooks = None;
  }

(* Events are ints: tag in bits 0-2, tenant index in bits 3-23 (up to
   2M tenants), client id in bits 24+ for Client events. *)
let tag_arrival = 0
and tag_client = 1
and tag_arbiter = 2
and tag_defense = 3
and tag_join = 4
and tag_leave = 5

let ev_arrival i = i lsl 3
let ev_client ~i ~c = (c lsl 24) lor (i lsl 3) lor tag_client
let ev_join i = (i lsl 3) lor tag_join
let ev_leave i = (i lsl 3) lor tag_leave
let ev_tag e = e land 7
let ev_tenant e = (e asr 3) land 0x1f_ffff
let ev_client_id e = e asr 24

(* Request outcomes stay int-coded on the hot path; the [verdict]
   variant is materialised only when a defense hook is attached. *)
let out_shed = -1
and out_missed = -2

let verdict_of_outcome o =
  if o >= 0 then Served o else if o = out_shed then Shed else Deadline_missed

type result = {
  r_tenants : Tenant.t array;
  r_machine : Sgx.Machine.t;
  r_monitor : Autarky.Restart_monitor.t;
  r_end_cycle : int;  (* virtual end of serving (last completion/event) *)
  r_arbiter_moves : int;
  r_digest : string option;
}

type state = {
  st_params : params;
  st_machine : Sgx.Machine.t;
  st_hv : Vmm.t;
  st_monitor : Autarky.Restart_monitor.t;
  st_tenants : Tenant.t array;
  st_ctx : hook_ctx;
  st_digest : (Trace.Recorder.t * (unit -> string)) option;
  st_q : Event_queue.t;
  (* Pending Arrival/Client/Join/Leave events.  The periodic ticks
     (arbiter, defense) reschedule themselves only while work remains;
     testing queue emptiness instead would let two periodic events keep
     each other alive forever. *)
  mutable st_work : int;
  st_scheduled : int array;  (* arrivals generated so far, per tenant *)
  st_interarrival : float array;  (* open-loop mean interarrival, cycles *)
  st_think : float array;  (* closed-loop mean think time, cycles *)
  st_deadline : int option array;  (* resolved deadline, cycles *)
  st_period : int array;  (* resolved diurnal period, cycles *)
  st_pressure : int array;  (* arbiter scratch, reused across ticks *)
  mutable st_end : int;
  mutable st_moves : int;
}

let emit_on machine ~tenant ~action ~detail =
  match Sgx.Machine.tracer machine with
  | None -> ()
  | Some r ->
    Trace.Recorder.emit r ~actor:Trace.Event.Harness
      (Trace.Event.Serve { tenant; action; detail })

let emit st ~tenant ~action ~detail = emit_on st.st_machine ~tenant ~action ~detail

(* Inter-arrival gap for tenant [i]'s generator at cycle [at].  The
   open-loop exponential is exactly the sampler this engine has always
   used (now shared via {!Workloads.Loadgen}), so pre-existing
   scenarios replay bit-identical rng streams. *)
let gen_gap st i tn ~at =
  match (Tenant.config tn).Tenant.generator with
  | Tenant.Open_loop _ ->
    Workloads.Loadgen.exp_gap (Tenant.gen_rng tn) ~mean:st.st_interarrival.(i)
  | Tenant.Heavy_tail { alpha; _ } ->
    Workloads.Loadgen.pareto_gap (Tenant.gen_rng tn)
      ~mean:st.st_interarrival.(i) ~alpha
  | Tenant.Diurnal { depth; _ } ->
    Workloads.Loadgen.diurnal_gap (Tenant.gen_rng tn)
      ~mean:st.st_interarrival.(i) ~depth ~period:st.st_period.(i) ~at
  | Tenant.Closed_loop _ -> invalid_arg "Serve.Engine.gen_gap: closed loop"

(* Calibrate one tenant: measure its mean service time over uniform
   draws, then resolve the quantities derived from it (deadline cycles,
   diurnal period).  Runs at fleet start for present tenants and at the
   Join event for churn arrivals. *)
let calibrate_one st i tn =
  let clock = st.st_machine.Sgx.Machine.clock in
  let n = max 1 st.st_params.p_calibration in
  let span = Metrics.Clock.start_span clock in
  for _ = 1 to n do
    Tenant.request tn ~key:(Tenant.calib_key tn)
  done;
  let total = Metrics.Clock.span_cycles clock span in
  let mean = max 1.0 (float_of_int total /. float_of_int n) in
  Tenant.set_svc_mean tn mean;
  (* Start the arbiter's pressure bookmark after calibration so the
     warmup faults don't count as serving pressure. *)
  Tenant.set_faults_last_seen tn (Tenant.faults tn);
  let cfg = Tenant.config tn in
  st.st_deadline.(i) <-
    Option.map (fun d -> max 1 (int_of_float (d *. mean))) cfg.Tenant.deadline;
  (match cfg.Tenant.generator with
  | Tenant.Diurnal { period; _ } ->
    st.st_period.(i) <- max 1 (int_of_float (period *. mean))
  | _ -> ());
  emit st ~tenant:(Tenant.name tn) ~action:"calibrate"
    ~detail:(int_of_float mean)

let calibrate st =
  Array.iteri
    (fun i tn ->
      if Tenant.state tn <> Tenant.Parked then calibrate_one st i tn)
    st.st_tenants

(* Schedule tenant [i]'s first arrival(s) from virtual cycle [origin]
   (0 at fleet start, the join cycle for churn arrivals). *)
let schedule_tenant st i tn ~origin =
  let cfg = Tenant.config tn in
  if cfg.Tenant.requests > 0 then
    match cfg.Tenant.generator with
    | Tenant.Open_loop { load } | Tenant.Heavy_tail { load; _ }
    | Tenant.Diurnal { load; _ } ->
      st.st_interarrival.(i) <- Tenant.svc_mean tn /. load;
      st.st_scheduled.(i) <- 1;
      st.st_work <- st.st_work + 1;
      Event_queue.push st.st_q
        ~at:(origin + gen_gap st i tn ~at:origin)
        (ev_arrival i)
    | Tenant.Closed_loop { clients; think } ->
      let mean = think *. Tenant.svc_mean tn in
      st.st_think.(i) <- mean;
      let n = min clients cfg.Tenant.requests in
      for c = 0 to n - 1 do
        st.st_scheduled.(i) <- st.st_scheduled.(i) + 1;
        st.st_work <- st.st_work + 1;
        Event_queue.push st.st_q
          ~at:(origin + Workloads.Loadgen.exp_gap (Tenant.gen_rng tn) ~mean)
          (ev_client ~i ~c)
      done

let tick_base st =
  Array.fold_left (fun m tn -> max m (Tenant.svc_mean tn)) 1.0 st.st_tenants

let schedule_initial st =
  Array.iteri
    (fun i tn ->
      let cfg = Tenant.config tn in
      if Tenant.state tn = Tenant.Parked then begin
        st.st_work <- st.st_work + 1;
        Event_queue.push st.st_q ~at:cfg.Tenant.arrive_after (ev_join i)
      end
      else schedule_tenant st i tn ~origin:0;
      match cfg.Tenant.depart_after with
      | Some d ->
        (* A join at the same cycle pops first (lower time wins; the
           clamp keeps a misconfigured leave from preceding its join). *)
        st.st_work <- st.st_work + 1;
        Event_queue.push st.st_q
          ~at:(max d (cfg.Tenant.arrive_after + 1))
          (ev_leave i)
      | None -> ())
    st.st_tenants;
  (match st.st_params.p_arbiter with
  | None -> ()
  | Some arb ->
    let period = max 1 (int_of_float (arb.arb_period *. tick_base st)) in
    Event_queue.push st.st_q ~at:period tag_arbiter);
  match st.st_params.p_hooks with
  | None -> ()
  | Some h ->
    let period = max 1 (int_of_float (h.h_period *. tick_base st)) in
    Event_queue.push st.st_q ~at:period tag_defense

(* The hypervisor-attack injection (churn scenarios): before the
   victim's request runs, evict a resident ground-truth page of the key
   it is about to touch.  Residency is read through the guest kernel —
   the demand-paging side channel the OS/hypervisor always has. *)
let maybe_attack st tn ~key =
  match st.st_params.p_attack with
  | Some { atk_victim; atk_every }
    when String.equal atk_victim (Tenant.name tn)
         && Tenant.arrivals tn mod atk_every = 0 -> (
    let guest = Vmm.guest_os (Tenant.vm tn) in
    let proc = Tenant.proc tn in
    match
      List.find_opt
        (fun p -> Sim_os.Kernel.resident guest proc p)
        (Tenant.probe_pages tn ~key)
    with
    | Some page ->
      Vmm.hypervisor_evict st.st_hv (Tenant.vm tn) proc page;
      emit st ~tenant:(Tenant.name tn) ~action:"hv-evict" ~detail:page
    | None -> ())
  | _ -> ()

let post_hook st ~at ~i outcome =
  match st.st_params.p_hooks with
  | Some h ->
    h.h_after_request st.st_ctx ~at ~tenant:i
      ~verdict:(verdict_of_outcome outcome)
  | None -> ()

let execute st i tn ~at ~start =
  let key = Tenant.next_key tn in
  (match st.st_params.p_hooks with
  | Some h -> h.h_before_request st.st_ctx ~at ~tenant:i ~key
  | None -> ());
  maybe_attack st tn ~key;
  let clock = st.st_machine.Sgx.Machine.clock in
  let span = Metrics.Clock.start_span clock in
  try
    Tenant.request tn ~key;
    let s = max 1 (Metrics.Clock.span_cycles clock span) in
    let fin = start + s in
    Tenant.set_free_at tn fin;
    Ring.push (Tenant.queue tn) fin;
    Tenant.record_latency tn ~cycles:(fin - at);
    Tenant.incr_served tn;
    st.st_end <- max st.st_end fin;
    post_hook st ~at ~i fin;
    fin
  with Sgx.Types.Enclave_terminated { reason; _ } ->
    Tenant.incr_terminations tn;
    let identity = Tenant.name tn in
    Autarky.Restart_monitor.record_termination st.st_monitor ~identity ~reason;
    emit st ~tenant:identity ~action:"terminated" ~detail:(Tenant.terminations tn);
    (match Autarky.Restart_monitor.record_start st.st_monitor ~identity with
    | Autarky.Restart_monitor.Allow ->
      Tenant.reboot tn;
      (* The reboot ran inside this span: restart cost is busy time. *)
      let s = max 1 (Metrics.Clock.span_cycles clock span) in
      Tenant.set_free_at tn (start + s);
      Ring.clear (Tenant.queue tn);
      emit st ~tenant:identity ~action:"restart" ~detail:(Tenant.restarts tn)
    | Autarky.Restart_monitor.Refuse ->
      Tenant.set_refused tn;
      emit st ~tenant:identity ~action:"refused" ~detail:(Tenant.terminations tn));
    Tenant.incr_shed tn;
    post_hook st ~at ~i out_shed;
    out_shed

let admit st i ~at =
  let tn = st.st_tenants.(i) in
  Tenant.incr_arrivals tn;
  let q = Tenant.queue tn in
  (* Retire requests that completed before this arrival. *)
  while (not (Ring.is_empty q)) && Ring.peek q <= at do
    ignore (Ring.pop q)
  done;
  let cfg = Tenant.config tn in
  if Tenant.state tn = Tenant.Refused then begin
    Tenant.incr_shed tn;
    emit st ~tenant:(Tenant.name tn) ~action:"shed-refused" ~detail:(Tenant.shed tn);
    out_shed
  end
  else if Ring.length q >= cfg.Tenant.queue_capacity then begin
    Tenant.incr_shed tn;
    emit st ~tenant:(Tenant.name tn) ~action:"shed" ~detail:(Tenant.shed tn);
    out_shed
  end
  else begin
    let start = max at (Tenant.free_at tn) in
    match st.st_deadline.(i) with
    | Some d when start - at > d ->
      Tenant.incr_missed tn;
      emit st ~tenant:(Tenant.name tn) ~action:"deadline-missed"
        ~detail:(Tenant.missed tn);
      out_missed
    | _ -> execute st i tn ~at ~start
  end

(* A tenant VM never donates below its floor: refused and departed
   tenants (whose frames are pure waste) can be drained to the global
   minimum, while active — and parked, whose partition the join will
   need — tenants keep at least their configured allowance; pressure
   elsewhere must not starve a well-behaved neighbour. *)
let donor_floor arb tn =
  match Tenant.state tn with
  | Tenant.Refused | Tenant.Departed -> arb.arb_min_partition
  | Tenant.Active | Tenant.Parked ->
    max arb.arb_min_partition (Tenant.config tn).Tenant.epc_limit

let arbiter_tick st ~at arb =
  let n = Array.length st.st_tenants in
  let pressure = st.st_pressure in
  Array.iteri
    (fun i tn ->
      let f = Tenant.faults tn in
      pressure.(i) <- f - Tenant.faults_last_seen tn;
      Tenant.set_faults_last_seen tn f)
    st.st_tenants;
  let needy = ref (-1) in
  for i = 0 to n - 1 do
    if Tenant.state st.st_tenants.(i) = Tenant.Active then
      if !needy < 0 || pressure.(i) > pressure.(!needy) then needy := i
  done;
  if !needy >= 0 && pressure.(!needy) >= arb.arb_threshold then begin
    let ntn = st.st_tenants.(!needy) in
    let moved =
      (* Unassigned EPC first — growing from the free pool costs nobody
         anything.  Only then squeeze the calmest eligible donor VM. *)
      let free = Vmm.free_frames st.st_hv in
      if free > 0 then
        Vmm.grow_vm st.st_hv (Tenant.vm ntn) ~frames:(min arb.arb_step free)
      else begin
        let donor = ref (-1) in
        for i = 0 to n - 1 do
          if i <> !needy && pressure.(i) * 4 <= pressure.(!needy) then begin
            let tn = st.st_tenants.(i) in
            let headroom =
              Vmm.partition_frames (Tenant.vm tn) - donor_floor arb tn
            in
            if headroom > 0 && (!donor < 0 || pressure.(i) < pressure.(!donor))
            then donor := i
          end
        done;
        if !donor < 0 then 0
        else begin
          let dtn = st.st_tenants.(!donor) in
          let headroom =
            Vmm.partition_frames (Tenant.vm dtn) - donor_floor arb dtn
          in
          Vmm.rebalance st.st_hv ~from_vm:(Tenant.vm dtn) ~to_vm:(Tenant.vm ntn)
            ~frames:(min arb.arb_step headroom)
        end
      end
    in
    if moved > 0 then begin
      Tenant.add_balloon_in ntn moved;
      st.st_moves <- st.st_moves + 1;
      (* Grow the beneficiary's OS allowance and its pager budget by the
         frames that actually arrived. *)
      let proc = Tenant.proc ntn in
      Sim_os.Kernel.set_epc_limit proc (Sim_os.Kernel.epc_limit proc + moved);
      (match System.runtime (Tenant.sys ntn) with
      | Some rt ->
        let pager = Autarky.Runtime.pager rt in
        Autarky.Pager.set_budget pager (Autarky.Pager.budget pager + moved)
      | None -> ());
      emit st ~tenant:(Tenant.name ntn) ~action:"arbiter-move" ~detail:moved
    end
  end;
  st.st_end <- max st.st_end at

(* [client] is the closed-loop client id, or -1 for open-loop arrivals
   (int sentinel instead of an option — no per-event allocation). *)
let reschedule_generator st i ~at ~outcome ~client =
  let tn = st.st_tenants.(i) in
  let cfg = Tenant.config tn in
  if st.st_scheduled.(i) < cfg.Tenant.requests then
    match cfg.Tenant.generator with
    | Tenant.Open_loop _ | Tenant.Heavy_tail _ | Tenant.Diurnal _ ->
      st.st_scheduled.(i) <- st.st_scheduled.(i) + 1;
      st.st_work <- st.st_work + 1;
      Event_queue.push st.st_q ~at:(at + gen_gap st i tn ~at) (ev_arrival i)
    | Tenant.Closed_loop _ ->
      if client >= 0 then begin
        let origin = if outcome >= 0 then outcome else at in
        st.st_scheduled.(i) <- st.st_scheduled.(i) + 1;
        st.st_work <- st.st_work + 1;
        Event_queue.push st.st_q
          ~at:
            (origin
            + Workloads.Loadgen.exp_gap (Tenant.gen_rng tn)
                ~mean:st.st_think.(i))
          (ev_client ~i ~c:client)
      end

let start ?params (cfgs : Tenant.config list) =
  if cfgs = [] then invalid_arg "Serve.Engine.run: no tenants";
  let params =
    match params with Some p -> p | None -> default_params ~seed:42
  in
  let total_partition =
    List.fold_left (fun a c -> a + c.Tenant.partition_frames) 0 cfgs
  in
  let machine =
    Sgx.Machine.create ~epc_frames:(total_partition + params.p_spare_frames) ()
  in
  let digest_of =
    if params.p_trace then begin
      let recorder =
        Trace.Recorder.create ~clock:machine.Sgx.Machine.clock ()
      in
      let sink, digest_of = Trace.Sink.digest () in
      Trace.Recorder.add_sink recorder sink;
      Sgx.Machine.set_tracer machine (Some recorder);
      Some (recorder, digest_of)
    end
    else None
  in
  let hv = Vmm.create machine in
  let monitor =
    Autarky.Restart_monitor.create ~clock:machine.Sgx.Machine.clock
      ~max_restarts:params.p_max_restarts ()
  in
  let tenants =
    Array.of_list
      (List.mapi
         (fun i cfg ->
           let vm =
             Vmm.create_vm hv ~name:cfg.Tenant.name
               ~epc_frames:cfg.Tenant.partition_frames
           in
           let tn =
             Tenant.create ~sketch:params.p_sketch ~machine ~hv ~vm
               ~seed_base:((params.p_seed * 1_000) + (i * 17))
               cfg
           in
           (* Parked tenants announce themselves to the restart monitor
              at their Join event — the cold-start attestation. *)
           if Tenant.state tn <> Tenant.Parked then
             ignore
               (Autarky.Restart_monitor.record_start monitor
                  ~identity:cfg.Tenant.name);
           tn)
         cfgs)
  in
  let n = Array.length tenants in
  let ctx =
    {
      cx_tenants = tenants;
      cx_machine = machine;
      cx_hv = hv;
      cx_monitor = monitor;
      cx_emit =
        (fun ~tenant ~action ~detail -> emit_on machine ~tenant ~action ~detail);
    }
  in
  let st =
    {
      st_params = params;
      st_machine = machine;
      st_hv = hv;
      st_monitor = monitor;
      st_tenants = tenants;
      st_ctx = ctx;
      st_digest = digest_of;
      st_q = Event_queue.create ();
      st_work = 0;
      st_scheduled = Array.make n 0;
      st_interarrival = Array.make n 1.0;
      st_think = Array.make n 1.0;
      st_deadline = Array.make n None;
      st_period = Array.make n 1;
      st_pressure = Array.make n 0;
      st_end = 0;
      st_moves = 0;
    }
  in
  calibrate st;
  (match params.p_hooks with
  | Some h -> h.h_on_start ctx
  | None -> ());
  schedule_initial st;
  st

(* Churn join: attest the identity with the restart monitor, build the
   enclave inside a clock span (the cold-start cost occupies the
   server via [free_at]), calibrate, and start the generator. *)
let join st ~at i =
  let tn = st.st_tenants.(i) in
  if Tenant.state tn = Tenant.Parked then begin
    let identity = Tenant.name tn in
    match Autarky.Restart_monitor.record_start st.st_monitor ~identity with
    | Autarky.Restart_monitor.Allow ->
      let clock = st.st_machine.Sgx.Machine.clock in
      let span = Metrics.Clock.start_span clock in
      Tenant.boot tn;
      let boot = max 1 (Metrics.Clock.span_cycles clock span) in
      Tenant.set_boot_cycles tn boot;
      Tenant.set_free_at tn (at + boot);
      st.st_end <- max st.st_end (at + boot);
      calibrate_one st i tn;
      emit st ~tenant:identity ~action:"join" ~detail:boot;
      schedule_tenant st i tn ~origin:at
    | Autarky.Restart_monitor.Refuse ->
      Tenant.set_refused tn;
      emit st ~tenant:identity ~action:"join-refused" ~detail:at
  end

let leave st ~at i =
  let tn = st.st_tenants.(i) in
  if Tenant.state tn <> Tenant.Departed then begin
    Tenant.depart tn;
    emit st ~tenant:(Tenant.name tn) ~action:"depart" ~detail:at
  end

(* Process exactly one pending event; [false] when the timeline is
   exhausted.  This is the snapshot quiescent point: between two [step]
   calls no enclave is entered and no span is open, so the whole state
   graph is capturable. *)
let step st =
  if not (Event_queue.pop st.st_q) then false
  else begin
    let at = Event_queue.popped_at st.st_q in
    let ev = Event_queue.popped_payload st.st_q in
    st.st_end <- max st.st_end at;
    let tag = ev_tag ev in
    if tag = tag_arrival || tag = tag_client then begin
      st.st_work <- st.st_work - 1;
      let i = ev_tenant ev in
      (* Arrivals already on the heap when their tenant departed are
         dropped without being counted — the stream simply ends. *)
      if Tenant.state st.st_tenants.(i) <> Tenant.Departed then begin
        let outcome = admit st i ~at in
        let client = if tag = tag_client then ev_client_id ev else -1 in
        reschedule_generator st i ~at ~outcome ~client
      end
    end
    else if tag = tag_arbiter then begin
      match st.st_params.p_arbiter with
      | Some arb ->
        arbiter_tick st ~at arb;
        if st.st_work > 0 then begin
          let period = max 1 (int_of_float (arb.arb_period *. tick_base st)) in
          Event_queue.push st.st_q ~at:(at + period) tag_arbiter
        end
      | None -> ()
    end
    else if tag = tag_defense then begin
      match st.st_params.p_hooks with
      | Some h ->
        h.h_on_tick st.st_ctx ~at;
        st.st_end <- max st.st_end at;
        if st.st_work > 0 then begin
          let period = max 1 (int_of_float (h.h_period *. tick_base st)) in
          Event_queue.push st.st_q ~at:(at + period) tag_defense
        end
      | None -> ()
    end
    else if tag = tag_join then begin
      st.st_work <- st.st_work - 1;
      join st ~at (ev_tenant ev)
    end
    else begin
      st.st_work <- st.st_work - 1;
      leave st ~at (ev_tenant ev)
    end;
    true
  end

let finish st =
  Array.iter
    (fun tn ->
      emit st ~tenant:(Tenant.name tn) ~action:"done" ~detail:(Tenant.served tn))
    st.st_tenants;
  let digest =
    match st.st_digest with
    | None -> None
    | Some (recorder, digest_of) ->
      Trace.Recorder.close recorder;
      Some (digest_of ())
  in
  {
    r_tenants = st.st_tenants;
    r_machine = st.st_machine;
    r_monitor = st.st_monitor;
    r_end_cycle = st.st_end;
    r_arbiter_moves = st.st_moves;
    r_digest = digest;
  }

let machine_of st = st.st_machine
let end_cycle st = st.st_end

let run ?params cfgs =
  let st = start ?params cfgs in
  while step st do
    ()
  done;
  finish st
