(** Wiring: one simulated platform = hardware + untrusted OS + enclave
    (+ the Autarky runtime for self-paging enclaves), with helpers to
    carve the enclave's address space and route workload memory traffic.

    Typical experiment shape:
    {[
      let sys = System.create ~epc_frames ~epc_limit ~enclave_pages
                  ~self_paging:true ~budget () in
      let heap = System.allocator sys ~pages ~cluster_pages:10 in
      let slot = Policy.create sys ~heap in
      Policy.prepare slot (Policy.Rate_limit { max_faults_per_unit = 512 });
      (* build the workload via [Policy.vm slot] and [heap] ... *)
      Policy.install slot;                (* set_policy + manage the heap *)
      Measure.run sys (fun () -> ...)
    ]}
    {!Policy} is the one install path for a heap policy; {!pin} and
    {!manage} remain for regions outside the heap (code, stacks). *)

type t

val create :
  ?model:Metrics.Cost_model.t ->
  ?mode:Sgx.Machine.transition_mode ->
  ?mech:Autarky.Pager.mech ->
  ?budget:int ->
  ?trace:bool ->
  ?trace_capacity:int ->
  ?wrap_os:(Autarky.Os_iface.t -> Autarky.Os_iface.t) ->
  epc_frames:int -> epc_limit:int -> enclave_pages:int -> self_paging:bool ->
  unit -> t
(** Build the platform, create and populate the enclave (all pages
    zero-initialized; pages beyond [epc_limit] start in the backing
    store), EINIT it, and — for a self-paging enclave — install the
    Autarky runtime with the given paging [mech] (default [`Sgx1]) and
    EPC [budget] (default [epc_limit - 64], leaving the OS working
    room).

    [trace] (default [false]) installs a {!Trace.Recorder} on the
    machine before the enclave is built, so every layer's events —
    including enclave construction and initial paging — are recorded;
    [trace_capacity] bounds the recorder's ring (sinks attached via
    {!tracer} still see the complete stream).

    [wrap_os] interposes on the {!Autarky.Os_iface.t} record before it
    is handed to the runtime — the hook through which the Byzantine-OS
    fault-injection layer ([Inject.Injector.wrap_os]) intercepts the
    kernel/runtime boundary.  Only meaningful for self-paging
    enclaves. *)

val attach :
  ?mech:Autarky.Pager.mech ->
  ?budget:int ->
  ?wrap_os:(Autarky.Os_iface.t -> Autarky.Os_iface.t) ->
  machine:Sgx.Machine.t -> os:Sim_os.Kernel.t -> proc:Sim_os.Kernel.proc ->
  unit -> t
(** Bring an already-ECREATEd (empty, un-EINITed) process up into a
    full platform slice on an existing machine and kernel: populate the
    initial image, install the Autarky runtime when the enclave carries
    the self-paging attribute, EINIT, and wire a CPU.  [create] is
    [attach] over a freshly built machine and kernel; multi-tenant
    drivers use [attach] directly to host several enclaves — e.g.
    hypervisor guest processes from {!Hypervisor.Vmm.create_guest_proc}
    — on one shared machine.  Any recorder already installed on
    [machine] is picked up as this system's tracer. *)

val machine : t -> Sgx.Machine.t
val os : t -> Sim_os.Kernel.t
val proc : t -> Sim_os.Kernel.proc
val enclave : t -> Sgx.Enclave.t
val cpu : t -> Sgx.Cpu.t
val runtime : t -> Autarky.Runtime.t option
val runtime_exn : t -> Autarky.Runtime.t
val clock : t -> Metrics.Clock.t
val counters : t -> Metrics.Counters.t

val tracer : t -> Trace.Recorder.t option
val tracer_exn : t -> Trace.Recorder.t
(** @raise Invalid_argument when the system was built without [~trace:true]. *)

val mark : t -> string -> unit
(** Emit a harness phase marker into the trace (no-op when tracing is
    off) — lets offline analysis segment setup from measurement. *)

val reserve : t -> pages:int -> Sgx.Types.vpage
(** Carve a fresh region of the enclave's address space. *)

val allocator : t -> pages:int -> cluster_pages:int -> Autarky.Allocator.t
(** Reserve a region and wrap it in the auto-clustering allocator. *)

val clusters_of : Autarky.Allocator.t -> Autarky.Clusters.t

val vm :
  t ->
  ?instrument:(Sgx.Types.vaddr -> Sgx.Types.access_kind -> unit) ->
  ?on_progress:(unit -> unit) ->
  unit -> Workloads.Vm.t
(** The workload-facing memory interface.  [instrument] replaces the
    plain CPU path (ORAM instrumentation); [on_progress] receives the
    workload's progress events (rate-limit wiring). *)

val pin : t -> Sgx.Types.vpage list -> unit
(** Mark pages enclave-managed and fetch them resident (code, stack,
    runtime metadata, ORAM cache). *)

val manage : t -> Sgx.Types.vpage list -> unit
(** Mark pages enclave-managed without prefetching (demand-paged data). *)

val refetch : t -> Sgx.Types.vpage list -> unit
(** Fetch the non-resident ones among already enclave-managed [pages]
    back in, making room first — re-pinning after an eviction. *)

val run_in_enclave : t -> (unit -> 'a) -> 'a
(** EENTER, run, EEXIT — one enclave entry around a workload phase. *)
