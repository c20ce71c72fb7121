(** Performance-regression harness behind [autarky_sim perf] and the
    bench "perf" experiment.

    Measures real wall-clock time ([Unix.gettimeofday]) and allocation
    rates ({!alloc_bytes}) — not the simulator's virtual clock —
    for (a) the crypto hot paths against their preserved boxed
    reference implementations, and (b) a fixed-seed workload matrix
    across policies and paging mechanisms.  Writes the stable
    ["autarky-perf/2"] JSON schema (see DESIGN.md §11): per-access
    figures divide by the true VM access count (recorded per cell in
    ["accesses"]); the retired /1 schema divided by ops under the same
    field names. *)

val alloc_bytes : (unit -> 'a) -> 'a * float
(** [alloc_bytes f] runs [f] and returns its result with the bytes
    allocated meanwhile on the calling domain: exact minor-heap words
    plus direct major-heap allocation.  Used instead of
    [Gc.allocated_bytes], which on OCaml 5.1 counts the uncollected
    part of the minor heap in words (reading 1/8 of a short window and
    jumping by 7/8 of the minor heap when a collection falls inside). *)

(** {1 The cell builder}

    One heap cell: a self-paging enclave (or, with [policy = None], a
    plain one) whose heap policy goes through {!Policy}.  The perf
    matrix, the long-run snapshot worlds and the CLI's [run]/[trace]
    all build their platform here. *)

val cell :
  ?trace:bool -> ?on_system:(System.t -> unit) -> ?mech:Autarky.Pager.mech ->
  ?epc_limit:int -> ?cluster_pages:int -> policy:Policy.kind option ->
  seed:int ->
  (Workloads.Vm.t -> alloc:(bytes:int -> Sgx.Types.vaddr) ->
   rng:Metrics.Rng.t -> heap_pages:int -> 'a) ->
  System.t * 'a
(** Build a platform of [epc_limit] (default 1,024 = 4 MiB) EPC
    frames plus 1,024 spare, an enclave of 8x and a heap of 4x that in
    [cluster_pages]-page clusters (default 10), budget [epc_limit - 256]
    (at least 64).  [on_system] runs right after the platform exists —
    before any policy or workload — so trace sinks see the whole stream.
    The policy is prepared (ORAM cache of 2/3 of the EPC, at least 64
    pages, tree seed 9), the workload built by the callback (with an
    RNG seeded from [seed]), then the policy installed.  [trace]
    (default false) and [mech] (default [`Sgx1]) go to
    {!System.create}. *)

val workloads : string list
(** The matrix workloads: ["ycsb"; "uthash"; "kvstore"]. *)

val policies : Policy.kind list
(** The matrix policies: rate limiting, clusters, ORAM. *)

val workload :
  string -> Workloads.Vm.t -> alloc:(bytes:int -> Sgx.Types.vaddr) ->
  rng:Metrics.Rng.t -> heap_pages:int -> int -> unit
(** The {!cell} callback of a matrix workload; the result performs
    operation [i].  @raise Invalid_argument on an unknown name. *)

val mech_of_name : string -> Autarky.Pager.mech option
(** ["sgx1"] / ["sgx2"]. *)

(** {1 The report} *)

type micro_row = {
  mi_name : string;
  mi_iters : int;
  mi_new_ns : float;     (** wall ns per op, optimized implementation *)
  mi_new_alloc : float;  (** allocated bytes per op *)
  mi_ref_ns : float;     (** wall ns per op, boxed reference *)
  mi_ref_alloc : float;
}

val speedup : micro_row -> float
(** Reference wall time over optimized wall time. *)

type matrix_row = {
  mx_workload : string;
  mx_policy : string;
  mx_mech : string;      (** "sgx1" or "sgx2" *)
  mx_ops : int;
  mx_accesses : int;     (** VM accesses performed (deterministic) *)
  mx_wall_ns : float;    (** wall ns per access *)
  mx_alloc : float;      (** allocated bytes per access *)
  mx_cycles : float;     (** modeled cycles per access *)
  mx_faults : int;
}

type report = {
  r_quick : bool;
  r_seed : int;
  r_jobs : int;       (** domains the matrix ran on (wall metadata only) *)
  r_matrix_wall_s : float;  (** wall clock of the whole matrix section *)
  r_micro : micro_row list;
  r_matrix : matrix_row list;
}

val spec : Schema.spec
(** The ["autarky-perf/2"] schema, derived from the report's one field
    declaration. *)

val to_json : report -> Microjson.t
(** The stable ["autarky-perf/2"] report value.  Determinism contract:
    everything except the ["wall"] metadata object and the per-row
    wall/alloc fields is a pure function of (quick, seed) — independent
    of [jobs], the machine, and the run.  (Matrix alloc rates are
    per-domain measurements and pick up one-time per-domain
    initialisation, so they shift with the sharding; modeled cycles,
    fault counts and ops never do.) *)

val run : ?quick:bool -> ?seed:int -> ?jobs:int -> ?out:string -> unit -> report
(** Run the microbenchmarks and the workload matrix, print a summary
    table, and — when [out] is given — write the JSON report there.
    [quick] (default false) shrinks iteration counts and the matrix to
    a CI-friendly smoke run.  [jobs] (default 1; [<= 0] means
    {!Parallel.Pool.default_jobs}) shards the matrix cells across
    domains; the micro section always runs serially, first, so its
    wall numbers are never measured under self-inflicted contention. *)

val check :
  baseline:string -> ?against:string -> ?tolerance:float ->
  ?wall_ceiling_ns:float -> ?alloc_ceiling:float -> ?jobs:int ->
  unit -> bool
(** The CI regression gate ([autarky_sim perf --check]).  Loads the
    ["autarky-perf/2"] [baseline] file and compares matrix cells
    against [against] (another report file) — or, when [against] is
    omitted, against a fresh run of the matrix at the baseline's own
    (quick, seed), sharded over [jobs] domains.  A cell fails when its
    identity (ops, accesses) disagrees or when modeled cycles or fault
    counts drift more than [tolerance] (default 0.25, relative; 0
    demands exact equality).  Wall-clock and allocation figures are
    informational by default; [wall_ceiling_ns] additionally fails any
    current rate-limit cell whose wall ns/access exceeds it (a generous
    absolute bound locking in the flat-core speedup), and
    [alloc_ceiling] fails the run when the current matrix's *median*
    allocated bytes/access exceeds it.  Prints a verdict table; returns
    whether every cell passed.
    @raise Failure / {!Microjson.Parse_error} on unreadable input. *)
