(** The one way to put a paging policy on a self-paging enclave's heap,
    at boot or live.

    A {e slot} owns the policy state of one system's heap: the workload
    VM it hands out routes progress events and memory accesses through
    whichever policy is installed, so a policy can change under a built
    workload without rebuilding it.

    Boot is two steps around the workload build:
    {[
      let slot = Policy.create sys ~heap in
      Policy.prepare slot spec;     (* ORAM tree + pinned cache, RL hook *)
      (* build the workload through [Policy.vm slot] ... *)
      Policy.install slot           (* policy object, set_policy, manage *)
    ]}
    A live {!switch} is a teardown of the installed policy followed by
    the same two steps back to back. *)

(** A policy kind plus the parameters callers choose per deployment.
    (Declared before {!kind}, so an unannotated constructor means the
    kind.) *)
type spec =
  | Rate_limit of { max_faults_per_unit : int }
  | Clusters
  | Oram of { cache_pages : int; tree_seed : int }
      (** [cache_pages] of pinned EPC cache in front of a PathORAM tree
          over the whole heap, built from [tree_seed] *)
  | Preload

type kind = Rate_limit | Clusters | Oram | Preload

val all : kind list
(** Every kind. *)

val name : kind -> string
(** ["rate-limit"], ["clusters"], ["oram"], ["preload"]. *)

val of_name : string -> kind option
(** Inverse of {!name}. *)

val spec : oram_cache_pages:int -> oram_tree_seed:int -> kind -> spec
(** The spec of [kind] with the ORAM parameters given; rate limiting
    allows 512 faults per progress unit. *)

type t
(** A per-system policy slot. *)

val create : System.t -> heap:Autarky.Allocator.t -> t
(** An empty slot over [heap].  Records the pager's current budget as
    the boot budget a switch onto ORAM restores.  Works on a
    non-self-paging system too, as long as nothing is prepared. *)

val vm : t -> Workloads.Vm.t
(** The workload-facing memory interface: accesses go through the
    installed policy's accessor (ORAM) or straight to the CPU; progress
    events reach the installed policy (rate limiting).  The dispatch
    allocates nothing. *)

val prepare : t -> spec -> unit
(** Boot step one, before the workload is built: for [Oram], build (or,
    on a re-escalation, re-fetch) the tree and pinned cache and route
    heap accesses through it; for [Rate_limit], create the limiter so
    it counts the build's progress events.  The policy is not active
    until {!install}. *)

val install : t -> unit
(** Boot step two, after the workload is built: create the clusters or
    preload policy over the built heap, make the prepared policy the
    runtime's, and mark the heap enclave-managed (once per slot).
    @raise Invalid_argument when nothing is prepared (or it is already
    installed), or when a preload set does not fit the pager budget. *)

val switch : t -> spec -> unit
(** Live switch at a request boundary: tear down the installed policy
    (flush and evict the ORAM cache, drop the rate limiter's hook), then
    prepare and install [spec].  Onto ORAM, the boot budget is restored
    and the resident heap is handed off sealed: evicted through the
    pager and charged into the tree block by block.  When the new
    policy is refused (preload over budget), the previous spec is
    reinstalled before the [Invalid_argument] is re-raised.
    @raise Invalid_argument when nothing is installed yet. *)
