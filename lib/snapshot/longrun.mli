(** Resumable long-horizon workload runner.

    A perf-matrix cell ({!Harness.Perf.cell}, workload x policy x
    mechanism) driven as a stepped world: tracing always on with a digest sink, one
    enclave entry per operation (the quiescent point), no clock reset.
    A horizon can be cut into time slices — run to N, seal with
    {!World.save}, resume in another process, continue — and the
    completed run's {!outcome_line} is byte-identical to the
    straight-through run's. *)

type spec = {
  sp_workload : string;  (** ycsb | uthash | kvstore *)
  sp_policy : string;  (** rate-limit | clusters | oram *)
  sp_mech : string;  (** sgx1 | sgx2 *)
  sp_seed : int;
  sp_ops : int;  (** the horizon *)
}

val spec_label : spec -> string
(** The lineage label keying the freshness counter. *)

val cell_of_string : string -> (string * string * string, string) result
(** Parse a ["workload:policy:mech"] cell spec; [Error] names an
    unknown workload, policy or mechanism. *)

type world

val kind : string
(** The image-kind string, ["longrun"]. *)

val build : spec -> world
(** Fresh platform at operation 0.  Raises [Invalid_argument] on an
    unknown workload/policy/mech name. *)

val step : world -> bool
(** Perform one operation (one enclave entry); [false] once the horizon
    is reached. *)

val machine : world -> Sgx.Machine.t

type outcome = {
  o_spec : spec;
  o_done : int;
  o_cycles : int;
  o_faults : int;
  o_digest : string;  (** trace digest (resumable across images) *)
  o_counters : string;  (** counter fingerprint *)
}

val outcome : world -> outcome
val outcome_line : outcome -> string
(** The canonical one-line form the CI gates compare. *)

val image_path : dir:string -> spec -> string
(** Where {!advance} seals this spec's image inside [dir]. *)

val advance :
  ?stop_at:int -> ?snapshot_every:int -> ?store:Image.Store.t ->
  ?dir:string -> world -> (outcome, string) result
(** Drive a (possibly restored) world forward.  [Ok outcome] when the
    horizon completed; [Error path] when [stop_at] paused the world
    into a sealed image at [path].  [snapshot_every] additionally seals
    every K operations (each save bumps the label's monotonic counter).
    Snapshotting requires [dir]; [store] defaults to a fresh in-memory
    store (pass a file-backed one to get cross-process freshness). *)

val resume :
  ?store:Image.Store.t -> path:string -> unit -> (world, World.error) result
(** Verified load (seal + binary + freshness + probe checks) of a
    paused world. *)
