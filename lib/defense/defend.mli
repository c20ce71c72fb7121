(** The SLO-under-attack harness.

    Runs the adversary-wave x policy-ladder matrix against a fixed
    two-tenant fleet (spellcheck victim booting on the ladder's bottom
    rung, kvstore bystander) with the escalation controller live, and
    reports the victim's service quality — p99, shed rate, terminations,
    bits leaked — split into the wave's before / during / after phases,
    plus the controller's escalation timeline.

    Cells are sharded over the domain pool with canonical-matrix shard
    seeds ({!Parallel.Pool.shard_seed} over the unfiltered wave x ladder
    matrix), so results — including the JSON — are byte-identical at any
    [~jobs] and filtered sweeps reproduce the unfiltered cells. *)

val ladder_names : string list
(** ["standard"; "heisenberg"] — the comparable ladders. *)

val find_ladder : string -> Serve.Tenant.policy_kind list option
val victim_name : string

type phase_row = {
  pr_phase : string;  (** "before" / "during" / "after" *)
  pr_arrivals : int;
  pr_served : int;
  pr_shed : int;
  pr_missed : int;
  pr_terminations : int;
  pr_restarts : int;
  pr_samples : int;  (** served-latency samples in this phase *)
  pr_mean : float;  (** mean served latency, cycles (0 when empty) *)
  pr_p99 : float;  (** p99 served latency, cycles (0 when empty) *)
  pr_bits_observed : float;  (** channel bits the wave scored *)
  pr_bits_terminations : float;  (** one bit per termination (§5.3) *)
}

type cell = {
  dl_adversary : string;
  dl_ladder : string;
  dl_victim : string;
  dl_requests : int;  (** victim arrivals generated *)
  dl_window : int * int;  (** attacked victim-request indices *)
  dl_phases : phase_row list;  (** before / during / after, in order *)
  dl_timeline : Controller.event list;
  dl_ticks : int;
  dl_escalations : int;
  dl_de_escalations : int;
  dl_failed_switches : int;
  dl_policy_switches : int;  (** committed switches on the victim *)
  dl_final_policy : string;  (** victim policy at end of run *)
  dl_victim_refused : bool;
  dl_bits_observed : float;
  dl_bits_terminations : float;
  dl_probes : int;
  dl_digest : string option;  (** deterministic trace digest *)
}

val run_cell :
  quick:bool -> wave_kind:Waves.kind -> ladder_name:string ->
  dc_ladder:Serve.Tenant.policy_kind list -> seed:int -> cell

val run :
  ?quick:bool -> ?adversaries:Waves.kind list -> ?ladder_filter:string list ->
  seed:int -> jobs:int -> unit -> cell list

val spec : Harness.Schema.spec
(** The ["autarky-defense/2"] schema, derived from the report's one field
    declaration. *)

val to_json : quick:bool -> seed:int -> cell list -> Harness.Microjson.t
(** The ["autarky-defense/2"] document.  Contains no wall-clock or
    worker-count fields: byte-identical output at any [jobs]. *)

val write : out:string -> quick:bool -> seed:int -> cell list -> unit
(** Write {!to_json} to the file [out] and say so on stdout. *)

val print_table : cell list -> unit
