(** Serving scenarios and the SLO report (BENCH_serve.json).

    One report shape, schema ["autarky-serve/2"], covers both
    scenarios: the 3-tenant {!default_scenario} and the fleet-scale
    {!fleet_scenario}.  The report contains only virtual quantities —
    modeled cycles, request counts, rates over the modeled clock — so
    the JSON emitted for a given (scenario, seed) is byte-identical run
    to run.  When the run traces, the trace digest of the whole run is
    part of the report, extending the golden-trace regression net over
    the serving layer. *)

type tenant_report = {
  tr_name : string;
  tr_workload : string;
  tr_policy : string;
  tr_generator : string;
  tr_arrivals : int;
  tr_served : int;
  tr_shed : int;
  tr_missed : int;
  tr_terminations : int;
  tr_restarts : int;
  tr_refused : bool;
  tr_faults : int;
  tr_balloon_released_pages : int;
  tr_balloon_in_frames : int;
  tr_partition_end : int;
  tr_epc_limit_end : int;
  tr_svc_mean_cycles : float;
  tr_latency : Metrics.Stats.summary;  (** request latency, virtual cycles *)
  tr_latency_method : string;
      (** ["exact"] (full {!Metrics.Stats} sample set) or ["sketch"]
          ({!Metrics.Sketch}-derived, within
          {!Metrics.Sketch.relative_error}) *)
  tr_sketch : Metrics.Sketch.t option;
      (** the sketch itself when the tenant ran with sketch accounting *)
  tr_throughput_rps : float;  (** served requests per virtual second *)
  tr_shed_rate : float;  (** (shed + missed) / arrivals *)
  tr_departed : bool;  (** churn: tenant left before the end of the run *)
  tr_arrive_after : int;  (** churn join cycle; [0] = present from boot *)
  tr_depart_after : int;  (** configured departure cycle; [-1] = never *)
  tr_boot_cycles : int;
      (** cold-start (build + attestation) cycles charged at the churn
          join; [0] for tenants present from the start *)
}

type report = {
  rp_seed : int;
  rp_quick : bool;
  rp_tenants : tenant_report list;  (** ordered by tenant index *)
  rp_end_cycle : int;
  rp_virtual_seconds : float;
  rp_arbiter_moves : int;
  rp_digest : string option;  (** trace digest, when the run traced *)
  rp_arrivals : int;
  rp_served : int;
  rp_shed : int;
  rp_missed : int;
  rp_joins : int;  (** tenants that joined after cycle 0 (churn) *)
  rp_departures : int;
  rp_refused : int;
  rp_boot_cycles_total : int;  (** summed churn cold-start cost *)
  rp_latency : Metrics.Stats.summary;
      (** every tenant's served requests pooled into one distribution
          ({!Tenant.pooled_latency}) *)
  rp_latency_method : string;  (** ["pooled-sketch"] or ["pooled-exact"] *)
}

val default_scenario : quick:bool -> Tenant.config list
(** Three tenants on one machine, one per protection policy —
    [kv] (kvstore / clusters / moderate open loop), [spell]
    (spellcheck / ORAM / closed loop) and [hash] (uthash / rate-limit /
    overloaded open loop, bounded queue + deadline). *)

val fleet_scenario : tenants:int -> quick:bool -> Tenant.config list
(** The committed fleet-scale benchmark scenario: a fixed per-index mix
    of kv/clusters open-loop tenants, heavy-tailed (Pareto) uthash
    tenants, diurnal late joiners (churn arrivals with cold-start
    attestation cost), a closed-loop spellcheck population, and
    overloaded tenants that depart mid-run.  Full mode generates ~16x
    the quick-mode arrivals.
    @raise Invalid_argument when [tenants <= 0]. *)

type scenario =
  | Default  (** {!default_scenario}: traced, exact latency accounting *)
  | Fleet of int
      (** {!fleet_scenario} with that many tenants: untraced, sketch
          latency accounting, so memory stays O(tenants) however many
          arrivals the run generates *)

val report_of_result : seed:int -> quick:bool -> Engine.result -> report

val to_json : report -> string
(** Stable schema ["autarky-serve/2"]: fleet totals (including churn
    counts), the labeled fleet latency roll-up with its error bound,
    and one row per tenant; ["trace_digest"] only when the run traced.
    Deterministic for a fixed (scenario, seed). *)

val print_summary : report -> unit

val run :
  ?quick:bool -> ?seed:int -> ?no_arbiter:bool -> ?out:string ->
  ?print:bool -> scenario:scenario -> unit -> report
(** Run [scenario] and optionally write the JSON report to [out].
    [no_arbiter] disables the EPC arbiter (static partitions only).
    @raise Invalid_argument for [Fleet n] with [n <= 0]. *)

val check : baseline:string -> ?tolerance:float -> unit -> bool
(** The serve regression gate ([autarky_sim serve --check]): validate
    the committed [autarky-serve/2] baseline (schema, exact arrival
    conservation per tenant and in total), then re-run the fleet-scale
    scenario in quick mode at the baseline's (seed, tenants_n) and
    compare the intensive metrics — fleet p50/p95/p99/mean latency and
    the overall shed rate — within [tolerance] (default 0.25) relative
    drift.  Prints a verdict table; [false] on any failure. *)
