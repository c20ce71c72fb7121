(* The per-tenant escalation controller.

   Policy ladder: each tenant starts at the rung matching its configured
   policy and the controller walks it up under attack pressure and back
   down when the pressure stops.  One [Defense_tick] evaluates every
   active tenant's signal window ({!Signals.delta}) against the hot and
   calm thresholds:

   - hot (any of: termination, preempt storm, fault storm, balloon
     storm) => try the next rung.  A refused escalation (the Heisenberg
     preload set does not fit the pager budget; the tenant keeps its old
     policy) is retried with exponential backoff, and after
     [dc_max_retries] failures the rung is skipped for good.  A switch
     that itself trips a kill goes through the restart monitor exactly
     like a request-path termination.
   - calm for [dc_hysteresis] consecutive ticks above the base rung =>
     step one rung down (hysteresis keeps a single quiet tick from
     flapping the policy).
   - otherwise => hold.

   Every tick's verdict for every tenant is emitted as a typed
   {!Trace.Event.Defense} event (escalated / de-escalated / held), so
   the decision stream is part of the deterministic trace digest. *)

module Tenant = Serve.Tenant
module Engine = Serve.Engine

type config = {
  dc_ladder : Tenant.policy_kind list;
  dc_period : float;
  dc_hysteresis : int;
  dc_max_retries : int;
  dc_backoff_base : int;
  dc_hot_faults : int;
  dc_hot_preempts : int;
  dc_hot_balloons : int;
  dc_hot_terminations : int;
  dc_calm_faults : int;
  dc_calm_preempts : int;
}

let standard_ladder = [ Tenant.Rate_limit; Tenant.Clusters; Tenant.Oram ]

let heisenberg_ladder =
  [ Tenant.Rate_limit; Tenant.Clusters; Tenant.Preload; Tenant.Oram ]

let default_config =
  {
    dc_ladder = standard_ladder;
    dc_period = 20.0;
    dc_hysteresis = 3;
    dc_max_retries = 3;
    dc_backoff_base = 1;
    dc_hot_faults = 256;
    dc_hot_preempts = 128;
    dc_hot_balloons = 2;
    dc_hot_terminations = 1;
    dc_calm_faults = 64;
    dc_calm_preempts = 32;
  }

type verdict_kind = Escalated | De_escalated | Held

let verdict_name = function
  | Escalated -> "escalated"
  | De_escalated -> "de-escalated"
  | Held -> "held"

type event = {
  ev_at : int;
  ev_tenant : string;
  ev_verdict : verdict_kind;
  ev_from : Tenant.policy_kind;
  ev_to : Tenant.policy_kind;
  ev_rung : int;
  ev_note : string;
}

type tstate = {
  ts_tenant : Tenant.t;
  ts_tap : Signals.tap;
  ts_base : int;
  mutable ts_rung : int;
  mutable ts_calm : int;
  mutable ts_retries : int;
  mutable ts_backoff : int;
  ts_skip : bool array;
}

type t = {
  cfg : config;
  ladder : Tenant.policy_kind array;
  mutable states : tstate array;
  mutable events : event list;  (* newest first *)
  mutable ticks : int;
  mutable escalations : int;
  mutable de_escalations : int;
  mutable failed_switches : int;
}

let create cfg =
  if cfg.dc_ladder = [] then
    invalid_arg "Defense.Controller.create: empty policy ladder";
  {
    cfg;
    ladder = Array.of_list cfg.dc_ladder;
    states = [||];
    events = [];
    ticks = 0;
    escalations = 0;
    de_escalations = 0;
    failed_switches = 0;
  }

let rung_of t kind =
  let r = ref (-1) in
  Array.iteri (fun i k -> if k = kind && !r < 0 then r := i) t.ladder;
  !r

let emit_verdict (ctx : Engine.hook_ctx) ~tenant ~verdict ~policy ~detail =
  match Sgx.Machine.tracer ctx.Engine.cx_machine with
  | None -> ()
  | Some r ->
    Trace.Recorder.emit r ~actor:Trace.Event.Harness
      (Trace.Event.Defense
         { tenant; verdict = verdict_name verdict; policy; detail })

let record t ctx ts ~at ~verdict ~from_ ~to_ ~note =
  emit_verdict ctx ~tenant:(Tenant.name ts.ts_tenant) ~verdict
    ~policy:(Harness.Policy.name to_) ~detail:ts.ts_rung;
  if verdict <> Held || note <> "steady" then
    t.events <-
      {
        ev_at = at;
        ev_tenant = Tenant.name ts.ts_tenant;
        ev_verdict = verdict;
        ev_from = from_;
        ev_to = to_;
        ev_rung = ts.ts_rung;
        ev_note = note;
      }
      :: t.events

let on_start t (ctx : Engine.hook_ctx) =
  t.states <-
    Array.map
      (fun tn ->
        let base = max 0 (rung_of t (Tenant.active_policy tn)) in
        {
          ts_tenant = tn;
          ts_tap = Signals.install tn;
          ts_base = base;
          ts_rung = base;
          ts_calm = 0;
          ts_retries = 0;
          ts_backoff = 0;
          ts_skip = Array.make (Array.length t.ladder) false;
        })
      ctx.Engine.cx_tenants

(* A policy switch can itself trip a detection (the sealed handoff
   faults, the preload refill starves).  Route it through the restart
   monitor exactly like the engine's request path: the reboot comes back
   under the tenant's previous policy, because [set_policy] only commits
   on success. *)
let switch_terminated ctx ts ~reason =
  let tn = ts.ts_tenant in
  let identity = Tenant.name tn in
  let monitor = ctx.Engine.cx_monitor in
  Tenant.incr_terminations tn;
  Autarky.Restart_monitor.record_termination monitor ~identity ~reason;
  match Autarky.Restart_monitor.record_start monitor ~identity with
  | Autarky.Restart_monitor.Allow ->
    Tenant.reboot tn;
    ctx.Engine.cx_emit ~tenant:identity ~action:"restart"
      ~detail:(Tenant.restarts tn)
  | Autarky.Restart_monitor.Refuse ->
    Tenant.set_refused tn;
    ctx.Engine.cx_emit ~tenant:identity ~action:"refused"
      ~detail:(Tenant.terminations tn)

let backoff_of t ts = min 8 (t.cfg.dc_backoff_base lsl min 6 ts.ts_retries)

let try_escalate t ctx ts ~at ~note =
  let n = Array.length t.ladder in
  let target = ref (ts.ts_rung + 1) in
  while !target < n && ts.ts_skip.(!target) do incr target done;
  let from_ = t.ladder.(ts.ts_rung) in
  if !target >= n then record t ctx ts ~at ~verdict:Held ~from_ ~to_:from_ ~note:"at-top"
  else begin
    let to_ = t.ladder.(!target) in
    match Tenant.set_policy ts.ts_tenant to_ with
    | () ->
      ts.ts_rung <- !target;
      ts.ts_calm <- 0;
      ts.ts_retries <- 0;
      t.escalations <- t.escalations + 1;
      record t ctx ts ~at ~verdict:Escalated ~from_ ~to_ ~note
    | exception Invalid_argument _ ->
      t.failed_switches <- t.failed_switches + 1;
      ts.ts_retries <- ts.ts_retries + 1;
      if ts.ts_retries > t.cfg.dc_max_retries then begin
        ts.ts_skip.(!target) <- true;
        ts.ts_retries <- 0;
        record t ctx ts ~at ~verdict:Held ~from_ ~to_ ~note:"skip-rung"
      end
      else begin
        ts.ts_backoff <- backoff_of t ts;
        record t ctx ts ~at ~verdict:Held ~from_ ~to_ ~note:"escalate-failed"
      end
    | exception Sgx.Types.Enclave_terminated { reason; _ } ->
      t.failed_switches <- t.failed_switches + 1;
      ts.ts_retries <- ts.ts_retries + 1;
      ts.ts_backoff <- backoff_of t ts;
      switch_terminated ctx ts ~reason;
      record t ctx ts ~at ~verdict:Held ~from_ ~to_ ~note:"switch-terminated"
  end

let de_escalate t ctx ts ~at =
  let target = ref (ts.ts_rung - 1) in
  while !target > ts.ts_base && ts.ts_skip.(!target) do decr target done;
  let from_ = t.ladder.(ts.ts_rung) in
  let to_ = t.ladder.(!target) in
  match Tenant.set_policy ts.ts_tenant to_ with
  | () ->
    ts.ts_rung <- !target;
    ts.ts_calm <- 0;
    t.de_escalations <- t.de_escalations + 1;
    record t ctx ts ~at ~verdict:De_escalated ~from_ ~to_ ~note:"hysteresis"
  | exception Invalid_argument _ ->
    (* The lower rung no longer fits (preload after the arbiter moved
       frames away): keep the stronger policy and stop trying it. *)
    t.failed_switches <- t.failed_switches + 1;
    ts.ts_skip.(!target) <- true;
    ts.ts_calm <- 0;
    record t ctx ts ~at ~verdict:Held ~from_ ~to_ ~note:"de-escalate-failed"
  | exception Sgx.Types.Enclave_terminated { reason; _ } ->
    t.failed_switches <- t.failed_switches + 1;
    ts.ts_calm <- 0;
    switch_terminated ctx ts ~reason;
    record t ctx ts ~at ~verdict:Held ~from_ ~to_ ~note:"switch-terminated"

let describe_hot w =
  if w.Signals.w_ad_terms > 0 then "hot:ad-churn"
  else if w.Signals.w_rate_terms > 0 then "hot:fault-storm"
  else if w.Signals.w_terminations > 0 then "hot:termination"
  else if w.Signals.w_preempts > 0 then "hot:preempt-storm"
  else if w.Signals.w_balloons > 0 then "hot:balloon-storm"
  else "hot:fault-pressure"

let tick_tenant t ctx ts ~at =
  let cfg = t.cfg in
  let w = Signals.delta ctx.Engine.cx_monitor ts.ts_tap in
  let hot =
    w.Signals.w_terminations >= cfg.dc_hot_terminations
    || w.Signals.w_preempts >= cfg.dc_hot_preempts
    || w.Signals.w_faults >= cfg.dc_hot_faults
    || w.Signals.w_balloons >= cfg.dc_hot_balloons
  in
  let calm =
    w.Signals.w_terminations = 0
    && w.Signals.w_preempts <= cfg.dc_calm_preempts
    && w.Signals.w_faults <= cfg.dc_calm_faults
    && w.Signals.w_balloons = 0
  in
  let here = t.ladder.(ts.ts_rung) in
  if Tenant.state ts.ts_tenant = Tenant.Refused then ()
  else if ts.ts_backoff > 0 then begin
    ts.ts_backoff <- ts.ts_backoff - 1;
    record t ctx ts ~at ~verdict:Held ~from_:here ~to_:here ~note:"backoff"
  end
  else if hot then try_escalate t ctx ts ~at ~note:(describe_hot w)
  else if calm && ts.ts_rung > ts.ts_base then begin
    ts.ts_calm <- ts.ts_calm + 1;
    if ts.ts_calm >= cfg.dc_hysteresis then de_escalate t ctx ts ~at
    else record t ctx ts ~at ~verdict:Held ~from_:here ~to_:here ~note:"cooling"
  end
  else begin
    if not calm then ts.ts_calm <- 0;
    record t ctx ts ~at ~verdict:Held ~from_:here ~to_:here ~note:"steady"
  end

let on_tick t ctx ~at =
  t.ticks <- t.ticks + 1;
  Array.iter (fun ts -> tick_tenant t ctx ts ~at) t.states

let events t = List.rev t.events
let ticks t = t.ticks
let escalations t = t.escalations
let de_escalations t = t.de_escalations
let failed_switches t = t.failed_switches

let rung t ~tenant =
  let r = ref None in
  Array.iter
    (fun ts -> if Tenant.name ts.ts_tenant = tenant then r := Some ts.ts_rung)
    t.states;
  !r
