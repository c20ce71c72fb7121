(* The SLO-under-attack harness.

   One cell = one adversary wave x one policy ladder, run against a
   fixed two-tenant fleet (a spellcheck victim that boots on the
   ladder's bottom rung, and a kvstore bystander on clusters).  The
   wave is armed for the middle of the victim's request stream, the
   controller watches every tenant, and the harness splits the victim's
   service metrics into the wave's before / during / after phases —
   p99, shed rate, terminations, restarts and bits leaked per phase,
   plus the controller's escalation timeline.

   Everything is virtual-time deterministic: cells are sharded over the
   domain pool with canonical-matrix shard seeds, so a filtered sweep
   reproduces exactly the cells of an unfiltered one and the JSON is
   byte-identical at any worker count. *)

module Tenant = Serve.Tenant
module Engine = Serve.Engine

let ladders =
  [
    ("standard", Controller.standard_ladder);
    ("heisenberg", Controller.heisenberg_ladder);
  ]

let ladder_names = List.map fst ladders
let find_ladder name = List.assoc_opt name ladders
let victim_name = "spell"

let scenario ~quick =
  let vr = if quick then 120 else 280 in
  let br = if quick then 80 else 200 in
  [
    {
      Tenant.name = victim_name;
      workload = Tenant.Spellcheck;
      policy = Tenant.Rate_limit;
      partition_frames = 320;
      epc_limit = 256;
      enclave_pages = 1_024;
      heap_pages = 144;
      generator = Tenant.Open_loop { load = 0.5 };
      queue_capacity = 32;
      deadline = None;
      requests = vr;
      arrive_after = 0;
      depart_after = None;
    };
    {
      Tenant.name = "kv";
      workload = Tenant.Kvstore;
      policy = Tenant.Clusters;
      partition_frames = 256;
      epc_limit = 160;
      enclave_pages = 1_024;
      heap_pages = 128;
      generator = Tenant.Open_loop { load = 0.5 };
      queue_capacity = 32;
      deadline = None;
      requests = br;
      arrive_after = 0;
      depart_after = None;
    };
  ]

type phase_row = {
  pr_phase : string;
  pr_arrivals : int;
  pr_served : int;
  pr_shed : int;
  pr_missed : int;
  pr_terminations : int;
  pr_restarts : int;
  pr_samples : int;
  pr_mean : float;
  pr_p99 : float;
  pr_bits_observed : float;
  pr_bits_terminations : float;
}

type cell = {
  dl_adversary : string;
  dl_ladder : string;
  dl_victim : string;
  dl_requests : int;
  dl_window : int * int;
  dl_phases : phase_row list;
  dl_timeline : Controller.event list;
  dl_ticks : int;
  dl_escalations : int;
  dl_de_escalations : int;
  dl_failed_switches : int;
  dl_policy_switches : int;
  dl_final_policy : string;
  dl_victim_refused : bool;
  dl_bits_observed : float;
  dl_bits_terminations : float;
  dl_probes : int;
  dl_digest : string option;
}

(* Victim counters at a phase boundary. *)
type snap = {
  sn_arrivals : int;
  sn_served : int;
  sn_shed : int;
  sn_missed : int;
  sn_terminations : int;
  sn_restarts : int;
  sn_bits : float;
}

let snap_of tn wave =
  {
    sn_arrivals = Tenant.arrivals tn;
    sn_served = Tenant.served tn;
    sn_shed = Tenant.shed tn;
    sn_missed = Tenant.missed tn;
    sn_terminations = Tenant.terminations tn;
    sn_restarts = Tenant.restarts tn;
    sn_bits = Waves.bits wave;
  }

let row_of ~phase ~start ~stop ~stats =
  let n = Metrics.Stats.count stats in
  {
    pr_phase = Waves.phase_name phase;
    pr_arrivals = stop.sn_arrivals - start.sn_arrivals;
    pr_served = stop.sn_served - start.sn_served;
    pr_shed = stop.sn_shed - start.sn_shed;
    pr_missed = stop.sn_missed - start.sn_missed;
    pr_terminations = stop.sn_terminations - start.sn_terminations;
    pr_restarts = stop.sn_restarts - start.sn_restarts;
    pr_samples = n;
    pr_mean = (if n = 0 then 0.0 else Metrics.Stats.mean stats);
    pr_p99 = (if n = 0 then 0.0 else Metrics.Stats.percentile stats 99.0);
    pr_bits_observed = stop.sn_bits -. start.sn_bits;
    (* §5.3: each termination the attack provokes is worth at most one
       bit, exactly the restart monitor's leakage bound. *)
    pr_bits_terminations =
      float_of_int (stop.sn_terminations - start.sn_terminations);
  }

let phases_in_order = [ Waves.Before; Waves.During; Waves.After ]

let run_cell ~quick ~wave_kind ~ladder_name ~dc_ladder ~seed =
  let cfgs = scenario ~quick in
  let requests = (List.hd cfgs).Tenant.requests in
  let from_ = requests / 4 and until = requests * 5 / 8 in
  (* A tick every ~3 requests (6 x svc_mean at load 0.5): the fast
     kill-chain adversaries (KingsGuard terminates the victim on nearly
     every attacked request) must be out-escalated before the restart
     monitor's cutoff, so the controller gets both quicker looks and a
     deeper restart budget than the plain serving scenario. *)
  let ctl_cfg =
    {
      Controller.default_config with
      Controller.dc_ladder;
      dc_period = 6.0;
      (* With ticks this fast, three calm ticks span ~9 requests — well
         inside a shed-induced lull mid-wave.  Six ticks (~18 requests)
         keeps the policy up through the wave and still de-escalates
         promptly once it is over. *)
      dc_hysteresis = 6;
    }
  in
  let ctl = Controller.create ctl_cfg in
  let wave = Waves.create ~kind:wave_kind ~victim:victim_name ~from_ ~until in
  (* Phase collector: transitions are detected before a victim request
     runs, so each latency sample lands in the phase its request
     belongs to; the remaining phases are closed after the run. *)
  let vic = ref None in
  let cur = ref Waves.Before in
  let cur_start = ref None in
  let stats =
    List.map (fun p -> (p, Metrics.Stats.create ())) phases_in_order
  in
  let rows = ref [] in
  let close_phase stop =
    match !cur_start with
    | None -> ()
    | Some start ->
      rows :=
        row_of ~phase:!cur ~start ~stop ~stats:(List.assq !cur stats) :: !rows;
      cur_start := Some stop
  in
  let advance_to ph tn =
    if ph <> !cur then begin
      close_phase (snap_of tn wave);
      cur := ph
    end
  in
  let hooks =
    {
      Engine.h_period = ctl_cfg.Controller.dc_period;
      h_on_start =
        (fun ctx ->
          Controller.on_start ctl ctx;
          Waves.on_start wave ctx;
          Array.iter
            (fun tn -> if Tenant.name tn = victim_name then vic := Some tn)
            ctx.Engine.cx_tenants;
          Option.iter (fun tn -> cur_start := Some (snap_of tn wave)) !vic);
      h_on_tick =
        (fun ctx ~at ->
          (* Ticks fire on the event queue regardless of victim health,
             so the During -> After boundary is detected even when every
             post-window arrival sheds without executing. *)
          Option.iter
            (fun tn ->
              advance_to (Waves.phase_at wave ~clock:(Tenant.arrivals tn)) tn)
            !vic;
          Controller.on_tick ctl ctx ~at);
      h_before_request =
        (fun ctx ~at:_ ~tenant ~key ->
          let tn = ctx.Engine.cx_tenants.(tenant) in
          if Tenant.name tn = victim_name then
            advance_to (Waves.phase_at wave ~clock:(Tenant.arrivals tn)) tn;
          Waves.before_request wave ctx ~tenant ~key);
      h_after_request =
        (fun ctx ~at ~tenant ~verdict ->
          Waves.after_request wave ctx ~tenant ~verdict;
          let tn = ctx.Engine.cx_tenants.(tenant) in
          if Tenant.name tn = victim_name then
            match verdict with
            | Engine.Served fin ->
              Metrics.Stats.add (List.assq !cur stats)
                (float_of_int (fin - at))
            | Engine.Shed | Engine.Deadline_missed -> ());
    }
  in
  let params =
    {
      (Engine.default_params ~seed) with
      Engine.p_max_restarts = 16;
      p_hooks = Some hooks;
    }
  in
  let res = Engine.run ~params cfgs in
  let vic_tn =
    match !vic with
    | Some tn -> tn
    | None -> invalid_arg "Defense.Defend: victim tenant not found"
  in
  (* Close the current phase, then any phases the run never reached. *)
  close_phase (snap_of vic_tn wave);
  List.iter
    (fun ph ->
      if
        List.exists (fun p -> p = ph) phases_in_order
        && not (List.exists (fun r -> r.pr_phase = Waves.phase_name ph) !rows)
      then begin
        cur := ph;
        close_phase (snap_of vic_tn wave)
      end)
    phases_in_order;
  let order r =
    match r.pr_phase with "before" -> 0 | "during" -> 1 | _ -> 2
  in
  let phases = List.sort (fun a b -> compare (order a) (order b)) !rows in
  {
    dl_adversary = Waves.name wave_kind;
    dl_ladder = ladder_name;
    dl_victim = victim_name;
    dl_requests = requests;
    dl_window = (from_, until);
    dl_phases = phases;
    dl_timeline = Controller.events ctl;
    dl_ticks = Controller.ticks ctl;
    dl_escalations = Controller.escalations ctl;
    dl_de_escalations = Controller.de_escalations ctl;
    dl_failed_switches = Controller.failed_switches ctl;
    dl_policy_switches = Tenant.policy_switches vic_tn;
    dl_final_policy = Harness.Policy.name (Tenant.active_policy vic_tn);
    dl_victim_refused = Tenant.state vic_tn = Tenant.Refused;
    dl_bits_observed = Waves.bits wave;
    dl_bits_terminations = float_of_int (Tenant.terminations vic_tn);
    dl_probes = Waves.probes wave;
    dl_digest = res.Engine.r_digest;
  }

let run ?(quick = false) ?(adversaries = Waves.all) ?(ladder_filter = ladder_names)
    ~seed ~jobs () =
  (* Shard seeds index into the canonical *full* matrix, so a filtered
     sweep reproduces exactly the cells of an unfiltered one. *)
  let tasks =
    List.concat_map (fun w -> List.map (fun l -> (w, l)) ladders) Waves.all
    |> List.mapi (fun idx (w, (ln, ld)) -> (idx, w, ln, ld))
    |> List.filter (fun (_, w, ln, _) ->
           List.mem w adversaries && List.mem ln ladder_filter)
  in
  Parallel.Pool.map ~jobs
    (fun (idx, wave_kind, ladder_name, dc_ladder) ->
      run_cell ~quick ~wave_kind ~ladder_name ~dc_ladder
        ~seed:(Parallel.Pool.shard_seed ~root:seed ~shard:idx))
    tasks

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ?wall ~quick ~seed cells =
  let b = Buffer.create 16_384 in
  let f = Printf.sprintf "%.6f" in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"autarky-defense/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" seed);
  (match wall with
  | Some (jobs, secs) ->
    Buffer.add_string b
      (Printf.sprintf "  \"wall\": {\"jobs\": %d, \"matrix_s\": %.2f},\n" jobs
         secs)
  | None -> ());
  Buffer.add_string b "  \"cells\": [\n";
  let last = List.length cells - 1 in
  List.iteri
    (fun i c ->
      let from_, until = c.dl_window in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"adversary\": \"%s\", \"ladder\": \"%s\", \"victim\": \
            \"%s\", \"requests\": %d, \"wave_from\": %d, \"wave_until\": %d, \
            \"ticks\": %d, \"escalations\": %d, \"de_escalations\": %d, \
            \"failed_switches\": %d, \"policy_switches\": %d, \
            \"final_policy\": \"%s\", \"victim_refused\": %b, \
            \"bits_observed\": %s, \"bits_terminations\": %s, \"probes\": \
            %d, \"digest\": \"%s\",\n"
           (json_escape c.dl_adversary)
           (json_escape c.dl_ladder)
           (json_escape c.dl_victim)
           c.dl_requests from_ until c.dl_ticks c.dl_escalations
           c.dl_de_escalations c.dl_failed_switches c.dl_policy_switches
           (json_escape c.dl_final_policy)
           c.dl_victim_refused
           (f c.dl_bits_observed)
           (f c.dl_bits_terminations)
           c.dl_probes
           (json_escape (Option.value c.dl_digest ~default:"")));
      Buffer.add_string b "     \"phases\": [";
      let plast = List.length c.dl_phases - 1 in
      List.iteri
        (fun j p ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"phase\": \"%s\", \"arrivals\": %d, \"served\": %d, \
                \"shed\": %d, \"missed\": %d, \"terminations\": %d, \
                \"restarts\": %d, \"samples\": %d, \"mean_cycles\": %s, \
                \"p99_cycles\": %s, \"bits_observed\": %s, \
                \"bits_terminations\": %s}%s"
               p.pr_phase p.pr_arrivals p.pr_served p.pr_shed p.pr_missed
               p.pr_terminations p.pr_restarts p.pr_samples (f p.pr_mean)
               (f p.pr_p99) (f p.pr_bits_observed)
               (f p.pr_bits_terminations)
               (if j = plast then "" else ", ")))
        c.dl_phases;
      Buffer.add_string b "],\n";
      Buffer.add_string b "     \"timeline\": [";
      let tlast = List.length c.dl_timeline - 1 in
      List.iteri
        (fun j (e : Controller.event) ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"at\": %d, \"tenant\": \"%s\", \"verdict\": \"%s\", \
                \"from\": \"%s\", \"to\": \"%s\", \"rung\": %d, \"note\": \
                \"%s\"}%s"
               e.Controller.ev_at
               (json_escape e.Controller.ev_tenant)
               (Controller.verdict_name e.Controller.ev_verdict)
               (Harness.Policy.name e.Controller.ev_from)
               (Harness.Policy.name e.Controller.ev_to)
               e.Controller.ev_rung
               (json_escape e.Controller.ev_note)
               (if j = tlast then "" else ", ")))
        c.dl_timeline;
      Buffer.add_string b "]}";
      Buffer.add_string b (if i = last then "\n" else ",\n"))
    cells;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  Buffer.contents b

let print_table cells =
  Printf.printf "  %-13s %-10s %4s %5s %5s %-10s %11s %11s %6s\n" "adversary"
    "ladder" "esc" "deesc" "fail" "final" "p99(during)" "p99(after)" "bits";
  List.iter
    (fun c ->
      let p99 ph =
        match
          List.find_opt (fun p -> p.pr_phase = ph) c.dl_phases
        with
        | Some p -> p.pr_p99
        | None -> 0.0
      in
      Printf.printf "  %-13s %-10s %4d %5d %5d %-10s %11.0f %11.0f %6.2f\n"
        c.dl_adversary c.dl_ladder c.dl_escalations c.dl_de_escalations
        c.dl_failed_switches c.dl_final_policy (p99 "during") (p99 "after")
        (c.dl_bits_observed +. c.dl_bits_terminations))
    cells
