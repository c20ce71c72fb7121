(* The fleet-serve workload: the committed 100-tenant
   [Serve.Driver.fleet_scenario] (sketch latency, trace off), driven as
   one closed-loop caller through [Engine.start] / [step] / [finish].

   Simulated accesses are summed over every tenant's CPU.  Tenants that
   join mid-run get their CPU at the join and departing tenants drop
   theirs, so the benchmark keeps its own reference to each CPU as it
   appears: with tracing off [Engine.finish] only packages the live
   state (its trace emits are no-ops), so calling it once right after
   [start] yields the tenant array the loop keeps mutating.  A new CPU
   can only appear with an EINIT, so the tenants are rescanned only
   when the machine's EINIT counter moves. *)

type t = {
  st : Serve.Engine.state;
  machine : Sgx.Machine.t;
  tenants : Serve.Tenant.t array;
  cpus : Sgx.Cpu.t option array;
  base : int array;  (* accesses a CPU had when the phase started *)
  mutable retired : int;  (* phase accesses of CPUs replaced by a reboot *)
  einit : Metrics.Counters.cell;
  mutable einit_seen : int;
}

let tenants_n = 100

let params ~seed =
  {
    (Serve.Engine.default_params ~seed) with
    Serve.Engine.p_trace = false;
    p_sketch = true;
  }

let capture f ~at_start =
  Array.iteri
    (fun i tn ->
      if Serve.Tenant.state tn = Serve.Tenant.Active then begin
        let cpu = Harness.System.cpu (Serve.Tenant.sys tn) in
        match f.cpus.(i) with
        | Some c when c == cpu -> ()
        | old ->
          (match old with
          | Some c -> f.retired <- f.retired + Sgx.Cpu.accesses c - f.base.(i)
          | None -> ());
          f.cpus.(i) <- Some cpu;
          f.base.(i) <- (if at_start then Sgx.Cpu.accesses cpu else 0)
      end)
    f.tenants

let start ~quick ~seed =
  let cfgs = Serve.Driver.fleet_scenario ~tenants:tenants_n ~quick in
  let st = Serve.Engine.start ~params:(params ~seed) cfgs in
  let view = Serve.Engine.finish st in
  let machine = Serve.Engine.machine_of st in
  let n = Array.length view.Serve.Engine.r_tenants in
  let einit = (Sgx.Machine.hot machine).Sgx.Machine.c_einit in
  let f =
    {
      st;
      machine;
      tenants = view.Serve.Engine.r_tenants;
      cpus = Array.make n None;
      base = Array.make n 0;
      retired = 0;
      einit;
      einit_seen = Metrics.Counters.cell_get einit;
    }
  in
  capture f ~at_start:true;
  f

let step f =
  let more = Serve.Engine.step f.st in
  let e = Metrics.Counters.cell_get f.einit in
  if e <> f.einit_seen then begin
    f.einit_seen <- e;
    capture f ~at_start:false
  end;
  more

let accesses f =
  let live = ref f.retired in
  Array.iteri
    (fun i c ->
      match c with
      | Some cpu -> live := !live + Sgx.Cpu.accesses cpu - f.base.(i)
      | None -> ())
    f.cpus;
  !live

type outcome = {
  o_end_cycle : int;
  o_arrivals : int;
  o_served : int;
  o_shed : int;
  o_missed : int;
  o_terminations : int;
  o_unbalanced : string list;
      (* tenants whose arrivals <> served + shed + missed *)
  o_arbiter_moves : int;
  o_p50 : float;
  o_p99 : float;
  o_samples : int;
}

(* Close the run and build the modeled report through the serve layer's
   own report path, pooling the tenants' sketches as the fleet-scale
   report does. *)
let finish f ~quick ~seed =
  let res = Serve.Engine.finish f.st in
  let rp = Serve.Driver.report_of_result ~seed ~quick res in
  let rows = rp.Serve.Driver.rp_tenants in
  let sum g = List.fold_left (fun acc r -> acc + g r) 0 rows in
  let pooled =
    Metrics.Sketch.summary
      (Metrics.Sketch.merged
         (List.filter_map (fun r -> r.Serve.Driver.tr_sketch) rows))
  in
  {
    o_end_cycle = rp.Serve.Driver.rp_end_cycle;
    o_arrivals = sum (fun r -> r.Serve.Driver.tr_arrivals);
    o_served = sum (fun r -> r.Serve.Driver.tr_served);
    o_shed = sum (fun r -> r.Serve.Driver.tr_shed);
    o_missed = sum (fun r -> r.Serve.Driver.tr_missed);
    o_terminations = sum (fun r -> r.Serve.Driver.tr_terminations);
    o_unbalanced =
      List.filter_map
        (fun r ->
          let open Serve.Driver in
          if r.tr_arrivals <> r.tr_served + r.tr_shed + r.tr_missed then
            Some r.tr_name
          else None)
        rows;
    o_arbiter_moves = rp.Serve.Driver.rp_arbiter_moves;
    o_p50 = pooled.Metrics.Stats.s_p50;
    o_p99 = pooled.Metrics.Stats.s_p99;
    o_samples = pooled.Metrics.Stats.s_count;
  }
