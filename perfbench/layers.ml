(* Per-layer span accounting for the traced run.

   Every span is opened and closed by a wrapper the benchmark installs
   on one of the simulator's public seams:

     workloads.op   the benchmark's own op loop
     sgx.access     a Workloads.Vm.t wrapper (read/write/exec)
     oram.read/.write  the ORAM accessor handed to System.vm ~instrument
     autarky.miss   pol_on_miss, wrapped before Runtime.set_policy
     sim_os.*       the Os_iface.t record, via System.create ~wrap_os

   A span records host nanoseconds and modeled cycles (the platform's
   Clock.now).  A layer's self time is its spans' duration minus what
   their child spans cover, so the self times of all layers plus the
   part of the measured phase outside any span add up to the whole
   phase, on both clocks.  Aggregates stay in arrays and are read once
   the run ends; nothing is written while the phase runs. *)

let op = 0
let access = 1
let miss = 2
let oram_read = 3
let oram_write = 4
let os_fetch = 5
let os_evict = 6
let os_aug = 7
let os_remove = 8
let os_blob = 9
let os_other = 10
let n_layers = 11

let os_layers = [ os_fetch; os_evict; os_aug; os_remove; os_blob; os_other ]

let max_depth = 32

type t = {
  mutable active : bool;
  mutable cycles : unit -> int;
  count : int array;
  total_ns : int array;
  self_ns : int array;
  total_cyc : int array;
  self_cyc : int array;
  (* the open-span stack *)
  st_layer : int array;
  st_ns : int array;
  st_cyc : int array;
  st_child_ns : int array;
  st_child_cyc : int array;
  mutable depth : int;
  mutable overflowed : bool;
  (* summed durations of outermost spans *)
  mutable top_ns : int;
  mutable top_cyc : int;
  mutable refused : int;  (* OS calls that returned [Error] *)
  mutable blob_seals : int;  (* runtime-sealed pages handed to the OS *)
  mutable blob_unseals : int;  (* sealed pages loaded back *)
}

let create () =
  let z () = Array.make n_layers 0 and s () = Array.make max_depth 0 in
  {
    active = false;
    cycles = (fun () -> 0);
    count = z ();
    total_ns = z ();
    self_ns = z ();
    total_cyc = z ();
    self_cyc = z ();
    st_layer = s ();
    st_ns = s ();
    st_cyc = s ();
    st_child_ns = s ();
    st_child_cyc = s ();
    depth = 0;
    overflowed = false;
    top_ns = 0;
    top_cyc = 0;
    refused = 0;
    blob_seals = 0;
    blob_unseals = 0;
  }

(* Start counting: [cycles] reads the modeled clock the spans use. *)
let start t ~cycles =
  t.cycles <- cycles;
  t.active <- true

let stop t = t.active <- false

let enter t layer =
  let d = t.depth in
  if d >= max_depth then t.overflowed <- true
  else begin
    t.st_layer.(d) <- layer;
    t.st_child_ns.(d) <- 0;
    t.st_child_cyc.(d) <- 0;
    t.st_cyc.(d) <- t.cycles ();
    t.st_ns.(d) <- Hostclock.now_ns ()
  end;
  t.depth <- d + 1

let leave t =
  let now = Hostclock.now_ns () in
  let cyc = t.cycles () in
  let d = t.depth - 1 in
  t.depth <- d;
  if d < max_depth then begin
    let l = t.st_layer.(d) in
    let dns = now - t.st_ns.(d) and dcyc = cyc - t.st_cyc.(d) in
    t.count.(l) <- t.count.(l) + 1;
    t.total_ns.(l) <- t.total_ns.(l) + dns;
    t.self_ns.(l) <- t.self_ns.(l) + dns - t.st_child_ns.(d);
    t.total_cyc.(l) <- t.total_cyc.(l) + dcyc;
    t.self_cyc.(l) <- t.self_cyc.(l) + dcyc - t.st_child_cyc.(d);
    if d > 0 then begin
      t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dns;
      t.st_child_cyc.(d - 1) <- t.st_child_cyc.(d - 1) + dcyc
    end
    else begin
      t.top_ns <- t.top_ns + dns;
      t.top_cyc <- t.top_cyc + dcyc
    end
  end

(* [span1 t layer f x] is [f x] inside a span of [layer]; the span is
   closed on the way out of an exception too (an enclave termination
   unwinds through every wrapper). *)
let span1 t layer f x =
  if not t.active then f x
  else begin
    enter t layer;
    match f x with
    | v ->
      leave t;
      v
    | exception e ->
      leave t;
      raise e
  end

let span2 t layer f x y =
  if not t.active then f x y
  else begin
    enter t layer;
    match f x y with
    | v ->
      leave t;
      v
    | exception e ->
      leave t;
      raise e
  end

(* --- wrappers over the public seams ------------------------------------ *)

let wrap_vm t (vm : Workloads.Vm.t) =
  {
    vm with
    Workloads.Vm.read = (fun a -> span1 t access vm.Workloads.Vm.read a);
    write = (fun a -> span1 t access vm.Workloads.Vm.write a);
    exec = (fun a -> span1 t access vm.Workloads.Vm.exec a);
  }

let wrap_instrument t f a k =
  span2 t (if k = Sgx.Types.Write then oram_write else oram_read) f a k

let wrap_policy t (p : Autarky.Runtime.policy) =
  {
    p with
    Autarky.Runtime.pol_on_miss =
      (fun vp fault -> span2 t miss p.Autarky.Runtime.pol_on_miss vp fault);
  }

let refusal t r =
  (match r with Error _ when t.active -> t.refused <- t.refused + 1 | _ -> ());
  r

let wrap_os t (os : Autarky.Os_iface.t) =
  let open Autarky.Os_iface in
  {
    set_enclave_managed = (fun l -> span1 t os_other os.set_enclave_managed l);
    set_os_managed = (fun l -> span1 t os_other os.set_os_managed l);
    fetch_pages = (fun l -> refusal t (span1 t os_fetch os.fetch_pages l));
    fetch_page = (fun vp -> refusal t (span1 t os_fetch os.fetch_page vp));
    evict_pages = (fun l -> span1 t os_evict os.evict_pages l);
    aug_pages = (fun l -> refusal t (span1 t os_aug os.aug_pages l));
    aug_page = (fun vp -> refusal t (span1 t os_aug os.aug_page vp));
    remove_pages = (fun l -> span1 t os_remove os.remove_pages l);
    blob_store =
      (fun vp sealed ->
        if t.active then t.blob_seals <- t.blob_seals + 1;
        span2 t os_blob os.blob_store vp sealed);
    blob_load =
      (fun vp ->
        let r = span1 t os_blob os.blob_load vp in
        (match r with
        | Some _ when t.active -> t.blob_unseals <- t.blob_unseals + 1
        | _ -> ());
        r);
    page_in_os_managed =
      (fun vp -> refusal t (span1 t os_other os.page_in_os_managed vp));
    epc_headroom = (fun () -> span1 t os_other os.epc_headroom ());
  }

(* --- read-out ----------------------------------------------------------- *)

let sum f layers = List.fold_left (fun acc l -> acc + f l) 0 layers

(* Self cycles of every layer; with the cycles outside any span they
   must add up to the measured clock total. *)
let self_cycles_sum t =
  sum (fun l -> t.self_cyc.(l)) (List.init n_layers Fun.id)

(* Well-formed when every span closed and no self time went negative
   (a negative self time means a child outlived its parent). *)
let well_formed t =
  t.depth = 0 && (not t.overflowed)
  && Array.for_all (fun v -> v >= 0) t.self_ns
  && Array.for_all (fun v -> v >= 0) t.self_cyc
