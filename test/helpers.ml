(* Shared builders for the test suites. *)

open Sgx

let machine ?(mode = Machine.Full_exits) ?(epc_frames = 64) () =
  Machine.create ~mode ~epc_frames ()

let enclave_with_pages ?(self_paging = false) ?(pages = 16) ?(mapped = true) m =
  let enclave = Instructions.ecreate m ~size_pages:pages ~self_paging in
  let pt = Page_table.create () in
  for i = 0 to pages - 1 do
    let vp = enclave.Enclave.base_vpage + i in
    let data = Page_data.create () in
    Page_data.fill_int data (1000 + i);
    let frame =
      Instructions.eadd m enclave ~vpage:vp ~data ~perms:Types.perms_rwx
        ~ptype:Types.Pt_reg
    in
    if mapped then
      Page_table.map pt ~vpage:vp ~frame ~perms:Types.perms_rwx
        ~accessed:self_paging ~dirty:self_paging ()
  done;
  Instructions.einit m enclave;
  (enclave, pt)

(* An OS that must never be called (for fault-free paths). *)
let no_os : Cpu.os_callbacks =
  {
    handle_enclave_fault = (fun _ -> Alcotest.fail "unexpected fault to OS");
    handle_preempt = (fun ~enclave_id:_ -> ());
  }

(* An OS whose fault handler runs [f] then resumes. *)
let os_resuming m enclave f : Cpu.os_callbacks =
  {
    handle_enclave_fault =
      (fun report ->
        f report;
        match Instructions.eresume m enclave with
        | Ok () -> ()
        | Error `Pending_exception ->
          Instructions.enter_handler_and_resume m enclave);
    handle_preempt = (fun ~enclave_id:_ -> ());
  }

let vaddr_of enclave i = Types.vaddr_of_vpage (enclave.Enclave.base_vpage + i)

(* The full architectural eviction protocol for tests that evict a
   single page directly: provision VA capacity, block, track, write. *)
let ewb_protocol m enclave ~vpage =
  if Machine.free_va_slots m < 1 then
    (match Instructions.epa m with
    | Ok _ -> ()
    | Error `Epc_full -> Alcotest.fail "no EPC frame for a VA page");
  Instructions.eblock m enclave ~vpage;
  Instructions.etrack m enclave;
  Instructions.ewb m enclave ~vpage

(* A full self-paging system with a data region carved and managed. *)
let autarky_system ?(epc_frames = 256) ?(epc_limit = 128) ?(enclave_pages = 512)
    ?(budget = 96) () =
  Harness.System.create ~epc_frames ~epc_limit ~enclave_pages ~self_paging:true
    ~budget ()

let legacy_system ?(epc_frames = 256) ?(epc_limit = 128) ?(enclave_pages = 512) () =
  Harness.System.create ~epc_frames ~epc_limit ~enclave_pages ~self_paging:false ()

(* Bytes [f] allocates ({!Harness.Perf.alloc_bytes}), as the minimum
   over 3 identical runs ([setup] runs before each, unmeasured).
   Exact counting keeps a minor collection inside the window from
   showing up as a jump; the minimum also drops one-off work such as a
   lazy first-use allocation, while a path that really allocates does
   so in every run. *)
let min_alloc_bytes ?(setup = ignore) f =
  let best = ref infinity in
  for _ = 1 to 3 do
    setup ();
    best := Float.min !best (snd (Harness.Perf.alloc_bytes f))
  done;
  !best
