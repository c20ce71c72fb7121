(* Tests for the SGX hardware model: EPC/EPCM, page tables, TLB,
   enclave lifecycle, MMU checks (legacy and Autarky semantics), the
   instruction set including SGXv1/v2 paging, and the CPU fault flow. *)

open Sgx

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* One enclave-mode access through the unboxed MMU path, as a result. *)
let translate m pt e va kind =
  match Mmu.translate_code m pt e va kind with
  | 0 -> Ok ()
  | code -> Error (Mmu.cause_of_code code)

(* --- EPC / EPCM ------------------------------------------------------- *)

let test_epc_alloc_release () =
  let epc = Epc.create ~frames:4 in
  checki "all free" 4 (Epc.free_frames epc);
  let f1 = Option.get (Epc.alloc epc) in
  let f2 = Option.get (Epc.alloc epc) in
  checkb "distinct" true (f1 <> f2);
  checki "two used" 2 (Epc.free_frames epc);
  Epc.release epc f1;
  checki "released" 3 (Epc.free_frames epc)

let test_epc_exhaustion () =
  let epc = Epc.create ~frames:2 in
  ignore (Epc.alloc epc);
  ignore (Epc.alloc epc);
  checkb "exhausted" true (Epc.alloc epc = None)

let test_epcm_bind_reverse () =
  let epc = Epc.create ~frames:4 in
  let f = Option.get (Epc.alloc epc) in
  Epc.bind epc ~frame:f ~enclave_id:7 ~vpage:0x100 ~perms:Types.perms_rw
    ~ptype:Types.Pt_reg ~pending:false;
  checkb "reverse lookup" true (Epc.frame_of epc ~enclave_id:7 ~vpage:0x100 = Some f);
  checkb "wrong enclave" true (Epc.frame_of epc ~enclave_id:8 ~vpage:0x100 = None);
  Epc.release epc f;
  checkb "reverse cleared" true (Epc.frame_of epc ~enclave_id:7 ~vpage:0x100 = None)

let test_epcm_double_bind_rejected () =
  let epc = Epc.create ~frames:2 in
  let f = Option.get (Epc.alloc epc) in
  Epc.bind epc ~frame:f ~enclave_id:1 ~vpage:1 ~perms:Types.perms_rw
    ~ptype:Types.Pt_reg ~pending:false;
  checkb "double bind raises" true
    (try
       Epc.bind epc ~frame:f ~enclave_id:1 ~vpage:2 ~perms:Types.perms_rw
         ~ptype:Types.Pt_reg ~pending:false;
       false
     with Types.Sgx_error _ -> true)

let test_epc_frames_of_enclave () =
  let epc = Epc.create ~frames:8 in
  for i = 0 to 2 do
    let f = Option.get (Epc.alloc epc) in
    Epc.bind epc ~frame:f ~enclave_id:3 ~vpage:i ~perms:Types.perms_rw
      ~ptype:Types.Pt_reg ~pending:false
  done;
  checki "three frames" 3 (List.length (Epc.frames_of_enclave epc ~enclave_id:3));
  checki "none for other" 0 (List.length (Epc.frames_of_enclave epc ~enclave_id:4))

(* --- Page table ------------------------------------------------------- *)

let test_page_table_map_unmap () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:5 ~frame:1 ~perms:Types.perms_rw ();
  checkb "present" true (Page_table.present pt 5);
  let p = Page_table.find_packed pt 5 in
  checkb "pte mapped" true (p >= 0);
  checkb "accessed defaults false" false (Page_table.p_accessed p);
  checkb "dirty defaults false" false (Page_table.p_dirty p);
  Page_table.unmap pt 5;
  checkb "unmapped" false (Page_table.present pt 5)

let test_page_table_ad_bits () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:5 ~frame:1 ~perms:Types.perms_rw ~accessed:true
    ~dirty:true ();
  Page_table.clear_accessed pt 5;
  let p = Page_table.find_packed pt 5 in
  checkb "pte mapped" true (p >= 0);
  checkb "accessed cleared" false (Page_table.p_accessed p);
  checkb "dirty kept" true (Page_table.p_dirty p);
  Page_table.clear_dirty pt 5;
  checkb "dirty cleared" false (Page_table.p_dirty (Page_table.find_packed pt 5))

let test_page_table_perms () =
  let pt = Page_table.create () in
  Page_table.map pt ~vpage:9 ~frame:2 ~perms:Types.perms_rwx ();
  Page_table.set_perms pt 9 Types.perms_ro;
  checkb "perm update" true
    (Page_table.p_perms (Page_table.find_packed pt 9) = Types.perms_ro);
  Alcotest.check_raises "missing page" Not_found (fun () ->
      Page_table.set_perms pt 10 Types.perms_ro)

(* --- TLB -------------------------------------------------------------- *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create () in
  checkb "cold miss" false (Tlb.hit tlb 1 Types.Read);
  Tlb.fill tlb 1 Types.perms_ro;
  checkb "hit read" true (Tlb.hit tlb 1 Types.Read);
  checkb "miss write (ro entry)" false (Tlb.hit tlb 1 Types.Write)

let test_tlb_flush () =
  let tlb = Tlb.create () in
  Tlb.fill tlb 1 Types.perms_rwx;
  Tlb.fill tlb 2 Types.perms_rwx;
  Tlb.flush_page tlb 1;
  checkb "page flushed" false (Tlb.hit tlb 1 Types.Read);
  checkb "other kept" true (Tlb.hit tlb 2 Types.Read);
  Tlb.flush tlb;
  checkb "all flushed" false (Tlb.hit tlb 2 Types.Read)

let test_tlb_capacity_eviction () =
  let tlb = Tlb.create ~capacity:4 () in
  for vp = 1 to 5 do
    Tlb.fill tlb vp Types.perms_rwx
  done;
  checki "capacity respected" 4 (Tlb.size tlb);
  checkb "oldest evicted" false (Tlb.hit tlb 1 Types.Read);
  checkb "newest kept" true (Tlb.hit tlb 5 Types.Read)

(* --- Enclave ---------------------------------------------------------- *)

let test_enclave_ranges () =
  let m = Helpers.machine () in
  let e = Instructions.ecreate m ~size_pages:8 ~self_paging:false in
  checkb "contains base" true (Enclave.contains_vpage e e.base_vpage);
  checkb "contains last" true (Enclave.contains_vpage e (e.base_vpage + 7));
  checkb "excludes end" false (Enclave.contains_vpage e (e.base_vpage + 8));
  checki "end vpage" (e.base_vpage + 8) (Enclave.end_vpage e)

let test_enclave_lifecycle () =
  let m = Helpers.machine () in
  let e = Instructions.ecreate m ~size_pages:4 ~self_paging:false in
  checkb "not runnable before einit" true
    (try Enclave.assert_runnable e; false with Types.Sgx_error _ -> true);
  Instructions.einit m e;
  Enclave.assert_runnable e;
  checkb "terminate raises" true
    (try Enclave.terminate e ~reason:"test"
     with Types.Enclave_terminated { reason = "test"; _ } -> true);
  checkb "dead not runnable" true
    (try Enclave.assert_runnable e; false with Types.Sgx_error _ -> true)

let test_enclave_regions_disjoint () =
  let m = Helpers.machine () in
  let e1 = Instructions.ecreate m ~size_pages:100 ~self_paging:false in
  let e2 = Instructions.ecreate m ~size_pages:100 ~self_paging:false in
  checkb "disjoint regions" false (Enclave.contains_vpage e2 e1.base_vpage)

(* --- MMU: legacy semantics -------------------------------------------- *)

let test_mmu_hit_after_walk () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  let va = Helpers.vaddr_of e 0 in
  checkb "first access ok" true (translate m pt e va Types.Read = Ok ());
  let misses = Metrics.Counters.get (Machine.counters m) "mmu.tlb_miss" in
  checkb "second access TLB hit" true (translate m pt e va Types.Read = Ok ());
  checki "no extra miss" misses
    (Metrics.Counters.get (Machine.counters m) "mmu.tlb_miss")

let test_mmu_legacy_sets_ad_bits () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  let vp = e.base_vpage in
  ignore (translate m pt e (Helpers.vaddr_of e 0) Types.Read);
  let p = Page_table.find_packed pt vp in
  checkb "accessed set" true (Page_table.p_accessed p);
  checkb "dirty not set on read" false (Page_table.p_dirty p);
  ignore (translate m pt e (Helpers.vaddr_of e 0) Types.Write);
  (* write with RO TLB entry forces re-walk and sets dirty *)
  checkb "dirty set on write" true
    (Page_table.p_dirty (Page_table.find_packed pt vp))

let test_mmu_not_present_fault () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  Page_table.unmap pt e.base_vpage;
  checkb "not-present fault" true
    (translate m pt e (Helpers.vaddr_of e 0) Types.Read
    = Error Types.Not_present)

let test_mmu_permission_fault () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  Page_table.set_perms pt e.base_vpage Types.perms_ro;
  checkb "write to RO faults" true
    (translate m pt e (Helpers.vaddr_of e 0) Types.Write
    = Error (Types.Permission Types.Write))

let test_mmu_epcm_mismatch_wrong_frame () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  (* Point page 0's PTE at page 1's frame: EPCM catches it. *)
  let f1 = Option.get (Epc.frame_of m.epc ~enclave_id:e.id ~vpage:(e.base_vpage + 1)) in
  Page_table.set_frame pt e.base_vpage f1;
  checkb "EPCM mismatch" true
    (translate m pt e (Helpers.vaddr_of e 0) Types.Read
    = Error Types.Epcm_mismatch)

let test_mmu_non_epc_mapping () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  Page_table.set_frame pt e.base_vpage 9999;
  checkb "non-EPC mapping faults" true
    (translate m pt e (Helpers.vaddr_of e 0) Types.Read
    = Error Types.Non_epc_mapping)

let test_mmu_outside_enclave_rejected () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  checkb "outside region is a simulator bug" true
    (try ignore (translate m pt e 0x42 Types.Read); false
     with Types.Sgx_error _ -> true)

(* --- MMU: Autarky semantics ------------------------------------------- *)

let test_mmu_autarky_ad_clear_faults () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages ~self_paging:true m in
  (* Pages mapped with A/D set: access works. *)
  checkb "preset A/D ok" true
    (translate m pt e (Helpers.vaddr_of e 0) Types.Read = Ok ());
  (* OS clears the accessed bit and flushes: next walk faults. *)
  Page_table.clear_accessed pt e.base_vpage;
  Tlb.flush_page m.tlb e.base_vpage;
  checkb "cleared A faults" true
    (translate m pt e (Helpers.vaddr_of e 0) Types.Read = Error Types.Ad_clear)

let test_mmu_autarky_dirty_clear_faults () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages ~self_paging:true m in
  Page_table.clear_dirty pt e.base_vpage;
  Tlb.flush_page m.tlb e.base_vpage;
  checkb "cleared D faults even for reads" true
    (translate m pt e (Helpers.vaddr_of e 0) Types.Read = Error Types.Ad_clear)

let test_mmu_autarky_never_writes_ad () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages ~self_paging:true m in
  ignore (translate m pt e (Helpers.vaddr_of e 0) Types.Write);
  let p = Page_table.find_packed pt e.base_vpage in
  (* Bits were preset by the OS; the walk must not have needed to write
     them (they stay as installed). *)
  checkb "A stays set" true (Page_table.p_accessed p);
  checkb "D stays set" true (Page_table.p_dirty p)

let test_mmu_fault_masking () =
  let m = Helpers.machine () in
  let legacy = Instructions.ecreate m ~size_pages:4 ~self_paging:false in
  let auta = Instructions.ecreate m ~size_pages:4 ~self_paging:true in
  let va_l = Types.vaddr_of_vpage legacy.base_vpage + 0x123 in
  let va_a = Types.vaddr_of_vpage (auta.base_vpage + 2) + 0x456 in
  let r_l = Mmu.os_report legacy va_l Types.Write in
  checki "legacy: page visible, offset masked"
    (Types.vaddr_of_vpage legacy.base_vpage) r_l.fr_vaddr;
  checkb "legacy: access type visible" true (r_l.fr_access = Types.Write);
  let r_a = Mmu.os_report auta va_a Types.Write in
  checki "autarky: base address only" (Enclave.base_vaddr auta) r_a.fr_vaddr;
  checkb "autarky: access type hidden" true (r_a.fr_access = Types.Read)

(* --- Instructions: entry/exit/fault delivery -------------------------- *)

let test_pending_exception_blocks_eresume () =
  let m = Helpers.machine () in
  let e, _pt = Helpers.enclave_with_pages ~self_paging:true m in
  let sf = { Types.sf_vaddr = Helpers.vaddr_of e 0; sf_access = Types.Read;
             sf_cause = Types.Not_present } in
  Instructions.aex m e ~reason:(`Fault sf);
  checkb "pending set" true e.tcs.pending_exception;
  checkb "silent resume blocked" true
    (Instructions.eresume m e = Error `Pending_exception);
  (* Re-entering through the handler clears it. *)
  e.entry <- (fun _ -> ());
  Instructions.enter_handler_and_resume m e;
  checkb "pending cleared" false e.tcs.pending_exception;
  checkb "ssa popped" true (Stack.is_empty e.tcs.ssa)

let test_legacy_silent_resume_allowed () =
  let m = Helpers.machine () in
  let e, _pt = Helpers.enclave_with_pages ~self_paging:false m in
  let sf = { Types.sf_vaddr = Helpers.vaddr_of e 0; sf_access = Types.Read;
             sf_cause = Types.Not_present } in
  Instructions.aex m e ~reason:(`Fault sf);
  checkb "no pending flag for legacy" false e.tcs.pending_exception;
  checkb "silent resume works" true (Instructions.eresume m e = Ok ());
  checkb "ssa popped" true (Stack.is_empty e.tcs.ssa)

let test_interrupt_resume () =
  let m = Helpers.machine () in
  let e, _pt = Helpers.enclave_with_pages ~self_paging:true m in
  Instructions.aex m e ~reason:`Interrupt;
  checkb "interrupt sets no pending flag" false e.tcs.pending_exception;
  checkb "resume ok" true (Instructions.eresume m e = Ok ())

let test_ssa_overflow_terminates () =
  let m = Helpers.machine () in
  let e = Instructions.ecreate m ~size_pages:4 ~self_paging:true in
  Instructions.einit m e;
  let sf = { Types.sf_vaddr = Enclave.base_vaddr e; sf_access = Types.Read;
             sf_cause = Types.Not_present } in
  checkb "fault storm terminates" true
    (try
       for _ = 1 to 100 do
         Instructions.aex m e ~reason:(`Fault sf)
       done;
       false
     with Types.Enclave_terminated _ -> true)

let test_handler_mode_costs () =
  (* The three transition modes charge strictly decreasing costs. *)
  let cost mode =
    let m = Helpers.machine ~mode () in
    let e, _pt = Helpers.enclave_with_pages ~self_paging:true m in
    e.entry <- (fun _ -> ());
    let sf = { Types.sf_vaddr = Enclave.base_vaddr e; sf_access = Types.Read;
               sf_cause = Types.Not_present } in
    let start = Metrics.Clock.now m.clock in
    (match mode with
    | Machine.No_upcall_no_aex -> Instructions.deliver_fault_in_enclave m e sf
    | _ ->
      Instructions.aex m e ~reason:(`Fault sf);
      Instructions.enter_handler_and_resume m e);
    Metrics.Clock.now m.clock - start
  in
  let full = cost Machine.Full_exits in
  let no_upcall = cost Machine.No_upcall in
  let elided = cost Machine.No_upcall_no_aex in
  checkb "no_upcall cheaper than full" true (no_upcall < full);
  checkb "elided cheaper than no_upcall" true (elided < no_upcall)

let test_eenter_run_charges () =
  let m = Helpers.machine () in
  let e, _pt = Helpers.enclave_with_pages m in
  let cm = Machine.model m in
  let start = Metrics.Clock.now m.clock in
  let result = Instructions.eenter_run m e (fun () -> 42) in
  checki "result" 42 result;
  checki "eenter+eexit charged" (cm.eenter + cm.eexit)
    (Metrics.Clock.now m.clock - start)

(* --- Instructions: SGXv1 paging --------------------------------------- *)

let test_ewb_eldu_roundtrip () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  let vp = e.base_vpage + 3 in
  let sw = Helpers.ewb_protocol m e ~vpage:vp in
  Page_table.unmap pt vp;
  checkb "frame freed" true (Epc.frame_of m.epc ~enclave_id:e.id ~vpage:vp = None);
  (match Instructions.eldu m e sw with
  | Ok frame ->
    checki "content preserved" 1003 (Page_data.read_int (Epc.data m.epc frame))
  | Error _ -> Alcotest.fail "eldu failed")

let test_eldu_rejects_replay () =
  let m = Helpers.machine () in
  let e, _pt = Helpers.enclave_with_pages m in
  let vp = e.base_vpage + 1 in
  let old = Helpers.ewb_protocol m e ~vpage:vp in
  (* Page comes back in, then is evicted again: old blob is stale. *)
  (match Instructions.eldu m e old with Ok _ -> () | Error _ -> Alcotest.fail "eldu");
  let _fresh = Helpers.ewb_protocol m e ~vpage:vp in
  match Instructions.eldu m e old with
  | Error `Replayed -> ()
  | Ok _ -> Alcotest.fail "replayed blob accepted"
  | Error e -> Alcotest.failf "wrong error %a" Instructions.pp_eldu_error e

let test_eldu_rejects_tamper () =
  let m = Helpers.machine () in
  let e, _pt = Helpers.enclave_with_pages m in
  let sw = Helpers.ewb_protocol m e ~vpage:(e.base_vpage + 2) in
  let ct = Bytes.copy sw.sw_sealed.ciphertext in
  Bytes.set ct 0 (Char.chr (Char.code (Bytes.get ct 0) lxor 0x80));
  let tampered = { sw with sw_sealed = { sw.sw_sealed with ciphertext = ct } } in
  match Instructions.eldu m e tampered with
  | Error `Mac_mismatch -> ()
  | Ok _ -> Alcotest.fail "tampered blob accepted"
  | Error _ -> Alcotest.fail "wrong error"

let test_eldu_wrong_enclave () =
  let m = Helpers.machine () in
  let e1, _ = Helpers.enclave_with_pages m in
  let e2, _ = Helpers.enclave_with_pages m in
  let sw = Helpers.ewb_protocol m e1 ~vpage:e1.base_vpage in
  checkb "cross-enclave eldu rejected" true
    (try ignore (Instructions.eldu m e2 sw); false
     with Types.Sgx_error _ -> true)

let test_ewb_epc_accounting () =
  (* 8 data pages + 1 frame left for the VA page. *)
  let m = Helpers.machine ~epc_frames:9 () in
  let e, _pt = Helpers.enclave_with_pages ~pages:8 m in
  checki "one frame free" 1 (Epc.free_frames m.epc);
  ignore (Helpers.ewb_protocol m e ~vpage:e.base_vpage);
  (* The VA page consumed the free frame; the eviction freed one. *)
  checki "frame reclaimed" 1 (Epc.free_frames m.epc)

let test_ewb_protocol_enforced () =
  let m = Helpers.machine () in
  let e, _pt = Helpers.enclave_with_pages m in
  let vp = e.base_vpage + 5 in
  (* Without EBLOCK. *)
  checkb "unblocked EWB rejected" true
    (try ignore (Instructions.ewb m e ~vpage:vp); false
     with Types.Sgx_error _ -> true);
  (* Blocked but the tracking epoch has not retired. *)
  Instructions.eblock m e ~vpage:vp;
  checkb "untracked EWB rejected" true
    (try ignore (Instructions.ewb m e ~vpage:vp); false
     with Types.Sgx_error _ -> true);
  (* Tracked but no version-array capacity. *)
  Instructions.etrack m e;
  checkb "EWB without VA slot rejected" true
    (try ignore (Instructions.ewb m e ~vpage:vp); false
     with Types.Sgx_error _ -> true);
  (match Instructions.epa m with Ok _ -> () | Error _ -> Alcotest.fail "epa");
  ignore (Instructions.ewb m e ~vpage:vp)

let test_blocked_page_faults () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  let vp = e.base_vpage + 4 in
  ignore (translate m pt e (Types.vaddr_of_vpage vp) Types.Read);
  Instructions.eblock m e ~vpage:vp;
  checkb "blocked page faults on next walk" true
    (translate m pt e (Types.vaddr_of_vpage vp) Types.Read
    = Error Types.Not_present)

let test_epa_capacity () =
  let m = Helpers.machine () in
  checki "no slots initially" 0 (Machine.free_va_slots m);
  (match Instructions.epa m with Ok _ -> () | Error _ -> Alcotest.fail "epa");
  checki "512 slots per VA page" 512 (Machine.free_va_slots m);
  let slot = Option.get (Machine.take_va_slot m ~version:7L) in
  checki "slot taken" 511 (Machine.free_va_slots m);
  checkb "readable" true (Machine.read_va_slot m slot = Some 7L);
  Machine.clear_va_slot m slot;
  checki "slot recycled" 512 (Machine.free_va_slots m);
  checkb "cleared" true (Machine.read_va_slot m slot = None)

(* --- Instructions: SGXv2 dynamic memory ------------------------------- *)

let test_eaug_pending_blocks_access () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages ~pages:8 ~mapped:true m in
  let vp = e.base_vpage + 7 in
  (* Remove page 7 and re-add it via EAUG. *)
  ignore (Helpers.ewb_protocol m e ~vpage:vp);
  Page_table.unmap pt vp;
  (match Instructions.eaug m e ~vpage:vp with
  | Ok frame ->
    Page_table.map pt ~vpage:vp ~frame ~perms:Types.perms_rw ~accessed:true
      ~dirty:true ()
  | Error `Epc_full -> Alcotest.fail "epc full");
  checkb "pending page faults" true
    (translate m pt e (Types.vaddr_of_vpage vp) Types.Read
    = Error Types.Epcm_pending);
  let data = Page_data.create () in
  Page_data.fill_int data 777;
  Instructions.eacceptcopy m e ~vpage:vp ~data;
  checkb "accepted page accessible" true
    (translate m pt e (Types.vaddr_of_vpage vp) Types.Read = Ok ())

let test_emodpr_eaccept_flow () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages ~self_paging:false m in
  let vp = e.base_vpage + 1 in
  Instructions.emodpr m e ~vpage:vp ~perms:Types.perms_ro;
  checkb "modified page faults" true
    (translate m pt e (Types.vaddr_of_vpage vp) Types.Read
    = Error Types.Epcm_pending);
  Instructions.eaccept m e ~vpage:vp;
  checkb "read ok after accept" true
    (translate m pt e (Types.vaddr_of_vpage vp) Types.Read = Ok ());
  Tlb.flush m.tlb;
  checkb "write blocked by EPCM perms" true
    (translate m pt e (Types.vaddr_of_vpage vp) Types.Write
    = Error (Types.Permission Types.Write))

let test_emodpr_cannot_extend () =
  let m = Helpers.machine () in
  let e, _pt = Helpers.enclave_with_pages m in
  let vp = e.base_vpage in
  Instructions.emodpr m e ~vpage:vp ~perms:Types.perms_ro;
  Instructions.eaccept m e ~vpage:vp;
  checkb "extension rejected" true
    (try
       Instructions.emodpr m e ~vpage:vp ~perms:Types.perms_rwx;
       false
     with Types.Sgx_error _ -> true)

let test_trim_remove_flow () =
  let m = Helpers.machine () in
  let e, _pt = Helpers.enclave_with_pages m in
  let vp = e.base_vpage + 2 in
  checkb "remove before trim rejected" true
    (try ignore (Instructions.eremove m e ~vpage:vp); false
     with Types.Sgx_error _ -> true);
  Instructions.emodt m e ~vpage:vp;
  checkb "remove before accept rejected" true
    (try ignore (Instructions.eremove m e ~vpage:vp); false
     with Types.Sgx_error _ -> true);
  Instructions.eaccept m e ~vpage:vp;
  let free = Epc.free_frames m.epc in
  Instructions.eremove m e ~vpage:vp;
  checki "frame freed" (free + 1) (Epc.free_frames m.epc)

let test_eadd_after_einit_rejected () =
  let m = Helpers.machine () in
  let e, _pt = Helpers.enclave_with_pages m in
  checkb "post-init eadd rejected" true
    (try
       ignore
         (Instructions.eadd m e ~vpage:e.base_vpage ~data:(Page_data.create ())
            ~perms:Types.perms_rw ~ptype:Types.Pt_reg);
       false
     with Types.Sgx_error _ -> true)

(* --- CPU flow --------------------------------------------------------- *)

let test_cpu_fault_retry () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  Page_table.unmap pt e.base_vpage;
  let remapped = ref false in
  let os =
    Helpers.os_resuming m e (fun _report ->
        (* OS restores the mapping like a benign pager would. *)
        let frame = Option.get (Epc.frame_of m.epc ~enclave_id:e.id ~vpage:e.base_vpage) in
        Page_table.map pt ~vpage:e.base_vpage ~frame ~perms:Types.perms_rwx ();
        remapped := true)
  in
  let cpu = Cpu.create ~machine:m ~page_table:pt ~enclave:e ~os () in
  Cpu.read cpu (Helpers.vaddr_of e 0);
  checkb "OS was invoked" true !remapped;
  checki "one fault" 1 (Metrics.Counters.get (Machine.counters m) "cpu.page_fault")

let test_cpu_livelock_detected () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  Page_table.unmap pt e.base_vpage;
  (* An OS that resumes without fixing anything. *)
  let os = Helpers.os_resuming m e (fun _ -> ()) in
  let cpu = Cpu.create ~machine:m ~page_table:pt ~enclave:e ~os ~max_fault_retries:3 () in
  checkb "livelock detected" true
    (try Cpu.read cpu (Helpers.vaddr_of e 0); false
     with Types.Sgx_error _ -> true)

let test_cpu_stamps () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  let os = Helpers.no_os in
  let cpu = Cpu.create ~machine:m ~page_table:pt ~enclave:e ~os () in
  Cpu.write_stamp cpu (Helpers.vaddr_of e 4) 4242;
  checki "stamp readback" 4242 (Cpu.read_stamp cpu (Helpers.vaddr_of e 4))

let test_cpu_preemption () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  let preempts = ref 0 in
  let os =
    { Cpu.handle_enclave_fault = (fun _ -> Alcotest.fail "no faults expected");
      handle_preempt = (fun ~enclave_id:_ -> incr preempts) }
  in
  let cpu = Cpu.create ~machine:m ~page_table:pt ~enclave:e ~os () in
  Cpu.set_preempt_interval cpu (Some 10);
  for _ = 1 to 100 do
    Cpu.read cpu (Helpers.vaddr_of e 0)
  done;
  checki "10 preemptions" 10 !preempts

let test_cpu_dead_enclave_rejected () =
  let m = Helpers.machine () in
  let e, pt = Helpers.enclave_with_pages m in
  let cpu = Cpu.create ~machine:m ~page_table:pt ~enclave:e ~os:Helpers.no_os () in
  (try Enclave.terminate e ~reason:"test" with Types.Enclave_terminated _ -> ());
  checkb "dead enclave cannot run" true
    (try Cpu.read cpu (Helpers.vaddr_of e 0); false
     with Types.Sgx_error _ -> true)

let suite =
  [
    ("epc alloc/release", `Quick, test_epc_alloc_release);
    ("epc exhaustion", `Quick, test_epc_exhaustion);
    ("epcm bind + reverse lookup", `Quick, test_epcm_bind_reverse);
    ("epcm double bind rejected", `Quick, test_epcm_double_bind_rejected);
    ("epc frames of enclave", `Quick, test_epc_frames_of_enclave);
    ("page table map/unmap", `Quick, test_page_table_map_unmap);
    ("page table A/D bits", `Quick, test_page_table_ad_bits);
    ("page table perms", `Quick, test_page_table_perms);
    ("tlb hit/miss", `Quick, test_tlb_hit_miss);
    ("tlb flush", `Quick, test_tlb_flush);
    ("tlb capacity eviction", `Quick, test_tlb_capacity_eviction);
    ("enclave ranges", `Quick, test_enclave_ranges);
    ("enclave lifecycle", `Quick, test_enclave_lifecycle);
    ("enclave regions disjoint", `Quick, test_enclave_regions_disjoint);
    ("mmu tlb hit after walk", `Quick, test_mmu_hit_after_walk);
    ("mmu legacy sets A/D", `Quick, test_mmu_legacy_sets_ad_bits);
    ("mmu not-present fault", `Quick, test_mmu_not_present_fault);
    ("mmu permission fault", `Quick, test_mmu_permission_fault);
    ("mmu EPCM mismatch (wrong frame)", `Quick, test_mmu_epcm_mismatch_wrong_frame);
    ("mmu non-EPC mapping", `Quick, test_mmu_non_epc_mapping);
    ("mmu outside enclave rejected", `Quick, test_mmu_outside_enclave_rejected);
    ("mmu autarky A-clear faults", `Quick, test_mmu_autarky_ad_clear_faults);
    ("mmu autarky D-clear faults", `Quick, test_mmu_autarky_dirty_clear_faults);
    ("mmu autarky never writes A/D", `Quick, test_mmu_autarky_never_writes_ad);
    ("mmu fault masking", `Quick, test_mmu_fault_masking);
    ("pending exception blocks ERESUME", `Quick, test_pending_exception_blocks_eresume);
    ("legacy silent resume allowed", `Quick, test_legacy_silent_resume_allowed);
    ("interrupt resume", `Quick, test_interrupt_resume);
    ("SSA overflow terminates", `Quick, test_ssa_overflow_terminates);
    ("handler mode costs ordered", `Quick, test_handler_mode_costs);
    ("eenter_run charges", `Quick, test_eenter_run_charges);
    ("EWB/ELDU roundtrip", `Quick, test_ewb_eldu_roundtrip);
    ("ELDU rejects replay", `Quick, test_eldu_rejects_replay);
    ("ELDU rejects tamper", `Quick, test_eldu_rejects_tamper);
    ("ELDU wrong enclave", `Quick, test_eldu_wrong_enclave);
    ("EWB EPC accounting", `Quick, test_ewb_epc_accounting);
    ("EBLOCK/ETRACK/EPA protocol enforced", `Quick, test_ewb_protocol_enforced);
    ("blocked page faults", `Quick, test_blocked_page_faults);
    ("EPA capacity", `Quick, test_epa_capacity);
    ("EAUG pending blocks access", `Quick, test_eaug_pending_blocks_access);
    ("EMODPR/EACCEPT flow", `Quick, test_emodpr_eaccept_flow);
    ("EMODPR cannot extend", `Quick, test_emodpr_cannot_extend);
    ("trim+remove flow", `Quick, test_trim_remove_flow);
    ("EADD after EINIT rejected", `Quick, test_eadd_after_einit_rejected);
    ("cpu fault retry", `Quick, test_cpu_fault_retry);
    ("cpu livelock detected", `Quick, test_cpu_livelock_detected);
    ("cpu stamps", `Quick, test_cpu_stamps);
    ("cpu preemption", `Quick, test_cpu_preemption);
    ("cpu dead enclave rejected", `Quick, test_cpu_dead_enclave_rejected);
  ]
