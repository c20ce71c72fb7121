type mech = [ `Sgx1 | `Sgx2 ]
type vpage = Sgx.Types.vpage

type t = {
  machine : Sgx.Machine.t;
  enclave : Sgx.Enclave.t;
  os : Os_iface.t;
  pager_mech : mech;
  mutable budget : int;
  resident_set : Sgx.Flat.t;  (* vpage -> 1 when resident *)
  (* FIFO of (page, seq) as a power-of-two int ring: only the entry
     carrying a page's latest seq is live, so a page refetched after
     eviction takes a fresh position at the back instead of inheriting
     its ancient slot. *)
  mutable fq_vp : int array;
  mutable fq_seq : int array;
  mutable fq_head : int;  (* absolute pop index *)
  mutable fq_tail : int;  (* absolute push index *)
  seq_of : Sgx.Flat.t;  (* vpage -> latest seq (>= 1) *)
  mutable seq_counter : int;
  sealer : Sim_crypto.Sealer.t;  (* runtime paging keys (SGXv2 path) *)
  versions : Sgx.Flat.t;  (* vpage -> version; monotonic from 1, fits an int *)
  mutable version_counter : int;
  (* Scratch for the SGXv2 eviction batch: vpages and plaintext
     snapshots between the prepare and seal phases, reused across
     batches so eviction builds no intermediate lists. *)
  mutable ev_pages : int array;
  mutable ev_plain : bytes array;
  (* Counter cells interned at construction: fetch/evict run on every
     policy decision and must not hash counter names. *)
  c_pages_fetched : Metrics.Counters.cell;
  c_pages_evicted : Metrics.Counters.cell;
  c_fetch_batches : Metrics.Counters.cell;
  c_evict_batches : Metrics.Counters.cell;
  c_fetch_retries : Metrics.Counters.cell;
  c_attack_detected : Metrics.Counters.cell;
}

let create ~machine ~enclave ~os ~mech ~budget =
  assert (budget > 0);
  let cell = Metrics.Counters.cell (Sgx.Machine.counters machine) in
  {
    machine;
    enclave;
    os;
    pager_mech = mech;
    budget;
    resident_set = Sgx.Flat.create ~size:4096 ();
    fq_vp = Array.make 1024 0;
    fq_seq = Array.make 1024 0;
    fq_head = 0;
    fq_tail = 0;
    seq_of = Sgx.Flat.create ~size:4096 ();
    seq_counter = 0;
    sealer = Sim_crypto.Sealer.create ~master_key:"autarky-runtime-paging-key";
    versions = Sgx.Flat.create ~size:4096 ();
    version_counter = 0;
    ev_pages = Array.make 64 0;
    ev_plain = Array.make 64 Bytes.empty;
    c_pages_fetched = cell "rt.pages_fetched";
    c_pages_evicted = cell "rt.pages_evicted";
    c_fetch_batches = cell "rt.fetch_batches";
    c_evict_batches = cell "rt.evict_batches";
    c_fetch_retries = cell "rt.fetch_retries";
    c_attack_detected = cell "rt.attack_detected";
  }

let mech t = t.pager_mech
let budget t = t.budget
let set_budget t n = t.budget <- n
let resident t vp = Sgx.Flat.mem t.resident_set vp
let resident_count t = Sgx.Flat.length t.resident_set
let incr _t cell = Metrics.Counters.cell_incr cell
let charge t n = Sgx.Machine.charge t.machine n

(* --- FIFO ring -------------------------------------------------------- *)

let fq_grow t =
  let old_cap = Array.length t.fq_vp in
  let mask = old_cap - 1 in
  let n = t.fq_tail - t.fq_head in
  let vp = Array.make (old_cap * 2) 0 in
  let sq = Array.make (old_cap * 2) 0 in
  for i = 0 to n - 1 do
    vp.(i) <- t.fq_vp.((t.fq_head + i) land mask);
    sq.(i) <- t.fq_seq.((t.fq_head + i) land mask)
  done;
  t.fq_vp <- vp;
  t.fq_seq <- sq;
  t.fq_head <- 0;
  t.fq_tail <- n

let fq_push t vp seq =
  if t.fq_tail - t.fq_head = Array.length t.fq_vp then fq_grow t;
  let mask = Array.length t.fq_vp - 1 in
  t.fq_vp.(t.fq_tail land mask) <- vp;
  t.fq_seq.(t.fq_tail land mask) <- seq;
  t.fq_tail <- t.fq_tail + 1

let mark_resident t vp =
  if not (Sgx.Flat.mem t.resident_set vp) then begin
    Sgx.Flat.set t.resident_set vp 1;
    t.seq_counter <- t.seq_counter + 1;
    Sgx.Flat.set t.seq_of vp t.seq_counter;
    fq_push t vp t.seq_counter
  end

(* Seqs start at 1 and [Flat.find] returns -1 when absent, so the seq
   comparison alone never matches a page the tracker forgot. *)
let live_entry t vp seq =
  Sgx.Flat.mem t.resident_set vp && Sgx.Flat.find t.seq_of vp = seq

let mark_evicted t vp = Sgx.Flat.remove t.resident_set vp

let note_initial_residence t statuses =
  List.iter (fun (vp, is_resident) -> if is_resident then mark_resident t vp) statuses

(* Drop dead ring entries (evicted pages, superseded positions) from the
   front; they concentrate there under FIFO eviction, and dropping them
   as they are met keeps repeated scans linear in the live set. *)
let drop_dead t =
  let mask = Array.length t.fq_vp - 1 in
  let continue = ref true in
  while !continue && t.fq_head <> t.fq_tail do
    let s = t.fq_head land mask in
    if live_entry t t.fq_vp.(s) t.fq_seq.(s) then continue := false
    else t.fq_head <- t.fq_head + 1
  done

let oldest_resident t =
  drop_dead t;
  if t.fq_head = t.fq_tail then None
  else Some t.fq_vp.(t.fq_head land (Array.length t.fq_vp - 1))

let oldest_residents t n =
  drop_dead t;
  let mask = Array.length t.fq_vp - 1 in
  let acc = ref [] in
  let count = ref 0 in
  let i = ref t.fq_head in
  while !count < n && !i <> t.fq_tail do
    let s = !i land mask in
    if live_entry t t.fq_vp.(s) t.fq_seq.(s) then begin
      acc := t.fq_vp.(s) :: !acc;
      Stdlib.incr count
    end;
    Stdlib.incr i
  done;
  List.rev !acc

let find_oldest t n ok =
  drop_dead t;
  let mask = Array.length t.fq_vp - 1 in
  let rec go i seen =
    if seen >= n || i = t.fq_tail then -1
    else
      let s = i land mask in
      let vp = t.fq_vp.(s) in
      if not (live_entry t vp t.fq_seq.(s)) then go (i + 1) seen
      else if ok vp then vp
      else go (i + 1) (seen + 1)
  in
  go t.fq_head 0

let fresh_version t =
  t.version_counter <- t.version_counter + 1;
  t.version_counter

(* --- SGXv2 in-enclave paging ---------------------------------------- *)

(* SGXv2 eviction is split in two around the seals: first make every
   page read-only and snapshot it, then seal each page, publishing and
   trimming it as its blob is produced.  Bit-identical to sealing one
   page at a time — only the instruction interleave across pages
   changes, and the seal itself charges no cycles and emits no events,
   so the clock at every instruction boundary is unchanged too. *)
let sgx2_evict_prepare t i vp =
  let cm = Sgx.Machine.model t.machine in
  (* Make the page read-only so sealing is race-free. *)
  Sgx.Instructions.emodpr t.machine t.enclave ~vpage:vp ~perms:Sgx.Types.perms_ro;
  Sgx.Instructions.eaccept t.machine t.enclave ~vpage:vp;
  (match Sgx.Instructions.page_data t.machine t.enclave ~vpage:vp with
  | Some d ->
    (* No defensive copy: the page is read-only until its EREMOVE, and
       every seal completes before the batched remove host call. *)
    t.ev_plain.(i) <- Sgx.Page_data.to_bytes d
  | None -> Sgx.Enclave.terminate t.enclave ~reason:"evicting a non-resident page");
  charge t (Metrics.Cost_model.sw_page_crypto cm);
  let version = fresh_version t in
  Sgx.Flat.set t.versions vp version;
  t.ev_pages.(i) <- vp

let sgx2_evict_finish t vp sealed =
  t.os.blob_store vp sealed;
  Sgx.Instructions.emodt t.machine t.enclave ~vpage:vp;
  Sgx.Instructions.eaccept t.machine t.enclave ~vpage:vp

let sgx2_evict t pages =
  let n = List.length pages in
  if Array.length t.ev_pages < n then begin
    let cap = max n (2 * Array.length t.ev_pages) in
    t.ev_pages <- Array.make cap 0;
    t.ev_plain <- Array.make cap Bytes.empty
  end;
  List.iteri (sgx2_evict_prepare t) pages;
  for i = 0 to n - 1 do
    let vp = t.ev_pages.(i) in
    sgx2_evict_finish t vp
      (Sim_crypto.Sealer.seal t.sealer
         ~vaddr:(Int64.of_int (Sgx.Types.vaddr_of_vpage vp))
         ~version:(Int64.of_int (Sgx.Flat.find t.versions vp))
         t.ev_plain.(i))
  done;
  (* Drop the plaintext refs so the scratch array does not pin pages. *)
  Array.fill t.ev_plain 0 n Bytes.empty

let sgx2_fetch_one t vp =
  let cm = Sgx.Machine.model t.machine in
  match t.os.blob_load vp with
  | Some sealed -> (
    match Sgx.Flat.find t.versions vp with
    | -1 ->
      Sgx.Enclave.terminate t.enclave
        ~reason:"OS supplied a page blob the runtime never sealed"
    | expected -> (
      (* Decryption overlaps the EAUG (temporary buffer, §6); we charge
         the software crypto once. *)
      charge t (Metrics.Cost_model.sw_page_crypto cm);
      match
        Sim_crypto.Sealer.unseal t.sealer
          ~vaddr:(Int64.of_int (Sgx.Types.vaddr_of_vpage vp))
          ~expected_version:(Int64.of_int expected) sealed
      with
      | Error err ->
        Sgx.Enclave.terminate t.enclave
          ~reason:
            (Format.asprintf "page integrity violation on 0x%x: %a" vp
               Sim_crypto.Sealer.pp_error err)
      | Ok plaintext ->
        Sgx.Instructions.eacceptcopy t.machine t.enclave ~vpage:vp
          ~data:(Sgx.Page_data.of_bytes plaintext)))
  | None ->
    if Sgx.Flat.mem t.versions vp then begin
      (* The runtime sealed this page out; the OS "losing" its blob is
         not a first touch but a detected attack on the backing store. *)
      incr t t.c_attack_detected;
      Sgx.Enclave.terminate t.enclave
        ~reason:
          (Printf.sprintf
             "backing store lost the runtime-sealed blob for page 0x%x (OS \
              deleted or withheld it): detected attack"
             vp)
    end
    else
      (* First touch: accept the zero-filled EAUGed page. *)
      Sgx.Instructions.eaccept t.machine t.enclave ~vpage:vp

(* --- Public fetch/evict --------------------------------------------- *)

let evict t pages =
  let pages = List.filter (resident t) pages in
  if pages <> [] then begin
    (match t.pager_mech with
    | `Sgx1 -> t.os.evict_pages pages
    | `Sgx2 ->
      sgx2_evict t pages;
      t.os.remove_pages pages);
    List.iter (mark_evicted t) pages;
    Metrics.Counters.cell_add t.c_pages_evicted (List.length pages);
    incr t t.c_evict_batches
  end

(* Bounded retry with exponential backoff for transient EPC exhaustion
   (an OS under memory pressure, or a Byzantine OS injecting refusal
   bursts).  Each retry charges a host-call round trip scaled by the
   attempt number; a persistent refusal still terminates — the OS broke
   the pinning contract — but a transient burst is *recovered* without
   giving the OS a termination to observe. *)
let max_fetch_attempts = 6

let retry_epc_exhausted t op =
  let cm = Sgx.Machine.model t.machine in
  let rec go attempt =
    match op () with
    | Error `Epc_exhausted when attempt < max_fetch_attempts ->
      incr t t.c_fetch_retries;
      charge t (cm.exitless_call * (1 lsl attempt));
      go (attempt + 1)
    | r -> r
  in
  go 0

let terminate_on_fetch_error t (e : Os_iface.fetch_error) : 'a =
  let reason =
    match e with
    | `Epc_exhausted ->
      "OS refused to provide EPC frames (pinning contract broken)"
    | `Blob_missing vp ->
      Printf.sprintf
        "backing store lost the blob for page 0x%x (OS deleted or withheld \
         it): detected attack"
        vp
    | `Blob_mac_mismatch vp ->
      Printf.sprintf
        "page integrity violation on 0x%x: blob failed MAC verification \
         (tampering detected)"
        vp
    | `Blob_replayed vp ->
      Printf.sprintf
        "page freshness violation on 0x%x: stale blob replayed (anti-replay \
         detected)"
        vp
  in
  incr t t.c_attack_detected;
  Sgx.Enclave.terminate t.enclave ~reason

let fetch t pages =
  let pages = List.filter (fun vp -> not (resident t vp)) pages in
  if pages <> [] then begin
    if resident_count t + List.length pages > t.budget then
      Sgx.Types.sgx_errorf
        "runtime pager: fetch of %d pages exceeds budget (%d resident, budget %d)"
        (List.length pages) (resident_count t) t.budget;
    (match t.pager_mech with
    | `Sgx1 -> (
      (* The kernel call skips already-resident pages, so a retried
         batch keeps whatever partial progress the refused attempt
         made. *)
      match retry_epc_exhausted t (fun () -> t.os.fetch_pages pages) with
      | Ok () -> ()
      | Error e -> terminate_on_fetch_error t e)
    | `Sgx2 -> (
      match
        retry_epc_exhausted t (fun () ->
            (t.os.aug_pages pages
              :> (unit, Os_iface.fetch_error) result))
      with
      | Ok () -> List.iter (sgx2_fetch_one t) pages
      | Error e -> terminate_on_fetch_error t e));
    List.iter (mark_resident t) pages;
    Metrics.Counters.cell_add t.c_pages_fetched (List.length pages);
    incr t t.c_fetch_batches
  end

(* Single-page fetch: what the fault handler runs on every miss.
   Equivalent to [fetch t [vp]] — same counters, charges, trace events
   and failure behaviour — minus the list filtering and the retry
   closures.  The retry loops live at top level so each attempt is a
   static call, not a closure built per fault. *)
let rec fetch_one_sgx1 t vp attempt =
  match t.os.fetch_page vp with
  | Ok () -> ()
  | Error `Epc_exhausted when attempt < max_fetch_attempts ->
    incr t t.c_fetch_retries;
    charge t ((Sgx.Machine.model t.machine).exitless_call * (1 lsl attempt));
    fetch_one_sgx1 t vp (attempt + 1)
  | Error e -> terminate_on_fetch_error t e

let rec aug_one_sgx2 t vp attempt =
  match t.os.aug_page vp with
  | Ok () -> sgx2_fetch_one t vp
  | Error `Epc_exhausted when attempt < max_fetch_attempts ->
    incr t t.c_fetch_retries;
    charge t ((Sgx.Machine.model t.machine).exitless_call * (1 lsl attempt));
    aug_one_sgx2 t vp (attempt + 1)
  | Error `Epc_exhausted -> terminate_on_fetch_error t `Epc_exhausted

let fetch_one t vp =
  if not (resident t vp) then begin
    if resident_count t + 1 > t.budget then
      Sgx.Types.sgx_errorf
        "runtime pager: fetch of %d pages exceeds budget (%d resident, budget %d)"
        1 (resident_count t) t.budget;
    (match t.pager_mech with
    | `Sgx1 -> fetch_one_sgx1 t vp 0
    | `Sgx2 -> aug_one_sgx2 t vp 0);
    mark_resident t vp;
    Metrics.Counters.cell_add t.c_pages_fetched 1;
    incr t t.c_fetch_batches
  end

let make_room t ~incoming ~victims =
  (* Guard against victim functions that stop making progress (e.g. keep
     returning already-evicted pages); each useful round evicts >= 1. *)
  let max_rounds = resident_count t + incoming + 8 in
  let guard = ref 0 in
  while resident_count t + incoming > t.budget do
    Stdlib.incr guard;
    if !guard > max_rounds then
      Sgx.Types.sgx_errorf "runtime pager: cannot make room for %d pages" incoming;
    match victims () with
    | [] ->
      Sgx.Enclave.terminate t.enclave
        ~reason:"self-paging policy produced no eviction victims"
    | vs -> evict t vs
  done
