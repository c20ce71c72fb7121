(** The runtime's trusted paging engine for enclave-managed pages.

    Tracks the residence of every enclave-managed page (the ground truth
    the fault handler compares OS behaviour against), enforces the
    runtime's EPC budget, and implements both paging mechanisms the
    prototype supports (§6):

    {ul
    {- [`Sgx1]: the privileged EWB/ELDU instructions, driven by the OS
       through the batched [ay_fetch_pages]/[ay_evict_pages] calls.}
    {- [`Sgx2]: in-enclave paging with the dynamic-memory instructions —
       eviction is EMODPR+EACCEPT, seal-and-store to untrusted memory,
       EMODT+EACCEPT, then a batched EREMOVE host call; fetching is a
       batched EAUG host call followed by unseal + EACCEPTCOPY.  The
       runtime's own ChaCha20+SipHash sealer with per-page version
       counters provides confidentiality, integrity and freshness.}} *)

type mech = [ `Sgx1 | `Sgx2 ]
type vpage = Sgx.Types.vpage

type t

val create :
  machine:Sgx.Machine.t -> enclave:Sgx.Enclave.t -> os:Os_iface.t ->
  mech:mech -> budget:int -> t
(** [budget] is the maximum number of enclave-managed pages kept resident
    at once. *)

val mech : t -> mech
val budget : t -> int
val set_budget : t -> int -> unit
val resident : t -> vpage -> bool
val resident_count : t -> int
val note_initial_residence : t -> (vpage * bool) list -> unit
(** Seed the tracker from [ay_set_enclave_managed]'s reply. *)

val oldest_resident : t -> vpage option
(** FIFO victim candidate (the runtime cannot use accessed bits). *)

val oldest_residents : t -> int -> vpage list
(** Up to [n] distinct resident pages in FIFO order. *)

val find_oldest : t -> int -> (vpage -> bool) -> vpage
(** [find_oldest t n ok] is the first of [oldest_residents t n] that
    satisfies [ok], or [-1] if none does — the same candidates in the
    same order, without building the list. *)

val fetch : t -> vpage list -> unit
(** Bring the given non-resident pages in (already-resident pages are
    skipped).  The caller must have made room within the budget.
    Transient [`Epc_exhausted] refusals are retried with exponential
    backoff (bounded; counted in ["rt.fetch_retries"]); a persistent
    refusal terminates the enclave (the OS broke the pinning contract
    or is starving us — §5.2.1), and a missing, tampered or replayed
    backing-store blob terminates immediately as a detected attack. *)

val fetch_one : t -> vpage -> unit
(** [fetch t [vp]] without the batch plumbing: the allocation-free fast
    path the fault handler runs on every miss.  Identical counters,
    charges, trace events and failure behaviour. *)

val evict : t -> vpage list -> unit
(** Write the given resident pages out (non-resident ones are skipped). *)

val make_room : t -> incoming:int -> victims:(unit -> vpage list) -> unit
(** Evict batches returned by [victims] until [incoming] more pages fit
    in the budget.  [victims] must return a non-empty list of resident
    pages; the enclave terminates if it cannot. *)
