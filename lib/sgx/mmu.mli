(** The MMU access path for enclave-mode accesses, including the
    SGX-specific checks and the Autarky extensions (§2.1, §5.1.4).

    On a TLB hit only the cache access cost is charged.  On a miss, the
    page table is walked; a valid walk is then subjected to the SGX
    checks (the mapping must point at an EPC frame whose EPCM entry
    matches this enclave page) and, for self-paging enclaves, the Autarky
    accessed/dirty validity check.  Any failed check is a page fault.

    Legacy enclaves update PTE accessed/dirty bits on a fill exactly like
    normal paging — this is the leak exploited by the stealthy
    controlled-channel variants.  Self-paging enclaves never write the
    bits; they must already be set or the PTE is treated as invalid. *)

val translate_code :
  Machine.t -> Page_table.t -> Enclave.t -> Types.vaddr ->
  Types.access_kind -> int
(** Perform one enclave-mode access to an address inside the enclave
    region.  Returns [0] on success, and [-(1 + fault_cause_index c)]
    for a fault with cause [c] (recover it with {!cause_of_code}).
    Charges cycle costs as a side effect; on success the TLB is filled.
    The TLB-hit and walk-hit paths allocate zero words.  Raises
    {!Types.Sgx_error} if [vaddr] lies outside the enclave. *)

val cause_of_code : int -> Types.fault_cause
(** The fault cause behind a negative {!translate_code} result. *)

val os_report :
  Enclave.t -> Types.vaddr -> Types.access_kind -> Types.os_fault_report
(** The fault information delivered to the untrusted OS: page-aligned
    address and access type for legacy enclaves; the enclave base address
    and a read access for self-paging enclaves (full masking). *)
