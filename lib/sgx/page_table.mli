(** The OS-controlled page table of one enclave host process.

    This structure belongs to the *untrusted* OS: an adversarial kernel
    may read and modify every PTE (that is the controlled channel).  The
    hardware (MMU + EPCM) only checks it.

    PTEs are bit-packed ints over a dense vpage-window array so the MMU
    walk path allocates nothing: bit 0 present, bits 1-3 r/w/x, bit 4
    accessed, bit 5 dirty, bits 6+ frame.  {!find_packed} returns
    {!no_pte} ([-1]) for a missing PTE; every real PTE packs to a
    non-negative int.  [test/page_table_ref.ml] is the boxed reference
    implementation with the same interface, kept as a differential
    oracle. *)

type t

val create : unit -> t

(** {1 Packed-PTE encoding} *)

val no_pte : int
(** Sentinel ([-1]) for "no PTE". *)

val p_present : int -> bool
val p_accessed : int -> bool
val p_dirty : int -> bool
val p_frame : int -> int

val p_rwx : int -> int
(** Permission bits (r=1, w=2, x=4) of a packed PTE. *)

val p_allows : int -> Types.access_kind -> bool
val p_perms : int -> Types.perms

val pack :
  frame:Types.frame -> perms:Types.perms -> accessed:bool -> dirty:bool -> int
(** The packed form of a present PTE. *)

(** {1 Operations} *)

val map :
  t -> vpage:Types.vpage -> frame:Types.frame -> perms:Types.perms ->
  ?accessed:bool -> ?dirty:bool -> unit -> unit
(** Install or replace a PTE. [accessed]/[dirty] default to [false]
    (legacy OS behaviour); an Autarky-aware OS installs PTEs for
    self-paging enclaves with both set. *)

val unmap : t -> Types.vpage -> unit

val find_packed : t -> Types.vpage -> int
(** The packed PTE, or {!no_pte}.  Never allocates. *)

val mapped : t -> Types.vpage -> bool
(** A PTE exists (present or not). *)

val present : t -> Types.vpage -> bool

val set_perms : t -> Types.vpage -> Types.perms -> unit
(** Raises [Not_found] if the page has no PTE. *)

val set_present : t -> Types.vpage -> bool -> unit
(** Toggle the present bit; no-op if the page has no PTE. *)

val set_frame : t -> Types.vpage -> Types.frame -> unit
(** Repoint an existing PTE (the attacker's remap primitive).  Raises
    [Not_found] if the page has no PTE. *)

val set_ad : t -> Types.vpage -> write:bool -> unit
(** The legacy walk's writeback: set accessed, and dirty when [write].
    No-op if the page has no PTE. *)

val clear_accessed : t -> Types.vpage -> unit
val clear_dirty : t -> Types.vpage -> unit

val mapped_pages : t -> Types.vpage list
(** Every vpage with a PTE, ascending (monomorphic enumeration). *)

val count_present : t -> int
val count_mapped : t -> int

(** {1 Raw state (snapshot/restore)}

    The dense window verbatim: base vpage, packed PTE array (including
    unmapped [no_pte] slack slots) and entry count. *)

type raw = { raw_base : int; raw_tbl : int array; raw_entries : int }

val export_state : t -> raw
val import_state : raw -> t
(** Raises [Invalid_argument] on negative base or an entry count that
    exceeds the window. *)
