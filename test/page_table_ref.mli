(** Boxed reference page table (Hashtbl of mutable PTE records): the
    pre-flat-array implementation, kept as a differential oracle for
    {!Sgx.Page_table} in the style of [Chacha20_ref].  The interface is
    identical to {!Sgx.Page_table}'s so tests can functorize over the two
    implementations and compare behaviour on random operation
    sequences. *)

open Sgx

type t

val create : unit -> t

(** {1 Packed-PTE encoding (shared with {!Sgx.Page_table})} *)

val no_pte : int
val p_present : int -> bool
val p_accessed : int -> bool
val p_dirty : int -> bool
val p_frame : int -> int
val p_rwx : int -> int
val p_allows : int -> Types.access_kind -> bool
val p_perms : int -> Types.perms

val pack :
  frame:Types.frame -> perms:Types.perms -> accessed:bool -> dirty:bool -> int

(** {1 Operations} *)

val map :
  t -> vpage:Types.vpage -> frame:Types.frame -> perms:Types.perms ->
  ?accessed:bool -> ?dirty:bool -> unit -> unit

val unmap : t -> Types.vpage -> unit
val find_packed : t -> Types.vpage -> int
val mapped : t -> Types.vpage -> bool
val present : t -> Types.vpage -> bool
val set_perms : t -> Types.vpage -> Types.perms -> unit
val set_present : t -> Types.vpage -> bool -> unit
val set_frame : t -> Types.vpage -> Types.frame -> unit
val set_ad : t -> Types.vpage -> write:bool -> unit
val clear_accessed : t -> Types.vpage -> unit
val clear_dirty : t -> Types.vpage -> unit
val mapped_pages : t -> Types.vpage list
val count_present : t -> int
val count_mapped : t -> int
