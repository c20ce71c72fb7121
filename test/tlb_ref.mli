(** Boxed reference TLB (Hashtbl + Queue): the pre-flat implementation,
    kept as a differential oracle for {!Sgx.Tlb} in the style of
    [Chacha20_ref].  The interface matches {!Sgx.Tlb}'s so tests can
    functorize over both implementations and compare hit/miss and
    eviction behaviour on random operation sequences. *)

open Sgx

type t

val create : ?capacity:int -> unit -> t
val hit : t -> Types.vpage -> Types.access_kind -> bool
val fill : ?dirty:bool -> t -> Types.vpage -> Types.perms -> unit
val fill_bits : ?dirty:bool -> t -> Types.vpage -> int -> unit
val flush : t -> unit
val flush_page : t -> Types.vpage -> unit
val size : t -> int
val capacity : t -> int
