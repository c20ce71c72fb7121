(** SipHash-2-4: a fast keyed 64-bit MAC (Aumasson & Bernstein).

    Used by the page sealer to authenticate swapped-out page contents,
    standing in for the GCM/integrity-tree MACs of real SGX.

    The compression loop is C ([crypto_stubs.c]) and returns an
    unboxed digest: hashing allocates nothing.  Bit-identical to the
    OCaml reference in {!Siphash_ref}. *)

type key
(** Expanded 128-bit key. *)

val key_of_bytes : bytes -> key
(** First 16 bytes of the argument, little-endian. Raises
    [Invalid_argument] if shorter than 16 bytes. *)

external hash : key -> bytes -> (int64[@unboxed])
  = "sim_siphash_byte" "sim_siphash"
[@@noalloc]
(** MAC of the full byte string. *)

val hash_string : key -> string -> int64

val selftest : unit -> bool
(** Checks the reference test vector from the SipHash paper. *)
