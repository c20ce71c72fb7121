(** Authenticated, replay-protected sealing of page contents.

    Models the guarantees SGX's [EWB]/[ELDU] give to evicted EPC pages
    (confidentiality, integrity, freshness via version counters), and the
    custom in-enclave encryption the paper's SGXv2 path uses
    (ChaCha20 + SipHash encrypt-then-MAC, version bound into the MAC).

    A sealing context owns reused nonce and MAC-input buffers, so the
    hot eviction/reload paths allocate only what they return: a seal
    allocates its fresh ciphertext, the [sealed] record and the boxed
    MAC. *)

type t
(** Sealing context holding the encryption and MAC keys plus reused
    nonce and MAC-input buffers. *)

type sealed = {
  ciphertext : bytes;
  mac : int64;
  vaddr : int64;   (** virtual page address bound into the seal *)
  version : int64; (** anti-replay version bound into the seal *)
}

type error =
  | Mac_mismatch    (** ciphertext or metadata tampered with *)
  | Replayed        (** version is not the expected (latest) one *)

val pp_error : Format.formatter -> error -> unit

val create : master_key:string -> t
(** Derive encryption and MAC keys from [master_key]. *)

val seal : t -> vaddr:int64 -> version:int64 -> bytes -> sealed

val unseal :
  t -> vaddr:int64 -> expected_version:int64 -> sealed -> (bytes, error) result
(** Verify the MAC and the version, then decrypt.  A stale [sealed] value
    replayed by the untrusted OS fails with [Replayed]; any bit flip in
    the ciphertext or metadata fails with [Mac_mismatch]. *)

(** {1 Batch operations}

    Seal or unseal a run of pages through one context.  Results are in
    input order and bit-identical to sealing each page individually. *)

val seal_batch : t -> (int64 * int64 * bytes) list -> sealed list
(** Each item is [(vaddr, version, plaintext)]. *)

val seal_batch_into :
  t -> n:int -> vaddr:(int -> int64) -> version:(int -> int64) ->
  plaintext:(int -> bytes) -> sink:(int -> sealed -> unit) -> unit
(** Index-driven form of {!seal_batch}: seals items [0..n-1], reading
    each through the accessor callbacks and handing each result to
    [sink] as soon as it is produced — no intermediate lists.  Seal [i]
    is bit-identical to [seal t ~vaddr:(vaddr i) ~version:(version i)
    (plaintext i)]. *)

val unseal_batch :
  t -> (int64 * int64 * sealed) list -> (bytes list, int64 * error) result
(** Each item is [(vaddr, expected_version, sealed)].  Stops at the
    first failure, identifying the offending [vaddr]. *)
