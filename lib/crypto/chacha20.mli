(** ChaCha20 stream cipher (RFC 8439 core).

    Stands in for the AES-NI / MEE encryption the paper's prototype uses
    for swapped-out page contents.  Constant-shape (no data-dependent
    branches on key or plaintext).

    The block function is C ([crypto_stubs.c]); it XORs the keystream
    straight into the output, which is the only allocation.
    Bit-identical to the OCaml reference in {!Chacha20_ref}. *)

type key = bytes
(** 32-byte key. *)

type nonce = bytes
(** 12-byte nonce. *)

val key_of_string : string -> key
(** [key_of_string s] derives a 32-byte key by cycling/truncating [s];
    convenient for tests. Raises [Invalid_argument] on the empty string. *)

val block : key:key -> counter:int32 -> nonce:nonce -> bytes
(** One 64-byte keystream block.  Raises [Invalid_argument] unless the
    key is 32 bytes and the nonce 12 (so does {!xor_stream}). *)

val xor_stream : key:key -> ?counter:int32 -> nonce:nonce -> bytes -> bytes
(** Encrypt/decrypt: XOR the input with the keystream starting at
    [counter] (default 0). Encryption and decryption are the same
    operation. *)

val selftest : unit -> bool
(** Checks the RFC 8439 §2.3.2 test vector. *)
