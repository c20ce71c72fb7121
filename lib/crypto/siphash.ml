(* SipHash-2-4: OCaml entry points over the C compression loop in
   crypto_stubs.c.  The digest comes back as an unboxed [int64], so
   hashing allocates nothing.  Output is bit-identical to
   {!Siphash_ref}; see test/test_crypto.ml for the differential and
   reference-vector checks. *)

type key = bytes  (* the 16 key bytes, little-endian k0 ‖ k1 *)

let key_of_bytes b =
  if Bytes.length b < 16 then invalid_arg "Siphash.key_of_bytes: need 16 bytes";
  Bytes.sub b 0 16

external hash : key -> bytes -> (int64[@unboxed])
  = "sim_siphash_byte" "sim_siphash"
[@@noalloc]

let hash_string key str = hash key (Bytes.unsafe_of_string str)

let selftest () =
  (* Reference vectors from the SipHash paper's test program. *)
  let key = key_of_bytes (Bytes.init 16 Char.chr) in
  hash key Bytes.empty = 0x726fdb47dd0e0e31L
  && hash key (Bytes.make 1 '\000') = 0x74f839c593dc67fdL
