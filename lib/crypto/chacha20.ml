(* ChaCha20: OCaml entry points over the C block function in
   crypto_stubs.c.  The stub XORs the keystream straight into a buffer
   the caller allocated, so [xor_stream] allocates exactly its output.
   Output is bit-identical to {!Chacha20_ref}; see test/test_crypto.ml
   for the differential and RFC 8439 vector checks. *)

type key = bytes
type nonce = bytes

let key_of_string s =
  if String.length s = 0 then invalid_arg "Chacha20.key_of_string: empty";
  Bytes.init 32 (fun i -> s.[i mod String.length s])

(* [xor_into key nonce counter src dst] XORs [src] with the keystream
   from block [counter] into [dst] (same length; [src] may be [dst]). *)
external xor_into :
  key -> nonce -> (int[@untagged]) -> bytes -> bytes -> unit
  = "sim_chacha20_xor_byte" "sim_chacha20_xor"
[@@noalloc]

let check ~key ~nonce =
  if Bytes.length key <> 32 then invalid_arg "Chacha20.block: key must be 32 bytes";
  if Bytes.length nonce <> 12 then
    invalid_arg "Chacha20.block: nonce must be 12 bytes"

let block ~key ~counter ~nonce =
  check ~key ~nonce;
  let out = Bytes.make 64 '\000' in
  xor_into key nonce (Int32.to_int counter) out out;
  out

let xor_stream ~key ?(counter = 0l) ~nonce data =
  check ~key ~nonce;
  let out = Bytes.create (Bytes.length data) in
  xor_into key nonce (Int32.to_int counter) data out;
  out

let selftest () =
  (* RFC 8439 §2.3.2 block-function test vector. *)
  let key = Bytes.init 32 Char.chr in
  let nonce = Bytes.make 12 '\000' in
  Bytes.set nonce 3 '\009';
  Bytes.set nonce 7 '\074';
  let out = block ~key ~counter:1l ~nonce in
  let expected_prefix =
    [ 0x10; 0xf1; 0xe7; 0xe4; 0xd1; 0x3b; 0x59; 0x15;
      0x50; 0x0f; 0xdd; 0x1f; 0xa3; 0x20; 0x71; 0xc4 ]
  in
  List.for_all2
    (fun i expected -> Char.code (Bytes.get out i) = expected)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
    expected_prefix
