type t = {
  enc_key : Chacha20.key;
  mac_key : Siphash.key;
  (* Scratch reused across seal/unseal calls so the per-page paths
     (EWB/ELDU, the SGXv2 evict/fetch loops) only allocate what they
     hand back. *)
  nonce_buf : bytes;
  mutable mac_buf : bytes;
}

type sealed = {
  ciphertext : bytes;
  mac : int64;
  vaddr : int64;
  version : int64;
}

type error = Mac_mismatch | Replayed

let pp_error ppf = function
  | Mac_mismatch -> Format.pp_print_string ppf "MAC mismatch"
  | Replayed -> Format.pp_print_string ppf "replayed version"

let create ~master_key =
  let enc_key = Chacha20.key_of_string ("enc:" ^ master_key) in
  let mac_material = Chacha20.key_of_string ("mac:" ^ master_key) in
  {
    enc_key;
    mac_key = Siphash.key_of_bytes mac_material;
    nonce_buf = Bytes.create 12;
    mac_buf = Bytes.create 0;
  }

(* Nonce: LE64(vaddr XOR version<<17) followed by the 4 low bytes of
   the version — written into the reused [nonce_buf]. *)
let set_nonce t ~vaddr ~version =
  Bytes.set_int64_le t.nonce_buf 0
    (Int64.logxor vaddr (Int64.shift_left version 17));
  Bytes.set_int32_le t.nonce_buf 8 (Int64.to_int32 version)

(* MAC over ciphertext ‖ LE64(vaddr) ‖ LE64(version).  [mac_buf] is
   sized exactly (SipHash covers the whole buffer) and reused while the
   page size stays constant — the steady state.  Inlined so the digest
   stays unboxed into [unseal]'s comparison. *)
let[@inline] mac_of t ~vaddr ~version ciphertext =
  let n = Bytes.length ciphertext in
  if Bytes.length t.mac_buf <> n + 16 then t.mac_buf <- Bytes.create (n + 16);
  let buf = t.mac_buf in
  Bytes.blit ciphertext 0 buf 0 n;
  Bytes.set_int64_le buf n vaddr;
  Bytes.set_int64_le buf (n + 8) version;
  Siphash.hash t.mac_key buf

let seal t ~vaddr ~version plaintext =
  set_nonce t ~vaddr ~version;
  let ciphertext = Chacha20.xor_stream ~key:t.enc_key ~nonce:t.nonce_buf plaintext in
  let mac = mac_of t ~vaddr ~version ciphertext in
  { ciphertext; mac; vaddr; version }

let unseal t ~vaddr ~expected_version sealed =
  if sealed.version <> expected_version then Error Replayed
  else
    let mac = mac_of t ~vaddr:sealed.vaddr ~version:sealed.version sealed.ciphertext in
    if mac <> sealed.mac || sealed.vaddr <> vaddr then Error Mac_mismatch
    else begin
      set_nonce t ~vaddr:sealed.vaddr ~version:sealed.version;
      Ok (Chacha20.xor_stream ~key:t.enc_key ~nonce:t.nonce_buf sealed.ciphertext)
    end

let seal_batch t items =
  List.map (fun (vaddr, version, plaintext) -> seal t ~vaddr ~version plaintext) items

let seal_batch_into t ~n ~vaddr ~version ~plaintext ~sink =
  for i = 0 to n - 1 do
    sink i (seal t ~vaddr:(vaddr i) ~version:(version i) (plaintext i))
  done

let unseal_batch t items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (vaddr, expected_version, sealed) :: rest -> (
      match unseal t ~vaddr ~expected_version sealed with
      | Ok plaintext -> go (plaintext :: acc) rest
      | Error e -> Error (vaddr, e))
  in
  go [] items
