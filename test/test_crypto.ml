(* Tests for the crypto substrate: ChaCha20, SipHash, the page sealer
   (confidentiality / integrity / anti-replay), and the oblivious
   primitives. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- ChaCha20 --------------------------------------------------------- *)

let test_chacha_selftest () =
  checkb "RFC 8439 vector" true (Sim_crypto.Chacha20.selftest ())

let key = Sim_crypto.Chacha20.key_of_string "test-key"
let nonce = Bytes.make 12 'n'

let test_chacha_roundtrip () =
  let plaintext = Bytes.of_string "attack at dawn, page 0x1000, version 42" in
  let ct = Sim_crypto.Chacha20.xor_stream ~key ~nonce plaintext in
  checkb "ciphertext differs" false (Bytes.equal ct plaintext);
  let pt = Sim_crypto.Chacha20.xor_stream ~key ~nonce ct in
  checkb "roundtrip" true (Bytes.equal pt plaintext)

let test_chacha_multiblock () =
  let plaintext = Bytes.init 1000 (fun i -> Char.chr (i land 0xFF)) in
  let ct = Sim_crypto.Chacha20.xor_stream ~key ~nonce plaintext in
  let pt = Sim_crypto.Chacha20.xor_stream ~key ~nonce ct in
  checkb "1000-byte roundtrip" true (Bytes.equal pt plaintext)

let test_chacha_nonce_sensitivity () =
  let plaintext = Bytes.make 64 'x' in
  let n2 = Bytes.make 12 'm' in
  let c1 = Sim_crypto.Chacha20.xor_stream ~key ~nonce plaintext in
  let c2 = Sim_crypto.Chacha20.xor_stream ~key ~nonce:n2 plaintext in
  checkb "different nonce, different stream" false (Bytes.equal c1 c2)

let test_chacha_counter_continuation () =
  (* Encrypting with counter=1 equals skipping the first block. *)
  let plaintext = Bytes.make 128 'p' in
  let whole = Sim_crypto.Chacha20.xor_stream ~key ~counter:0l ~nonce plaintext in
  let tail =
    Sim_crypto.Chacha20.xor_stream ~key ~counter:1l ~nonce (Bytes.sub plaintext 64 64)
  in
  checkb "counter continuation" true (Bytes.equal (Bytes.sub whole 64 64) tail)

let test_chacha_key_validation () =
  Alcotest.check_raises "short key rejected"
    (Invalid_argument "Chacha20.block: key must be 32 bytes") (fun () ->
      ignore (Sim_crypto.Chacha20.block ~key:(Bytes.make 16 'k') ~counter:0l ~nonce))

let hex_to_bytes s =
  let s = String.concat "" (String.split_on_char ' ' s) in
  let s = String.concat "" (String.split_on_char '\n' s) in
  Bytes.init (String.length s / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let test_chacha_rfc8439_encryption () =
  (* RFC 8439 §2.4.2: full ChaCha20 encryption test vector. *)
  let key = Bytes.init 32 Char.chr in
  let nonce = hex_to_bytes "000000000000004a00000000" in
  let plaintext =
    Bytes.of_string
      "Ladies and Gentlemen of the class of '99: If I could offer you only \
       one tip for the future, sunscreen would be it."
  in
  let expected =
    hex_to_bytes
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
       f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
       07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
       5af90bbf74a35be6b40b8eedf2785e42874d"
  in
  let ct = Sim_crypto.Chacha20.xor_stream ~key ~counter:1l ~nonce plaintext in
  checkb "RFC 8439 §2.4.2 ciphertext" true (Bytes.equal ct expected)

let test_chacha_matches_reference () =
  (* Differential: the unboxed implementation is bit-identical to the
     boxed reference at every length straddling the block boundaries. *)
  let rng = Random.State.make [| 0x5eed |] in
  let k = Bytes.init 32 (fun _ -> Char.chr (Random.State.int rng 256)) in
  for len = 0 to 200 do
    let pt = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    let a = Sim_crypto.Chacha20.xor_stream ~key:k ~counter:7l ~nonce pt in
    let b = Sim_crypto.Chacha20_ref.xor_stream ~key:k ~counter:7l ~nonce pt in
    checkb (Printf.sprintf "xor_stream len %d" len) true (Bytes.equal a b)
  done;
  let blk_a = Sim_crypto.Chacha20.block ~key:k ~counter:0xFFFFFFFFl ~nonce in
  let blk_b = Sim_crypto.Chacha20_ref.block ~key:k ~counter:0xFFFFFFFFl ~nonce in
  checkb "block at counter 2^32-1" true (Bytes.equal blk_a blk_b)

(* --- SipHash ---------------------------------------------------------- *)

let test_siphash_selftest () =
  checkb "reference vectors" true (Sim_crypto.Siphash.selftest ())

let test_siphash_keyed () =
  let k1 = Sim_crypto.Siphash.key_of_bytes (Bytes.make 16 'a') in
  let k2 = Sim_crypto.Siphash.key_of_bytes (Bytes.make 16 'b') in
  let msg = Bytes.of_string "hello" in
  checkb "key matters" false
    (Sim_crypto.Siphash.hash k1 msg = Sim_crypto.Siphash.hash k2 msg)

let test_siphash_message_sensitivity () =
  let k = Sim_crypto.Siphash.key_of_bytes (Bytes.make 16 'k') in
  let h1 = Sim_crypto.Siphash.hash_string k "message one" in
  let h2 = Sim_crypto.Siphash.hash_string k "message two" in
  checkb "message matters" false (h1 = h2)

let test_siphash_lengths () =
  (* Hashing must be well-defined at every residue mod 8. *)
  let k = Sim_crypto.Siphash.key_of_bytes (Bytes.init 16 Char.chr) in
  let seen = Hashtbl.create 64 in
  for len = 0 to 32 do
    let h = Sim_crypto.Siphash.hash k (Bytes.make len 'z') in
    checkb "no collision across lengths" false (Hashtbl.mem seen h);
    Hashtbl.replace seen h ()
  done

let test_siphash_reference_vectors () =
  (* SipHash-2-4 vectors from the reference implementation's test
     program: key = 00..0f, message = 00 01 .. (len-1). *)
  let k = Sim_crypto.Siphash.key_of_bytes (Bytes.init 16 Char.chr) in
  let vectors =
    [
      (0, 0x726fdb47dd0e0e31L);
      (1, 0x74f839c593dc67fdL);
      (2, 0x0d6c8009d9a94f5aL);
      (3, 0x85676696d7fb7e2dL);
      (4, 0xcf2794e0277187b7L);
      (5, 0x18765564cd99a68dL);
      (6, 0xcbc9466e58fee3ceL);
      (7, 0xab0200f58b01d137L);
      (8, 0x93f5f5799a932462L);
      (* The worked example from the SipHash paper (15-byte message). *)
      (15, 0xa129ca6149be45e5L);
    ]
  in
  List.iter
    (fun (len, expected) ->
      let msg = Bytes.init len Char.chr in
      Alcotest.(check int64)
        (Printf.sprintf "vector len %d" len)
        expected
        (Sim_crypto.Siphash.hash k msg))
    vectors

let test_siphash_matches_reference () =
  (* Differential: unboxed halves vs boxed Int64 reference at every
     residue mod 8 and on random keys/data. *)
  let rng = Random.State.make [| 0xcafe |] in
  for _ = 1 to 50 do
    let kb = Bytes.init 16 (fun _ -> Char.chr (Random.State.int rng 256)) in
    let k = Sim_crypto.Siphash.key_of_bytes kb in
    let k_ref = Sim_crypto.Siphash_ref.key_of_bytes kb in
    let len = Random.State.int rng 64 in
    let msg = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    Alcotest.(check int64)
      (Printf.sprintf "hash len %d" len)
      (Sim_crypto.Siphash_ref.hash k_ref msg)
      (Sim_crypto.Siphash.hash k msg)
  done

(* --- Sealer ----------------------------------------------------------- *)

let sealer = Sim_crypto.Sealer.create ~master_key:"unit-test"

let test_sealer_roundtrip () =
  let page = Bytes.of_string (String.init 64 (fun i -> Char.chr (i + 32))) in
  let sealed = Sim_crypto.Sealer.seal sealer ~vaddr:0x1000L ~version:1L page in
  checkb "ciphertext differs" false (Bytes.equal sealed.ciphertext page);
  match Sim_crypto.Sealer.unseal sealer ~vaddr:0x1000L ~expected_version:1L sealed with
  | Ok pt -> checkb "roundtrip" true (Bytes.equal pt page)
  | Error _ -> Alcotest.fail "unseal failed"

let test_sealer_detects_tamper () =
  let page = Bytes.make 64 'd' in
  let sealed = Sim_crypto.Sealer.seal sealer ~vaddr:0x2000L ~version:3L page in
  let flipped = Bytes.copy sealed.ciphertext in
  Bytes.set flipped 10 (Char.chr (Char.code (Bytes.get flipped 10) lxor 1));
  let tampered = { sealed with Sim_crypto.Sealer.ciphertext = flipped } in
  match Sim_crypto.Sealer.unseal sealer ~vaddr:0x2000L ~expected_version:3L tampered with
  | Error Sim_crypto.Sealer.Mac_mismatch -> ()
  | Ok _ -> Alcotest.fail "tampered page accepted"
  | Error Sim_crypto.Sealer.Replayed -> Alcotest.fail "wrong error"

let test_sealer_detects_replay () =
  let v1 = Sim_crypto.Sealer.seal sealer ~vaddr:0x3000L ~version:1L (Bytes.make 64 'a') in
  let _v2 = Sim_crypto.Sealer.seal sealer ~vaddr:0x3000L ~version:2L (Bytes.make 64 'b') in
  (* OS replays the old sealed page when version 2 is expected. *)
  match Sim_crypto.Sealer.unseal sealer ~vaddr:0x3000L ~expected_version:2L v1 with
  | Error Sim_crypto.Sealer.Replayed -> ()
  | Ok _ -> Alcotest.fail "replayed page accepted"
  | Error Sim_crypto.Sealer.Mac_mismatch -> Alcotest.fail "wrong error"

let test_sealer_detects_relocation () =
  (* OS presents a blob sealed for a different address. *)
  let sealed = Sim_crypto.Sealer.seal sealer ~vaddr:0x4000L ~version:1L (Bytes.make 64 'r') in
  match Sim_crypto.Sealer.unseal sealer ~vaddr:0x5000L ~expected_version:1L sealed with
  | Error Sim_crypto.Sealer.Mac_mismatch -> ()
  | Ok _ -> Alcotest.fail "relocated page accepted"
  | Error _ -> Alcotest.fail "wrong error"

let test_sealer_key_separation () =
  let other = Sim_crypto.Sealer.create ~master_key:"other" in
  let sealed = Sim_crypto.Sealer.seal sealer ~vaddr:0x6000L ~version:1L (Bytes.make 64 'k') in
  match Sim_crypto.Sealer.unseal other ~vaddr:0x6000L ~expected_version:1L sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cross-key unseal succeeded"

let test_sealer_matches_reference () =
  (* Interop: same master key, same inputs — the reference sealer and
     the optimized sealer must produce identical blobs, and each must
     unseal what the other sealed. *)
  let ref_sealer = Sim_crypto.Sealer_ref.create ~master_key:"unit-test" in
  let page = Bytes.init 256 (fun i -> Char.chr ((i * 31) land 0xFF)) in
  let a = Sim_crypto.Sealer.seal sealer ~vaddr:0x8000L ~version:5L page in
  let b = Sim_crypto.Sealer_ref.seal ref_sealer ~vaddr:0x8000L ~version:5L page in
  checkb "identical ciphertext" true (Bytes.equal a.ciphertext b.ciphertext);
  Alcotest.(check int64) "identical MAC" b.mac a.mac;
  (match Sim_crypto.Sealer.unseal sealer ~vaddr:0x8000L ~expected_version:5L b with
  | Ok pt -> checkb "new unseals ref blob" true (Bytes.equal pt page)
  | Error _ -> Alcotest.fail "new sealer rejected reference blob");
  match
    Sim_crypto.Sealer_ref.unseal ref_sealer ~vaddr:0x8000L ~expected_version:5L a
  with
  | Ok pt -> checkb "ref unseals new blob" true (Bytes.equal pt page)
  | Error _ -> Alcotest.fail "reference sealer rejected new blob"

let test_sealer_batch_matches_single () =
  (* Batch seal/unseal round-trips and matches page-at-a-time sealing
     bit for bit. *)
  let items =
    List.init 8 (fun i ->
        ( Int64.of_int (0x9000 + (i * 0x1000)),
          Int64.of_int (100 + i),
          Bytes.init (64 + (8 * i)) (fun j -> Char.chr ((i + j) land 0xFF)) ))
  in
  let batch = Sim_crypto.Sealer.seal_batch sealer items in
  List.iter2
    (fun (vaddr, version, pt) (s : Sim_crypto.Sealer.sealed) ->
      let single = Sim_crypto.Sealer.seal sealer ~vaddr ~version pt in
      checkb "batch ciphertext = single" true
        (Bytes.equal s.ciphertext single.ciphertext);
      Alcotest.(check int64) "batch MAC = single" single.mac s.mac)
    items batch;
  let to_unseal =
    List.map2 (fun (vaddr, version, _) s -> (vaddr, version, s)) items batch
  in
  (match Sim_crypto.Sealer.unseal_batch sealer to_unseal with
  | Ok pts ->
    List.iter2
      (fun (_, _, pt) recovered -> checkb "batch roundtrip" true (Bytes.equal pt recovered))
      items pts
  | Error _ -> Alcotest.fail "unseal_batch failed on honest blobs");
  (* A tampered blob in the middle is pinpointed by vaddr. *)
  let tampered =
    List.mapi
      (fun i ((vaddr, version, s) : int64 * int64 * Sim_crypto.Sealer.sealed) ->
        if i = 3 then
          let ct = Bytes.copy s.ciphertext in
          Bytes.set ct 0 (Char.chr (Char.code (Bytes.get ct 0) lxor 1));
          (vaddr, version, { s with ciphertext = ct })
        else (vaddr, version, s))
      to_unseal
  in
  match Sim_crypto.Sealer.unseal_batch sealer tampered with
  | Ok _ -> Alcotest.fail "tampered batch accepted"
  | Error (vaddr, Sim_crypto.Sealer.Mac_mismatch) ->
    Alcotest.(check int64) "failing vaddr" 0xC000L vaddr
  | Error (_, Sim_crypto.Sealer.Replayed) -> Alcotest.fail "wrong error"

(* --- Oblivious primitives --------------------------------------------- *)

let test_oblivious_select () =
  checki "true branch" 7 (Sim_crypto.Oblivious.select true 7 9);
  checki "false branch" 9 (Sim_crypto.Oblivious.select false 7 9);
  Alcotest.(check int64) "select64 true" 5L (Sim_crypto.Oblivious.select64 true 5L 6L);
  Alcotest.(check int64) "select64 false" 6L (Sim_crypto.Oblivious.select64 false 5L 6L)

let test_oblivious_scan_read () =
  let arr = [| 10; 20; 30; 40 |] in
  checki "scan read" 30 (Sim_crypto.Oblivious.scan_read arr 2);
  Alcotest.check_raises "bounds" (Invalid_argument "Oblivious.scan_read")
    (fun () -> ignore (Sim_crypto.Oblivious.scan_read arr 4))

let test_oblivious_scan_write () =
  let arr = [| 1; 2; 3 |] in
  Sim_crypto.Oblivious.scan_write arr 1 99;
  checkb "written" true (arr = [| 1; 99; 3 |])

let test_oblivious_scan_cost () =
  let m = Metrics.Cost_model.default in
  let c = Sim_crypto.Oblivious.scan_cost m ~entries:100 ~entry_bytes:8 in
  checki "linear in bytes" (int_of_float (m.oblivious_scan_cpb *. 800.0)) c

(* --- Allocation ---------------------------------------------------------- *)

(* Per-call allocation of [f] over 10k calls, minimum of three trials
   (see {!Helpers.min_alloc_bytes}). *)
let alloc_per_call f =
  Helpers.min_alloc_bytes (fun () ->
      for _ = 1 to 10_000 do
        f ()
      done)
  /. 10_000.0

let payload = Bytes.init !Sgx.Page_data.payload_bytes (fun i -> Char.chr (i * 7 land 0xFF))

let test_xor_stream_allocates_output_only () =
  (* A 64-byte [bytes] is 80 B on the heap (header, 8 data words, the
     padding word); the C kernel writes straight into it.  Measured:
     exactly 80 B per call. *)
  let a =
    alloc_per_call (fun () ->
        ignore (Sim_crypto.Chacha20.xor_stream ~key ~nonce payload))
  in
  if a > 80.0 then Alcotest.failf "xor_stream allocated %.1f B per 64 B call" a

let test_seal_allocation_bounded () =
  (* Ciphertext (80 B) + [sealed] record (40 B) + boxed MAC (24 B) =
     144 B.  Measured: exactly 144 B per seal of the 64 B payload. *)
  let a =
    alloc_per_call (fun () ->
        ignore (Sim_crypto.Sealer.seal sealer ~vaddr:0x1000L ~version:1L payload))
  in
  if a > 144.0 then Alcotest.failf "Sealer.seal allocated %.1f B per 64 B page" a

(* --- QCheck properties ------------------------------------------------ *)

(* Lengths 0-300, with the word and block edges drawn often. *)
let data_gen =
  QCheck2.Gen.(
    bytes_size
      (frequency
         [
           (3, int_range 0 300);
           (1, oneofl [ 0; 1; 7; 8; 9; 15; 16; 63; 64; 65; 79; 80; 127; 128; 129; 255; 256; 300 ]);
         ]))

(* Block counters from the bottom of the range and from just below
   2^32, where a multi-block stream wraps. *)
let counter_gen =
  QCheck2.Gen.(
    map Int32.of_int
      (frequency [ (1, int_range 0 1_000); (1, map (fun d -> 0xFFFF_FFFF - d) (int_range 0 8)) ]))

let fixed_bytes n = QCheck2.Gen.(bytes_size (return n))

let differential_cases =
  [
    QCheck2.Test.make ~name:"chacha xor_stream = Chacha20_ref" ~count:300
      QCheck2.Gen.(quad (fixed_bytes 32) (fixed_bytes 12) counter_gen data_gen)
      (fun (key, nonce, counter, data) ->
        Bytes.equal
          (Sim_crypto.Chacha20.xor_stream ~key ~counter ~nonce data)
          (Sim_crypto.Chacha20_ref.xor_stream ~key ~counter ~nonce data));
    QCheck2.Test.make ~name:"chacha block = Chacha20_ref" ~count:200
      QCheck2.Gen.(triple (fixed_bytes 32) (fixed_bytes 12) counter_gen)
      (fun (key, nonce, counter) ->
        Bytes.equal
          (Sim_crypto.Chacha20.block ~key ~counter ~nonce)
          (Sim_crypto.Chacha20_ref.block ~key ~counter ~nonce));
    QCheck2.Test.make ~name:"siphash = Siphash_ref" ~count:300
      QCheck2.Gen.(pair (fixed_bytes 16) data_gen)
      (fun (k, data) ->
        Sim_crypto.Siphash.hash (Sim_crypto.Siphash.key_of_bytes k) data
        = Sim_crypto.Siphash_ref.hash (Sim_crypto.Siphash_ref.key_of_bytes k) data);
    (* Several pages of changing length through one context, so the
       reused MAC buffer is resized and refilled, never read stale. *)
    QCheck2.Test.make ~name:"sealer = Sealer_ref, and each unseals the other" ~count:200
      QCheck2.Gen.(
        pair (string_size (int_range 1 40))
          (list_size (int_range 1 4) (triple data_gen int64 int64)))
      (fun (master_key, pages) ->
        let s = Sim_crypto.Sealer.create ~master_key in
        let r = Sim_crypto.Sealer_ref.create ~master_key in
        List.for_all
          (fun (page, vaddr, version) ->
            let a = Sim_crypto.Sealer.seal s ~vaddr ~version page in
            let b = Sim_crypto.Sealer_ref.seal r ~vaddr ~version page in
            let opens = function Ok pt -> Bytes.equal pt page | Error _ -> false in
            Bytes.equal a.ciphertext b.ciphertext
            && a.mac = b.mac
            && opens (Sim_crypto.Sealer.unseal s ~vaddr ~expected_version:version b)
            && opens (Sim_crypto.Sealer_ref.unseal r ~vaddr ~expected_version:version a))
          pages);
  ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    (differential_cases @ [
      QCheck2.Test.make ~name:"chacha roundtrip on random data" ~count:100
        QCheck2.Gen.(string_size (int_range 0 300))
        (fun s ->
          let pt = Bytes.of_string s in
          let ct = Sim_crypto.Chacha20.xor_stream ~key ~nonce pt in
          Bytes.equal (Sim_crypto.Chacha20.xor_stream ~key ~nonce ct) pt);
      QCheck2.Test.make ~name:"sealer roundtrip on random pages" ~count:100
        QCheck2.Gen.(pair (string_size (int_range 1 200)) (int_range 0 1_000_000))
        (fun (s, v) ->
          let page = Bytes.of_string s in
          let version = Int64.of_int v in
          let sealed = Sim_crypto.Sealer.seal sealer ~vaddr:0x7000L ~version page in
          match
            Sim_crypto.Sealer.unseal sealer ~vaddr:0x7000L ~expected_version:version
              sealed
          with
          | Ok pt -> Bytes.equal pt page
          | Error _ -> false);
      QCheck2.Test.make ~name:"oblivious select equals if-then-else" ~count:500
        QCheck2.Gen.(triple bool int int)
        (fun (c, a, b) -> Sim_crypto.Oblivious.select c a b = if c then a else b);
      QCheck2.Test.make ~name:"scan_read equals direct indexing" ~count:300
        QCheck2.Gen.(list_size (int_range 1 50) int)
        (fun xs ->
          let arr = Array.of_list xs in
          let i = Array.length arr / 2 in
          Sim_crypto.Oblivious.scan_read arr i = arr.(i));
    ])

let suite =
  [
    ("chacha selftest", `Quick, test_chacha_selftest);
    ("chacha roundtrip", `Quick, test_chacha_roundtrip);
    ("chacha multiblock", `Quick, test_chacha_multiblock);
    ("chacha nonce sensitivity", `Quick, test_chacha_nonce_sensitivity);
    ("chacha counter continuation", `Quick, test_chacha_counter_continuation);
    ("chacha key validation", `Quick, test_chacha_key_validation);
    ("chacha RFC 8439 encryption vector", `Quick, test_chacha_rfc8439_encryption);
    ("chacha matches reference", `Quick, test_chacha_matches_reference);
    ("siphash selftest", `Quick, test_siphash_selftest);
    ("siphash reference vectors", `Quick, test_siphash_reference_vectors);
    ("siphash matches reference", `Quick, test_siphash_matches_reference);
    ("siphash keyed", `Quick, test_siphash_keyed);
    ("siphash message sensitivity", `Quick, test_siphash_message_sensitivity);
    ("siphash all lengths", `Quick, test_siphash_lengths);
    ("sealer roundtrip", `Quick, test_sealer_roundtrip);
    ("sealer detects tamper", `Quick, test_sealer_detects_tamper);
    ("sealer detects replay", `Quick, test_sealer_detects_replay);
    ("sealer detects relocation", `Quick, test_sealer_detects_relocation);
    ("sealer key separation", `Quick, test_sealer_key_separation);
    ("sealer matches reference", `Quick, test_sealer_matches_reference);
    ("sealer batch matches single", `Quick, test_sealer_batch_matches_single);
    ("xor_stream allocates only its output", `Quick, test_xor_stream_allocates_output_only);
    ("seal allocation bounded", `Quick, test_seal_allocation_bounded);
    ("oblivious select", `Quick, test_oblivious_select);
    ("oblivious scan read", `Quick, test_oblivious_scan_read);
    ("oblivious scan write", `Quick, test_oblivious_scan_write);
    ("oblivious scan cost", `Quick, test_oblivious_scan_cost);
  ]
  @ qcheck_cases
