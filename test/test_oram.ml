(* Tests for PathORAM: correctness (read-your-writes across arbitrary
   access sequences), structure, stash behaviour, cost accounting, the
   obliviousness property (leaf sequences are fresh-random), step-for-
   step agreement with the record-per-slot reference, and allocation. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let make ?(n_blocks = 64) ?metadata () =
  let clock = Metrics.Clock.create Metrics.Cost_model.default in
  let rng = Metrics.Rng.create ~seed:77L in
  let oram =
    match metadata with
    | Some md -> Oram.Path_oram.create ~clock ~rng ~metadata:md ~n_blocks ()
    | None -> Oram.Path_oram.create ~clock ~rng ~n_blocks ()
  in
  (clock, oram)

let stamp v =
  let d = Sgx.Page_data.create () in
  Sgx.Page_data.fill_int d v;
  d

let test_geometry () =
  let _, oram = make ~n_blocks:64 () in
  checki "levels for 64 leaves" 7 (Oram.Path_oram.levels oram);
  checki "leaves" 64 (Oram.Path_oram.leaves oram);
  let _, oram = make ~n_blocks:65 () in
  checki "leaves round up" 128 (Oram.Path_oram.leaves oram)

let test_write_read () =
  let _, oram = make () in
  Oram.Path_oram.write oram ~block:7 (stamp 707);
  checki "read back" 707 (Sgx.Page_data.read_int (Oram.Path_oram.read oram ~block:7))

let test_fresh_block_zero () =
  let _, oram = make () in
  checki "fresh block is zero" 0
    (Sgx.Page_data.read_int (Oram.Path_oram.read oram ~block:3))

let test_many_blocks_roundtrip () =
  let _, oram = make ~n_blocks:64 () in
  for b = 0 to 63 do
    Oram.Path_oram.write oram ~block:b (stamp (b * 11))
  done;
  for b = 0 to 63 do
    checki "block content" (b * 11)
      (Sgx.Page_data.read_int (Oram.Path_oram.read oram ~block:b))
  done

let test_random_sequence_consistency () =
  let _, oram = make ~n_blocks:32 () in
  let rng = Metrics.Rng.create ~seed:5L in
  let shadow = Array.make 32 0 in
  for _ = 1 to 2_000 do
    let b = Metrics.Rng.int rng 32 in
    if Metrics.Rng.bool rng then begin
      let v = Metrics.Rng.int rng 1_000_000 in
      shadow.(b) <- v;
      Oram.Path_oram.write oram ~block:b (stamp v)
    end
    else
      checki "shadow agreement" shadow.(b)
        (Sgx.Page_data.read_int (Oram.Path_oram.read oram ~block:b))
  done

let test_stash_bounded () =
  let _, oram = make ~n_blocks:128 () in
  let rng = Metrics.Rng.create ~seed:6L in
  for _ = 1 to 4_000 do
    Oram.Path_oram.access oram ~block:(Metrics.Rng.int rng 128) (fun _ -> ())
  done;
  (* PathORAM stashes stay small with overwhelming probability. *)
  checkb "stash small" true (Oram.Path_oram.stash_size oram < 64)

let test_access_charges_cost () =
  let clock, oram = make () in
  Metrics.Clock.reset clock;
  Oram.Path_oram.access oram ~block:0 (fun _ -> ());
  checki "charged advertised cost" (Oram.Path_oram.access_cost oram)
    (Metrics.Clock.now clock)

let test_oblivious_scan_costs_more () =
  let clock_d, oram_d = make ~n_blocks:256 ~metadata:`Direct () in
  let clock_s, oram_s = make ~n_blocks:256 ~metadata:`Oblivious_scan () in
  Metrics.Clock.reset clock_d;
  Metrics.Clock.reset clock_s;
  Oram.Path_oram.access oram_d ~block:1 (fun _ -> ());
  Oram.Path_oram.access oram_s ~block:1 (fun _ -> ());
  checkb "scan metadata strictly slower" true
    (Metrics.Clock.now clock_s > 2 * Metrics.Clock.now clock_d)

let test_remap_per_access () =
  (* Accessing the same block repeatedly must visit fresh random leaves:
     the core obliviousness mechanism. *)
  let _, oram = make ~n_blocks:256 () in
  Oram.Path_oram.set_tracing oram true;
  for _ = 1 to 64 do
    Oram.Path_oram.access oram ~block:9 (fun _ -> ())
  done;
  let leaves = Oram.Path_oram.trace oram in
  let distinct = List.sort_uniq compare leaves in
  checkb "leaves vary across repeated accesses" true (List.length distinct > 16)

let test_trace_independent_of_pattern () =
  (* Chi-squared-lite: leaf histograms for two very different access
     patterns should both look uniform. *)
  let run pattern =
    let _, oram = make ~n_blocks:64 () in
    Oram.Path_oram.set_tracing oram true;
    List.iter (fun b -> Oram.Path_oram.access oram ~block:b (fun _ -> ())) pattern;
    let counts = Array.make (Oram.Path_oram.leaves oram) 0 in
    List.iter (fun l -> counts.(l) <- counts.(l) + 1) (Oram.Path_oram.trace oram);
    counts
  in
  let n = 4_096 in
  let same_block = List.init n (fun _ -> 5) in
  let rng = Metrics.Rng.create ~seed:123L in
  let random_blocks = List.init n (fun _ -> Metrics.Rng.int rng 64) in
  let max_share counts =
    float_of_int (Array.fold_left max 0 counts) /. float_of_int n
  in
  (* With 64 leaves and uniform remapping, no leaf should capture much
     more than 1/64 ~ 1.6% of accesses for either pattern. *)
  checkb "same-block pattern looks uniform" true (max_share (run same_block) < 0.05);
  checkb "random pattern looks uniform" true (max_share (run random_blocks) < 0.05)

let test_bounds_check () =
  let _, oram = make ~n_blocks:8 () in
  checkb "out of range rejected" true
    (try Oram.Path_oram.access oram ~block:8 (fun _ -> ()); false
     with Invalid_argument _ -> true)

(* --- Differential oracle ---------------------------------------------- *)

(* [Path_oram_ref] is the pre-flat implementation (slot records holding
   payloads, recursive parent walk), kept verbatim.  Both stores are
   driven from identical seeds through the same operations; the flat
   rewrite must match it step for step: stash size, cycles charged,
   payloads read, and the final leaf trace. *)

type op =
  | Access of int * int  (* block, stamp written through the callback *)
  | Read of int
  | Write of int * int

let pp_op = function
  | Access (b, v) -> Printf.sprintf "access %d %d" b v
  | Read b -> Printf.sprintf "read %d" b
  | Write (b, v) -> Printf.sprintf "write %d %d" b v

(* Blocks are drawn either anywhere (mostly first touches on large
   trees) or from a hot set of 8 (repeat visits, stash reuse). *)
let gen_case =
  QCheck2.Gen.(
    let* n_blocks = oneof [ int_range 1 40; int_range 1 1_100 ] in
    let* z = int_range 1 4 in
    let* scan = bool in
    let* seed = int_range 0 1_000_000 in
    let block =
      let* hot = bool in
      let* b = int_range 0 (n_blocks - 1) in
      return (if hot then b mod min n_blocks 8 else b)
    in
    let op =
      let* kind = int_range 0 2 in
      let* b = block in
      let* v = int_range 1 1_000_000 in
      return (match kind with 0 -> Access (b, v) | 1 -> Read b | _ -> Write (b, v))
    in
    let* ops = list_size (int_range 1 300) op in
    return (n_blocks, z, scan, seed, ops))

let print_case (n_blocks, z, scan, seed, ops) =
  Printf.sprintf "n_blocks=%d z=%d %s seed=%d [%s]" n_blocks z
    (if scan then "oblivious-scan" else "direct")
    seed
    (String.concat "; " (List.map pp_op ops))

let agrees_with_ref (n_blocks, z, scan, seed, ops) =
  let metadata = if scan then `Oblivious_scan else `Direct in
  let pair () =
    ( Metrics.Clock.create Metrics.Cost_model.default,
      Metrics.Rng.create ~seed:(Int64.of_int seed) )
  in
  let clock, rng = pair () and rclock, rrng = pair () in
  let oram = Oram.Path_oram.create ~clock ~rng ~z ~metadata ~n_blocks () in
  let oracle = Path_oram_ref.create ~clock:rclock ~rng:rrng ~z ~metadata ~n_blocks () in
  Oram.Path_oram.set_tracing oram true;
  Path_oram_ref.set_tracing oracle true;
  let same_state () =
    Oram.Path_oram.stash_size oram = Path_oram_ref.stash_size oracle
    && Metrics.Clock.now clock = Metrics.Clock.now rclock
  in
  Oram.Path_oram.levels oram = Path_oram_ref.levels oracle
  && Oram.Path_oram.leaves oram = Path_oram_ref.leaves oracle
  && Oram.Path_oram.access_cost oram = Path_oram_ref.access_cost oracle
  && List.for_all
       (fun op ->
         let read_agrees =
           match op with
           | Access (block, v) ->
             let seen = ref 0 and rseen = ref 0 in
             Oram.Path_oram.access oram ~block (fun d ->
                 seen := Sgx.Page_data.read_int d;
                 Sgx.Page_data.fill_int d v);
             Path_oram_ref.access oracle ~block (fun d ->
                 rseen := Sgx.Page_data.read_int d;
                 Sgx.Page_data.fill_int d v);
             !seen = !rseen
           | Read block ->
             Sgx.Page_data.equal
               (Oram.Path_oram.read oram ~block)
               (Path_oram_ref.read oracle ~block)
           | Write (block, v) ->
             Oram.Path_oram.write oram ~block (stamp v);
             Path_oram_ref.write oracle ~block (stamp v);
             true
         in
         read_agrees && same_state ())
       ops
  && Oram.Path_oram.trace oram = Path_oram_ref.trace oracle

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"oram read-your-writes (random programs)" ~count:30
        QCheck2.Gen.(list_size (int_range 1 200) (pair (int_range 0 15) (int_range 0 10_000)))
        (fun ops ->
          let _, oram = make ~n_blocks:16 () in
          let shadow = Array.make 16 0 in
          List.for_all
            (fun (b, v) ->
              if v mod 3 = 0 then begin
                shadow.(b) <- v;
                Oram.Path_oram.write oram ~block:b (stamp v);
                true
              end
              else
                Sgx.Page_data.read_int (Oram.Path_oram.read oram ~block:b)
                = shadow.(b))
            ops);
      QCheck2.Test.make ~name:"oram stash bounded under random load" ~count:10
        QCheck2.Gen.(int_range 1 1_000)
        (fun seed ->
          let clock = Metrics.Clock.create Metrics.Cost_model.default in
          let rng = Metrics.Rng.create ~seed:(Int64.of_int seed) in
          let oram = Oram.Path_oram.create ~clock ~rng ~n_blocks:64 () in
          for _ = 1 to 1_000 do
            Oram.Path_oram.access oram ~block:(Metrics.Rng.int rng 64) (fun _ -> ())
          done;
          Oram.Path_oram.stash_size oram < 64);
      QCheck2.Test.make ~name:"oram agrees with the boxed reference" ~count:150
        ~print:print_case gen_case agrees_with_ref;
    ]

(* --- Allocation --------------------------------------------------------- *)

(* Once every block has a payload, an access only moves ints between
   the path, the stash and the position map. *)
let test_access_allocation_free () =
  let _, oram = make ~n_blocks:256 () in
  for block = 0 to 255 do
    Oram.Path_oram.access oram ~block (fun _ -> ())
  done;
  let a =
    Helpers.min_alloc_bytes (fun () ->
        for i = 1 to 10_000 do
          Oram.Path_oram.access oram ~block:(i * 37 land 255) (fun _ -> ())
        done)
  in
  if a > 0.0 then Alcotest.failf "10k warm ORAM accesses allocated %.0f B" a

(* The tree is one int per slot plus two words per block (position map
   and payload pointer); the 64 KiB covers the stash and headers.
   Measured with [`Oblivious_scan]: 5.2 MB at 65,536 blocks and 21.0 MB
   at 262,144, against 24.1 MB and 96.5 MB for the record-per-slot
   [Path_oram_ref]. *)
let test_create_allocation_bounded () =
  let n_blocks = 65_536 in
  let build () =
    let clock = Metrics.Clock.create Metrics.Cost_model.default in
    let rng = Metrics.Rng.create ~seed:3L in
    Oram.Path_oram.create ~clock ~rng ~metadata:`Oblivious_scan ~n_blocks ()
  in
  let bucket_count = (2 * Oram.Path_oram.leaves (build ())) - 1 in
  let bound = float_of_int ((8 * ((bucket_count * 4) + (2 * n_blocks))) + 65_536) in
  let a = Helpers.min_alloc_bytes (fun () -> ignore (build ())) in
  if a > bound then
    Alcotest.failf "create ~n_blocks:%d allocated %.0f B (bound %.0f B)" n_blocks a
      bound

let suite =
  [
    ("geometry", `Quick, test_geometry);
    ("write/read", `Quick, test_write_read);
    ("fresh block zero", `Quick, test_fresh_block_zero);
    ("all blocks roundtrip", `Quick, test_many_blocks_roundtrip);
    ("random sequence consistency", `Quick, test_random_sequence_consistency);
    ("stash bounded", `Quick, test_stash_bounded);
    ("access charges advertised cost", `Quick, test_access_charges_cost);
    ("oblivious metadata costs more", `Quick, test_oblivious_scan_costs_more);
    ("remap per access", `Quick, test_remap_per_access);
    ("trace independent of pattern", `Quick, test_trace_independent_of_pattern);
    ("bounds check", `Quick, test_bounds_check);
    ("warm access allocates nothing", `Quick, test_access_allocation_free);
    ("create allocation bounded", `Quick, test_create_allocation_bounded);
  ]
  @ qcheck_cases
