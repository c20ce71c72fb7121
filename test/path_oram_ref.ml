(* Record-per-slot Path ORAM: [Oram.Path_oram] before its flat-array
   rewrite, kept verbatim as the differential oracle of test_oram.ml. *)

type metadata = [ `Direct | `Oblivious_scan ]

(* Bucket slots and the stash hold payloads directly (a shared [dummy]
   page stands in for "empty"): the option wrapper and the stash
   hashtable of the original implementation allocated on every slot
   move, which put the ORAM cells' allocation rate in the kilobytes per
   access.  The stash is a dense pair of arrays plus a block -> index
   map, so adds and removes are array stores. *)
type slot = { mutable blk : int; mutable data : Sgx.Page_data.t }

type t = {
  clock : Metrics.Clock.t;
  rng : Metrics.Rng.t;
  z : int;
  metadata : metadata;
  n_blocks : int;
  leaves : int;
  levels : int;
  buckets : slot array array;
  posmap : int array;
  dummy : Sgx.Page_data.t;
  (* Stash: entries [0, st_n) of [st_blk]/[st_data] are live;
     [in_stash.(blk)] is the entry index or -1. *)
  mutable st_blk : int array;
  mutable st_data : Sgx.Page_data.t array;
  mutable st_n : int;
  in_stash : int array;
  stash_capacity : int;
  mutable tracing : bool;
  mutable trace : int list;
  c_access : Metrics.Counters.cell;
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ~clock ~rng ?(z = 4) ?(metadata = `Direct) ~n_blocks () =
  assert (n_blocks > 0 && z > 0);
  let leaves = pow2_at_least (max 2 n_blocks) 1 in
  let levels =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    log2 leaves + 1
  in
  let bucket_count = (2 * leaves) - 1 in
  let dummy = Sgx.Page_data.create () in
  let buckets =
    Array.init bucket_count (fun _ ->
        Array.init z (fun _ -> { blk = -1; data = dummy }))
  in
  let posmap = Array.init n_blocks (fun _ -> Metrics.Rng.int rng leaves) in
  {
    clock;
    rng;
    z;
    metadata;
    n_blocks;
    leaves;
    levels;
    buckets;
    posmap;
    dummy;
    st_blk = Array.make 256 (-1);
    st_data = Array.make 256 dummy;
    st_n = 0;
    in_stash = Array.make n_blocks (-1);
    stash_capacity = 128;
    tracing = false;
    trace = [];
    c_access = Metrics.Counters.cell (Metrics.Clock.counters clock) "oram.access";
  }

let n_blocks t = t.n_blocks
let levels t = t.levels
let leaves t = t.leaves
let stash_size t = t.st_n
let set_tracing t b = t.tracing <- b
let trace t = t.trace

(* --- Stash ----------------------------------------------------------- *)

let stash_grow t =
  let cap = 2 * Array.length t.st_blk in
  let blk = Array.make cap (-1) and data = Array.make cap t.dummy in
  Array.blit t.st_blk 0 blk 0 t.st_n;
  Array.blit t.st_data 0 data 0 t.st_n;
  t.st_blk <- blk;
  t.st_data <- data

let stash_add t blk d =
  match t.in_stash.(blk) with
  | i when i >= 0 -> t.st_data.(i) <- d
  | _ ->
    if t.st_n = Array.length t.st_blk then stash_grow t;
    t.st_blk.(t.st_n) <- blk;
    t.st_data.(t.st_n) <- d;
    t.in_stash.(blk) <- t.st_n;
    t.st_n <- t.st_n + 1

(* Swap-with-last removal: the caller scanning forward must re-examine
   index [i] afterwards. *)
let stash_remove_at t i =
  let last = t.st_n - 1 in
  t.in_stash.(t.st_blk.(i)) <- -1;
  if i < last then begin
    t.st_blk.(i) <- t.st_blk.(last);
    t.st_data.(i) <- t.st_data.(last);
    t.in_stash.(t.st_blk.(i)) <- i
  end;
  t.st_blk.(last) <- -1;
  t.st_data.(last) <- t.dummy;
  t.st_n <- last

(* --- Tree geometry --------------------------------------------------- *)

(* Bucket index (heap layout) of the level-[v] node on the path to
   [leaf]; level 0 is the root, level [levels-1] the leaf bucket.
   Top-level recursion rather than a local ref: the walk runs once per
   level per access and must not allocate. *)
let rec bucket_up node steps =
  if steps = 0 then node else bucket_up ((node - 1) / 2) (steps - 1)

let bucket_at t ~leaf ~level = bucket_up (t.leaves - 1 + leaf) (t.levels - 1 - level)

let model t = Metrics.Clock.model t.clock

let slot_move_cost t =
  let m = model t in
  m.dram_access + Metrics.Cost_model.sw_page_crypto m

let metadata_cost t =
  let m = model t in
  match t.metadata with
  | `Direct ->
    (* Position map and stash are directly addressable: they live in
       enclave-managed pinned pages whose accesses Autarky hides. *)
    2 * m.mem_access
  | `Oblivious_scan ->
    (* CMOV linear scans of the position map (4 B/entry) and the stash
       (page-sized blocks), once each per access. *)
    Sim_crypto.Oblivious.scan_cost m ~entries:t.n_blocks ~entry_bytes:4
    + Sim_crypto.Oblivious.scan_cost m ~entries:t.stash_capacity
        ~entry_bytes:m.page_bytes

let access_cost t =
  let eviction_scans =
    match t.metadata with
    | `Direct -> 0
    | `Oblivious_scan ->
      let m = model t in
      t.levels
      * Sim_crypto.Oblivious.scan_cost m ~entries:t.stash_capacity
          ~entry_bytes:m.page_bytes
  in
  (2 * t.levels * t.z * slot_move_cost t) + metadata_cost t + eviction_scans

let read_path t leaf =
  let cost = t.levels * t.z * slot_move_cost t in
  Metrics.Clock.charge t.clock cost;
  for level = 0 to t.levels - 1 do
    let bucket = t.buckets.(bucket_at t ~leaf ~level) in
    for s = 0 to Array.length bucket - 1 do
      let slot = bucket.(s) in
      if slot.blk >= 0 then begin
        stash_add t slot.blk slot.data;
        slot.blk <- -1;
        slot.data <- t.dummy
      end
    done
  done

(* Greedily place stash blocks whose assigned leaf shares this bucket,
   filling slots [0, z).  [i] re-examines its index after a removal
   (swap-with-last).  Stash scan order replaces the old hashtable
   iteration order; placement choice is unobservable (costs, traces and
   retrievability do not depend on it). *)
let rec place_level t bucket bucket_idx level placed i =
  if placed < t.z && i < t.st_n then begin
    let blk = t.st_blk.(i) in
    if bucket_at t ~leaf:t.posmap.(blk) ~level = bucket_idx then begin
      let s = bucket.(placed) in
      s.blk <- blk;
      s.data <- t.st_data.(i);
      stash_remove_at t i;
      place_level t bucket bucket_idx level (placed + 1) i
    end
    else place_level t bucket bucket_idx level placed (i + 1)
  end

let write_path t leaf =
  let cost = t.levels * t.z * slot_move_cost t in
  Metrics.Clock.charge t.clock cost;
  (* Without directly-addressable metadata, the greedy eviction must
     select blocks with one oblivious stash scan per bucket — the
     dominant cost of CMOV-based ORAM implementations. *)
  (match t.metadata with
  | `Direct -> ()
  | `Oblivious_scan ->
    let m = model t in
    Metrics.Clock.charge t.clock
      (t.levels
      * Sim_crypto.Oblivious.scan_cost m ~entries:t.stash_capacity
          ~entry_bytes:m.page_bytes));
  for level = t.levels - 1 downto 0 do
    let bucket_idx = bucket_at t ~leaf ~level in
    place_level t t.buckets.(bucket_idx) bucket_idx level 0 0
  done

let access t ~block f =
  if block < 0 || block >= t.n_blocks then
    invalid_arg (Printf.sprintf "Path_oram.access: block %d of %d" block t.n_blocks);
  Metrics.Clock.charge t.clock (metadata_cost t);
  let leaf = t.posmap.(block) in
  if t.tracing then t.trace <- leaf :: t.trace;
  t.posmap.(block) <- Metrics.Rng.int t.rng t.leaves;
  read_path t leaf;
  let data =
    match t.in_stash.(block) with
    | i when i >= 0 -> t.st_data.(i)
    | _ ->
      (* First access to this block: materialize a zero page. *)
      let d = Sgx.Page_data.create () in
      stash_add t block d;
      d
  in
  f data;
  write_path t leaf;
  Metrics.Counters.cell_incr t.c_access

let read t ~block =
  let out = ref (Sgx.Page_data.create ()) in
  access t ~block (fun d -> out := Sgx.Page_data.copy d);
  !out

let write t ~block data =
  access t ~block (fun d ->
      let src = Sgx.Page_data.to_bytes data in
      let dst = Sgx.Page_data.to_bytes d in
      let n = min (Bytes.length src) (Bytes.length dst) in
      Bytes.blit src 0 dst 0 n)
