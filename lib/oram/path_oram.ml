type metadata = [ `Direct | `Oblivious_scan ]

(* The tree and the stash hold block ids only: bucket [b]'s slots are
   [slots.(b * z) .. slots.(b * z + z - 1)], -1 marking an empty slot,
   and the stash is a dense int array whose entries [0, st_n) are live.
   Each block's payload object is created at its first access and never
   replaced, so it lives in [data] (indexed by block id) and a slot
   move is a plain int store, with no write barrier.  [untouched] is a
   sentinel payload for blocks never accessed: they are in neither the
   tree nor the stash.

   Path geometry is O(1): with leaves = 2^(levels-1) and the heap layout
   (root 0, children 2i+1 and 2i+2), the level-[v] bucket on the path
   to [leaf] is ((leaves + leaf) lsr (levels - 1 - v)) - 1, and two
   leaves share that bucket iff they agree above bit (levels - 1 - v).

   Every cost depends only on the immutable cost model and the tree
   shape, so it is computed once at creation. *)
type t = {
  clock : Metrics.Clock.t;
  rng : Metrics.Rng.t;
  z : int;
  n_blocks : int;
  leaves : int;
  levels : int;
  slots : int array;
  posmap : int array;
  data : Sgx.Page_data.t array;
  untouched : Sgx.Page_data.t;
  mutable stash : int array;
  mutable st_n : int;
  path_cost : int;  (* one path read or write *)
  metadata_cost : int;  (* position map + stash lookup, once per access *)
  eviction_scan_cost : int;  (* oblivious stash scans of one write-back *)
  mutable tracing : bool;
  mutable trace : int list;
  c_access : Metrics.Counters.cell;
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

(* Oblivious stash scans assume a stash of this many page-sized blocks. *)
let stash_capacity = 128

let create ~clock ~rng ?(z = 4) ?(metadata = `Direct) ~n_blocks () =
  assert (n_blocks > 0 && z > 0);
  let leaves = pow2_at_least (max 2 n_blocks) 1 in
  let levels =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    log2 leaves + 1
  in
  let bucket_count = (2 * leaves) - 1 in
  let posmap = Array.init n_blocks (fun _ -> Metrics.Rng.int rng leaves) in
  let untouched = Sgx.Page_data.create () in
  let m = Metrics.Clock.model clock in
  let slot_move_cost = m.dram_access + Metrics.Cost_model.sw_page_crypto m in
  let stash_scan =
    Sim_crypto.Oblivious.scan_cost m ~entries:stash_capacity
      ~entry_bytes:m.page_bytes
  in
  let metadata_cost, eviction_scan_cost =
    match metadata with
    | `Direct ->
      (* Position map and stash are directly addressable: they live in
         enclave-managed pinned pages whose accesses Autarky hides. *)
      (2 * m.mem_access, 0)
    | `Oblivious_scan ->
      (* CMOV linear scans of the position map (4 B/entry) and the stash
         (page-sized blocks), once each per access; the greedy eviction
         must then select blocks with one oblivious stash scan per
         bucket — the dominant cost of CMOV-based ORAM implementations. *)
      ( Sim_crypto.Oblivious.scan_cost m ~entries:n_blocks ~entry_bytes:4
        + stash_scan,
        levels * stash_scan )
  in
  {
    clock;
    rng;
    z;
    n_blocks;
    leaves;
    levels;
    slots = Array.make (bucket_count * z) (-1);
    posmap;
    data = Array.make n_blocks untouched;
    untouched;
    stash = Array.make 256 (-1);
    st_n = 0;
    path_cost = levels * z * slot_move_cost;
    metadata_cost;
    eviction_scan_cost;
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

let access_cost t = (2 * t.path_cost) + t.metadata_cost + t.eviction_scan_cost

(* --- Stash ----------------------------------------------------------- *)

let stash_push t blk =
  if t.st_n = Array.length t.stash then begin
    let grown = Array.make (2 * t.st_n) (-1) in
    Array.blit t.stash 0 grown 0 t.st_n;
    t.stash <- grown
  end;
  t.stash.(t.st_n) <- blk;
  t.st_n <- t.st_n + 1

(* --- Paths ----------------------------------------------------------- *)

(* First slot of the level-[level] bucket on the path to [leaf]; level 0
   is the root, level [levels-1] the leaf bucket. *)
let bucket_base t ~leaf ~level =
  (((t.leaves + leaf) lsr (t.levels - 1 - level)) - 1) * t.z

let read_path t leaf =
  Metrics.Clock.charge t.clock t.path_cost;
  for level = 0 to t.levels - 1 do
    let base = bucket_base t ~leaf ~level in
    for s = base to base + t.z - 1 do
      let blk = t.slots.(s) in
      if blk >= 0 then begin
        stash_push t blk;
        t.slots.(s) <- -1
      end
    done
  done

(* Greedily fill slots [base, base + z) of a bucket (emptied by
   [read_path]) with stash blocks whose assigned leaf shares it with
   [leaf], i.e. agrees with it above bit [shift].  Removal swaps the
   last stash entry into index [i], which is then re-examined. *)
let rec place_level t base shift leaf placed i =
  if placed < t.z && i < t.st_n then begin
    let blk = t.stash.(i) in
    if (t.posmap.(blk) lxor leaf) lsr shift = 0 then begin
      t.slots.(base + placed) <- blk;
      t.st_n <- t.st_n - 1;
      t.stash.(i) <- t.stash.(t.st_n);
      place_level t base shift leaf (placed + 1) i
    end
    else place_level t base shift leaf placed (i + 1)
  end

let write_path t leaf =
  Metrics.Clock.charge t.clock (t.path_cost + t.eviction_scan_cost);
  for level = t.levels - 1 downto 0 do
    place_level t (bucket_base t ~leaf ~level) (t.levels - 1 - level) leaf 0 0
  done

let access t ~block f =
  if block < 0 || block >= t.n_blocks then
    invalid_arg (Printf.sprintf "Path_oram.access: block %d of %d" block t.n_blocks);
  Metrics.Clock.charge t.clock t.metadata_cost;
  let leaf = t.posmap.(block) in
  if t.tracing then t.trace <- leaf :: t.trace;
  t.posmap.(block) <- Metrics.Rng.int t.rng t.leaves;
  read_path t leaf;
  let data = t.data.(block) in
  let data =
    if data != t.untouched then data
    else begin
      (* First access to this block: materialize a zero page. *)
      let d = Sgx.Page_data.create () in
      t.data.(block) <- d;
      stash_push t block;
      d
    end
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
