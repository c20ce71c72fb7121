type t = {
  clusters : Clusters.t;
  base : Sgx.Types.vpage;
  limit : Sgx.Types.vpage;
  cluster_pages : int;
  mutable next_fresh : Sgx.Types.vpage;
  mutable free_list : Sgx.Types.vpage list;
  mutable current_cluster : Clusters.cluster_id;
  mutable in_use : (Sgx.Types.vpage, unit) Hashtbl.t;
  (* bump state for object allocation *)
  mutable bump_page : Sgx.Types.vpage;
  mutable bump_off : int;
  mutable sparse : Clusters.cluster_id option;
      (** a cluster at ≤ half capacity awaiting a merge partner *)
}

let create ~clusters ~base_vpage ~pages ~cluster_pages =
  assert (pages > 0 && cluster_pages > 0);
  {
    clusters;
    base = base_vpage;
    limit = base_vpage + pages;
    cluster_pages;
    next_fresh = base_vpage;
    free_list = [];
    current_cluster = Clusters.new_cluster clusters ~size:cluster_pages ();
    in_use = Hashtbl.create 4096;
    bump_page = -1;
    bump_off = 0;
    sparse = None;
  }

let clusters t = t.clusters
let base_vpage t = t.base
let pages t = t.limit - t.base
let end_vpage t = t.next_fresh
let pages_in_use t = Hashtbl.length t.in_use

let allocated_pages t =
  Hashtbl.fold (fun vp () acc -> vp :: acc) t.in_use [] |> List.sort compare

let alloc_page t =
  let vp =
    match t.free_list with
    | vp :: rest ->
      t.free_list <- rest;
      vp
    | [] ->
      if t.next_fresh >= t.limit then raise Out_of_memory;
      let vp = t.next_fresh in
      t.next_fresh <- vp + 1;
      vp
  in
  if Clusters.size_of t.clusters t.current_cluster >= t.cluster_pages then
    t.current_cluster <- Clusters.new_cluster t.clusters ~size:t.cluster_pages ();
  Clusters.ay_add_page t.clusters ~cluster:t.current_cluster vp;
  Hashtbl.replace t.in_use vp ();
  vp

let alloc t ~bytes =
  assert (bytes > 0);
  let page_bytes = Sgx.Types.page_bytes in
  if bytes >= page_bytes then begin
    (* Multi-page object: contiguous fresh pages, all in one cluster run. *)
    let pages = (bytes + page_bytes - 1) / page_bytes in
    let first = alloc_page t in
    for _ = 2 to pages do
      ignore (alloc_page t)
    done;
    Sgx.Types.vaddr_of_vpage first
  end
  else begin
    if t.bump_page < 0 || t.bump_off + bytes > page_bytes then begin
      t.bump_page <- alloc_page t;
      t.bump_off <- 0
    end;
    let addr = Sgx.Types.vaddr_of_vpage t.bump_page + t.bump_off in
    t.bump_off <- t.bump_off + bytes;
    addr
  end

let close_bump_page t =
  t.bump_page <- -1;
  t.bump_off <- 0

let free_page t vp =
  if Hashtbl.mem t.in_use vp then begin
    Hashtbl.remove t.in_use vp;
    t.free_list <- vp :: t.free_list;
    let ids = Clusters.ay_get_cluster_ids t.clusters vp in
    List.iter (fun id -> Clusters.ay_remove_page t.clusters ~cluster:id vp) ids;
    (* Merge half-empty clusters pairwise to keep clusters near-full. *)
    List.iter
      (fun id ->
        if
          id <> t.current_cluster
          && Clusters.size_of t.clusters id <= t.cluster_pages / 2
        then
          match t.sparse with
          | None -> t.sparse <- Some id
          | Some other when other = id -> ()
          | Some other ->
            if
              Clusters.size_of t.clusters other
              + Clusters.size_of t.clusters id
              <= t.cluster_pages
            then begin
              Clusters.merge t.clusters ~into:other ~from:id;
              if Clusters.size_of t.clusters other <= t.cluster_pages / 2 then
                t.sparse <- Some other
              else t.sparse <- None
            end
            else t.sparse <- Some id)
      ids
  end
