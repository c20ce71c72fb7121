(* Boxed reference TLB: the pre-flat implementation (Hashtbl + Queue),
   kept as a differential oracle for {!Sgx.Tlb} in the style of
   [Chacha20_ref].  Eviction order, stale-entry handling and the
   dirty-fill re-walk rule are the semantics the flat rewrite must
   reproduce exactly. *)

open Sgx

type entry = { perms : Types.perms; dirty_filled : bool }

type t = {
  entries : (Types.vpage, entry) Hashtbl.t;
  order : Types.vpage Queue.t;
  cap : int;
}

let create ?(capacity = 1536) () =
  assert (capacity > 0);
  { entries = Hashtbl.create (2 * capacity); order = Queue.create (); cap = capacity }

(* A write through an entry that was filled without dirty tracking must
   re-walk (as x86 does to set the PTE dirty bit). *)
let hit t vp kind =
  match Hashtbl.find_opt t.entries vp with
  | Some e ->
    Types.perms_allow e.perms kind
    && (kind <> Types.Write || e.dirty_filled)
  | None -> false

let rec evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some vp ->
    (* Skip stale queue entries left by flush_page/replacement. *)
    if Hashtbl.mem t.entries vp then Hashtbl.remove t.entries vp else evict_one t

let fill ?(dirty = false) t vp perms =
  if not (Hashtbl.mem t.entries vp) then begin
    if Hashtbl.length t.entries >= t.cap then evict_one t;
    Queue.push vp t.order
  end;
  Hashtbl.replace t.entries vp { perms; dirty_filled = dirty }

let fill_bits ?dirty t vp bits = fill ?dirty t vp (Types.perms_of_bits bits)

let flush t =
  Hashtbl.reset t.entries;
  Queue.clear t.order

let flush_page t vp = Hashtbl.remove t.entries vp
let size t = Hashtbl.length t.entries
let capacity t = t.cap
