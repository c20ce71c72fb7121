(* Boxed reference page table: the pre-flat-array implementation
   (Hashtbl of mutable PTE records), kept as a differential oracle for
   {!Sgx.Page_table} in the style of [Chacha20_ref].  Same interface, same
   observable behaviour; only the representation differs. *)

open Sgx

type pte = {
  mutable frame : Types.frame;
  mutable present : bool;
  mutable perms : Types.perms;
  mutable accessed : bool;
  mutable dirty : bool;
}

type t = (Types.vpage, pte) Hashtbl.t

let no_pte = Page_table.no_pte
let p_present = Page_table.p_present
let p_accessed = Page_table.p_accessed
let p_dirty = Page_table.p_dirty
let p_frame = Page_table.p_frame
let p_rwx = Page_table.p_rwx
let p_allows = Page_table.p_allows
let p_perms = Page_table.p_perms

let pack ~frame ~perms ~accessed ~dirty =
  Page_table.pack ~frame ~perms ~accessed ~dirty

let pack_pte pte =
  let p = pack ~frame:pte.frame ~perms:pte.perms ~accessed:pte.accessed
      ~dirty:pte.dirty
  in
  if pte.present then p else p land lnot 0x1

let create () = Hashtbl.create 1024

let map t ~vpage ~frame ~perms ?(accessed = false) ?(dirty = false) () =
  if vpage < 0 then invalid_arg "Page_table.map: negative vpage";
  if frame < 0 then invalid_arg "Page_table.map: negative frame";
  Hashtbl.replace t vpage { frame; present = true; perms; accessed; dirty }

let unmap t vpage = Hashtbl.remove t vpage
let find t vpage = Hashtbl.find_opt t vpage

let find_packed t vpage =
  match Hashtbl.find_opt t vpage with
  | Some pte -> pack_pte pte
  | None -> no_pte

let mapped t vpage = Hashtbl.mem t vpage

let present t vpage =
  match find t vpage with Some pte -> pte.present | None -> false

let set_perms t vpage perms =
  match find t vpage with
  | Some pte -> pte.perms <- perms
  | None -> raise Not_found

let set_present t vpage on =
  match find t vpage with Some pte -> pte.present <- on | None -> ()

let set_frame t vpage frame =
  match find t vpage with
  | Some pte -> pte.frame <- frame
  | None -> raise Not_found

let set_ad t vpage ~write =
  match find t vpage with
  | Some pte ->
    pte.accessed <- true;
    if write then pte.dirty <- true
  | None -> ()

let clear_accessed t vpage =
  match find t vpage with Some pte -> pte.accessed <- false | None -> ()

let clear_dirty t vpage =
  match find t vpage with Some pte -> pte.dirty <- false | None -> ()

let mapped_pages t =
  Hashtbl.fold (fun vp _ acc -> vp :: acc) t [] |> List.sort Int.compare

let count_present t =
  Hashtbl.fold (fun _ pte acc -> if pte.present then acc + 1 else acc) t 0

let count_mapped t = Hashtbl.length t
