(* Binary min-heap of timed int events, ordered by (cycle, sequence).

   The sequence number breaks ties deterministically: two events due at
   the same virtual cycle pop in the order they were pushed, so the
   discrete-event loop is a pure function of its inputs — the property
   the fixed-seed serving benchmark depends on.

   The heap lives in three parallel int arrays (time / sequence /
   payload) rather than an array of entry records: pushes write into
   pre-grown slots and pops read into the two popped_* cells, so the
   steady-state served-request path allocates nothing (see the
   allocation tests in test/test_serve.ml). *)

type t = {
  mutable ats : int array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable len : int;
  mutable next_seq : int;
  mutable last_at : int;
  mutable last_payload : int;
}

let create () =
  { ats = Array.make 16 0;
    seqs = Array.make 16 0;
    payloads = Array.make 16 0;
    len = 0;
    next_seq = 0;
    last_at = 0;
    last_payload = 0 }

let length t = t.len
let is_empty t = t.len = 0

(* (at, seq) lexicographic order between slots [i] and [j]. *)
let before t i j =
  t.ats.(i) < t.ats.(j) || (t.ats.(i) = t.ats.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let a = t.ats.(i) in t.ats.(i) <- t.ats.(j); t.ats.(j) <- a;
  let s = t.seqs.(i) in t.seqs.(i) <- t.seqs.(j); t.seqs.(j) <- s;
  let p = t.payloads.(i) in t.payloads.(i) <- t.payloads.(j); t.payloads.(j) <- p

let grow t =
  let cap = 2 * Array.length t.ats in
  let ext old = let a = Array.make cap 0 in Array.blit old 0 a 0 t.len; a in
  t.ats <- ext t.ats;
  t.seqs <- ext t.seqs;
  t.payloads <- ext t.payloads

let push t ~at payload =
  if at < 0 then invalid_arg "Event_queue.push: negative time";
  if t.len = Array.length t.ats then grow t;
  let i = t.len in
  t.ats.(i) <- at;
  t.seqs.(i) <- t.next_seq;
  t.payloads.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  (* sift up *)
  let i = ref i in
  while !i > 0 && before t !i ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    swap t !i p;
    i := p
  done

let pop t =
  if t.len = 0 then false
  else begin
    t.last_at <- t.ats.(0);
    t.last_payload <- t.payloads.(0);
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.ats.(0) <- t.ats.(t.len);
      t.seqs.(0) <- t.seqs.(t.len);
      t.payloads.(0) <- t.payloads.(t.len);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.len && before t l !smallest then smallest := l;
        if r < t.len && before t r !smallest then smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap t !smallest !i;
          i := !smallest
        end
      done
    end;
    true
  end

let popped_at t = t.last_at
let popped_payload t = t.last_payload

let peek_time t = if t.len = 0 then None else Some t.ats.(0)
