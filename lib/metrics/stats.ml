type t = {
  mutable samples : float list;
  mutable n : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { samples = []; n = 0; sum = 0.0; sum_sq = 0.0;
    min_v = infinity; max_v = neg_infinity }

let add t x =
  t.samples <- x :: t.samples;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else
    let n = float_of_int t.n in
    let var = (t.sum_sq -. (t.sum *. t.sum /. n)) /. (n -. 1.0) in
    if var < 0.0 then 0.0 else sqrt var

let min_value t = if t.n = 0 then 0.0 else t.min_v
let max_value t = if t.n = 0 then 0.0 else t.max_v

let percentile t p =
  if t.n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: bad p";
  let sorted = List.sort compare t.samples in
  let arr = Array.of_list sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
  let idx = max 0 (min (t.n - 1) (rank - 1)) in
  arr.(idx)

type summary = {
  s_count : int;
  s_mean : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
  s_max : float;
}

let summary t =
  if t.n = 0 then
    { s_count = 0; s_mean = 0.0; s_p50 = 0.0; s_p95 = 0.0; s_p99 = 0.0;
      s_max = 0.0 }
  else begin
    (* One sort serves all three percentiles (nearest-rank, like
       {!percentile}). *)
    let arr = Array.of_list t.samples in
    Array.sort compare arr;
    let pct p =
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) in
      arr.(max 0 (min (t.n - 1) (rank - 1)))
    in
    { s_count = t.n; s_mean = mean t; s_p50 = pct 50.0; s_p95 = pct 95.0;
      s_p99 = pct 99.0; s_max = t.max_v }
  end

(* Exact accumulator merge: [t] keeps every sample, so merging is
   concatenation plus moment sums — summary-of-merge equals
   summary-of-concatenated-samples (the QCheck property in
   test/test_parallel.ml). *)
let merge_into ~into src =
  into.samples <- List.rev_append src.samples into.samples;
  into.n <- into.n + src.n;
  into.sum <- into.sum +. src.sum;
  into.sum_sq <- into.sum_sq +. src.sum_sq;
  if src.min_v < into.min_v then into.min_v <- src.min_v;
  if src.max_v > into.max_v then into.max_v <- src.max_v

let merged ts =
  let out = create () in
  List.iter (fun t -> merge_into ~into:out t) ts;
  out

let geomean values =
  match values with
  | [] -> invalid_arg "Stats.geomean: empty"
  | _ ->
    let log_sum =
      List.fold_left
        (fun acc v ->
          if v <= 0.0 then invalid_arg "Stats.geomean: non-positive value";
          acc +. log v)
        0.0 values
    in
    exp (log_sum /. float_of_int (List.length values))

module Histogram = struct
  type h = { bucket_width : float; table : (int, int) Hashtbl.t }

  let create ~bucket_width =
    assert (bucket_width > 0.0);
    { bucket_width; table = Hashtbl.create 64 }

  let add h x =
    let bucket = int_of_float (floor (x /. h.bucket_width)) in
    let cur = Option.value ~default:0 (Hashtbl.find_opt h.table bucket) in
    Hashtbl.replace h.table bucket (cur + 1)

  let buckets h =
    Hashtbl.fold
      (fun b c acc -> (float_of_int b *. h.bucket_width, c) :: acc)
      h.table []
    |> List.sort compare
end
