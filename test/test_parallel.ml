(* The domain pool (lib/parallel) and the merge functions the sharded
   drivers rely on: task-order results at any worker count, exception
   capture that never wedges the pool, nested-submit rejection on both
   the serial and parallel paths, seed splitting, and the
   no-shared-state invariant that makes whole simulations safe to run
   in worker domains. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- basic batches ------------------------------------------------------ *)

let test_empty () =
  checkb "run []" true (Parallel.Pool.run ~jobs:4 [] = []);
  checkb "run_exn []" true (Parallel.Pool.run_exn ~jobs:4 [] = []);
  checkb "map []" true (Parallel.Pool.map ~jobs:4 (fun x -> x) [] = [])

let test_order_preserved () =
  List.iter
    (fun jobs ->
      let n = 100 in
      let out =
        Parallel.Pool.map ~jobs (fun i -> (i * 37) mod 101) (List.init n Fun.id)
      in
      checkb
        (Printf.sprintf "task order at jobs=%d" jobs)
        true
        (out = List.init n (fun i -> (i * 37) mod 101)))
    [ 1; 2; 7; 0 ]

let test_more_tasks_than_workers () =
  (* 97 tasks over 3 workers: every task runs exactly once. *)
  let n = 97 in
  let hits = Array.make n (Atomic.make 0) in
  for i = 0 to n - 1 do
    hits.(i) <- Atomic.make 0
  done;
  let out =
    Parallel.Pool.map ~jobs:3
      (fun i ->
        Atomic.incr hits.(i);
        i)
      (List.init n Fun.id)
  in
  checkb "results in order" true (out = List.init n Fun.id);
  Array.iteri (fun i h -> checki (Printf.sprintf "task %d once" i) 1 (Atomic.get h)) hits

(* --- exceptions --------------------------------------------------------- *)

exception Boom of int

let test_exception_capture () =
  List.iter
    (fun jobs ->
      let tasks =
        List.init 10 (fun i () -> if i mod 3 = 1 then raise (Boom i) else i * 2)
      in
      match Parallel.Pool.run ~jobs tasks with
      | outcomes ->
        List.iteri
          (fun i o ->
            match o with
            | Ok v when i mod 3 <> 1 -> checki "value" (i * 2) v
            | Error e when i mod 3 = 1 ->
              checki "failing index" i e.Parallel.Pool.index;
              checkb "exn preserved" true (e.Parallel.Pool.exn = Boom i)
            | _ -> Alcotest.failf "wrong outcome kind at %d (jobs=%d)" i jobs)
          outcomes)
    [ 1; 4 ]

let test_task_error_lists_all () =
  match Parallel.Pool.run_exn ~jobs:2 (List.init 6 (fun i () -> raise (Boom i))) with
  | _ -> Alcotest.fail "expected Task_error"
  | exception Parallel.Pool.Task_error errs ->
    checki "all failures" 6 (List.length errs);
    List.iteri
      (fun k e -> checki "ordered by index" k e.Parallel.Pool.index)
      errs

let test_pool_not_wedged_after_failure () =
  (* A failing batch must leave the pool fully reusable. *)
  (try ignore (Parallel.Pool.map ~jobs:3 (fun _ -> failwith "x") [ 1; 2; 3 ])
   with Parallel.Pool.Task_error _ -> ());
  checkb "next batch runs" true
    (Parallel.Pool.map ~jobs:3 (fun i -> i + 1) [ 1; 2; 3 ] = [ 2; 3; 4 ])

(* --- nested submission -------------------------------------------------- *)

let test_nested_submit_rejected () =
  List.iter
    (fun jobs ->
      let saw_invalid =
        Parallel.Pool.run ~jobs
          [ (fun () ->
              match Parallel.Pool.run ~jobs:1 [ (fun () -> 0) ] with
              | _ -> false
              | exception Invalid_argument _ -> true) ]
      in
      match saw_invalid with
      | [ Ok true ] -> ()
      | _ -> Alcotest.failf "nested submit not rejected at jobs=%d" jobs)
    [ 1; 2 ]

(* --- seed splitting ------------------------------------------------------ *)

let test_shard_seed () =
  let s0 = Parallel.Pool.shard_seed ~root:42 ~shard:0 in
  checki "deterministic" s0 (Parallel.Pool.shard_seed ~root:42 ~shard:0);
  let seeds = List.init 64 (fun i -> Parallel.Pool.shard_seed ~root:42 ~shard:i) in
  checki "distinct across shards" 64
    (List.length (List.sort_uniq compare seeds));
  List.iter (fun s -> checkb "non-negative" true (s >= 0)) seeds;
  checkb "root-sensitive" true
    (Parallel.Pool.shard_seed ~root:1 ~shard:0
    <> Parallel.Pool.shard_seed ~root:2 ~shard:0);
  checkb "rejects negative shard" true
    (match Parallel.Pool.shard_seed ~root:1 ~shard:(-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- merge functions ----------------------------------------------------- *)

let test_counters_merge () =
  let a = Metrics.Counters.create () and b = Metrics.Counters.create () in
  Metrics.Counters.add a "x" 3;
  Metrics.Counters.add a "y" 1;
  Metrics.Counters.add b "x" 4;
  Metrics.Counters.add b "z" 7;
  let m = Metrics.Counters.merged [ a; b ] in
  checki "x summed" 7 (Metrics.Counters.get m "x");
  checki "y kept" 1 (Metrics.Counters.get m "y");
  checki "z kept" 7 (Metrics.Counters.get m "z");
  (* src unchanged *)
  checki "src intact" 3 (Metrics.Counters.get a "x")

let test_stats_merge_exact () =
  let a = Metrics.Stats.create () and b = Metrics.Stats.create () in
  List.iter (Metrics.Stats.add a) [ 1.0; 9.0; 5.0 ];
  List.iter (Metrics.Stats.add b) [ 2.0; 8.0 ];
  let m = Metrics.Stats.merged [ a; b ] in
  let whole = Metrics.Stats.create () in
  List.iter (Metrics.Stats.add whole) [ 1.0; 9.0; 5.0; 2.0; 8.0 ];
  checkb "summary equals unsharded run" true
    (Metrics.Stats.summary m = Metrics.Stats.summary whole)

(* --- properties ---------------------------------------------------------- *)

(* The invariant the sharded drivers rest on: counting into per-shard
   counter sets and merging equals counting serially into one set —
   for any task split and any worker count. *)
let prop_sharded_counters_equal_serial =
  QCheck.Test.make ~count:60
    ~name:"sharded counter totals = serial run"
    QCheck.(
      pair (small_list (pair (oneofl [ "a"; "b"; "c"; "d" ]) small_nat))
        (int_range 1 5))
    (fun (events, jobs) ->
      (* Serial reference. *)
      let serial = Metrics.Counters.create () in
      List.iter (fun (k, n) -> Metrics.Counters.add serial k n) events;
      (* Shard round-robin into 4 cells, run under the pool, merge. *)
      let shards = Array.make 4 [] in
      List.iteri (fun i e -> shards.(i mod 4) <- e :: shards.(i mod 4)) events;
      let per_shard =
        Parallel.Pool.map ~jobs
          (fun evs ->
            let c = Metrics.Counters.create () in
            List.iter (fun (k, n) -> Metrics.Counters.add c k n) evs;
            c)
          (Array.to_list shards)
      in
      let merged = Metrics.Counters.merged per_shard in
      Metrics.Counters.snapshot merged = Metrics.Counters.snapshot serial)

let prop_pool_map_is_list_map =
  QCheck.Test.make ~count:60 ~name:"pool map = List.map at any jobs"
    QCheck.(pair (small_list small_int) (int_range 1 6))
    (fun (xs, jobs) ->
      Parallel.Pool.map ~jobs (fun x -> (x * 13) + 1) xs
      = List.map (fun x -> (x * 13) + 1) xs)

let suite =
  [
    Alcotest.test_case "empty task list" `Quick test_empty;
    Alcotest.test_case "task-order results" `Quick test_order_preserved;
    Alcotest.test_case "more tasks than workers" `Quick
      test_more_tasks_than_workers;
    Alcotest.test_case "exception capture per index" `Quick
      test_exception_capture;
    Alcotest.test_case "Task_error lists every failure" `Quick
      test_task_error_lists_all;
    Alcotest.test_case "pool reusable after failures" `Quick
      test_pool_not_wedged_after_failure;
    Alcotest.test_case "nested submit rejected" `Quick
      test_nested_submit_rejected;
    Alcotest.test_case "shard_seed" `Quick test_shard_seed;
    Alcotest.test_case "counters merge" `Quick test_counters_merge;
    Alcotest.test_case "stats merge is exact" `Quick test_stats_merge_exact;
    QCheck_alcotest.to_alcotest prop_sharded_counters_equal_serial;
    QCheck_alcotest.to_alcotest prop_pool_map_is_list_map;
  ]
