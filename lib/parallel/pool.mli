(** Domain pool: run a fixed batch of independent tasks across OCaml 5
    domains and merge the results in task order.

    Design (DESIGN.md §13): a fixed number of worker domains pull task
    indices from an atomic cursor over the task array — the array plus
    the cursor {e is} the queue, bounded by construction — and write
    each result into the slot of the task that produced it.  The merged
    output is therefore ordered by shard index regardless of worker
    count or scheduling, which is the determinism contract every
    sharded driver ({!Harness.Perf}, [Inject.Campaign], the red-team
    and defense matrices) builds on: deterministic tasks yield bit-identical results (and
    trace digests) for 1 domain vs N.

    Tasks must be self-contained — no shared mutable state with the
    caller or each other, and no nested submission (rejected with
    [Invalid_argument] at every worker count, including the serial
    path, so a task list never behaves differently at [jobs = 1]). *)

type error = {
  index : int;  (** position of the failing task in the submitted list *)
  exn : exn;
  backtrace : string;
}

exception Task_error of error list
(** Every failed task, ordered by index.  Raised by {!run_exn} / {!map}
    only after the whole batch has drained — one failing task never
    wedges the pool or discards its siblings' results. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val run : ?jobs:int -> (unit -> 'a) list -> ('a, error) result list
(** [run ~jobs tasks] executes every task and returns the outcomes in
    task order.  [jobs] defaults to 1 (serial, no domains spawned);
    [jobs <= 0] means {!default_jobs}.  Exceptions are captured per
    task, never propagated.
    @raise Invalid_argument from inside a pool task (nested submission). *)

val run_exn : ?jobs:int -> (unit -> 'a) list -> 'a list
(** Like {!run}, but raises {!Task_error} listing every failure once
    the batch has drained. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [run_exn ~jobs] over [fun () -> f x]. *)

val shard_seed : root:int -> shard:int -> int
(** Deterministic per-shard seed: the splitmix64 finalizer of
    [root + (shard+1) * 0x9e3779b97f4a7c15].  Depends only on
    [(root, shard)] — never on the worker count — and is non-negative.
    The seed-splitting rule for every parallel sweep in this repo.
    @raise Invalid_argument when [shard < 0]. *)
