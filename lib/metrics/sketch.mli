(** Streaming quantile sketch with fixed O(1) state and an exactly
    mergeable summary.

    The fleet-scale serve path cannot afford [Stats]' store-every-sample
    accumulator (O(requests) memory) — this sketch keeps a fixed array
    of counters per tenant instead, in the spirit of the p²/HDR family
    of streaming estimators.  We use a log-bucketed histogram rather
    than literal p² markers because bucket counts add: merging two
    sketches is plain bucket-wise addition, which is commutative and
    associative — exactly what the fleet roll-up and the `--jobs`
    determinism gates need (p² marker state does not merge exactly).

    Layout: non-negative values are rounded to integers; 0..63 land in
    exact unit buckets, and every power-of-two octave above that is
    split into 32 linear sub-buckets.  A quantile query walks the
    bucket counts (nearest-rank, like {!Stats.percentile}) and reports
    the bucket's upper bound, so estimates are one-sided:

      exact <= sketch <= exact * (1 + {!relative_error})

    with [relative_error = 1/32] (3.125%).  Count, mean, min and max
    are tracked exactly on the side.  State is ~1.9k int counters plus
    three floats (~15 KiB) regardless of how many samples stream in. *)

type t

val create : unit -> t

val relative_error : float
(** Worst-case one-sided relative error of {!quantile} for values
    outside the exact 0..63 range: [1/32]. *)

val add : t -> float -> unit
(** Record a sample.  Negative values clamp to 0; the value is rounded
    to the nearest integer for bucketing (count/mean/min/max use the
    value as given). *)

val add_int : t -> int -> unit
(** Allocation-free hot-path variant of {!add} for integer cycle
    counts ([v >= 0]). *)

val count : t -> int
val mean : t -> float
val min_value : t -> float
val max_value : t -> float
(** Exact; 0 when the sketch is empty, matching {!Stats}. *)

val quantile : t -> float -> float
(** [quantile t p] for [p] in [\[0,100\]], nearest-rank over the bucket
    counts.  Raises [Invalid_argument] when empty or [p] is out of
    range, like {!Stats.percentile}. *)

val summary : t -> Stats.summary
(** Sketch-derived count/mean/p50/p95/p99/max in {!Stats.summary} form
    (all zero when empty).  [s_max] is the exact maximum, not a bucket
    bound. *)

val merge_into : into:t -> t -> unit
(** Bucket-wise addition: after the call [into] summarises the pooled
    sample stream of both inputs.  Commutative and associative, so a
    fleet roll-up is independent of shard order — pooled-sketch
    percentiles carry the same [1/32] bound as a single sketch.  [src]
    is unchanged. *)

val merged : t list -> t
(** Fresh sketch over the pooled streams of all inputs. *)
