(** The bits-leaked scoreboard: every registered adversary against
    every (policy x SGX version) victim configuration, scored with the
    §5.2.3 leakage accounting of {!Attacks.Leakage}.

    Scoring: each request carries [log2 alphabet] bits.  An observation
    that narrows the request to [k] candidate symbols {e including the
    true one} recovers [log2 alphabet - log2 k] bits; an observation
    that misses the truth (or says nothing) recovers none.  Enclave
    terminations are §5.3 termination-channel events, scored separately
    at one bit each — the paper's point is precisely that Autarky
    converts unbounded paging leakage into such one-bit detections.

    Cells are sharded over domains with {!Parallel.Pool}; seeds derive
    from the cell's position in the canonical full matrix, so results
    (including trace digests) are bit-identical at any [--jobs]. *)

val adversaries : Adversary.t list
(** The registry, canonical order: copycat, branch-shadow, pigeonhole,
    kingsguard. *)

val find_adversary : string -> Adversary.t option

val configs : (Victim.policy * Autarky.Pager.mech) list
(** Canonical victim configurations: the legacy baseline (SGXv1 only)
    followed by the three Autarky policies on SGXv1 and SGXv2. *)

type cell = {
  c_adversary : string;
  c_policy : Victim.policy;
  c_mech : Autarky.Pager.mech;
  c_outcome : Adversary.outcome;
  c_requests : int;
  c_alphabet : int;
  c_observations : int;  (** requests with a non-empty candidate set *)
  c_bits_leaked : float;
  c_bits_ideal : float;  (** [requests * log2 alphabet] *)
  c_guess_probability : float;
      (** mean per-request probability of guessing the symbol *)
  c_blind_guess : float;  (** [1 / alphabet] *)
  c_probes : int;
  c_terminations : int;
  c_termination_bits : float;
  c_digest : string;  (** primary victim's trace digest *)
}

val sizes : quick:bool -> int * int
(** [(symbols, alphabet)]: 16 x 16 quick, 48 x 32 full. *)

val run :
  ?quick:bool ->
  ?adversaries:Adversary.t list ->
  ?policies:Victim.policy list ->
  ?mechs:Autarky.Pager.mech list ->
  seed:int ->
  jobs:int ->
  unit ->
  cell list
(** Run the (optionally filtered) matrix.  Filters select cells out of
    the canonical full matrix without renumbering the survivors, so a
    filtered cell's seed — and therefore its result — matches the same
    cell in a full run.  A mech filter never drops the baseline (which
    only exists on SGXv1). *)

val spec : Harness.Schema.spec
(** The [autarky-redteam/1] schema, derived from the report's one field
    declaration. *)

val to_json : quick:bool -> seed:int -> cell list -> Harness.Microjson.t
(** The [autarky-redteam/1] document.  Contains no wall-clock or
    worker-count fields: byte-identical output at any [jobs]. *)

val write : out:string -> quick:bool -> seed:int -> cell list -> unit
(** Write {!to_json} to the file [out] and say so on stdout. *)

val print_table : cell list -> unit
(** Human-readable matrix on stdout. *)
