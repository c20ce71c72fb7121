(** The repo's one JSON path: a value type, its writer and a strict
    reader, for the report files ([BENCH_*.json], schemas
    ["autarky-perf/2"], ["autarky-serve/2"], ["autarky-redteam/1"],
    ["autarky-defense/2"], each declared by its writer through
    {!Schema}) and the exported trace lines.

    The pinned dependency set (autarky.opam) carries no JSON library.
    Not a general library: no surrogate-pair decoding, no tolerance for
    malformed input. *)

type t =
  | Null
  | Bool of bool
  | Num of string
      (** the number's literal text, kept so a value re-prints byte for
          byte; build with {!int} or {!fixed}, read with {!num} *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** {1 Writing} *)

val int : int -> t
(** [%d]. *)

val fixed : decimals:int -> float -> t
(** [%.*f] with [decimals] places. *)

val to_string : t -> string
(** The report layout: top-level members one per line at 2 spaces, the
    rows of a non-empty top-level array one per line at 4 spaces,
    everything deeper inline with [": "] and [", "]; ends in a newline.
    Strings escape ["\""], ["\\"], ["\n"] and the other control
    characters as [\u00XX], and copy every other byte.
    [of_string (to_string v) = v]. *)

val to_file : string -> t -> unit
(** {!to_string} into a file (created or truncated). *)

(** {1 Reading} *)

val of_string : string -> t
(** Exactly one JSON value, optionally surrounded by whitespace.  Strict:
    [\u] takes four hex digits, raw control characters inside strings
    are rejected, numbers follow the JSON grammar (no ["1."], no
    leading zeros).  @raise Parse_error on malformed input, and never
    anything else. *)

val of_file : string -> t
(** @raise Parse_error on malformed input; [Sys_error] on I/O failure. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val mem_exn : ctx:string -> string -> t -> t
(** @raise Parse_error (mentioning [ctx]) when the field is absent. *)

val str : ctx:string -> t -> string
val num : ctx:string -> t -> float
val int_ : ctx:string -> t -> int
val bool_ : ctx:string -> t -> bool
val arr : ctx:string -> t -> t list
(** Typed projections; @raise Parse_error (mentioning [ctx]) on shape
    mismatch. *)
