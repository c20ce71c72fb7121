(** Report declarations and shape validation for the repo's benchmark
    reports ([BENCH_*.json]).

    A report module declares each field once: its key, its JSON shape
    and how to read it from the report record.  {!to_json} builds the
    report value from that declaration and {!spec} derives the shape
    [bench-validate] checks committed files against, so a writer cannot
    drift from its schema.  Validation is shape-only; semantic
    invariants (arrival conservation, drift tolerances) belong to the
    [--check] gates. *)

(** The JSON shape of a field.  [Obj keys] is an object holding every
    key in [keys]; [Rows keys] an array of such objects.  Extra keys are
    allowed: adding a column is not a schema break; removing one is. *)
type shape =
  | Bool
  | Num
  | Str
  | Obj of (string * shape) list
  | Rows of (string * shape) list

type 'a field
(** One key of an object built from an ['a]. *)

val bool : string -> ('a -> bool) -> 'a field
val int : string -> ('a -> int) -> 'a field
val fixed : decimals:int -> string -> ('a -> float) -> 'a field
(** A number printed with [decimals] places ({!Microjson.fixed}). *)

val str : string -> ('a -> string) -> 'a field

val str_opt : string -> ('a -> string option) -> 'a field
(** Present only when the reader returns [Some]; never required. *)

val obj : string -> ('a -> 'b) -> 'b field list -> 'a field
(** A nested object built from the projected value. *)

val rows : string -> ('a -> 'b list) -> 'b field list -> 'a field
(** An array with one object per element. *)

val map : ('a -> 'b) -> 'b field list -> 'a field list
(** Read the same fields through a projection. *)

type spec = { schema : string; required : (string * shape) list }
(** What a document stamped with [schema] must carry. *)

type 'a report

val report : schema:string -> 'a field list -> 'a report

val to_json : 'a report -> 'a -> Microjson.t
(** The report object: ["schema"] first, then the fields in order. *)

val spec : 'a report -> spec
(** The required fields of the declaration, nested shapes included. *)

val validate : spec list -> ctx:string -> Microjson.t -> (unit, string list) result
(** Check one parsed document: its ["schema"] field must name one of
    the [specs] and every required field must be present with the
    declared shape, recursively.  [ctx] prefixes the error messages
    (normally the file name).  [Error] collects every violation, not
    just the first. *)

val validate_file : spec list -> string -> (unit, string list) result
(** {!validate} after {!Microjson.of_file}; parse and I/O errors are
    reported as a single-element [Error] rather than raised. *)
