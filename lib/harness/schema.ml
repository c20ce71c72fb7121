(* Report declarations and the generic shape validator.

   A report module declares each of its fields once — key, JSON shape
   and how to read it from the record.  The same declaration builds the
   report value (the writer) and the spec that [bench-validate] checks
   committed files against (the validator), so the two cannot drift. *)

type shape =
  | Bool
  | Num
  | Str
  | Obj of (string * shape) list
  | Rows of (string * shape) list

type 'a field = {
  key : string;
  shape : shape;
  required : bool;
  get : 'a -> Microjson.t option;
}

let field key shape get = { key; shape; required = true; get = (fun x -> Some (get x)) }
let bool key get = field key Bool (fun x -> Microjson.Bool (get x))
let int key get = field key Num (fun x -> Microjson.int (get x))
let fixed ~decimals key get = field key Num (fun x -> Microjson.fixed ~decimals (get x))
let str key get = field key Str (fun x -> Microjson.Str (get x))

let str_opt key get =
  { key; shape = Str; required = false;
    get = (fun x -> Option.map (fun s -> Microjson.Str s) (get x)) }

let shape_of fields =
  List.filter_map (fun f -> if f.required then Some (f.key, f.shape) else None) fields

let members fields x =
  List.filter_map (fun f -> Option.map (fun v -> (f.key, v)) (f.get x)) fields

let to_obj fields x = Microjson.Obj (members fields x)

let obj key get fields = field key (Obj (shape_of fields)) (fun x -> to_obj fields (get x))

let rows key get fields =
  field key (Rows (shape_of fields)) (fun x ->
      Microjson.Arr (List.map (to_obj fields) (get x)))

let map f fields = List.map (fun fd -> { fd with get = (fun x -> fd.get (f x)) }) fields

type spec = { schema : string; required : (string * shape) list }
type 'a report = { spec : spec; fields : 'a field list }

let report ~schema fields = { spec = { schema; required = shape_of fields }; fields }
let spec r = r.spec

let to_json r x =
  Microjson.Obj (("schema", Microjson.Str r.spec.schema) :: members r.fields x)

(* --- validation ---------------------------------------------------------- *)

let kind_name = function
  | Bool -> "bool"
  | Num -> "number"
  | Str -> "string"
  | Obj _ -> "object"
  | Rows _ -> "array of objects"

let validate specs ~ctx j =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := (ctx ^ ": " ^ m) :: !errs) fmt in
  let rec check path shape (v : Microjson.t) =
    match (shape, v) with
    | Bool, Bool _ | Num, Num _ | Str, Str _ -> ()
    | Obj fields, Obj _ -> check_fields path fields v
    | Rows fields, Arr rows ->
      List.iteri
        (fun i row ->
          let at = Printf.sprintf "%s[%d]" path i in
          match row with
          | Microjson.Obj _ -> check_fields at fields row
          | _ -> err "%s is not an object" at)
        rows
    | _ -> err "field %S is not a %s" path (kind_name shape)
  and check_fields path fields v =
    List.iter
      (fun (k, shape) ->
        match Microjson.member k v with
        | None when path = "" -> err "missing field %S" k
        | None -> err "%s missing field %S" path k
        | Some x -> check (if path = "" then k else path ^ "." ^ k) shape x)
      fields
  in
  (match Microjson.member "schema" j with
  | None -> err "missing \"schema\" field"
  | Some (Microjson.Str s) -> (
    match List.find_opt (fun sp -> sp.schema = s) specs with
    | None -> err "unknown schema %S" s
    | Some sp -> check_fields "" sp.required j)
  | Some _ -> err "\"schema\" is not a string");
  match List.rev !errs with [] -> Ok () | es -> Error es

let validate_file specs path =
  match Microjson.of_file path with
  | j -> validate specs ~ctx:path j
  | exception Microjson.Parse_error m ->
    Error [ Printf.sprintf "%s: parse error: %s" path m ]
  | exception Sys_error m -> Error [ m ]
