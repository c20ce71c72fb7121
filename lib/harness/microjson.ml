(* The repo's one JSON path: a value type, one writer and one strict
   recursive-descent reader.  Every report (BENCH_*.json) is built as a
   [t] and printed by [to_string]; the gates, [bench-validate] and the
   trace smoke check read through [of_string].  Exists because the
   toolchain is pinned (autarky.opam) and none of the pinned deps parse
   JSON; do not grow it into a general library. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* --- writer -------------------------------------------------------------- *)

let int n = Num (string_of_int n)
let fixed ~decimals f = Num (Printf.sprintf "%.*f" decimals f)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let add_str b s =
  Buffer.add_char b '"';
  Buffer.add_string b (escape s);
  Buffer.add_char b '"'

let rec add_inline b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num n -> Buffer.add_string b n
  | Str s -> add_str b s
  | Arr vs -> add_seq b '[' ']' (add_inline b) vs
  | Obj kvs -> add_seq b '{' '}' (add_member b) kvs

and add_member b (k, v) =
  add_str b k;
  Buffer.add_string b ": ";
  add_inline b v

and add_seq : 'a. Buffer.t -> char -> char -> ('a -> unit) -> 'a list -> unit =
 fun b op cl add xs ->
  Buffer.add_char b op;
  List.iteri (fun i x -> if i > 0 then Buffer.add_string b ", "; add x) xs;
  Buffer.add_char b cl

(* Layout: top-level members one per line at 2 spaces, the rows of a
   non-empty top-level array one per line at 4 spaces, everything deeper
   inline -- so a report diffs line by line, one row per line. *)
let to_string v =
  let b = Buffer.create 4_096 in
  let lines indent add xs =
    List.iteri
      (fun i x ->
        Buffer.add_string b (if i > 0 then ",\n" else "\n");
        Buffer.add_string b indent;
        add x)
      xs
  in
  (match v with
  | Obj (_ :: _ as kvs) ->
    Buffer.add_char b '{';
    lines "  "
      (function
        | k, Arr (_ :: _ as rows) ->
          add_str b k;
          Buffer.add_string b ": [";
          lines "    " (add_inline b) rows;
          Buffer.add_string b "\n  ]"
        | kv -> add_member b kv)
      kvs;
    Buffer.add_string b "\n}"
  | v -> add_inline b v);
  Buffer.add_char b '\n';
  Buffer.contents b

let to_file path v =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (to_string v))

(* --- reader -------------------------------------------------------------- *)

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None
let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while match peek c with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false do
    advance c
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected %C at offset %d, got %C" ch c.pos x
  | None -> fail "expected %C at offset %d, got end of input" ch c.pos

let hex_digit c =
  match peek c with
  | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F' as h) ->
    advance c;
    int_of_string ("0x" ^ String.make 1 h)
  | _ -> fail "bad \\u escape at offset %d" c.pos

(* A BMP code point as UTF-8; surrogate pairs are not combined. *)
let add_code_point b code =
  let byte x = Buffer.add_char b (Char.chr x) in
  if code < 0x80 then byte code
  else if code < 0x800 then (byte (0xC0 lor (code lsr 6)); byte (0x80 lor (code land 0x3F)))
  else begin
    byte (0xE0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end

let simple_escapes =
  [ ('"', '"'); ('\\', '\\'); ('/', '/'); ('n', '\n'); ('t', '\t'); ('r', '\r');
    ('b', '\b'); ('f', '\012') ]

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail "unterminated string at offset %d" c.pos
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some 'u' ->
        advance c;
        let code = List.fold_left (fun acc _ -> (acc lsl 4) lor hex_digit c) 0 [ 1; 2; 3; 4 ] in
        add_code_point b code
      | Some e when List.mem_assoc e simple_escapes ->
        advance c;
        Buffer.add_char b (List.assoc e simple_escapes)
      | _ -> fail "bad escape at offset %d" c.pos);
      loop ()
    | Some ch when Char.code ch < 0x20 -> fail "raw control character at offset %d" c.pos
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      loop ()
  in
  loop ();
  Buffer.contents b

(* JSON number grammar: -?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)?
   The literal text is kept, so a value re-prints byte for byte. *)
let parse_number c =
  let start = c.pos in
  let digits () =
    let d0 = c.pos in
    while match peek c with Some '0' .. '9' -> true | _ -> false do
      advance c
    done;
    if c.pos = d0 then fail "expected digits at offset %d" c.pos
  in
  if peek c = Some '-' then advance c;
  if peek c = Some '0' then advance c else digits ();
  if peek c = Some '.' then (advance c; digits ());
  (match peek c with
  | Some ('e' | 'E') ->
    advance c;
    (match peek c with Some ('+' | '-') -> advance c | _ -> ());
    digits ()
  | _ -> ());
  Num (String.sub c.s start (c.pos - start))

(* The items of an object or array, after its opening bracket. *)
let sequence c close item =
  advance c;
  skip_ws c;
  if peek c = Some close then (advance c; [])
  else
    let rec go acc =
      let x = item () in
      skip_ws c;
      match peek c with
      | Some ',' -> advance c; go (x :: acc)
      | Some ch when ch = close -> advance c; List.rev (x :: acc)
      | _ -> fail "expected ',' or %C at offset %d" close c.pos
    in
    go []

let rec parse_value c =
  skip_ws c;
  let literal word v = String.iter (expect c) word; v in
  match peek c with
  | Some '{' ->
    Obj
      (sequence c '}' (fun () ->
           skip_ws c;
           let key = parse_string c in
           skip_ws c;
           expect c ':';
           (key, parse_value c)))
  | Some '[' -> Arr (sequence c ']' (fun () -> parse_value c))
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal "true" (Bool true)
  | Some 'f' -> literal "false" (Bool false)
  | Some 'n' -> literal "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail "unexpected %C at offset %d" ch c.pos
  | None -> fail "unexpected end of input"

let of_string s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail "trailing garbage at offset %d" c.pos;
  v

let of_file path = of_string (In_channel.with_open_bin path In_channel.input_all)

(* --- typed accessors ----------------------------------------------------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let mem_exn ~ctx key j =
  match member key j with Some v -> v | None -> fail "%s: missing field %S" ctx key

let str ~ctx = function Str s -> s | _ -> fail "%s: expected string" ctx
let num ~ctx = function Num n -> float_of_string n | _ -> fail "%s: expected number" ctx
let int_ ~ctx j = int_of_float (num ~ctx j)
let bool_ ~ctx = function Bool b -> b | _ -> fail "%s: expected bool" ctx
let arr ~ctx = function Arr l -> l | _ -> fail "%s: expected array" ctx
