(* Smoke check: every line of an exported trace must be exactly one
   well-formed JSON object.  Run by the @smoke alias against a tiny
   kvstore scenario. *)

let () =
  let file = Sys.argv.(1) in
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin file In_channel.input_all)
  in
  let events = ref 0 and failed = ref false in
  let error n msg =
    failed := true;
    Printf.eprintf "smoke: %s:%d: %s\n" file n msg
  in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then begin
        incr events;
        match Harness.Microjson.of_string line with
        | Harness.Microjson.Obj _ -> ()
        | _ -> error (i + 1) "trace line must be a JSON object"
        | exception Harness.Microjson.Parse_error msg -> error (i + 1) msg
      end)
    lines;
  if !failed then exit 1;
  if !events = 0 then begin
    Printf.eprintf "smoke: %s is empty\n" file;
    exit 1
  end;
  Printf.printf "smoke: %s ok (%d JSONL events)\n" file !events
