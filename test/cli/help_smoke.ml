(* Render `--help=plain` for the CLI and every subcommand listed in its
   COMMANDS section; exit non-zero if any page contains a cmdliner error
   (cmdliner reports malformed doc strings inline, at run time, so a bad
   escape otherwise ships unnoticed) or no subcommand was found. *)

let render exe args =
  let out = Filename.temp_file "help" ".txt" in
  let cmd =
    Filename.quote_command exe (args @ [ "--help=plain" ]) ~stdout:out ~stderr:out
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, text)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Subcommand names: words opening a line of the COMMANDS section indented
   by exactly seven spaces (a wrapped synopsis continues with "[OPTION]"). *)
let commands text =
  let lines = String.split_on_char '\n' text in
  let rec skip = function
    | [] -> []
    | l :: rest -> if l = "COMMANDS" then rest else skip rest
  in
  let rec take acc = function
    | [] -> List.rev acc
    | l :: rest ->
        if l <> "" && l.[0] <> ' ' then List.rev acc
        else if
          String.length l > 7
          && String.sub l 0 7 = "       "
          && l.[7] >= 'a' && l.[7] <= 'z'
        then
          let word = List.hd (String.split_on_char ' ' (String.sub l 7 (String.length l - 7))) in
          take (word :: acc) rest
        else take acc rest
  in
  take [] (skip lines)

let () =
  let exe = Sys.argv.(1) in
  Unix.putenv "TERM" "dumb";
  let failures = ref 0 in
  let check args =
    let code, text = render exe args in
    let name = String.concat " " ("syccl_cli" :: args) in
    if code <> 0 || contains ~sub:"cmdliner error" text then begin
      incr failures;
      Printf.eprintf "%s --help=plain (exit %d):\n%s\n" name code text
    end;
    text
  in
  let cmds = commands (check []) in
  if List.length cmds < 2 then begin
    Printf.eprintf "help smoke: found %d subcommands in the top-level help\n"
      (List.length cmds);
    exit 1
  end;
  List.iter (fun c -> ignore (check [ c ])) cmds;
  if !failures > 0 then exit 1;
  Printf.printf "help smoke: %d subcommand pages render cleanly\n" (List.length cmds)
