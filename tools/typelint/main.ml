(* corelite-typelint: run the project's static-analysis rules over
   directories of .cmt files.

   Usage: corelite-typelint [PATH ...]   (defaults to lib bin bench test)

   PATHs are walked recursively for .cmt/.cmti files (dune hides them
   under .<lib>.objs/byte/). Prints one machine-readable line per
   violation ([file:line:col: [RULE] message]) and exits non-zero when
   any violation remains unwaived. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let roots = match args with [] -> [ "lib"; "bin"; "bench"; "test" ] | _ -> args in
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  List.iter
    (fun r -> prerr_endline ("corelite-typelint: no such path: " ^ r))
    missing;
  if missing <> [] then exit 2;
  let violations = Corelite_typelint.Typelint.check_paths roots in
  Corelite_typelint.Typelint.report Format.std_formatter violations;
  match violations with
  | [] -> prerr_endline "corelite-typelint: clean"
  | vs ->
    prerr_endline
      ("corelite-typelint: " ^ string_of_int (List.length vs) ^ " violation(s)");
    exit 1
