(* corelite-typelint: run the project's static-analysis rules over
   directories of .cmt files.

   Usage: corelite-typelint [PATH ...]   (defaults to lib bin bench test)

   PATHs are walked recursively for .cmt/.cmti files (dune hides them
   under .<lib>.objs/byte/). Prints one machine-readable line per
   violation ([file:line:col: [RULE] message]) and exits 1 when any
   violation remains unwaived, 2 when a PATH is missing or holds no
   .cmt/.cmti file. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let roots = match args with [] -> [ "lib"; "bin"; "bench"; "test" ] | _ -> args in
  match Corelite_typelint.Typelint.check_paths roots with
  | exception Failure msg ->
    prerr_endline ("corelite-typelint: " ^ msg);
    exit 2
  | [] -> prerr_endline "corelite-typelint: clean"
  | vs ->
    Corelite_typelint.Typelint.report Format.std_formatter vs;
    prerr_endline
      ("corelite-typelint: " ^ string_of_int (List.length vs) ^ " violation(s)");
    exit 1
