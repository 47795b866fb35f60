(* Fixture plumbing shared by test_lint and test_typelint: each case
   materializes a tiny source tree under a scratch directory and
   compiles it *from the fixture root*, so the sourcefile recorded in
   the .cmt carries the lib/... components the path-scoped rules key
   on. Fixtures are real OCaml compiled to .cmt at test time with
   ocamlc, because the pass reads Typedtree, not sources. *)

module Typelint = Corelite_typelint.Typelint

(* One scratch tree per test executable: test_lint and test_typelint
   run side by side under dune, and each numbers its fixtures from 1. *)
let fixture_root =
  let exe = Filename.remove_extension (Filename.basename Sys.executable_name) in
  Filename.concat (Filename.get_temp_dir_name ()) ("corelite-" ^ exe ^ "-fixtures")

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then (
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755)

let fixture_counter = ref 0

let fixture files =
  incr fixture_counter;
  let root = Filename.concat fixture_root (string_of_int !fixture_counter) in
  remove_tree root;
  List.iter
    (fun (rel, content) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc content))
    files;
  root

(* Compile [rel] inside [root]; warnings are off — fixtures isolate one
   construct each and unused-value noise is irrelevant. The include
   path holds Unix (for the wall-clock fixtures) and [rel]'s directory
   (where an interface compiled first leaves its .cmi). *)
let compile root rel =
  let cmd =
    Printf.sprintf "cd %s && %s" (Filename.quote root)
      (Filename.quote_command "ocamlc"
         [ "-I"; "+unix"; "-I"; Filename.dirname rel; "-w"; "-a"; "-c";
           "-bin-annot"; rel ])
  in
  if Sys.command cmd <> 0 then
    Alcotest.failf "fixture %s failed to compile" rel;
  Filename.concat root (Filename.chop_extension rel ^ ".cmt")

let typelint_one rel content =
  let root = fixture [ (rel, content) ] in
  Typelint.check_cmt (compile root rel)

(* [typelint_tree files] compiles [files] in order (interfaces before
   their implementations) and walks the whole fixture, L4 included. *)
let typelint_tree files =
  let root = fixture files in
  List.iter (fun (rel, _) -> ignore (compile root rel)) files;
  Typelint.check_paths [ root ]

(* [contains text sub]: [sub] occurs somewhere in [text]. *)
let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let check_rules what expected vs =
  Alcotest.(check (list string))
    what
    (List.map Typelint.rule_name expected)
    (List.map (fun v -> Typelint.rule_name v.Typelint.rule) vs)

