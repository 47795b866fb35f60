(* Tests for the typed rules T1-T3 of the static-analysis pass
   (tools/typelint): accepting and rejecting fixtures per rule, waiver
   handling, cmt read errors, the directory walker and report format.
   The rules L1-L9 are in test_lint; the shipped tree itself is checked
   by `dune build @lint`, which `dune runtest` depends on. *)

open Lint_fixture

(* ------------------------------------------------------------------ *)
(* T1: zero-alloc on [@corelite.hot] functions *)

let test_t1_flags_closure () =
  (* Adding a closure allocation inside a hot function fails the pass. *)
  let vs =
    typelint_one "lib/net/fix.ml"
      "let[@corelite.hot] spawn x =\n\
      \  let f = fun () -> x + 1 in\n\
      \  f ()\n"
  in
  check_rules "closure in hot body" [ Typelint.T1_alloc ] vs;
  match vs with
  | [ v ] -> Alcotest.(check int) "on the closure's line" 2 v.Typelint.line
  | _ -> Alcotest.fail "expected exactly one violation"

let test_t1_flags_constructor_and_tuple () =
  let vs =
    typelint_one "lib/net/fix.ml"
      "let[@corelite.hot] wrap x = Some x\nlet[@corelite.hot] pair x = (x, x)\n"
  in
  check_rules "Some and a tuple" [ Typelint.T1_alloc; Typelint.T1_alloc ] vs

let test_t1_flags_banned_calls () =
  let vs =
    typelint_one "lib/net/fix.ml"
      "let[@corelite.hot] label n = string_of_int n\n\
       let[@corelite.hot] grow xs = List.map succ xs\n"
  in
  check_rules "string churn and List.map"
    [ Typelint.T1_alloc; Typelint.T1_alloc ]
    vs

let test_t1_flags_partial_application () =
  let vs =
    typelint_one "lib/net/fix.ml"
      "let add3 a b c = a + b + c\nlet[@corelite.hot] part x = add3 x 1\n"
  in
  check_rules "partial application" [ Typelint.T1_alloc ] vs

let test_t1_allows_full_application_returning_function () =
  (* The Event_queue.pop_exn shape: a *full* application whose
     instantiated result happens to be a function returns an existing
     closure, it does not build one. Judging by the result type alone
     would flag this. *)
  let vs =
    typelint_one "lib/net/fix.ml"
      "let get (r : 'a ref) = !r\n\
       let[@corelite.hot] run (r : (int -> int) ref) x = (get r) x\n"
  in
  check_rules "payload-returning full application" [] vs

let test_t1_float_boxing () =
  (* A float argument instantiating a type variable boxes; an int does
     not. All-float records store flat, mixed records box the store. *)
  let vs =
    typelint_one "lib/net/fix.ml"
      "let sink _ = ()\n\
       let[@corelite.hot] leak v = sink (v +. 1.)\n\
       let[@corelite.hot] ok v = sink (v + 1)\n"
  in
  check_rules "float into polymorphic context" [ Typelint.T1_alloc ] vs;
  let vs =
    typelint_one "lib/net/fix.ml"
      "type mixed = { mutable rate : float; id : int }\n\
       let[@corelite.hot] setr (m : mixed) v = m.rate <- v\n"
  in
  check_rules "mixed-record float store" [ Typelint.T1_alloc ] vs;
  let vs =
    typelint_one "lib/net/fix.ml"
      "type flat = { mutable avg : float; mutable last : float }\n\
       let[@corelite.hot] upd (e : flat) v = e.avg <- 0.9 *. e.avg +. v;\n\
      \  e.last <- v\n"
  in
  check_rules "all-float record stores flat" [] vs

let test_t1_accepts_clean_hot_body () =
  let vs =
    typelint_one "lib/net/fix.ml"
      "type acc = { mutable total : int; mutable count : int }\n\
       let[@corelite.hot] note (a : acc) v =\n\
      \  a.total <- a.total + v;\n\
      \  a.count <- a.count + 1\n\
       let[@corelite.hot] bump (a : int array) i = a.(i) <- a.(i) + 1\n"
  in
  check_rules "mutating ints and array slots is free" [] vs

let test_t1_skips_error_paths_and_unannotated () =
  (* failwith applications and assert bodies are not steady state, and
     an unannotated function may allocate freely. *)
  let vs =
    typelint_one "lib/net/fix.ml"
      "let[@corelite.hot] guard x =\n\
      \  if x < 0 then failwith (string_of_int x);\n\
      \  assert (Some x <> None);\n\
      \  x\n\
       let cold x = Some (x, x)\n"
  in
  check_rules "error paths and cold code are exempt" [] vs

let test_t1_waiver () =
  let vs =
    typelint_one "lib/net/fix.ml"
      "let[@corelite.hot] wrap x =\n\
      \  Some x (* lint: alloc-ok -- same-line waiver *)\n\
       let[@corelite.hot] wrap2 x =\n\
      \  (* lint: alloc-ok -- previous-line waiver *)\n\
      \  Some x\n"
  in
  check_rules "waived on same and previous line" [] vs

(* A float returned by another compilation unit comes back boxed in
   dune's dev profile, which compiles with [-opaque]. The callee unit
   is compiled first; under bin/, so the interface-less fixtures do not
   trip L4. *)
let typelint_across_units content =
  let root =
    fixture
      [
        ( "bin/clockish.ml",
          "type cell = { mutable time : float }\n\
           let now (c : cell) = c.time\n\
           let ready (c : cell) = c.time > 0.\n" );
        ("bin/fix.ml", content);
      ]
  in
  ignore (compile root "bin/clockish.ml");
  Typelint.check_cmt (compile root "bin/fix.ml")

let test_t1_flags_cross_unit_float_result () =
  let vs =
    typelint_across_units
      "let[@corelite.hot] late (c : Clockish.cell) = Clockish.now c +. 1.\n\
       let[@corelite.hot] top x y = Float.max x y\n"
  in
  check_rules "another unit's float result, Stdlib's included"
    [ Typelint.T1_alloc; Typelint.T1_alloc ]
    vs;
  Alcotest.(check bool) "names the callee" true
    (match vs with
    | v :: _ -> contains v.Typelint.message "Clockish.now returns a boxed float"
    | [] -> false)

let test_t1_allows_flat_reads_and_primitives () =
  (* A flat field load, this unit's own float function, a primitive, a
     non-float result from another unit, and cold code are all fine. *)
  let vs =
    typelint_across_units
      "let local (c : Clockish.cell) = c.Clockish.time\n\
       let[@corelite.hot] flat (c : Clockish.cell) = c.Clockish.time +. 1.\n\
       let[@corelite.hot] same_unit c = local c +. 1.\n\
       let[@corelite.hot] prim x = sqrt x +. Float.abs x\n\
       let[@corelite.hot] not_float c = Clockish.ready c\n\
       let cold c = Clockish.now c\n"
  in
  check_rules "flat reads and primitives" [] vs

let test_t1_cross_unit_waiver () =
  let vs =
    typelint_across_units
      "let[@corelite.hot] above c =\n\
      \  (* lint: alloc-ok -- previous-line waiver *)\n\
      \  Clockish.now c\n\
       let[@corelite.hot] trailing c = Clockish.now c (* lint: alloc-ok -- same line *)\n"
  in
  check_rules "waived on same and previous line" [] vs

(* ------------------------------------------------------------------ *)
(* T2: module-level mutable state under lib/ *)

let test_t2_flags_module_state () =
  let vs =
    typelint_one "lib/foo/state.ml"
      "let total = ref 0\n\
       let tbl : (int, int) Hashtbl.t = Hashtbl.create 16\n\
       type cell = { mutable v : int }\n\
       let c = { v = 0 }\n"
  in
  check_rules "ref, Hashtbl and a mutable record"
    [ Typelint.T2_domain; Typelint.T2_domain; Typelint.T2_domain ]
    vs

let test_t2_flags_hidden_creation_by_type () =
  (* Creation hidden behind a call is caught by the binding's type. *)
  let vs =
    typelint_one "lib/foo/state.ml"
      "let make_table () : (int, int) Hashtbl.t = Hashtbl.create 8\n\
       let shared = make_table ()\n"
  in
  check_rules "type-based fallback" [ Typelint.T2_domain ] vs

let test_t2_allows_atomic_dls_and_per_instance () =
  (* Atomic state is the sanctioned form — downgrading it to a plain
     ref is what fails. Domain.DLS lives in Workload.Pool, the one
     module L1 lets touch Domain. *)
  let vs =
    typelint_one "lib/workload/pool.ml"
      "let hits = Atomic.make 0\n\
       let slot = Domain.DLS.new_key (fun () -> 0)\n\
       let fresh () = let c = ref 0 in incr c; !c\n"
  in
  check_rules "Atomic, DLS and per-call state pass" [] vs

let test_t2_out_of_scope_outside_lib () =
  let vs = typelint_one "bin/state.ml" "let total = ref 0\n" in
  check_rules "executables own their globals" [] vs

let test_t2_waiver () =
  let vs =
    typelint_one "lib/foo/state.ml"
      "let defaults = [| 1; 2; 3 |] (* lint: domain-ok -- read-only *)\n"
  in
  check_rules "waived module state" [] vs

(* ------------------------------------------------------------------ *)
(* T3: Rng escape in the component libraries. The fixtures carry their
   own module named Rng — the rule matches the resolved ...Rng.t path
   suffix, so a standalone fixture exercises it without linking sim. *)

let fake_rng =
  "module Rng = struct\n\
  \  type t = int\n\
  \  let create (s : int) : t = s\n\
  \  let split (x : t) : t = x\n\
  \  let stream (x : t) (_label : int) : t = x\n\
   end\n"

let test_t3_flags_minting () =
  let vs =
    typelint_one "lib/net/fix.ml" (fake_rng ^ "let mint () = Rng.create 7\n")
  in
  check_rules "Rng.create in a component" [ Typelint.T3_rng ] vs

let test_t3_flags_stored_stream () =
  let vs =
    typelint_one "lib/net/fix.ml" (fake_rng ^ "let seed : Rng.t = 3\n")
  in
  check_rules "module-level Rng.t leak" [ Typelint.T3_rng ] vs

let test_t3_allows_derivation () =
  let vs =
    typelint_one "lib/net/fix.ml"
      (fake_rng
     ^ "let fork (r : Rng.t) = Rng.split r\n\
        let labelled (r : Rng.t) = Rng.stream r 9\n")
  in
  check_rules "split/stream derivation is legal" [] vs

let test_t3_out_of_scope_in_workload () =
  (* lib/workload is the scenario root: it owns seeds by design. *)
  let vs =
    typelint_one "lib/workload/fix.ml" (fake_rng ^ "let mint () = Rng.create 7\n")
  in
  check_rules "scenario roots may mint" [] vs

let test_t3_waiver () =
  let vs =
    typelint_one "lib/net/fix.ml"
      (fake_rng ^ "let mint () = Rng.create 7 (* lint: rng-ok -- test *)\n")
  in
  check_rules "waived" [] vs

(* ------------------------------------------------------------------ *)
(* Driver: read errors, the directory walker, report format *)

let test_read_error_reported () =
  let root = fixture [ ("lib/garbage.cmt", "not a cmt file\n") ] in
  let vs = Typelint.check_cmt (Filename.concat root "lib/garbage.cmt") in
  check_rules "unreadable cmt surfaces" [ Typelint.Read_error ] vs;
  Alcotest.(check bool) "read errors cannot be waived" true
    (Typelint.waiver_token Typelint.Read_error = None)

let test_preprocessed_source () =
  (* Under a ppx (bisect_ppx's instrumentation) dune compiles x.pp.ml,
     a binary AST without comments: scopes and waivers come from x.ml.
     The stand-in x.pp.ml is x.ml with its comment blanked. *)
  let root =
    fixture
      [
        ( "lib/workload/pool.ml",
          "(* lint: determinism-ok -- test *)\n\
           let x () = Random.int 3\n\
           let go f = Domain.spawn f\n" );
        ( "lib/workload/pool.pp.ml",
          "\nlet x () = Random.int 3\nlet go f = Domain.spawn f\n" );
      ]
  in
  check_rules "scoped and waived as pool.ml" []
    (Typelint.check_cmt (compile root "lib/workload/pool.pp.ml"))

let test_stale_cmt_not_judged () =
  (* A .cmt older than its source records the old positions: here the
     waived comparison moves down a line, so judging the unit would
     miss the waiver and report a false L2. *)
  let source = "let eq (a : float) b = a = b (* lint: float-eq-ok -- test *)\n" in
  let root = fixture [ ("lib/net/fix.ml", source) ] in
  let cmt = compile root "lib/net/fix.ml" in
  check_rules "fresh cmt, waived" [] (Typelint.check_cmt cmt);
  Out_channel.with_open_text (Filename.concat root "lib/net/fix.ml") (fun oc ->
      Out_channel.output_string oc ("\n" ^ source));
  let vs = Typelint.check_cmt cmt in
  check_rules "only the stale finding" [ Typelint.Read_error ] vs;
  Alcotest.(check bool) "says to rebuild" true
    (List.for_all (fun v -> contains v.Typelint.message "dune build @check") vs)

let test_check_paths_walks_and_sorts () =
  (* Under bin/, so the interface-less fixtures do not trip L4. *)
  let root =
    fixture
      [
        ("bin/b.ml", "let[@corelite.hot] pair x = (x, x)\n");
        ("bin/a.ml", "let[@corelite.hot] wrap x = Some x\n");
      ]
  in
  ignore (compile root "bin/a.ml");
  ignore (compile root "bin/b.ml");
  let vs = Typelint.check_paths [ root ] in
  check_rules "both cmts, file order" [ Typelint.T1_alloc; Typelint.T1_alloc ] vs;
  Alcotest.(check bool) "sorted by file" true
    (match vs with
    | [ a; b ] ->
      Filename.basename a.Typelint.file = "a.ml"
      && Filename.basename b.Typelint.file = "b.ml"
    | _ -> false)

let test_empty_root_rejected () =
  (* A root whose sources were never compiled yields no .cmt, and a
     missing root yields nothing at all: an error naming the root, not
     a clean verdict. *)
  let root = fixture [ ("lib/net/fix.ml", "let x = Some 1\n") ] in
  let missing = Filename.concat root "absent" in
  List.iter
    (fun r ->
      Alcotest.check_raises r (Failure ("no .cmt or .cmti file under " ^ r)) (fun () ->
          ignore (Typelint.check_paths [ r ])))
    [ root; missing ]

let test_report_format () =
  let vs = typelint_one "lib/net/fix.ml" "let[@corelite.hot] wrap x = Some x\n" in
  let text = Format.asprintf "%a" Typelint.report vs in
  Alcotest.(check bool) "file:line:col: [RULE] message" true
    (match vs with
    | [ v ] ->
      let prefix = Printf.sprintf "%s:1:" v.Typelint.file in
      String.starts_with ~prefix text && contains text "[T1/zero-alloc]"
    | _ -> false)

let () =
  Alcotest.run "typelint"
    [
      ( "t1_zero_alloc",
        [
          Alcotest.test_case "flags closure" `Quick test_t1_flags_closure;
          Alcotest.test_case "flags constructor + tuple" `Quick
            test_t1_flags_constructor_and_tuple;
          Alcotest.test_case "flags banned calls" `Quick test_t1_flags_banned_calls;
          Alcotest.test_case "flags partial application" `Quick
            test_t1_flags_partial_application;
          Alcotest.test_case "allows payload-returning application" `Quick
            test_t1_allows_full_application_returning_function;
          Alcotest.test_case "float boxing" `Quick test_t1_float_boxing;
          Alcotest.test_case "accepts clean hot body" `Quick
            test_t1_accepts_clean_hot_body;
          Alcotest.test_case "skips error paths + cold code" `Quick
            test_t1_skips_error_paths_and_unannotated;
          Alcotest.test_case "waiver" `Quick test_t1_waiver;
          Alcotest.test_case "flags cross-unit float result" `Quick
            test_t1_flags_cross_unit_float_result;
          Alcotest.test_case "allows flat reads + primitives" `Quick
            test_t1_allows_flat_reads_and_primitives;
          Alcotest.test_case "cross-unit waiver" `Quick test_t1_cross_unit_waiver;
        ] );
      ( "t2_domain_safety",
        [
          Alcotest.test_case "flags module state" `Quick test_t2_flags_module_state;
          Alcotest.test_case "flags hidden creation by type" `Quick
            test_t2_flags_hidden_creation_by_type;
          Alcotest.test_case "allows Atomic/DLS/per-instance" `Quick
            test_t2_allows_atomic_dls_and_per_instance;
          Alcotest.test_case "out of scope outside lib" `Quick
            test_t2_out_of_scope_outside_lib;
          Alcotest.test_case "waiver" `Quick test_t2_waiver;
        ] );
      ( "t3_rng_escape",
        [
          Alcotest.test_case "flags minting" `Quick test_t3_flags_minting;
          Alcotest.test_case "flags stored stream" `Quick test_t3_flags_stored_stream;
          Alcotest.test_case "allows derivation" `Quick test_t3_allows_derivation;
          Alcotest.test_case "out of scope in workload" `Quick
            test_t3_out_of_scope_in_workload;
          Alcotest.test_case "waiver" `Quick test_t3_waiver;
        ] );
      ( "driver",
        [
          Alcotest.test_case "read error" `Quick test_read_error_reported;
          Alcotest.test_case "ppx output scoped as its source" `Quick
            test_preprocessed_source;
          Alcotest.test_case "stale cmt not judged" `Quick test_stale_cmt_not_judged;
          Alcotest.test_case "walk + sort" `Quick test_check_paths_walks_and_sorts;
          Alcotest.test_case "empty root rejected" `Quick test_empty_root_rejected;
          Alcotest.test_case "report format" `Quick test_report_format;
        ] );
    ]
