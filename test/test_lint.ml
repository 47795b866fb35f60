(* Tests for the determinism and hygiene rules L1-L9 of the
   static-analysis pass (tools/typelint): accepting and rejecting
   fixtures per rule, waiver handling, and statistical properties of
   the Sim.Rng substrate the pass funnels all randomness through. The
   typed rules T1-T3 and the rest of the driver are in test_typelint. *)

open Lint_fixture

(* ------------------------------------------------------------------ *)
(* L1: determinism *)

let test_l1_flags_stdlib_random () =
  let vs = typelint_one "lib/foo.ml" "let draw () = Random.int 5\n" in
  check_rules "Random banned" [ Typelint.L1_determinism ] vs;
  match vs with
  | [ v ] ->
    Alcotest.(check int) "line" 1 v.Typelint.line;
    Alcotest.(check bool) "mentions Sim.Rng" true (contains v.Typelint.message "Sim.Rng")
  | _ -> Alcotest.fail "expected exactly one violation"

let test_l1_flags_wall_clock_and_random_hashtbl () =
  let vs =
    typelint_one "bin/run.ml"
      "let t () = Unix.gettimeofday ()\n\
       let h : (int, int) Hashtbl.t = Hashtbl.create ~random:true 16\n\
       let calm : (int, int) Hashtbl.t = Hashtbl.create ~random:false 16\n"
  in
  check_rules "wall clock and seeded hashtbl"
    [ Typelint.L1_determinism; Typelint.L1_determinism ]
    vs

let test_l1_allows_rng_module () =
  (* lib/sim/rng.ml is the one sanctioned owner of raw randomness. *)
  let vs = typelint_one "lib/sim/rng.ml" "let draw () = Random.int 5\n" in
  check_rules "allowlisted" [] vs

let test_l1_flags_domain_outside_pool () =
  (* The Domain ban is not lib-scoped: an executable sharding work by
     hand would be just as nondeterministic. *)
  let vs =
    typelint_one "bin/run.ml"
      "let go f = Domain.spawn f\nlet n () = Domain.recommended_domain_count ()\n"
  in
  check_rules "Domain banned outside the pool"
    [ Typelint.L1_determinism; Typelint.L1_determinism ]
    vs

let test_l1_allows_domain_in_pool () =
  let vs =
    typelint_one "lib/workload/pool.ml"
      "let n () = Domain.recommended_domain_count ()\nlet go f = Domain.spawn f\n"
  in
  check_rules "pool allowlisted" [] vs

let test_l1_waiver_comment () =
  let vs =
    typelint_one "lib/foo.ml"
      "(* lint: determinism-ok -- startup banner only *)\nlet t () = Sys.time ()\n"
  in
  check_rules "waived on previous line" [] vs

(* ------------------------------------------------------------------ *)
(* L2: float equality, judged by the operands' types *)

let test_l2_flags_float_literal_equality () =
  let vs = typelint_one "lib/foo.ml" "let is_idle r = r = 0.\n" in
  check_rules "float equality" [ Typelint.L2_float_equality ] vs

let test_l2_flags_float_fields () =
  (* No literal, arithmetic or annotation marks these operands as
     floats; only their types do. *)
  let vs =
    typelint_one "lib/foo.ml"
      "type p = { x : float; n : int }\n\
       let same a b = a.x = b.x\n\
       let order a b = compare a.x b.x\n\
       let same_n a b = a.n = b.n\n"
  in
  check_rules "float fields"
    [ Typelint.L2_float_equality; Typelint.L2_float_equality ]
    vs

let test_l2_flags_unapplied_operators () =
  (* The operator is judged where it is named: passed to a sort or
     partly applied, it still compares floats. *)
  let vs =
    typelint_one "lib/foo.ml"
      "let sort (xs : float list) = List.sort compare xs\n\
       let is_zero = ( = ) 0.\n\
       let sort_ids (xs : int list) = List.sort compare xs\n"
  in
  check_rules "passed and partly applied"
    [ Typelint.L2_float_equality; Typelint.L2_float_equality ]
    vs

let test_l2_accepts_int_equality_and_tolerance () =
  let vs =
    typelint_one "lib/foo.ml"
      "let same_id a b = a = b + 0\nlet near a b = Float.abs (a -. b) <= 1e-9\n"
  in
  check_rules "ints and tolerated floats pass" [] vs

let test_l2_waiver_comment () =
  let vs =
    typelint_one "lib/foo.ml"
      "let is_sentinel r = r = 0. (* lint: float-eq-ok -- exact sentinel *)\n"
  in
  check_rules "same-line waiver" [] vs;
  (* A waiver trailing code covers its own line, not the next one. *)
  let vs =
    typelint_one "lib/foo.ml"
      "let a r = r = 0. (* lint: float-eq-ok -- exact sentinel *)\n\
       let b r = r = 1.\n"
  in
  check_rules "trailing waiver stays on its line" [ Typelint.L2_float_equality ] vs

(* ------------------------------------------------------------------ *)
(* L3: logging hygiene *)

let test_l3_flags_printing_in_lib () =
  let vs = typelint_one "lib/foo.ml" "let hello () = print_endline \"hi\"\n" in
  check_rules "printing in a library" [ Typelint.L3_logging ] vs

let test_l3_allows_printing_in_bin () =
  let vs = typelint_one "bin/main.ml" "let hello () = print_endline \"hi\"\n" in
  check_rules "executables may print" [] vs

let test_l3_flags_stdout_in_lib () =
  (* [output_string] also trips L8: the two rules guard different
     things (terminal hygiene vs filesystem ownership). *)
  let vs =
    typelint_one "lib/foo.ml"
      "let dump s = output_string stdout s\nlet warn s = output_string stderr s\n"
  in
  check_rules "raw channels in a library"
    [ Typelint.L8_telemetry; Typelint.L3_logging; Typelint.L8_telemetry;
      Typelint.L3_logging ]
    vs

let test_l3_allows_stdout_in_bin () =
  let vs = typelint_one "bin/main.ml" "let dump s = output_string stdout s\n" in
  check_rules "executables may use the channels" [] vs

(* ------------------------------------------------------------------ *)
(* L4: interface coverage, judged over the tree *)

let test_l4_flags_missing_mli () =
  check_rules "missing mli" [ Typelint.L4_mli_coverage ]
    (typelint_tree [ ("lib/foo.ml", "let x = 1\n") ])

let test_l4_accepts_covered_and_waived () =
  check_rules "covered or waived" []
    (typelint_tree
       [
         ("lib/foo.mli", "val x : int\n");
         ("lib/foo.ml", "let x = 1\n");
         ("lib/gen.ml", "(* lint: mli-ok -- generated *)\nlet y = 2\n");
       ])

(* ------------------------------------------------------------------ *)
(* L5: unsafe escape hatches *)

let test_l5_flags_obj_magic_and_exit_call () =
  let vs =
    typelint_one "lib/foo.ml" "let coerce x = Obj.magic x\nlet die () = exit 1\n"
  in
  check_rules "Obj.magic and exit call" [ Typelint.L5_unsafe; Typelint.L5_unsafe ] vs

let test_l5_allows_exit_as_variable () =
  (* A variable named [exit] (a flow's exit core) is not Stdlib.exit. *)
  let vs = typelint_one "lib/foo.ml" "let route entry exit = entry + exit\n" in
  check_rules "exit as a plain variable" [] vs

(* ------------------------------------------------------------------ *)
(* L6: Stdlib.Queue confined out of the hot path. The queues are built
   per call, so T2 (module-level state) stays quiet. *)

let test_l6_flags_queue_in_hot_path () =
  let vs =
    typelint_one "lib/net/foo.ml"
      "let make () : int Queue.t = Queue.create ()\n\
       let n q = Stdlib.Queue.length q\n"
  in
  check_rules "Queue in lib/net" [ Typelint.L6_hot_queue; Typelint.L6_hot_queue ] vs;
  let vs = typelint_one "lib/sim/foo.ml" "module Q = Queue\n" in
  check_rules "module alias in lib/sim" [ Typelint.L6_hot_queue ] vs

let test_l6_allows_queue_elsewhere () =
  (* Setup/reporting code off the per-packet path may still use Queue. *)
  let vs =
    typelint_one "lib/corelite/agg.ml" "let make () : int Queue.t = Queue.create ()\n"
  in
  check_rules "Queue outside the hot path" [] vs;
  let vs = typelint_one "bin/run.ml" "let q : int Queue.t = Queue.create ()\n" in
  check_rules "Queue in an executable" [] vs

let test_l6_waiver () =
  let vs =
    typelint_one "lib/net/foo.ml"
      "(* lint: queue-ok -- cold setup path *)\n\
       let make () : int Queue.t = Queue.create ()\n"
  in
  check_rules "waived" [] vs

(* ------------------------------------------------------------------ *)
(* L7 and L9 match the trailing component of the sampler's path, so a
   stand-in for Sim.Rng exercises them without linking sim. *)

let fake_sim =
  "module Sim = struct\n\
  \  module Rng = struct\n\
  \    let bernoulli (_ : int) (_ : float) = false\n\
  \    let exponential (_ : int) ~(mean : float) = mean\n\
  \    let pareto (_ : int) ~(shape : float) ~mean = shape *. mean\n\
  \  end\n\
   end\n\
   module Rng = Sim.Rng\n\
   type st = { rng : int; p : float }\n"

(* ------------------------------------------------------------------ *)
(* L7: fault injection confined to Net.Fault *)

let test_l7_flags_loss_coin_in_packet_path () =
  let vs =
    typelint_one "lib/net/mylink.ml"
      (fake_sim
     ^ "let lossy rng pkt = if Sim.Rng.bernoulli rng 0.1 then None else Some pkt\n"
      )
  in
  check_rules "ad-hoc loss coin in lib/net" [ Typelint.L7_fault_inject ] vs;
  let vs =
    typelint_one "lib/corelite/mycore.ml"
      (fake_sim ^ "let drop t = Rng.bernoulli t.rng t.p\n")
  in
  check_rules "ad-hoc loss coin in lib/corelite" [ Typelint.L7_fault_inject ] vs

let test_l7_allows_fault_module_and_elsewhere () =
  (* lib/net/fault.ml is the one sanctioned injector... *)
  let vs =
    typelint_one "lib/net/fault.ml"
      (fake_sim ^ "let lose st p = Sim.Rng.bernoulli st.rng p\n")
  in
  check_rules "Net.Fault owns the coins" [] vs;
  (* ...and the rule only covers the packet path: csfq's probabilistic
     drop and workload/test code are someone else's algorithm. *)
  let vs =
    typelint_one "lib/csfq/core.ml"
      (fake_sim ^ "let d t p = Sim.Rng.bernoulli t.rng p\n")
  in
  check_rules "lib/csfq out of scope" [] vs;
  let vs =
    typelint_one "bin/run.ml" (fake_sim ^ "let d rng = Sim.Rng.bernoulli rng 0.5\n")
  in
  check_rules "executables out of scope" [] vs

let test_l7_waiver () =
  let vs =
    typelint_one "lib/net/myqdisc.ml"
      (fake_sim
     ^ "(* lint: fault-ok -- RED's own early-drop coin *)\n\
        let early rng p = Sim.Rng.bernoulli rng p\n")
  in
  check_rules "waived algorithmic coin" [] vs

(* ------------------------------------------------------------------ *)
(* L8: telemetry leaves lib/ as returned payloads *)

let test_l8_flags_channel_writes_in_lib () =
  let vs =
    typelint_one "lib/workload/dump.ml"
      "let dump path s =\n\
      \  let oc = open_out path in\n\
      \  output_string oc s;\n\
      \  close_out oc\n"
  in
  check_rules "open_out + output_string in lib/"
    [ Typelint.L8_telemetry; Typelint.L8_telemetry ]
    vs;
  let vs =
    typelint_one "lib/sim/exp.ml" "let f oc = Printf.fprintf oc \"%d\" 1\n"
  in
  check_rules "Printf.fprintf in lib/" [ Typelint.L8_telemetry ] vs;
  let vs =
    typelint_one "lib/net/exp.ml"
      "let f path s = Out_channel.with_open_text path (fun oc -> ignore (oc, s))\n"
  in
  check_rules "Out_channel in lib/" [ Typelint.L8_telemetry ] vs

let test_l8_allows_formatters_and_executables () =
  (* pp functions print to a caller-supplied formatter — that is the
     sanctioned channel out of a library. *)
  let vs =
    typelint_one "lib/workload/pp.ml"
      "let pp ppf x = Format.fprintf ppf \"%d\" x\n"
  in
  check_rules "Format.fprintf to a formatter" [] vs;
  let vs =
    typelint_one "bin/run.ml"
      "let dump path s =\n\
      \  let oc = open_out path in\n\
      \  output_string oc s;\n\
      \  close_out oc\n"
  in
  check_rules "executables own the filesystem" [] vs

let test_l8_waiver () =
  let vs =
    typelint_one "lib/workload/legacy.ml"
      "let w path s =\n\
      \  let oc = open_out path (* lint: trace-ok -- sanctioned writer *) in\n\
      \  output_string oc s (* lint: trace-ok *)\n"
  in
  check_rules "waived writer" [] vs

(* ------------------------------------------------------------------ *)
(* L9: arrival-process sampling confined to lib/workload *)

let test_l9_flags_samplers_outside_workload () =
  let vs =
    typelint_one "lib/net/mysource.ml"
      (fake_sim
     ^ "let gap rng = Sim.Rng.exponential rng ~mean:2.\n\
        let size rng = Rng.pareto rng ~shape:1.8 ~mean:100.\n")
  in
  check_rules "samplers in lib/net" [ Typelint.L9_arrival; Typelint.L9_arrival ] vs;
  let vs =
    typelint_one "lib/corelite/myedge.ml"
      (fake_sim ^ "let jitter t = Sim.Rng.exponential t.rng ~mean:0.1\n")
  in
  check_rules "sampler in lib/corelite" [ Typelint.L9_arrival ] vs

let test_l9_allows_workload_rng_and_outside_lib () =
  (* lib/workload is the sanctioned generator home... *)
  let vs =
    typelint_one "lib/workload/myarrivals.ml"
      (fake_sim
     ^ "let gap rng peak = Sim.Rng.exponential rng ~mean:(1. /. peak)\n")
  in
  check_rules "lib/workload owns the samplers" [] vs;
  (* ...lib/sim/rng.ml defines them, and non-lib code (tests probing
     sampler statistics, experiment drivers) is out of scope. *)
  let vs =
    typelint_one "lib/sim/rng.ml" "let exponential t ~mean = -. mean *. log 0.5\n"
  in
  check_rules "definition site allowlisted" [] vs;
  let vs =
    typelint_one "test/probe.ml"
      (fake_sim ^ "let x rng = Sim.Rng.pareto rng ~shape:2. ~mean:1.\n")
  in
  check_rules "tests out of scope" [] vs

let test_l9_waiver () =
  let vs =
    typelint_one "lib/net/myonoff.ml"
      (fake_sim
     ^ "(* lint: churn-ok -- hold times of an already-arrived source *)\n\
        let hold rng = Sim.Rng.exponential rng ~mean:1.\n")
  in
  check_rules "waived consumer" [] vs

(* ------------------------------------------------------------------ *)
(* Driver: the L rules through the tree walk and the reporter *)

let test_check_paths_walks_and_sorts () =
  let vs =
    typelint_tree
      [
        ("lib/b.mli", "val r : unit -> bool\n");
        ("lib/b.ml", "let r () = Random.bool ()\n");
        ("lib/a.mli", "val hello : unit -> unit\n");
        ("lib/a.ml", "let hello () = print_endline \"hi\"\n");
      ]
  in
  check_rules "both files, file order" [ Typelint.L3_logging; Typelint.L1_determinism ] vs;
  Alcotest.(check bool) "sorted by file" true
    (match vs with
    | [ a; b ] ->
      Filename.basename a.Typelint.file = "a.ml"
      && Filename.basename b.Typelint.file = "b.ml"
    | _ -> false)

let test_report_format () =
  let vs = typelint_one "lib/foo.ml" "let draw () = Random.int 5\n" in
  let text = Format.asprintf "%a" Typelint.report vs in
  Alcotest.(check bool) "file:line:col: [RULE] message" true
    (match vs with
    | [ v ] ->
      let prefix = Printf.sprintf "%s:1:" v.Typelint.file in
      String.starts_with ~prefix text && contains text "[L1/determinism]"
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Sim.Rng statistical properties: L1 and L9 funnel all randomness
   through Sim.Rng, so its uniformity is part of the determinism
   story. *)

let prop_rng_int_bias_free =
  QCheck.Test.make ~name:"Rng.int is bias-free over small bounds" ~count:30
    QCheck.(pair small_nat (int_range 2 8))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create seed in
      let draws = 2000 * bound in
      let counts = Array.make bound 0 in
      for _ = 1 to draws do
        let v = Sim.Rng.int rng bound in
        counts.(v) <- counts.(v) + 1
      done;
      let expected = float_of_int draws /. float_of_int bound in
      Array.for_all
        (fun c ->
          let dev = Float.abs (float_of_int c -. expected) /. expected in
          dev < 0.12)
        counts)

let prop_rng_split_independent =
  QCheck.Test.make ~name:"Rng.split streams are independent" ~count:50
    QCheck.small_nat
    (fun seed ->
      let parent = Sim.Rng.create seed in
      let left = Sim.Rng.split parent in
      let right = Sim.Rng.split parent in
      let stream rng = List.init 64 (fun _ -> Sim.Rng.bits64 rng) in
      let l = stream left and r = stream right and p = stream parent in
      (* The three streams never collide element-wise, and sibling
         streams agree on (essentially) no position. *)
      let agreements a b =
        List.fold_left2 (fun n x y -> if Int64.equal x y then n + 1 else n) 0 a b
      in
      agreements l r = 0 && agreements l p = 0 && agreements r p = 0)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "lint"
    [
      ( "l1_determinism",
        [
          Alcotest.test_case "flags Random" `Quick test_l1_flags_stdlib_random;
          Alcotest.test_case "flags clock + random hashtbl" `Quick
            test_l1_flags_wall_clock_and_random_hashtbl;
          Alcotest.test_case "allows lib/sim/rng.ml" `Quick test_l1_allows_rng_module;
          Alcotest.test_case "flags Domain outside pool" `Quick
            test_l1_flags_domain_outside_pool;
          Alcotest.test_case "allows Domain in pool" `Quick
            test_l1_allows_domain_in_pool;
          Alcotest.test_case "waiver comment" `Quick test_l1_waiver_comment;
        ] );
      ( "l2_float_equality",
        [
          Alcotest.test_case "flags float literal" `Quick
            test_l2_flags_float_literal_equality;
          Alcotest.test_case "flags float fields" `Quick test_l2_flags_float_fields;
          Alcotest.test_case "flags passed compare" `Quick
            test_l2_flags_unapplied_operators;
          Alcotest.test_case "accepts ints + tolerance" `Quick
            test_l2_accepts_int_equality_and_tolerance;
          Alcotest.test_case "waiver comment" `Quick test_l2_waiver_comment;
        ] );
      ( "l3_logging",
        [
          Alcotest.test_case "flags printing in lib" `Quick test_l3_flags_printing_in_lib;
          Alcotest.test_case "allows printing in bin" `Quick
            test_l3_allows_printing_in_bin;
          Alcotest.test_case "flags stdout/stderr in lib" `Quick
            test_l3_flags_stdout_in_lib;
          Alcotest.test_case "allows stdout in bin" `Quick
            test_l3_allows_stdout_in_bin;
        ] );
      ( "l4_mli_coverage",
        [
          Alcotest.test_case "flags missing mli" `Quick test_l4_flags_missing_mli;
          Alcotest.test_case "accepts covered + waived" `Quick
            test_l4_accepts_covered_and_waived;
        ] );
      ( "l5_unsafe",
        [
          Alcotest.test_case "flags Obj.magic + exit call" `Quick
            test_l5_flags_obj_magic_and_exit_call;
          Alcotest.test_case "allows exit variable" `Quick
            test_l5_allows_exit_as_variable;
        ] );
      ( "l6_hot_queue",
        [
          Alcotest.test_case "flags Queue in hot path" `Quick
            test_l6_flags_queue_in_hot_path;
          Alcotest.test_case "allows Queue elsewhere" `Quick
            test_l6_allows_queue_elsewhere;
          Alcotest.test_case "waiver" `Quick test_l6_waiver;
        ] );
      ( "l7_fault_inject",
        [
          Alcotest.test_case "flags loss coin in packet path" `Quick
            test_l7_flags_loss_coin_in_packet_path;
          Alcotest.test_case "allows Net.Fault + out-of-scope" `Quick
            test_l7_allows_fault_module_and_elsewhere;
          Alcotest.test_case "waiver" `Quick test_l7_waiver;
        ] );
      ( "L8",
        [
          Alcotest.test_case "flags channel writes in lib" `Quick
            test_l8_flags_channel_writes_in_lib;
          Alcotest.test_case "allows formatters + executables" `Quick
            test_l8_allows_formatters_and_executables;
          Alcotest.test_case "waiver" `Quick test_l8_waiver;
        ] );
      ( "l9_arrival",
        [
          Alcotest.test_case "flags samplers outside workload" `Quick
            test_l9_flags_samplers_outside_workload;
          Alcotest.test_case "allows workload + rng + non-lib" `Quick
            test_l9_allows_workload_rng_and_outside_lib;
          Alcotest.test_case "waiver" `Quick test_l9_waiver;
        ] );
      ( "driver",
        [
          Alcotest.test_case "walk + sort" `Quick test_check_paths_walks_and_sorts;
          Alcotest.test_case "report format" `Quick test_report_format;
        ] );
      ( "rng", [ qt prop_rng_int_bias_free; qt prop_rng_split_independent ] );
    ]
