(* See typelint.mli for the rule catalogue. The pass reads Typedtree
   from .cmt/.cmti files (dune's check alias produces them), so every
   identifier is a resolved [Path.t] — module aliases cannot hide a
   banned call, and a local variable named [exit] is not [Stdlib.exit]
   — and every expression carries its inferred type, which is what
   makes the float-equality, float-boxing and Rng-escape rules exact. *)

type rule =
  | L1_determinism
  | L2_float_equality
  | L3_logging
  | L4_mli_coverage
  | L5_unsafe
  | L6_hot_queue
  | L7_fault_inject
  | L8_telemetry
  | L9_arrival
  | T1_alloc
  | T2_domain
  | T3_rng
  | Read_error

let rule_name = function
  | L1_determinism -> "L1/determinism"
  | L2_float_equality -> "L2/float-eq"
  | L3_logging -> "L3/logging"
  | L4_mli_coverage -> "L4/mli-coverage"
  | L5_unsafe -> "L5/unsafe"
  | L6_hot_queue -> "L6/hot-queue"
  | L7_fault_inject -> "L7/fault-inject"
  | L8_telemetry -> "L8/telemetry"
  | L9_arrival -> "L9/arrival-sampling"
  | T1_alloc -> "T1/zero-alloc"
  | T2_domain -> "T2/domain-safety"
  | T3_rng -> "T3/rng-escape"
  | Read_error -> "read-error"

let waiver_token = function
  | L1_determinism -> Some "determinism-ok"
  | L2_float_equality -> Some "float-eq-ok"
  | L3_logging -> Some "logging-ok"
  | L4_mli_coverage -> Some "mli-ok"
  | L5_unsafe -> Some "unsafe-ok"
  | L6_hot_queue -> Some "queue-ok"
  | L7_fault_inject -> Some "fault-ok"
  | L8_telemetry -> Some "trace-ok"
  | L9_arrival -> Some "churn-ok"
  | T1_alloc -> Some "alloc-ok"
  | T2_domain -> Some "domain-ok"
  | T3_rng -> Some "rng-ok"
  | Read_error -> None

type violation = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
}

let hot_attribute = "corelite.hot"

(* ------------------------------------------------------------------ *)
(* Path normalization and scoping *)

(* Dune-wrapped modules resolve to mangled paths (Sim__Rng.create); the
   rules match on the dot-separated logical path with the wrapper
   prefixes folded away. *)
(* "Sim__Event_queue" -> ["Sim"; "Event_queue"]: dune's wrapped-module
   mangling uses "__" as a separator, which is illegal mid-name in
   hand-written module names. *)
let split_mangled part =
  let n = String.length part in
  let rec go start i acc =
    if i + 1 >= n then List.rev (String.sub part start (n - start) :: acc)
    else if part.[i] = '_' && part.[i + 1] = '_' && i > start && i + 2 < n then
      go (i + 2) (i + 2) (String.sub part start (i - start) :: acc)
    else go start (i + 1) acc
  in
  if n = 0 then [ part ] else go 0 0 []

let normalize_path p =
  Path.name p |> String.split_on_char '.' |> List.concat_map split_mangled

let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let path_parts p = strip_stdlib (normalize_path p)

let last_component p =
  match List.rev (normalize_path p) with c :: _ -> c | [] -> ""

(* Every scope is decided by the components of the source path the
   compiler recorded (lib/net/link.ml, bin/experiments.ml, ...).
   Library code lives under a [lib] component. *)
let path_components path = String.split_on_char '/' path

let in_lib path = List.mem "lib" (path_components path)

(* [under dirs path]: [path] lies in lib/<d> for some [d] in [dirs]. *)
let under dirs path =
  let rec go = function
    | "lib" :: d :: _ when List.mem d dirs -> true
    | _ :: rest -> go rest
    | [] -> false
  in
  go (path_components path)

let is_file name path =
  String.ends_with ~suffix:(name ^ ".ml") path
  || String.ends_with ~suffix:(name ^ ".mli") path

(* The one place allowed to own raw randomness. *)
let rng_allowlisted = is_file "lib/sim/rng"

(* The one place allowed to spawn domains: everything else submits jobs
   through Workload.Pool so sharding stays deterministic. *)
let pool_allowlisted = is_file "lib/workload/pool"

(* The one module allowed to flip loss coins against the data path. *)
let fault_allowlisted = is_file "lib/net/fault"

(* ------------------------------------------------------------------ *)
(* L1, L3, L5-L9: predicates over resolved identifier paths *)

let l1_banned_ident = function
  | "Random" :: _ | "Stdlib" :: "Random" :: _ ->
    Some "Stdlib.Random is banned; draw from Sim.Rng so runs stay reproducible"
  | [ "Unix"; ("gettimeofday" | "time") ] ->
    Some "wall-clock reads are banned; simulation time comes from Sim.Engine.now"
  | [ "Sys"; "time" ] | [ "Stdlib"; "Sys"; "time" ] ->
    Some "Sys.time is banned; simulation time comes from Sim.Engine.now"
  | _ -> None

(* Scheduling nondeterminism: outside Workload.Pool, nothing may spawn
   domains or threads — results must not depend on worker interleaving. *)
let l1_parallel_ident = function
  | "Domain" :: _ | "Stdlib" :: "Domain" :: _ | "Thread" :: _ ->
    Some
      "Domain/Thread use is confined to Workload.Pool; submit jobs through \
       the pool so parallel runs stay bit-identical to serial"
  | _ -> None

let l3_banned_ident path =
  let bare = function
    | "print_endline" | "print_string" | "print_newline" | "print_char"
    | "print_int" | "print_float" | "prerr_endline" | "prerr_string"
    | "prerr_newline" ->
      true
    | _ -> false
  in
  match path with
  | [ (("stdout" | "stderr") as f) ] | [ "Stdlib"; (("stdout" | "stderr") as f) ]
    ->
    Some
      (f
     ^ " is banned in lib/; return the payload and let the caller print, or \
        log through Logs")
  | [ f ] | [ "Stdlib"; f ] ->
    if bare f then Some (f ^ " is banned in lib/; log through Logs") else None
  | [ "Printf"; (("printf" | "eprintf") as f) ]
  | [ "Stdlib"; "Printf"; (("printf" | "eprintf") as f) ] ->
    Some ("Printf." ^ f ^ " is banned in lib/; log through Logs")
  | [ "Format"; (("printf" | "eprintf" | "print_string" | "print_newline") as f) ]
  | [ "Stdlib"; "Format"; (("printf" | "eprintf" | "print_string" | "print_newline") as f) ]
    ->
    Some ("Format." ^ f ^ " is banned in lib/; log through Logs")
  | _ -> None

(* Direct channel writes in lib/: telemetry and series data must leave
   libraries as returned payloads (Sim.Trace/Sim.Metrics exports, CSV
   strings) so the coordinating executable alone touches the
   filesystem and pooled runs stay byte-identical to serial ones.
   [Format.fprintf] stays legal — printing to a caller-supplied
   formatter is how pp functions work. *)
let l8_banned_ident path =
  let file_write = function
    | "open_out" | "open_out_bin" | "open_out_gen" | "output_string"
    | "output_char" | "output_bytes" | "output_byte" | "output_substring"
    | "output_value" ->
      true
    | _ -> false
  in
  match path with
  | [ f ] | [ "Stdlib"; f ] when file_write f ->
    Some
      (f
     ^ " is banned in lib/; return the payload (Trace/Metrics/Csv export \
        strings) and let the executable write it, or waive with trace-ok")
  | "Out_channel" :: _ | "Stdlib" :: "Out_channel" :: _ ->
    Some
      "Out_channel is banned in lib/; return the payload and let the \
       executable write it, or waive with trace-ok"
  | [ "Printf"; "fprintf" ] | [ "Stdlib"; "Printf"; "fprintf" ] ->
    Some
      "Printf.fprintf writes to a raw channel; return the payload or use a \
       Format.formatter pp, or waive with trace-ok"
  | _ -> None

(* With resolved paths a variable named [exit] (a flow's exit core) is
   a local identifier, never [Stdlib.exit]. *)
let l5_banned_ident = function
  | [ "Obj"; "magic" ] | [ "Stdlib"; "Obj"; "magic" ] ->
    Some "Obj.magic is banned in lib/"
  | [ "Stdlib"; "exit" ] ->
    Some "exit is banned in lib/; raise and let the caller decide"
  | _ -> None

let l6_banned_ident = function
  | "Queue" :: _ | "Stdlib" :: "Queue" :: _ ->
    Some
      "Stdlib.Queue allocates a cell per push; the lib/sim and lib/net hot \
       path must use Sim.Ring"
  | _ -> None

(* Ad-hoc loss coins in the packet path. Matching the trailing
   [bernoulli] component (Sim.Rng.bernoulli, a local rebinding) is
   deliberately blunt: the handful of legitimate algorithmic coins (RED
   early drop, the selectors' probabilistic rounding) carry
   [lint: fault-ok] waivers stating what they are. *)
let l7_banned_ident path =
  match List.rev path with
  | "bernoulli" :: _ ->
    Some
      "loss draws in lib/net and lib/corelite are confined to Net.Fault; \
       inject faults through a Sim.Faultplan or waive with fault-ok"
  | _ -> None

(* Arrival-process sampling outside the sanctioned generator, matched
   by trailing component like L7: the one legitimate out-of-home
   consumer (Net.Onoff's period draws, driven by a plan
   Workload.Arrivals produced) carries [lint: churn-ok] waivers. *)
let l9_banned_ident path =
  match List.rev path with
  | ("exponential" | "pareto") :: _ ->
    Some
      "arrival-process sampling (exponential/pareto draws) is confined to \
       lib/workload (Workload.Arrivals); generate the plan there or waive \
       with churn-ok"
  | _ -> None

let eq_operator = function
  | [ (("=" | "<>" | "==" | "!=" | "compare") as op) ]
  | [ "Stdlib"; (("=" | "<>" | "==" | "!=" | "compare") as op) ] ->
    Some op
  | _ -> None

let is_hashtbl_create = function
  | [ "Hashtbl"; "create" ] | [ "Stdlib"; "Hashtbl"; "create" ] -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Type predicates *)

let is_float_ty ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let is_arrow_ty ty =
  match Types.get_desc ty with Tarrow _ -> true | _ -> false

let is_tvar ty = match Types.get_desc ty with Tvar _ -> true | _ -> false

let is_rng_ty ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> (
    match List.rev (normalize_path p) with
    | "t" :: "Rng" :: _ -> true
    | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Context and reporting *)

type ctx = {
  file : string;
  lib_scope : bool;  (* L3, L4, L5, L8, T2 *)
  hot_scope : bool;  (* L6: lib/sim, lib/net *)
  fault_scope : bool;  (* L7: lib/net, lib/corelite, except Net.Fault *)
  arrival_scope : bool;  (* L9: lib/ outside lib/workload and rng.ml *)
  rng_owner : bool;  (* exempt from L1: lib/sim/rng.ml *)
  pool_owner : bool;  (* exempt from L1's Domain/Thread ban: Workload.Pool *)
  rng_scope : bool;  (* T3 *)
  mutable found : violation list;
}

(* T3 scope: the simulation component libraries. lib/workload is the
   scenario-root layer (it owns seeds by design) and is out of scope.
   lib/topo is in scope: generators must derive their streams with
   [scenario] (pure in (seed, label)), never mint them with [create]. *)
let make_ctx ~file sourcefile =
  let lib = in_lib sourcefile in
  let rng_owner = rng_allowlisted sourcefile in
  {
    file;
    lib_scope = lib;
    hot_scope = under [ "sim"; "net" ] sourcefile;
    fault_scope =
      under [ "net"; "corelite" ] sourcefile && not (fault_allowlisted sourcefile);
    arrival_scope = lib && (not (under [ "workload" ] sourcefile)) && not rng_owner;
    rng_owner;
    pool_owner = pool_allowlisted sourcefile;
    rng_scope =
      under [ "sim"; "net"; "corelite"; "csfq"; "fairness"; "topo" ] sourcefile
      && not rng_owner;
    found = [];
  }

let add ctx rule (loc : Location.t) message =
  let p = loc.loc_start in
  ctx.found <-
    {
      file = ctx.file;
      line = p.pos_lnum;
      col = p.pos_cnum - p.pos_bol;
      rule;
      message;
    }
    :: ctx.found

(* ------------------------------------------------------------------ *)
(* L1-L3, L5-L9 and T3 production: one walk over every expression and
   module path *)

let check_ident ctx loc path =
  let check in_scope rule banned =
    if in_scope then Option.iter (add ctx rule loc) (banned path)
  in
  check (not ctx.rng_owner) L1_determinism l1_banned_ident;
  check (not ctx.pool_owner) L1_determinism l1_parallel_ident;
  check ctx.lib_scope L3_logging l3_banned_ident;
  check ctx.lib_scope L8_telemetry l8_banned_ident;
  check ctx.lib_scope L5_unsafe l5_banned_ident;
  check ctx.hot_scope L6_hot_queue l6_banned_ident;
  check ctx.fault_scope L7_fault_inject l7_banned_ident;
  check ctx.arrival_scope L9_arrival l9_banned_ident

(* L2 judges the operator where it is named, by its instance type, so
   an applied, partly applied or passed comparison ([List.sort compare]
   over floats) is flagged alike. *)
let check_float_eq ctx (e : Typedtree.expression) path =
  match (eq_operator path, Types.get_desc e.exp_type) with
  | Some op, Tarrow (_, arg, _, _) when is_float_ty arg ->
    add ctx L2_float_equality e.exp_loc
      ("(" ^ op
     ^ ") on float operands; use a tolerance (e.g. Sim.Floats.near) or waive")
  | _ -> ()

let callee (f : Typedtree.expression) =
  match f.exp_desc with
  | Texp_ident (p, _, vd) -> Some (p, vd)
  | _ -> None

let label_name = function
  | Asttypes.Nolabel -> ""
  | Asttypes.Labelled s | Asttypes.Optional s -> s

(* [~random:false] reaches the typed tree as [Some false], and an
   omitted [?random] as [None]. *)
let rec random_off (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, { Types.cstr_name = "false" | "None"; _ }, []) -> true
  | Texp_construct (_, { Types.cstr_name = "Some"; _ }, [ v ]) -> random_off v
  | _ -> false

let check_apply ctx (e : Typedtree.expression) f args =
  match callee f with
  | None -> ()
  | Some (p, _) ->
    if
      (not ctx.rng_owner)
      && is_hashtbl_create (normalize_path p)
      && List.exists
           (fun (lbl, a) ->
             label_name lbl = "random"
             && match a with Some v -> not (random_off v) | None -> false)
           args
    then
      add ctx L1_determinism e.exp_loc
        "Hashtbl.create ~random:true is banned; iteration order must be stable"

let rng_producers = [ "split"; "stream"; "scenario" ]

let t3_produce ctx (e : Typedtree.expression) =
  if is_rng_ty e.exp_type then
    match e.exp_desc with
    | Texp_apply (f, _) -> (
      match callee f with
      | Some (p, _) when List.mem (last_component p) rng_producers -> ()
      | _ ->
        add ctx T3_rng e.exp_loc
          "Sim.Rng.t produced outside the scenario-splitting API; component \
           code derives streams with split/stream/scenario from the rng it \
           was handed (Rng.create belongs to the scenario roots in \
           lib/workload and the executables)")
    | _ -> ()

let rules_iterator ctx =
  let open Tast_iterator in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, lid, _) ->
      let path = normalize_path p in
      check_ident ctx lid.loc path;
      check_float_eq ctx e path
    | Texp_apply (f, args) -> check_apply ctx e f args
    | _ -> ());
    if ctx.rng_scope then t3_produce ctx e;
    default_iterator.expr it e
  in
  let module_expr it (me : Typedtree.module_expr) =
    (match me.mod_desc with
    | Tmod_ident (p, lid) -> check_ident ctx lid.loc (normalize_path p)
    | _ -> ());
    default_iterator.module_expr it me
  in
  { default_iterator with expr; module_expr }

(* ------------------------------------------------------------------ *)
(* T1: allocation catalogue *)

(* Error paths are not steady state: an application of one of these
   never returns, so everything under it (message formatting included)
   is skipped. *)
let raising = function
  | [ ("raise" | "raise_notrace" | "invalid_arg" | "failwith") ] -> true
  | _ -> false

let mem fn l = List.mem fn l

(* Calls whose very purpose is to build a heap value. The allowlists
   keep the read-only entry points of each module. *)
let banned_call parts =
  match parts with
  | [ "@" ] -> Some "(@) copies its left list cell by cell"
  | [ "^" ] -> Some "(^) builds a fresh string"
  | [ "ref" ] -> Some "ref allocates a mutable cell"
  | [ "string_of_int" ] | [ "string_of_float" ] | [ "string_of_bool" ] ->
    Some "string conversion builds a fresh string"
  | "List" :: [ fn ]
    when not
           (mem fn
              [ "iter"; "iteri"; "iter2"; "length"; "compare_lengths";
                "compare_length_with"; "hd"; "tl"; "nth"; "mem"; "memq";
                "exists"; "exists2"; "for_all"; "for_all2"; "assoc"; "assq";
                "mem_assoc"; "mem_assq"; "is_empty"; "find"; "fold_left" ]) ->
    Some ("List." ^ fn ^ " allocates list cells")
  | "String" :: [ fn ]
    when not
           (mem fn
              [ "length"; "get"; "unsafe_get"; "compare"; "equal"; "contains";
                "contains_from"; "index"; "rindex"; "index_from"; "iter";
                "blit"; "unsafe_blit" ]) ->
    Some ("String." ^ fn ^ " builds a fresh string")
  | "Bytes" :: [ fn ]
    when not
           (mem fn
              [ "length"; "get"; "set"; "unsafe_get"; "unsafe_set"; "blit";
                "unsafe_blit"; "fill"; "compare"; "equal" ]) ->
    Some ("Bytes." ^ fn ^ " allocates")
  | "Buffer" :: [ fn ] -> Some ("Buffer." ^ fn ^ " allocates")
  | ("Printf" | "Format" | "Scanf") :: [ fn ] ->
    Some (List.hd parts ^ "." ^ fn ^ " allocates (formatting machinery)")
  | "Array" :: [ fn ]
    when mem fn
           [ "make"; "create_float"; "init"; "make_matrix"; "of_list";
             "to_list"; "append"; "concat"; "copy"; "sub"; "map"; "mapi";
             "map2"; "split"; "combine"; "of_seq"; "to_seq" ] ->
    Some ("Array." ^ fn ^ " allocates an array")
  | "Hashtbl" :: [ fn ]
    when mem fn
           [ "create"; "copy"; "add"; "replace"; "find_opt"; "find_all";
             "of_seq"; "to_seq"; "to_seq_keys"; "to_seq_values"; "reset" ] ->
    Some ("Hashtbl." ^ fn ^ " allocates (buckets or options)")
  | ("Queue" | "Stack") :: [ fn ]
    when not (mem fn [ "length"; "is_empty"; "iter" ]) ->
    Some (List.hd parts ^ "." ^ fn ^ " allocates per element")
  | ("Seq" | "Lazy") :: _ ->
    Some (List.hd parts ^ " is lazy: every step allocates")
  | ("Int32" | "Int64" | "Nativeint") :: [ fn ]
    when not (mem fn [ "to_int"; "compare"; "equal" ]) ->
    Some (List.hd parts ^ "." ^ fn ^ " returns a boxed integer")
  | "Option" :: [ fn ] when mem fn [ "map"; "bind"; "join"; "some"; "to_list" ]
    ->
    Some ("Option." ^ fn ^ " allocates an option")
  | "Gc" :: [ fn ] when mem fn [ "stat"; "quick_stat"; "counters" ] ->
    Some ("Gc." ^ fn ^ " allocates a stat record")
  | _ -> None

let is_raise_app (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, _) -> (
    match callee f with
    | Some (p, _) -> raising (path_parts p)
    | None -> false)
  | _ -> false

let formals_of ty =
  let rec go ty acc =
    match Types.get_desc ty with
    | Tarrow (lbl, a, b, _) -> go b ((label_name lbl, a) :: acc)
    | Tpoly (ty, _) -> go ty acc
    | _ -> List.rev acc
  in
  go ty []

(* A [float]-typed argument instantiating a type variable of the
   callee's scheme: the value crosses into a polymorphic context, where
   it must be boxed ([Some x], a generic container slot, ...).
   Primitives are exempt — the compiler specializes them at the known
   type (e.g. [=] on floats compares unboxed). *)
let check_float_escape ctx (vd : Types.value_description) args loc =
  match vd.val_kind with
  | Types.Val_prim _ -> ()
  | _ ->
    let formals = ref (formals_of vd.val_type) in
    List.iter
      (fun (lbl, arg) ->
        match arg with
        | None -> ()
        | Some (a : Typedtree.expression) -> (
          let name = label_name lbl in
          let rec take acc = function
            | [] -> None
            | (n, ty) :: rest when n = name -> Some (ty, List.rev_append acc rest)
            | f :: rest -> take (f :: acc) rest
          in
          match take [] !formals with
          | None -> ()
          | Some (fty, rest) ->
            formals := rest;
            if is_tvar fty && is_float_ty a.exp_type then
              add ctx T1_alloc loc
                "boxed float escapes into a polymorphic context (the argument \
                 instantiates a type variable, so it must be heap-boxed)"))
      args

(* A call into another compilation unit that returns a [float]: the
   result comes back boxed unless the callee is inlined, and dune's dev
   profile compiles with [-opaque], so nothing inlines across units
   there ([Sim.Engine.now], [Float.max], ...). A path whose head is a
   global ident names another unit; values of this unit and of its
   local modules have a local head. Primitives are exempt, as above:
   the compiler specializes them at the call site. *)
let check_float_result ctx p (vd : Types.value_description) (e : Typedtree.expression) =
  match vd.val_kind with
  | Types.Val_prim _ -> ()
  | _ -> (
    match p with
    | Path.Pdot _ when Ident.global (Path.head p) && is_float_ty e.exp_type ->
      (* Name the callee as written: [Sim__Event_queue] reads
         [Sim.Event_queue], and dune's [Lib__] alias module drops out. *)
      let parts = List.filter (fun c -> not (String.ends_with ~suffix:"__" c)) (path_parts p) in
      add ctx T1_alloc e.exp_loc
        (String.concat "." parts
       ^ " returns a boxed float across a compilation unit (-opaque forbids \
          cross-module inlining): read a flat float field, spell the \
          function out, or waive")
    | _ -> ())

let hot_iterator ctx =
  let open Tast_iterator in
  let expr it (e : Typedtree.expression) =
    if is_raise_app e then () (* error path: not steady state *)
    else begin
      (match e.exp_desc with
      | Texp_assert _ -> ()
      | Texp_function _ ->
        (* The closure itself is the violation; its body only runs when
           called, so it is not scanned — one finding (and one waiver)
           per closure, not one per construct inside it. *)
        add ctx T1_alloc e.exp_loc
          "closure allocated inside a [@corelite.hot] body (hoist it to a \
           top-level function or a field installed at construction)"
      | Texp_letop _ ->
        add ctx T1_alloc e.exp_loc "binding operators allocate closures"
      | Texp_tuple _ -> add ctx T1_alloc e.exp_loc "tuple allocation"
      | Texp_construct (_, cstr, _ :: _) ->
        add ctx T1_alloc e.exp_loc
          ("constructor " ^ cstr.Types.cstr_name
         ^ " with arguments allocates a block")
      | Texp_variant (_, Some _) ->
        add ctx T1_alloc e.exp_loc "polymorphic variant with argument allocates"
      | Texp_record _ -> add ctx T1_alloc e.exp_loc "record allocation"
      | Texp_array (_ :: _) -> add ctx T1_alloc e.exp_loc "array literal allocates"
      | Texp_lazy _ -> add ctx T1_alloc e.exp_loc "lazy thunk allocates"
      | Texp_object _ -> add ctx T1_alloc e.exp_loc "object allocation"
      | Texp_pack _ -> add ctx T1_alloc e.exp_loc "first-class module allocates"
      | Texp_setfield (_, _, lbl, v) ->
        if
          is_float_ty lbl.Types.lbl_arg
          && (match lbl.Types.lbl_repres with
             | Types.Record_float | Types.Record_unboxed _ -> false
             | _ -> true)
          && is_float_ty v.exp_type
        then
          add ctx T1_alloc e.exp_loc
            ("float store into mixed-record field " ^ lbl.Types.lbl_name
           ^ " boxes a fresh float (all-float records store flat; split the \
              floats out or waive)")
      | Texp_apply (f, args) -> (
        (* Partial when fewer args than the callee's *generic* arity:
           judging by the instantiated result type alone would flag
           [Event_queue.pop_exn q] ('a t -> 'a at 'a = unit -> unit),
           which returns an existing function rather than building
           one. *)
        let arity =
          match callee f with
          | Some (_, vd) -> List.length (formals_of vd.Types.val_type)
          | None -> List.length (formals_of f.exp_type)
        in
        if List.length args < arity && is_arrow_ty e.exp_type then
          add ctx T1_alloc e.exp_loc
            "partial application builds a closure (apply all arguments or \
             hoist the partial application out of the hot path)";
        match callee f with
        | Some (p, vd) ->
          (match banned_call (path_parts p) with
          | Some msg -> add ctx T1_alloc e.exp_loc msg
          | None -> ());
          check_float_escape ctx vd args e.exp_loc;
          check_float_result ctx p vd e
        | None -> ())
      | _ -> ());
      match e.exp_desc with
      | Texp_assert _ | Texp_function _ -> ()
      | _ -> default_iterator.expr it e
    end
  in
  { default_iterator with expr }

(* The leading [fun x -> fun y -> ...] spine is the function's own
   parameter list, not an allocation per call; a trailing multi-case
   [function] is the last parameter and its case bodies are body code.
   A deeper [function] inside a case body is dispatch-dependent and is
   treated as body code too (it does allocate per call). *)
let rec hot_bodies (e : Typedtree.expression) acc =
  match e.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
    hot_bodies c_rhs acc
  | Texp_function { cases; _ } ->
    List.fold_left
      (fun acc c ->
        let acc =
          match c.Typedtree.c_guard with Some g -> g :: acc | None -> acc
        in
        c.Typedtree.c_rhs :: acc)
      acc cases
  | _ -> e :: acc

let has_hot_attr (attrs : Typedtree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = hot_attribute)
    attrs

let vb_is_hot (vb : Typedtree.value_binding) =
  has_hot_attr vb.vb_attributes || has_hot_attr vb.vb_expr.exp_attributes

let check_hot ctx (vb : Typedtree.value_binding) =
  let it = hot_iterator ctx in
  List.iter (fun body -> it.expr it body) (hot_bodies vb.vb_expr [])

(* ------------------------------------------------------------------ *)
(* T2: module-level mutable state *)

let t2_exempt = function
  | "Atomic" :: _ | "Domain" :: "DLS" :: _ -> true
  | _ -> false

let t2_creator = function
  | [ "ref" ] -> Some "a ref cell"
  | "Hashtbl" :: ("create" | "copy" | "of_seq") :: _ -> Some "a Hashtbl"
  | "Buffer" :: "create" :: _ -> Some "a Buffer"
  | "Queue" :: ("create" | "copy") :: _ -> Some "a Queue"
  | "Stack" :: ("create" | "copy") :: _ -> Some "a Stack"
  | "Bytes" :: ("create" | "make" | "of_string" | "copy" | "init") :: _ ->
    Some "mutable bytes"
  | "Array"
    :: ( "make" | "init" | "create_float" | "make_matrix" | "of_list"
       | "append" | "concat" | "copy" | "sub" )
    :: _ ->
    Some "a mutable array"
  | "Weak" :: "create" :: _ -> Some "a weak array"
  | _ -> None

let t2_mutable_head ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> (
    match List.rev (path_parts p) with
    | "ref" :: _ -> Some "a ref cell"
    | "t" :: "Hashtbl" :: _ -> Some "a Hashtbl"
    | "t" :: "Buffer" :: _ -> Some "a Buffer"
    | "t" :: "Queue" :: _ -> Some "a Queue"
    | "t" :: "Stack" :: _ -> Some "a Stack"
    | "bytes" :: _ -> Some "mutable bytes"
    | "array" :: _ -> Some "a mutable array"
    | _ -> None)
  | _ -> None

let t2_message what =
  "module-level mutable state (" ^ what
  ^ ") is shared by every pool worker domain; make it Atomic, move it into \
     per-instance state, use Domain.DLS, or waive with domain-ok"

(* Scan the defining expression of a module-level binding without
   descending into functions (state built per call is per-instance) —
   but descending into [let]s, branches and constructor arguments, so
   a cell captured by a closure ([let x = let c = ref 0 in fun () -> c])
   is still found. *)
let rec t2_scan ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function _ -> ()
  | Texp_apply (f, args) ->
    (match callee f with
    | Some (p, _) ->
      let parts = path_parts p in
      if not (t2_exempt parts) then begin
        (match t2_creator parts with
        | Some what -> add ctx T2_domain e.exp_loc (t2_message what)
        | None -> ());
        List.iter (fun (_, a) -> Option.iter (t2_scan ctx) a) args
      end
    | None ->
      t2_scan ctx f;
      List.iter (fun (_, a) -> Option.iter (t2_scan ctx) a) args)
  | Texp_record { fields; extended_expression; _ } ->
    if
      Array.exists
        (fun ((lbl : Types.label_description), _) ->
          lbl.Types.lbl_mut = Asttypes.Mutable)
        fields
    then
      add ctx T2_domain e.exp_loc (t2_message "a record with mutable fields");
    Array.iter
      (fun (_, def) ->
        match def with
        | Typedtree.Overridden (_, e) -> t2_scan ctx e
        | Typedtree.Kept _ -> ())
      fields;
    Option.iter (t2_scan ctx) extended_expression
  | Texp_array (_ :: _) ->
    add ctx T2_domain e.exp_loc (t2_message "an array literal")
  | Texp_let (_, vbs, body) ->
    List.iter (fun (vb : Typedtree.value_binding) -> t2_scan ctx vb.vb_expr) vbs;
    t2_scan ctx body
  | Texp_sequence (a, b) ->
    t2_scan ctx a;
    t2_scan ctx b
  | Texp_ifthenelse (c, a, b) ->
    t2_scan ctx c;
    t2_scan ctx a;
    Option.iter (t2_scan ctx) b
  | Texp_match (scrut, cases, _) ->
    t2_scan ctx scrut;
    List.iter (fun (c : _ Typedtree.case) -> t2_scan ctx c.c_rhs) cases
  | Texp_construct (_, _, args) | Texp_tuple args ->
    List.iter (t2_scan ctx) args
  | Texp_variant (_, Some a) -> t2_scan ctx a
  | Texp_open (_, e) -> t2_scan ctx e
  | _ -> ()

let t2_binding ctx (vb : Typedtree.value_binding) =
  let before = List.length ctx.found in
  t2_scan ctx vb.vb_expr;
  if List.length ctx.found = before then
    (* Type-based fallback: creation hidden behind a call
       ([let t = make_table ()]). *)
    match t2_mutable_head vb.vb_pat.pat_type with
    | Some what -> add ctx T2_domain vb.vb_pat.pat_loc (t2_message what)
    | None -> ()

(* ------------------------------------------------------------------ *)
(* T3: Rng leaks at the module boundary *)

(* Only plain values are leaks: a module-level [Rng.t] is a private
   stream handed across the boundary. Functions returning [Rng.t] are
   derivation APIs and stay legal — [t3_produce] checks how they
   produce it. *)
let t3_leak ctx (loc : Location.t) ty =
  if is_rng_ty ty then
    add ctx T3_rng loc
      "exposes a Sim.Rng.t across a module boundary; streams are derived via \
       split/stream/scenario and stay owned by the component that received \
       them"

(* ------------------------------------------------------------------ *)
(* Structure / signature walks (T1, T2, T3 leaks) *)

let rec walk_structure ctx (str : Typedtree.structure) =
  List.iter (walk_item ctx) str.str_items

and walk_item ctx (item : Typedtree.structure_item) =
  match item.str_desc with
  | Tstr_value (_, vbs) ->
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        if vb_is_hot vb then check_hot ctx vb;
        if ctx.lib_scope then t2_binding ctx vb;
        if ctx.rng_scope then t3_leak ctx vb.vb_pat.pat_loc vb.vb_pat.pat_type)
      vbs
  | Tstr_module mb -> walk_module ctx mb.mb_expr
  | Tstr_recmodule mbs ->
    List.iter (fun (mb : Typedtree.module_binding) -> walk_module ctx mb.mb_expr) mbs
  | Tstr_include incl -> walk_module ctx incl.incl_mod
  | _ -> ()

and walk_module ctx (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> walk_structure ctx str
  | Tmod_constraint (me, _, _, _) -> walk_module ctx me
  | Tmod_functor (_, me) -> walk_module ctx me
  | _ -> ()

let walk_signature ctx (sg : Typedtree.signature) =
  List.iter
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd ->
        if ctx.rng_scope then
          t3_leak ctx vd.val_loc vd.val_val.Types.val_type
      | _ -> ())
    sg.sig_items

(* ------------------------------------------------------------------ *)
(* Waivers and cmt plumbing *)

let read_lines path =
  match In_channel.with_open_bin path In_channel.input_all with
  | source -> Array.of_list (String.split_on_char '\n' source)
  | exception _ -> [||]

(* The text before [lint: <token>] on line [n] (1-based), if the line
   carries that waiver. *)
let waiver_on lines n token =
  if n < 1 || n > Array.length lines then None
  else
    let text = lines.(n - 1) and probe = "lint: " ^ token in
    (* substring search; waiver comments are rare and short *)
    let tl = String.length text and pl = String.length probe in
    let rec scan i =
      if i + pl > tl then None
      else if String.sub text i pl = probe then Some (String.sub text 0 i)
      else scan (i + 1)
    in
    scan 0

(* A finding on line n is waived on line n, or on line n - 1 when the
   waiver opens that line: a waiver trailing code covers its own line
   only. L4's finding, which has no line of its own, is waived anywhere
   in the first three lines. *)
let waived lines (v : violation) =
  match waiver_token v.rule with
  | None -> false
  | Some token ->
    let on n = Option.is_some (waiver_on lines n token) in
    let opens n =
      match waiver_on lines n token with
      | Some before -> List.mem (String.trim before) [ ""; "(*" ]
      | None -> false
    in
    if v.rule = L4_mli_coverage then on 1 || on 2 || on 3
    else on v.line || opens (v.line - 1)

(* L4: a hand-written lib/ implementation whose .cmt has no .cmti beside
   it. Dune's generated alias modules ([.ml-gen] files) are not sources. *)
let check_mli ctx ~cmt_path ~sourcefile =
  if
    ctx.lib_scope
    && Filename.check_suffix sourcefile ".ml"
    && not (Sys.file_exists (Filename.remove_extension cmt_path ^ ".cmti"))
  then
    ctx.found <-
      {
        file = ctx.file;
        line = 1;
        col = 0;
        rule = L4_mli_coverage;
        message = "missing interface " ^ Filename.basename sourcefile ^ "i";
      }
      :: ctx.found

(* Under a ppx (bisect_ppx's instrumentation, say) dune compiles the
   preprocessed x.pp.ml, a binary AST without comments; scopes and
   waivers belong to the source x.ml it came from. *)
let unpreprocessed path =
  let stem = Filename.remove_extension path in
  if Filename.extension stem = ".pp" then
    Filename.remove_extension stem ^ Filename.extension path
  else path

(* The recorded source path is relative to the compiler's working
   directory (the build-context root under dune). Resolve it next to
   the .cmt (fixtures compiled in place, checked first so a fixture
   never reads a same-named file under the caller's directory), as
   given, or three levels up out of dune's .<lib>.objs/byte/ (a checker
   invoked from another directory). *)
let find_source ~cmt_path ~sourcefile =
  let base = Filename.basename sourcefile in
  let candidates =
    [
      Filename.concat (Filename.dirname cmt_path) base;
      sourcefile;
      Filename.concat
        (Filename.dirname (Filename.dirname (Filename.dirname cmt_path)))
        base;
    ]
  in
  List.find_opt Sys.file_exists candidates

let compare_violation (a : violation) (b : violation) =
  match compare a.file b.file with
  | 0 -> ( match compare a.line b.line with 0 -> compare a.col b.col | c -> c)
  | c -> c

let read_error cmt_path message =
  [ { file = cmt_path; line = 1; col = 0; rule = Read_error; message } ]

(* A .cmt compiled from an older copy of its source (a plain [dune
   build] leaves executables' byte .cmt files behind) holds positions
   that the current source has moved, so its waivers would be read from
   the wrong lines. The compiler records the digest of the file it read
   (x.pp.ml under a ppx); when that file has changed since, the unit is
   not judged. *)
let stale ~cmt_path (cmt : Cmt_format.cmt_infos) ~read =
  match (cmt.cmt_source_digest, find_source ~cmt_path ~sourcefile:read) with
  | Some digest, Some path -> not (Digest.equal digest (Digest.file path))
  | _ -> false

(* [coverage] adds L4, which judges the tree a .cmt sits in. *)
let check_unit ~coverage cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception e -> read_error cmt_path ("cannot read cmt: " ^ Printexc.to_string e)
  | cmt ->
    let read = Option.value cmt.Cmt_format.cmt_sourcefile ~default:cmt_path in
    if stale ~cmt_path cmt ~read then
      read_error cmt_path
        "stale cmt: its source changed since it was compiled; run dune build @check"
    else begin
      let sourcefile = unpreprocessed read in
      let resolved = find_source ~cmt_path ~sourcefile in
      let file = match resolved with Some p -> p | None -> sourcefile in
      let ctx = make_ctx ~file sourcefile in
      let it = rules_iterator ctx in
      (match cmt.Cmt_format.cmt_annots with
      | Cmt_format.Implementation str ->
        walk_structure ctx str;
        it.structure it str;
        if coverage then check_mli ctx ~cmt_path ~sourcefile
      | Cmt_format.Interface sg ->
        walk_signature ctx sg;
        it.signature it sg
      | _ -> ());
      let lines =
        match resolved with Some p -> read_lines p | None -> [||]
      in
      List.sort compare_violation
        (List.filter (fun v -> not (waived lines v)) ctx.found)
    end

let check_cmt = check_unit ~coverage:false

(* ------------------------------------------------------------------ *)
(* Discovery *)

let is_cmt path =
  Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"

let rec walk path acc =
  if Sys.is_directory path then
    let entries = Sys.readdir path in
    Array.sort compare entries;
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" then acc
        else walk (Filename.concat path entry) acc)
      acc entries
  else if is_cmt path then path :: acc
  else acc

let check_paths roots =
  let files =
    List.fold_left
      (fun acc root ->
        match if Sys.file_exists root then walk root [] else [] with
        | [] -> failwith ("no .cmt or .cmti file under " ^ root)
        | found -> found @ acc)
      [] roots
  in
  List.sort compare_violation (List.concat_map (check_unit ~coverage:true) files)

let report ppf violations =
  List.iter
    (fun (v : violation) ->
      Format.fprintf ppf "%s:%d:%d: [%s] %s@." v.file v.line v.col
        (rule_name v.rule) v.message)
    violations
