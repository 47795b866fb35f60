exception Violation of string

(* Both cells are read and written from every pool worker domain, so
   they must be atomic: a plain [ref] would race (and the check counter
   would drop increments) the moment scenarios run in parallel. *)
let enabled_by_default = Atomic.make false

let set_default b = Atomic.set enabled_by_default b

let default () = Atomic.get enabled_by_default

let checks = Atomic.make 0

let checks_run () = Atomic.get checks

let require ~what cond =
  Atomic.incr checks;
  if not cond then raise (Violation what)

let requiref ~what cond =
  Atomic.incr checks;
  if not cond then raise (Violation (what ()))

(* Flow-table ledger. Dynamic (churn) deployments create per-flow edge
   state on first packet and retire it on completion or soft-state
   expiry. The ledger counts both sides so a churn oracle can prove the
   table never leaks: created = retired + live at every stable point.
   Writers are the corelite/csfq dynamic deployments; counters are
   process-wide and atomic, like [checks]. *)
let flow_creations = Atomic.make 0

let flow_retirements = Atomic.make 0

let flow_expiries = Atomic.make 0

let note_flow_created () = Atomic.incr flow_creations

let note_flow_retired () = Atomic.incr flow_retirements

let note_flow_expired () =
  Atomic.incr flow_expiries;
  Atomic.incr flow_retirements

let flows_created () = Atomic.get flow_creations

let flows_retired () = Atomic.get flow_retirements

let flows_expired () = Atomic.get flow_expiries
