(** Tolerance-based float comparison.

    The lint pass (rule L2) bans [=], [<>], [==], [!=] and [compare]
    on float operands:
    exact float equality silently breaks under reordering or
    refactoring of arithmetic. Code that really means "equal up to
    rounding" says so with these helpers; code that really means exact
    bit equality (e.g. a [0.] sentinel never touched by arithmetic)
    carries an explicit [(* lint: float-eq-ok *)] waiver instead. *)

(** [near a b] is [|a - b| <= tolerance], [1e-9] by default. *)
val near : ?tolerance:float -> float -> float -> bool

(** [is_zero x] is [near x 0.]. *)
val is_zero : ?tolerance:float -> float -> bool
