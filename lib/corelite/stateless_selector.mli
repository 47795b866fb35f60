(** Stateless selective marker feedback (paper Section 3.2).

    The truly flow-stateless selector: instead of caching markers, the
    core keeps only a running average [rav] of the normalized rates
    labelled on passing markers and a running average [wav] of markers
    seen per epoch. When an epoch ends congested with budget [Fn], each
    marker of the following epoch is selected with probability
    [pw = Fn / wav]; a selected marker is returned as feedback only if
    its labelled rate [rn >= rav] — flows at or below the average
    normalized rate receive no feedback. A selected-but-ineligible
    marker increments a deficit that is repaid by feeding back the next
    unselected marker with [rn >= rav].

    [rav] overestimates the true mean normalized rate because faster
    flows contribute proportionally more markers, which is exactly why
    comparing against it isolates flows exceeding their share. *)

type t

val create : rav_gain:float -> wav_gain:float -> pw_cap:float -> rng:Sim.Rng.t -> t

(** Process the marker of a packet passing through the link (read in
    place; the packet must carry one, {!Net.Packet.has_marker}); returns
    how many feedback copies of it must be sent back (0 = none). Also
    updates [rav] and the epoch marker count.

    When the budget exceeds the marker arrival rate ([pw > 1]) a
    selected marker is fed back [floor pw] times plus one more with
    probability [frac pw]. The paper leaves this case open ("there is
    no guarantee that the required number of markers will in fact be
    selected"); emitting multiple copies preserves the weighted-fair
    expectation and restores equivalence with the cache selector, which
    samples with replacement and is not limited by the marker rate. *)
val observe : t -> Net.Packet.t -> int

(** Close the current epoch: fold its marker count into [wav], reset the
    deficit, and arm the selection probability for the next epoch with
    budget [fn] ([0.] when the link is not congested). *)
val on_epoch : t -> fn:float -> unit

(** Running average of labelled normalized rates. *)
val rav : t -> float

(** Current selection probability. *)
val pw : t -> float

(** Current deficit counter (observable for tests). *)
val deficit : t -> int

(** Router-reset support: back to the just-created state ([pw = 0],
    uninitialized averages, zero deficit). A freshly reset core selects
    nothing until {!on_epoch} rebuilds a budget from new observations —
    no feedback burst from stale soft state. *)
val reset : t -> unit
