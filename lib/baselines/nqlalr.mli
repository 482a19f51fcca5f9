(** NQLALR — "Not Quite LALR" (paper §7), implemented as a comparison
    subject.

    Several pre-1979 generators attached follow information to {e states}
    instead of {e transitions}: since [DR] and [reads] of a nonterminal
    transition [(p, A)] depend only on the target state [r = goto(p,A)],
    it is tempting to keep one set [FollowNQ(r)] per state and merge the
    [includes] edges of all transitions sharing a target. The merge loses
    the left context [p], so

    {v LA(q, A→ω)  ⊆  LA_NQ(q, A→ω) v}

    with the inclusion strict on grammars where distinct contexts of the
    same [goto] target need different look-aheads — NQLALR then reports
    conflicts on perfectly LALR(1) grammars. The containment and a
    witness grammar are in the test suite; experiment T5 counts the
    spurious conflicts over the benchmark suite.

    The computation is that merge, applied to the exact relations: the
    [reads] and [includes] graph of {!Lalr_core.Lalr.relations} is
    projected through [goto] onto states, each state is seeded with the
    [DR] of the transitions into it, one {!Lalr_sets.Digraph} run over
    the states yields [FollowNQ], and each reduction's look-ahead is the
    union of [FollowNQ(goto(p,A))] over its exact [lookback]. *)

type t

val compute : Lalr_core.Lalr.relations -> t
(** The NQLALR sets over the given relations. Reductions share the
    relations' numbering. *)

val automaton : t -> Lalr_automaton.Lr0.t

val lookahead : t -> state:int -> prod:int -> Lalr_sets.Bitset.t
(** The NQLALR look-ahead approximation for a reduction of the
    automaton. [Not_found] if the pair is not a reduction. *)
