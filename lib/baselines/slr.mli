(** SLR(1) look-aheads (DeRemer 1971), the coarsest baseline.

    SLR approximates the look-ahead of every reduction [(q, A → ω)] by
    the context-free [FOLLOW(A)] — ignoring the state [q] entirely. The
    paper's exact sets satisfy [LA(q, A→ω) ⊆ FOLLOW(A)], so SLR accepts
    strictly fewer grammars but costs only the FOLLOW fixpoint. *)

type t

val compute : ?analysis:Analysis.t -> Lalr_automaton.Lr0.t -> t
(** [?analysis] must be the analysis of the automaton's grammar when
    supplied (a memoizing caller passes its cached copy); it is
    recomputed otherwise. *)

val lookahead : t -> state:int -> prod:int -> Lalr_sets.Bitset.t
(** [FOLLOW] of the production's left-hand side. The [state] argument
    is accepted (and ignored) to mirror {!Lalr_core.Lalr.lookahead}. *)

val automaton : t -> Lalr_automaton.Lr0.t
