(** Grammar classification in the LR hierarchy.

    Reports where a grammar falls in LR(0) ⊂ SLR(1) ⊂ LALR(1) ⊂ LR(1),
    together with the paper's diagnostics (a [reads] cycle proves the
    grammar is not LR(k) for any k), from artifacts computed elsewhere.
    The memoizing engine ([Lalr_engine.Engine.classification]) is the
    one place that wires them; it powers experiment T5 and the CLI's
    [classify] command. *)

type verdict = {
  lr0 : bool;
  slr1 : bool;
  lalr1 : bool;
  lr1 : bool;
  lr1_decided : bool;
      (** the LALR(1) clashes decide [lr1]: none means LR(1), and a
          shift/reduce one survives the core merge, so means not.
          [false] when all are reduce/reduce, which the merge can
          create; then only {!with_lr1} makes [lr1] exact. *)
  nqlalr1 : bool;
      (** conflict-free under the NQLALR approximation; [lalr1 &&
          not nqlalr1] exhibits the paper's §7 complaint *)
  not_lr_k : bool;
      (** a [reads] cycle exists and the grammar is reduced, so it is
          not LR(k) for any k; a grammar that is not reduced may have
          a reads cycle and still be SLR(1), and never sets this *)
  lr0_states : int;
  lr1_states : int;  (** [0] unless {!with_lr1} refined the verdict *)
  lalr_sr_conflicts : int;  (** unresolved, under exact LALR(1) sets *)
  lalr_rr_conflicts : int;
  slr_sr_conflicts : int;
  slr_rr_conflicts : int;
  nq_sr_conflicts : int;
  nq_rr_conflicts : int;
}
(** The booleans ignore precedence and the counts honour it, as yacc
    does: if precedence settles every clash, a grammar is not LALR(1)
    yet has no LALR(1) conflicts. *)

val assemble :
  ?lalr:Lalr_core.Lalr.t ->
  slr:Tables.conflict_counts ->
  nqlalr:Lalr_baselines.Nqlalr.t ->
  Lalr_core.Lalr.relations ->
  verdict
(** Builds a verdict from precomputed artifacts, all for the automaton
    of the relations. [slr] is the SLR(1) {!Tables.count_conflicts}
    pass; one more per other method gives its counts and, by its clash
    class, its boolean. Without [?lalr], allowed only when [slr] found
    no clash (else a {!Lalr_guard.Budget.broken_invariant}), LALR(1)'s
    counts are SLR(1)'s zeros: LA(q, A→ω) ⊆ FOLLOW(A). [lr0] is the
    automaton's shape ({!Lalr_automaton.Lr0.n_conflict_free_lr0}),
    [not_lr_k] is {!Lalr_core.Lalr.reads_cyclic} on a reduced grammar
    (false otherwise: the theorem behind it needs one), [lr1] is [lalr1] and
    [lr1_states] is [0]. *)

val with_lr1 : verdict -> Lalr_baselines.Lr1.t -> verdict
(** Refines a verdict by the grammar's canonical LR(1) machine: sets
    [lr1] and [lr1_states], recounts nothing. *)

val pp : Format.formatter -> verdict -> unit
(** One-line summary, e.g. ["LALR(1) (not SLR(1)); LR(0) states 131"],
    with [", LR(1) states N"] appended when the canonical machine was
    built ([lr1_states > 0]). *)
