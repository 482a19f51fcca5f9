(** Grammar classification in the LR hierarchy.

    Runs the whole tool-chest over one grammar and reports where it
    falls in LR(0) ⊂ SLR(1) ⊂ LALR(1) ⊂ LR(1), together with the
    paper's diagnostics (a [reads] cycle proves the grammar is not LR(k)
    for any k). This powers experiment T5 and the CLI's [classify]
    command. *)

type verdict = {
  lr0 : bool;
  slr1 : bool;
  lalr1 : bool;
  lr1 : bool;
  nqlalr1 : bool;
      (** conflict-free under the NQLALR approximation; [lalr1 &&
          not nqlalr1] exhibits the paper's §7 complaint *)
  not_lr_k : bool;  (** a [reads] cycle exists: not LR(k) for any k *)
  lr0_states : int;
  lr1_states : int;
  lalr_sr_conflicts : int;  (** unresolved, under exact LALR(1) sets *)
  lalr_rr_conflicts : int;
  slr_sr_conflicts : int;
  slr_rr_conflicts : int;
  nq_sr_conflicts : int;
  nq_rr_conflicts : int;
}

val assemble :
  lalr:Lalr_core.Lalr.t ->
  slr:Lalr_baselines.Slr.t ->
  nqlalr:Lalr_baselines.Nqlalr.t ->
  lr1:Lalr_baselines.Lr1.t option ->
  Lalr_automaton.Lr0.t ->
  verdict
(** Builds a verdict from precomputed artifacts (all for the same
    grammar and LR(0) automaton). [lr1 = None] behaves like
    {!classify_no_lr1}. The conflict counts come from
    {!Tables.count_conflicts}, so no table is built. This is how the
    memoizing engine classifies without recomputing any layer;
    {!classify}/{!classify_no_lr1} are the from-scratch wrappers. *)

val classify : Grammar.t -> verdict
(** Builds the LR(0) and LR(1) automata and all look-ahead variants.
    Expensive on large grammars (canonical LR(1) dominates). *)

val classify_no_lr1 : Grammar.t -> verdict
(** Same but skips the canonical LR(1) construction: [lr1] is reported
    as [lalr1] and [lr1_states] is [0]. That [lr1] is exact whenever
    {!Lalr_core.Lalr.is_lr1} decides, that is unless every LALR(1)
    conflict is reduce/reduce; then the grammar may be LR(1) after
    all. *)

val pp : Format.formatter -> verdict -> unit
(** One-line summary, e.g. ["LALR(1) (not SLR(1)); LR(0) states 131"],
    with [", LR(1) states N"] appended when the canonical machine was
    built ([lr1_states > 0]). *)
