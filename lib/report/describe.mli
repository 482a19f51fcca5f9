(** Human-readable reports, in the tradition of yacc's [y.output] and
    menhir's [--explain]: per-state item sets, actions, look-ahead sets
    annotated onto reductions, conflicts, and the paper's relations for
    those who want to see [reads]/[includes] on their grammar. *)

val grammar_summary : Format.formatter -> Grammar.t -> unit
(** Counts plus the production listing. *)

val automaton :
  ?lookaheads:Lalr_core.Lalr.t ->
  Format.formatter ->
  Lalr_automaton.Lr0.t ->
  unit
(** All states with items and transitions; when [lookaheads] is given,
    each reduction is annotated with its LALR(1) look-ahead set. *)

val relations : Format.formatter -> Lalr_core.Lalr.t -> unit
(** The DR/reads/includes/Follow tables and the look-ahead sets, plus
    any cycle diagnostics. A reads cycle shows that the grammar is not
    LR(k) for any k only when the grammar is reduced; otherwise the line
    says that this premise fails. *)

val conflicts : Format.formatter -> Lalr_tables.Tables.t -> unit
(** Conflict report with per-state item context. Prints a "no
    conflicts" line when clean. *)

val classification : Format.formatter -> Lalr_tables.Classify.verdict -> unit
(** Multi-line version of {!Lalr_tables.Classify.pp} with the conflict
    counts of every method. *)

val report :
  ?dump_states:bool -> Format.formatter -> Lalr_engine.Engine.t -> unit
(** The whole [lalrgen report] output — summary, relations, conflicts,
    automaton (elided above 60 states unless [dump_states]) — drawn
    from the engine's memoized slots. *)
