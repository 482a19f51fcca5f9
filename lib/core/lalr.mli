(** The DeRemer–Pennello LALR(1) look-ahead computation.

    Implements the paper's pipeline on a prebuilt LR(0) automaton:

    + [DR(p,A)] — direct read symbols of each nonterminal transition;
    + [reads] — nullable-nonterminal read edges; [Read] via {!Digraph};
    + [includes] — production-suffix-nullable edges; [Follow] via
      {!Digraph};
    + [lookback] — from reductions to nonterminal transitions;
    + [LA(q, A → ω)] — union of [Follow] over [lookback].

    Nonterminal transitions are indexed by {!Lalr_automaton.Lr0}'s dense
    numbering; reductions (pairs of a state and a production whose final
    item it contains) get their own dense numbering here. *)

module Bitset = Lalr_sets.Bitset
module Csr = Lalr_sets.Csr

type diagnostic =
  | Reads_cycle of int list
      (** A nontrivial cycle in [reads] (members are nonterminal
          transition indices). The paper's Theorem 6.1: the grammar is
          not LR(k) for any k. *)
  | Includes_cycle of int list
      (** A nontrivial cycle in [includes]. The look-ahead sets are
          still computed (members of the SCC share a [Follow] set); the
          grammar may or may not be LR(1). *)

type mem = {
  reads_offsets_words : int;
  reads_cols_words : int;
  includes_offsets_words : int;
  includes_cols_words : int;
  lookback_offsets_words : int;
  lookback_cols_words : int;
  reduction_index_words : int;
}
(** Words held by each packed relation array (CSR [offsets]/[cols] per
    relation, plus the dense per-state reduction index) — the
    memory-footprint half of the data-layout story, reported as the
    [memory] member of [lalrgen stats]; CI checks its CSR shape
    (offsets = rows + 1, cols = edges). *)

type stats = {
  n_nt_transitions : int;
  dr_total : int;  (** Σ |DR(p,A)| *)
  reads_edges : int;
  includes_edges : int;
  lookback_edges : int;
  n_reductions : int;  (** reduction (state, production) pairs *)
  la_total : int;  (** Σ |LA| over all reductions *)
  reads_sccs : int list list;  (** nontrivial SCCs of [reads] *)
  includes_sccs : int list list;
  reads_unions : int;
      (** set unions performed by the [Read] Digraph run *)
  includes_unions : int;
      (** set unions performed by the [Follow] Digraph run *)
  reads_max_depth : int;  (** peak Digraph stack depth, [Read] run *)
  includes_max_depth : int;  (** peak Digraph stack depth, [Follow] run *)
  mem : mem;
}

type t

val compute : Lalr_automaton.Lr0.t -> t
(** Runs the full computation. Cost: two {!Digraph} runs plus one pass
    over the grammar per relation. Equivalent to
    [of_stages r (solve_follow r)] with [r = relations a]. *)

(** {2 Staged construction}

    {!compute} decomposed, so a memoizing pipeline
    ([Lalr_engine.Engine]) can force — and observe — each stage at most
    once per grammar:

    + {!relations} — pure relation construction: [DR], [reads],
      [includes], [lookback] and the dense reduction numbering;
    + {!solve_follow} — the two {!Digraph} fixpoints: [Read] over
      [reads], then [Follow] over [includes];
    + {!of_stages} — the look-ahead union over [lookback], plus
      diagnostics and stats, assembled into a {!t}. *)

type relations = {
  r_automaton : Lalr_automaton.Lr0.t;
  r_analysis : Analysis.t;
  r_dr : Bitset.t array;  (** per nonterminal transition; owned *)
  r_reads : Csr.t;  (** successor transition indices, CSR rows *)
  r_includes : Csr.t;
  r_lookback : Csr.t;  (** reduction index → transitions *)
  r_reduction_pairs : (int * int) array;  (** [(state, production)] *)
  r_reduction_offsets : int array;
      (** dense per-state index: state [q]'s reductions are rows
          [r_reduction_offsets.(q) .. r_reduction_offsets.(q+1) - 1]
          of [r_reduction_pairs] *)
}
(** The paper's four relations over one LR(0) automaton, as a
    first-class value: each relation is two packed int arrays
    ({!Csr.t}), the layout both Digraph fixpoints stream through. All
    arrays are owned by the record (and by any {!t} later assembled
    from it): treat as read-only. *)

val relations : ?analysis:Analysis.t -> Lalr_automaton.Lr0.t -> relations
(** Stage 1. [?analysis] must be the analysis of the automaton's
    grammar when supplied (a memoizing caller passes its cached copy);
    it is recomputed otherwise. *)

val reads_cyclic : relations -> bool
(** [reads] has a cycle: {!diagnostics} would hold a [Reads_cycle].
    O(|nonterminal transitions| + |reads edges|), with no set. *)

val reduction_index : relations -> state:int -> prod:int -> int
(** The reduction number of [(state, prod)], the one {!find_reduction}
    returns. Raises [Not_found] if that state does not reduce that
    production. *)

type follow_sets = {
  f_read : Bitset.t array;
  f_follow : Bitset.t array;
  f_reads_sccs : int list list;  (** nontrivial SCCs found in [reads] *)
  f_includes_sccs : int list list;
  f_reads_digraph : Lalr_sets.Digraph.stats;
      (** full solver profile of the [Read] run (unions, stack depth) *)
  f_includes_digraph : Lalr_sets.Digraph.stats;
}

val solve_follow : relations -> follow_sets
(** Stage 2: the two Digraph runs. *)

val of_stages : relations -> follow_sets -> t
(** Stage 3: cheap relative to the others — one bitset union per
    lookback edge. The resulting {!t} shares the stage arrays. *)

val automaton : t -> Lalr_automaton.Lr0.t
val grammar : t -> Grammar.t
val analysis : t -> Analysis.t

val dr : t -> int -> Bitset.t
(** [DR] of a nonterminal transition index. Owned by [t]; copy before
    mutating (applies to all set accessors below). *)

val read : t -> int -> Bitset.t
val follow : t -> int -> Bitset.t

val reads : t -> int -> int list
(** Successor transition indices under the [reads] relation (a fresh
    list — the boundary conversion from the CSR row). *)

val includes : t -> int -> int list

val reads_csr : t -> Csr.t
(** The packed relations themselves, for zero-copy consumers (bench,
    provenance tooling). Owned by [t]: read-only. *)

val includes_csr : t -> Csr.t
val lookback_csr : t -> Csr.t

(** {2 Reductions and their look-ahead sets} *)

val n_reductions : t -> int

val reduction : t -> int -> int * int
(** [(state, production)] of a reduction index. *)

val find_reduction : t -> state:int -> prod:int -> int
(** Raises [Not_found] if that state does not reduce that production. *)

val lookback : t -> int -> int list
(** Nonterminal transition indices related to a reduction index by
    [lookback]. *)

val la : t -> int -> Bitset.t
(** The look-ahead set of a reduction index. *)

val lookahead : t -> state:int -> prod:int -> Bitset.t
(** Convenience: [la] ∘ [find_reduction]. *)

val diagnostics : t -> diagnostic list
val stats : t -> stats

(** {2 Provenance}

    A static explanation of one look-ahead membership
    [t ∈ LA(q, A → ω)]: the chain

    {v lookback → includes* → reads* → DR v}

    through which the terminal is injected, rendered like a taint path.
    The paths are shortest (BFS over each relation); in an SCC every
    member shares the set, so the exhibited path is one witness among
    possibly many. *)

type trace = {
  t_terminal : int;
  t_reduction : int;  (** reduction index *)
  t_lookback : int;  (** nonterminal transition the chain starts from *)
  t_includes_path : int list;
      (** successive transitions reached via [includes] (excluding
          [t_lookback]); empty if the terminal is already in [Read] *)
  t_reads_path : int list;
      (** successive transitions reached via [reads]; empty if already
          in [DR] *)
  t_dr : int;  (** final transition with [t ∈ DR] *)
}

val trace : t -> state:int -> prod:int -> terminal:int -> trace option
(** [trace t ~state ~prod ~terminal] explains why [terminal] is in the
    look-ahead set of that reduction. [None] if the pair is not a
    reduction or the terminal is not in its look-ahead set. *)

val pp_trace : t -> Format.formatter -> trace -> unit
(** Multi-line rendering of the chain with states and symbol names. *)

val is_lalr1 : t -> bool
(** No LALR(1) conflicts, precedence ignored: in every state,
    reduction look-aheads are pairwise disjoint and disjoint from the
    shiftable terminals. (Accept on [$] in the accept state is not a
    conflict.) One {!Lalr_automaton.Lr0.overlaps} scan; the verdict
    reads the same answer off its conflict count instead. *)

val pp_nt_transition : t -> Format.formatter -> int -> unit
(** [(state, A)]. *)

val pp : Format.formatter -> t -> unit
(** Dump of all relations and look-ahead sets, for debugging and the
    CLI's [--explain] output. *)
