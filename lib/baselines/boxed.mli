(** The boxed data layout the PR 7 refactor replaced, kept verbatim.

    A frozen copy of {!Lalr_core.Lalr}'s pre-CSR hot path: relations as
    [int list array]s plus a [Hashtbl] reduction index, a DR scan over
    the allocated {!Lalr_automaton.Lr0.transitions} lists, and the
    Digraph fixpoint walking cons lists with an [option]-boxed value
    arena. It exists for two consumers:

    - the [layout] bench stage, whose baseline arm must measure the old
      representation doing exactly the old work;
    - the byte-identity test, which pins the refactored engine's
      [Read]/[Follow]/[LA] sets and relation rows to this reference on
      every suite grammar.

    Deliberately untraced and unbudgeted — a pure reference
    implementation, not a production code path. *)

type relations

val relations : ?analysis:Analysis.t -> Lalr_automaton.Lr0.t -> relations
(** Boxed stage 1: [DR], [reads], [includes], [lookback] and the
    hashtable reduction numbering, with the original list orders
    ([reads]/[lookback] reverse-insertion, [includes] insertion). *)

type follow_sets

val solve_follow : relations -> follow_sets
(** Boxed stage 2: the two list-walking Digraph runs. *)

type t

val of_stages : relations -> follow_sets -> t
(** Boxed stage 3: the look-ahead union over [lookback]. *)

val compute : Lalr_automaton.Lr0.t -> t

val automaton : t -> Lalr_automaton.Lr0.t
val n_nt_transitions : t -> int
val dr : t -> int -> Lalr_sets.Bitset.t
val read : t -> int -> Lalr_sets.Bitset.t
val follow : t -> int -> Lalr_sets.Bitset.t

val reads : t -> int -> int list
(** Successor rows in their original boxed order — the order the CSR
    rows must reproduce byte for byte. *)

val includes : t -> int -> int list
val n_reductions : t -> int
val reduction : t -> int -> int * int
val lookback : t -> int -> int list
val la : t -> int -> Lalr_sets.Bitset.t
