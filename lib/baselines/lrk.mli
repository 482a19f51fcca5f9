(** Canonical LR(k) construction — the reference implementation the
    LALR(k) extension is validated against.

    Direct generalisation of {!Lr1}, built by the same
    {!Lalr_automaton.Collection} worklist: items carry a ≤k-string of
    look-ahead terminals; closure concatenates FIRSTk of the suffix with
    the item's string. State counts explode quickly in [k] — this
    exists for cross-validation on small grammars, not for production
    use (that is the whole point of the paper). *)

module Kstring = Lalr_sets.Kstring

type t

val build : k:int -> Grammar.t -> t
(** Raises [Invalid_argument] when [k < 1]. *)

val build_opt : k:int -> Grammar.t -> t option
(** Non-raising {!build}: [None] when [k < 1]. *)

val n_states : t -> int

val merged_lookaheads :
  t -> Lalr_automaton.Lr0.t -> (int * int, Kstring.Set.t) Hashtbl.t
(** Merge states by LR(0) core onto the given automaton (same grammar):
    maps every reduction pair [(lr0_state, production)] to the union of
    the final items' look-ahead strings — the LALR(k) sets by
    definition. Cross-validated against {!Lalr_core.Lalr_k} in the test
    suite. *)
