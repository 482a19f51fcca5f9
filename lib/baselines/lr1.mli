(** Canonical LR(1) construction (Knuth 1965) — the exact but expensive
    baseline.

    The canonical collection of LR(1) item sets is built directly, by
    the {!Lalr_automaton.Collection} worklist over LR(1) items; LALR
    look-ahead sets are then recovered by {!merged_lookaheads}, which
    merges states sharing an LR(0) core and unions the look-aheads of
    their final items. The paper proves its sets equal these; the
    cross-check is in the test suite, and the cost difference is bench
    T4. *)

type t

val build : Grammar.t -> t

val closure :
  Grammar.t -> Lalr_automaton.Item.table -> Analysis.t -> n_la:int ->
  int array -> int array
(** [closure g tbl analysis ~n_la kernel] is the LR(1) closure of
    [kernel], unordered. An item [(lr0, la)] is packed as
    [lr0 * n_la + la]; [build] uses [n_la = n_terminals g], and a
    look-ahead [la >= n_terminals g] (yacc's propagation marker, with
    [n_la = n_terminals g + 1]) is never generated, only carried
    through nullable suffixes. *)

val n_states : t -> int

val state_core : t -> int -> int array
(** The LR(0) item set underlying the state's kernel (sorted, in the
    numbering of the {!Lalr_automaton.Item.table} for this grammar). *)

val is_lr1 : t -> bool
(** The grammar is LR(1): no state has a shift/reduce or reduce/reduce
    conflict. *)

val merged_lookaheads :
  t -> Lalr_automaton.Lr0.t -> (int * int, Lalr_sets.Bitset.t) Hashtbl.t
[@@lalr.allow
  D002
    "differential oracle: an automaton of another grammar is a programmer \
     error at a test or self-check call site, not a recoverable condition \
     — Invalid_argument is the whole contract"]
(** Merge by LR(0) core onto the given LR(0) automaton (which must be
    for the same grammar): maps [(lr0_state, production)] to the LALR
    look-ahead set. Every reduction pair of the LR(0) automaton is a
    key. Raises [Invalid_argument] if a core does not correspond to an
    LR(0) state (impossible for the same grammar). *)
