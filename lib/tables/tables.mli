(** ACTION/GOTO parse tables, conflict detection and resolution.

    A table is built from an LR(0) automaton plus a look-ahead oracle —
    any of the methods in this repository ({!Lalr_core.Lalr} exact sets,
    {!Lalr_baselines.Slr} FOLLOW sets, ...) — so the same machinery
    quantifies how many conflicts each approximation produces (experiment
    T5).

    Conflict resolution follows yacc:
    - shift/reduce with precedence on both sides: higher level wins;
      equal level resolves by associativity (left ⇒ reduce, right ⇒
      shift, nonassoc ⇒ error);
    - shift/reduce without precedence: shift, reported;
    - reduce/reduce: lowest production id, reported. *)

type action =
  | Shift of int
  | Reduce of int
  | Accept
  | Error

type conflict_kind =
  | Shift_reduce of { shift_to : int; reduce : int }
  | Reduce_reduce of { kept : int; dropped : int }

type resolution =
  | By_precedence  (** resolved silently, as yacc does *)
  | By_default  (** unresolved by declarations; counted as a conflict *)

type conflict = {
  state : int;
  terminal : int;
  kind : conflict_kind;
  chosen : action;
  resolution : resolution;
}

type t

val build :
  lookahead:(state:int -> prod:int -> Lalr_sets.Bitset.t) ->
  Lalr_automaton.Lr0.t ->
  t
(** Builds ACTION and GOTO. [lookahead] is queried once per reduction of
    the automaton. ACTION is stored as packed per-state rows of its
    non-error cells plus a hashed (state, terminal) index
    ({!Lalr_sets.Cell_index}), so it costs space in the non-error cells,
    not in [states × terminals]; GOTO is the automaton's own transition
    function. *)

type clash_class = Clean | Reduce_reduce_only | Some_shift_reduce
(** A method's raw conflicts, precedence ignored, as
    {!Lalr_automaton.Lr0.overlaps} gives them: [Clean] is
    [(false, false)] and [Reduce_reduce_only] is [(false, true)]. *)

type conflict_counts = {
  n_sr : int;  (** {!n_shift_reduce} *)
  n_rr : int;  (** {!n_reduce_reduce} *)
  clash : clash_class;  (** of every clash, precedence-settled included *)
}

val count_conflicts :
  lookahead:(state:int -> prod:int -> Lalr_sets.Bitset.t) ->
  Lalr_automaton.Lr0.t ->
  conflict_counts
(** The counts and clash class of the {!conflicts} of the table {!build}
    would make, by the same row resolution over the reducing states,
    without building it: no packed rows, no index, no conflict list.
    One pass gives a method's yacc counts and its verdict
    ([clash = Clean]). [lookahead] is queried once per reduction. *)

val automaton : t -> Lalr_automaton.Lr0.t

val action : t -> state:int -> terminal:int -> action
(** One index probe; [Error] for every cell the row does not store. *)

val iter_actions : t -> int -> (int -> action -> unit) -> unit
(** [iter_actions t s f] calls [f terminal action] for each non-error
    cell of state [s]'s ACTION row, terminals ascending. *)

val goto : t -> state:int -> nonterminal:int -> int option

val conflicts : t -> conflict list
(** All conflicts encountered, including precedence-resolved ones. *)

val unresolved_conflicts : t -> conflict list
(** Conflicts not settled by precedence declarations — what yacc prints
    as "N shift/reduce, M reduce/reduce". *)

val n_shift_reduce : t -> int
val n_reduce_reduce : t -> int
(** Unresolved counts, by kind. *)

val default_reductions : t -> int array
(** [-1], or the production a state may reduce unconditionally: states
    whose every action is the same [Reduce] (no shifts, no accept).
    Standard yacc table compaction; exercised by bench T3 and the
    runtime's [~compact] mode. *)

val pp_conflict : Grammar.t -> Format.formatter -> conflict -> unit
val pp : Format.formatter -> t -> unit
(** Full ACTION/GOTO listing (wide; intended for small grammars). *)
