(** The LR(0) automaton (canonical collection of sets of LR(0) items).

    This is the machine the paper's look-ahead computation runs over: the
    DeRemer–Pennello relations are defined on its states and nonterminal
    transitions, so besides the usual states/goto the interface exposes a
    dense numbering of nonterminal transitions (the pairs [(p, A)] the
    paper writes) and rhs walks ([traverse]).

    States are numbered from 0 (the initial state). Construction is the
    {!Collection} worklist over LR(0) items: a state is identified by
    its sorted kernel item set; closures are computed once per state
    and kept. *)

type state = {
  id : int;
  kernel : int array;  (** sorted item ids *)
  items : int array;  (** closure, sorted; kernel ⊆ items *)
  accessing : Symbol.t option;
      (** The symbol every in-edge of this state is labelled with ([None]
          only for state 0). A standard LR(0) invariant. *)
}

type t

val build : Grammar.t -> t
(** Builds the canonical collection. The grammar must be reduced
    (unproductive parts would create dead states); this is not checked
    here — use {!Transform.reduce} first if unsure. *)

val grammar : t -> Grammar.t
val items : t -> Item.table
val n_states : t -> int
val state : t -> int -> state

val goto : t -> int -> Symbol.t -> int option
(** The transition function δ(state, symbol): one probe of a hashed
    (state, symbol) index over the packed transition rows — the
    automaton stores no |states| × |symbols| array (DESIGN.md §14). *)

val goto_exn : t -> int -> Symbol.t -> int

val transitions : t -> int -> (Symbol.t * int) list
(** Out-edges of a state, terminals first, ascending ids. *)

val iter_t_transitions : t -> int -> (int -> int -> unit) -> unit
(** [iter_t_transitions a s f] calls [f terminal target] for each
    outgoing terminal edge of state [s], terminal ids ascending — an
    allocation-free scan of the packed transition row, for hot paths
    that would otherwise build the {!transitions} list. *)

val iter_n_transitions : t -> int -> (int -> int -> unit) -> unit
(** Nonterminal counterpart of {!iter_t_transitions}. *)

val reductions : t -> int -> int list
(** Production ids of final items in the state's closure, ascending.
    Production 0's final item is never included: reaching it means
    accept, and its "look-ahead" needs no computation (paper's
    convention — [S' → S $] is handled by the accept action on [$]). *)

val traverse : t -> int -> Symbol.t array -> from:int -> int
(** [traverse a p rhs ~from] follows transitions from state [p] along
    [rhs.(from..)]. Raises [Invalid_argument] if a transition is missing
    (cannot happen for a rhs suffix of an item present in [p]). *)

(** {2 Nonterminal transitions}

    The paper's set equations are indexed by nonterminal transitions
    [(p, A)]; they get a dense numbering [0 .. n_nt_transitions-1],
    row-major in [(p, A)]: a transition's number is its position in
    the packed nonterminal rows. *)

val n_nt_transitions : t -> int
val nt_transition : t -> int -> int * int
(** [nt_transition a x] is the pair [(state, nonterminal)] of
    transition [x]. *)

val nt_transition_target : t -> int -> int
(** The state reached, i.e. [goto_exn a p (N a')]. *)

val find_nt_transition : t -> int -> int -> int
(** [find_nt_transition a p nt] is the transition index for [(p, nt)].
    Raises [Not_found] if state [p] has no transition on [nt]. *)

val accept_state : t -> int
(** The state reached from state 0 on the user start symbol — the state
    whose [$]-transition is the accept action. *)

val overlaps :
  t -> lookahead:(state:int -> prod:int -> Lalr_sets.Bitset.t) -> bool * bool
(** The raw conflicts under the given look-ahead sets, precedence
    ignored, as two flags: some reduction's look-ahead meets a terminal
    its state shifts ([$] out of the accept state included), and two
    reductions of one state have overlapping look-aheads. The reference
    scan ({!Collection.overlaps}) behind [Lalr_core.Lalr.is_lalr1]. *)

val n_conflict_free_lr0 : t -> bool
(** True iff the grammar is LR(0): no state has both a reduction and a
    shift, nor two reductions — a shape check, equal to {!overlaps}
    with every terminal as the look-ahead of every reduction. *)

val size_report : t -> int * int * int
(** (states, total kernel items, total transitions) — the T1 columns. *)

val pp_state : t -> Format.formatter -> int -> unit
(** Multi-line dump of one state: items, then transitions. *)
