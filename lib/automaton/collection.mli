(** The canonical-collection construction, once for every item kind.

    LR(0), canonical LR(1) and LR(k) automata are all the same
    closure/goto worklist over different items (DESIGN.md §5): start
    from the kernel of the initial item, close each state, group its
    closure by the symbol after the dot, advance each group to a
    successor kernel, and intern kernels so equal ones are one state.
    This module owns that loop; an instance supplies only a closure,
    the item's LR(0) core and an advance. Items are ints: an instance
    packs whatever it pairs with an LR(0) item (a look-ahead, a
    k-string number) into one.

    States are numbered in discovery order. A state's successors are
    interned in reverse order of their symbol's first appearance in
    the sorted closure — the order {!Lr0}'s numbering was pinned to.
    The transitions come out as packed rows (DESIGN.md §14): terminals
    ascending, then nonterminals ascending, state by state. *)

type t = private {
  kernels : int array array;  (** sorted, one per state *)
  closures : int array array;  (** sorted; kernel ⊆ closure *)
  t_offsets : int array;
      (** state [s]'s terminal edges are [(t_syms.(i), t_tgts.(i))]
          for [i] in [t_offsets.(s) .. t_offsets.(s+1) - 1] *)
  t_syms : int array;
  t_tgts : int array;
  n_offsets : int array;  (** likewise for nonterminal edges *)
  n_syms : int array;
  n_tgts : int array;
}

val build :
  Grammar.t ->
  Item.table ->
  name:string ->
  core:(int -> int) ->
  advance:(int -> int) ->
  closure:(int array -> int array) ->
  int ->
  t
(** [build g tbl ~name ~core ~advance ~closure initial] is the
    collection reached from the kernel [[| initial |]]. [core i] is
    the LR(0) item (in [tbl]) underlying [i], whose next symbol labels
    [i]'s transition; [advance] moves the dot one symbol right and
    must be strictly increasing, so that a successor kernel filled from
    a sorted closure is sorted; [closure] returns the closure of a
    kernel in any order, as a fresh array the collection keeps.

    Each interned state counts against the ambient budget's states cap,
    and each closure burns fuel and counts its items; a trip reports
    ["N <name> states constructed"]. *)

val n_states : t -> int

val overlaps :
  t -> n_term:int -> lookaheads:(int -> Lalr_sets.Bitset.t list) ->
  bool * bool
(** The raw conflicts of a collection whose states reduce with the
    given look-ahead sets ([lookaheads s], one per reduction of state
    [s]): whether some set meets a terminal its state shifts, and
    whether two sets of one state meet. The reference conflict scan
    behind [Lalr.is_lalr1], [Lr1.is_lr1] and the tests. *)
