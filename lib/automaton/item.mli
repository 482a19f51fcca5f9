(** LR(0) items, densely numbered.

    An item [A → α . β] is a production plus a dot position. Items are
    interned as integers [0 .. n_items-1] in production order, dot
    ascending, so the item for [(prod, dot)] is [first_item(prod) + dot].
    Dense numbering lets item sets be sorted [int array]s and closure
    caches be flat arrays. *)

type table
(** The item numbering for one grammar. *)

val make : Grammar.t -> table

val n_items : table -> int

val encode : table -> prod:int -> dot:int -> int
(** Raises [Invalid_argument] if [dot] exceeds the rhs length. *)

val prod : table -> int -> int
val dot : table -> int -> int

val next_symbol : table -> int -> Symbol.t option
(** The symbol after the dot; [None] for a final item. *)

val next_code : table -> int -> int
(** The symbol after the dot as an int code, allocation-free: terminal
    [t] is [t], nonterminal [n] is [n_terminals + n], and a final item
    is [-1]. Ascending codes are the order of the packed transition
    rows: terminals, then nonterminals. *)

val is_final : table -> int -> bool
(** Dot at the end of the rhs — the item calls for a reduction. *)

val advance : table -> int -> int
(** Item with the dot moved one symbol right. Raises [Invalid_argument]
    on final items. *)

val initial : table -> prod:int -> int
(** The item [A → . ω] for the given production. *)

val pp : table -> Format.formatter -> int -> unit
