(** Compressed-sparse-row adjacency: one relation, two int arrays.

    The hot-path representation of the paper's [reads]/[includes]/
    [lookback] relations (DESIGN.md §14). A relation over rows
    [0..n-1] is stored as

    - [offsets] of length [n+1]: row [x]'s successors live at indices
      [offsets.(x) .. offsets.(x+1) - 1] of
    - [cols]: all successor indices, rows concatenated.

    Two allocations total, no per-edge boxing, sequential row scans —
    the layout the Digraph traversal streams through. The type is
    [private] so the solver (same library) indexes the arrays
    directly; everyone else uses the accessors and cannot break the
    offsets invariant. *)

type t = private { offsets : int array; cols : int array }

(** {2 Construction} *)

type builder
(** Accumulates edges as two growable parallel int arrays; {!build}
    then lays them out in counted two-pass CSR form. *)

val create_builder : ?edges_hint:int -> ?n_cols:int -> int -> builder
(** [create_builder n] starts an edge list for a relation over rows
    [0..n-1]. [edges_hint] presizes the arrays; [n_cols] bounds the
    destination universe for bipartite relations (such as [lookback]:
    reduction rows, transition columns) — it defaults to [n]. *)

val add : builder -> src:int -> dst:int -> unit
(** Appends one edge. [src] must be in [0..n-1], [dst] in
    [0..n_cols-1]. *)

val build : ?rev:bool -> builder -> t
(** Two-pass counted layout: count row degrees, prefix-sum into
    [offsets], then replay the edge stream into [cols]. Within each
    row, successors keep the stream order — or, with [~rev:true],
    exactly the reverse of it (the order a cons-accumulated list
    would have ended up in, which keeps every downstream iteration
    byte-compatible with the boxed representation it replaces). *)

val of_rows : int list array -> t
(** Each row's successor list, in the order given. *)

(** {2 Access} *)

val n_rows : t -> int
val n_edges : t -> int

val degree : t -> int -> int
(** Successor count of one row. *)

val iter_row : t -> int -> (int -> unit) -> unit
(** Successors of one row, in row order. *)

val fold_row : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val row_list : t -> int -> int list
(** The row as a fresh list (boundary conversion for the list-typed
    public accessors). *)

val edges : t -> (src:int -> dst:int -> unit) -> unit
(** All edges, row by row. *)

(** {2 Memory footprint}

    Words held by each backing array, for [Lalr.stats] and the
    [memory] member of [lalrgen stats]. *)

val offsets_words : t -> int
val cols_words : t -> int
