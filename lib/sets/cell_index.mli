(** Point lookups into a sparse matrix stored as packed rows.

    The LR(0) transition rows and the ACTION rows are both laid out
    like {!Csr}: row [r]'s occupied cells are the columns
    [cols.(i)] for [i] in [offsets.(r) .. offsets.(r+1) - 1]. Row scans
    walk those arrays directly; this index answers the other access,
    "where is cell [(r, c)] stored, if anywhere?", in O(1) expected
    time with memory proportional to the occupied cells — never to
    [rows × columns] (DESIGN.md §14).

    It is an open-addressed hash table over the int key
    [r * n_cols + c], multiplicative hashing and linear probing at a
    load factor of at most 3/4, keys and positions interleaved in one
    int array so a hit touches one cache line. Built once, read-only
    afterwards. *)

type t

val of_rows : n_cols:int -> offsets:int array -> cols:int array -> t
(** [of_rows ~n_cols ~offsets ~cols] indexes every cell of the packed
    rows: cell [(r, cols.(i))] maps to position [i]. [cols] may run
    past the last row's end; the tail is ignored. Raises
    [Invalid_argument] if a column is outside [0 .. n_cols-1] or occurs
    twice in one row. *)

val find : t -> row:int -> col:int -> int
(** The position of cell [(row, col)], or [-1] when the cell is not
    stored, including any [row] or [col] out of range. *)
