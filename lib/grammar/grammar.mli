(** Context-free grammars, augmented and interned.

    Construction (via {!make} or the {!Builder} front ends) always
    augments the user grammar with

    {v production 0:   S' → start $ v}

    following the paper's convention: the end marker appears as an
    ordinary terminal transition out of the state reached on the start
    symbol, so [$] enters the look-ahead computation through [DR] with no
    special cases. *)

type assoc = Left | Right | Nonassoc

type loc = { file : string; line : int }
(** A source position. [line = 0] marks a synthetic location (grammars
    built in code — the suite, random generation — rather than read from
    a file); [file] then holds ["<name>"]. *)

val synthetic_loc : string -> loc
(** [synthetic_loc name] is [{ file = "<name>"; line = 0 }]. *)

val is_synthetic : loc -> bool

val pp_loc : Format.formatter -> loc -> unit
(** [file:line], or just [file] when synthetic. *)

type locinfo = {
  li_source : string;  (** file name shown in locations *)
  li_rules : int list;  (** line per rule, aligned with [~rules] *)
  li_tokens : (string * int) list;  (** line per declared terminal *)
  li_prec : int list;  (** line per precedence level, aligned with [?prec] *)
}
(** Side-channel for {!make}: source lines collected by a reader.
    Missing entries (or lines [<= 0]) fall back to synthetic. *)

type locations = {
  source : string;
  prod_locs : loc array;  (** per production id; index 0 is synthetic *)
  term_locs : loc array;  (** per terminal id; index 0 is synthetic *)
  prec_locs : loc array;  (** per precedence level, index [level-1] *)
}

type production = {
  id : int;
  lhs : int;  (** nonterminal id *)
  rhs : Symbol.t array;
  prec : (int * assoc) option;
      (** Precedence level used for conflict resolution: that of the
          rightmost terminal with declared precedence, unless overridden
          at construction time ([%prec]). *)
}

type t = private {
  name : string;
  terminal_names : string array;  (** index 0 is ["$"] *)
  nonterminal_names : string array;  (** index 0 is the augmented start *)
  productions : production array;  (** index 0 is [S' → start $] *)
  by_lhs : int array array;
      (** [by_lhs.(a)] lists ids of productions with lhs [a], ascending. *)
  start : int;  (** the user's start nonterminal id *)
  terminal_prec : (int * assoc) option array;
  locs : locations;
}

val make :
  ?name:string ->
  ?prec:(assoc * string list) list ->
  ?locs:locinfo ->
  terminals:string list ->
  start:string ->
  rules:(string * string list * string option) list ->
  unit ->
  t
(** [make ~terminals ~start ~rules ()] builds and augments a grammar.

    Nonterminals are the left-hand sides occurring in [rules]; any
    right-hand-side name that is neither a declared terminal nor a
    left-hand side is an error. Each rule is
    [(lhs, rhs_names, prec_override)] where [prec_override] names a
    terminal whose precedence the production inherits ([%prec]).
    [prec] lists precedence declarations from lowest to highest level,
    as in yacc's [%left]/[%right]/[%nonassoc].

    Raises [Invalid_argument] on: unknown symbols, duplicate terminal
    declarations, a terminal named ["$"] or used as an lhs, an unknown
    [start], or an empty rule set. *)

val n_terminals : t -> int
val n_nonterminals : t -> int
val n_productions : t -> int

val terminal_name : t -> int -> string
val nonterminal_name : t -> int -> string
val symbol_name : t -> Symbol.t -> string

val production : t -> int -> production
val productions_of : t -> int -> int array
(** Production ids with the given lhs. *)

val find_terminal : t -> string -> int option
val find_nonterminal : t -> string -> int option
val find_symbol : t -> string -> Symbol.t option

val rhs_length : t -> int -> int

(** {2 Source locations} *)

val source : t -> string
(** The file the grammar was read from, or ["<name>"] when synthetic. *)

val production_loc : t -> int -> loc
val terminal_loc : t -> int -> loc

val prec_level_loc : t -> int -> loc
(** Location of the declaration line of a precedence {e level} (as
    stored in [terminal_prec], levels start at 1). Synthetic when out of
    range. *)

val nonterminal_loc : t -> int -> loc
(** Location of the nonterminal's first (user) production; synthetic
    for the augmented start. *)

val symbols_count : t -> int
(** Total grammar size |G| = Σ (1 + |rhs|) over all productions — the
    size measure used in the paper's complexity discussion. *)

val pp_production : t -> Format.formatter -> production -> unit
(** [lhs → x y z] using symbol names; empty rhs prints [ε]. *)

val pp_item : t -> Format.formatter -> int -> int -> unit
(** [pp_item g ppf prod dot] prints the dotted production
    [lhs → x . y z]. *)

val pp : Format.formatter -> t -> unit
(** Full listing: terminals, precedences, productions. *)

val equal_structure : t -> t -> bool
(** Same symbol tables and productions (ignores [name]). *)

val digest : t -> string
(** A 32-character hex content digest of the grammar's structure:
    symbol tables, productions and precedence declarations. Excludes
    [name] and source locations, so structurally equal grammars —
    including a grammar rehydrated from the artifact store
    ({!Lalr_store.Store}) — digest identically:
    [equal_structure a b] implies [digest a = digest b]. Caches keyed
    by this digest (the store, the counterexample yield memo) therefore
    survive rehydration, which physical-equality keys do not. *)

val add_structure : Buffer.t -> t -> unit
(** Appends the bytes {!digest} hashes: a binary encoding of the
    structure that is injective and delimits itself (4-byte ints,
    length-prefixed strings and arrays, packed symbols, tagged
    precedences), so a caller may append more fields to the same buffer
    and hash it once ({!Lalr_store.Store.key} does). *)
