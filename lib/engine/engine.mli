(** The query engine: one demand-driven, memoizing analysis pipeline
    per grammar.

    The paper's computation is a DAG of derived artifacts —

    {v
    analysis (nullable/FIRST/FOLLOW)
        │
       lr0 ──────────────┬─────────────┬─────────────┐
        │                │             │             │
    relations           slr       propagation       lr1
    (DR/reads/           │                       (canonical)
     includes/           │                           │
     lookback) ──┐       │                           │
        │      nqlalr    │                           │
     follow      │       │                           │
        │        │       │                           │
       la ───────┴───────┴──── classification        │
                                      │              │
                             classification+lr1 ─────┘
    v}

    — plus the ACTION/GOTO slots [tables], [slr_tables] and
    [nqlalr_tables], which hang off [la], [slr] and [nqlalr] and feed
    no other slot — and every consumer (the CLI, the lint passes, the report
    printers, the experiment tables, the benchmarks) needs some
    subtree of it. An [Engine.t] owns that state for one grammar:
    each artifact lives in a {e slot} that is computed on first demand
    and returned from memory ever after, so a process that classifies,
    lints and prints tables for the same grammar builds the LR(0)
    automaton and the relations exactly once.

    {2 Why there is no [invalidate]}

    Slots are force-once by design, not by omission. A {!Grammar.t} is
    immutable, so every artifact here is a pure function of the
    grammar the engine was created with: there is no event that could
    make a forced slot stale. An [invalidate] (or any
    recompute-on-change machinery) would buy nothing and would cost
    the two properties consumers rely on:

    - {b aliasing is safe} — artifacts share substructure (a
      {!Lalr_core.Lalr.t} aliases the arrays of the [relations] slot;
      tables alias the automaton). Invalidation would have to track
      those aliases or risk consumers holding dangling halves of a
      pipeline.
    - {b counters mean something} — [misses] per slot is at most 1, so
      {!stats} doubles as an oracle that no layer recomputes a stage
      behind the engine's back (the lint self-check test asserts
      exactly this).

    To analyse a changed grammar, create a new engine; the old one is
    garbage the moment you drop it. *)

type t

val create :
  ?budget:Lalr_guard.Budget.t ->
  ?analysis:Analysis.t ->
  ?store:Lalr_store.Store.t ->
  Grammar.t ->
  t
(** A fresh engine with every slot unforced. Creation does no work
    beyond an optional store probe. [?analysis] seeds the [analysis]
    slot with a caller-computed value (which must be the analysis of
    [grammar]); the slot then reports as forced with zero misses. The
    grammar is analysed as given — the engine never reduces it
    (callers that lint arbitrary input reduce first; see
    [Lalr_lint.Context]).

    [?budget] bounds every slot computation: each force installs the
    budget for its extent (stage = slot name; algorithms refine it via
    {!Lalr_guard.Budget.with_stage}). The budget is shared across
    slots, so its caps bound the whole pipeline. Without [?budget],
    slot computations run exactly as before — the check points are
    no-ops.

    [?store] consults the persistent artifact store
    ({!Lalr_store.Store}). The engine builds the grammar's
    {!Lalr_store.Store.key} once, here, and probes the entry: a hit
    reads only its verdict frame, which holds the [classification]
    and [classification+lr1] slots. The first force of any other slot
    with no value reads the entry's artifact frame, once, and seeds
    every empty slot from it. A slot answered from the store reports
    as forced with zero misses when the run first reads it, and not
    before, so {!stats} and {!run_partial} name only the slots the run
    read. A missing, stale, or corrupt entry is an ordinary miss —
    slots start empty and {!persist} rewrites the entry; damage found
    in the artifact frame quarantines the entry, and the slots it
    would have seeded are computed. A [?analysis] seed takes
    precedence over the store's copy for the analysis slot. *)

val grammar : t -> Grammar.t
val budget : t -> Lalr_guard.Budget.t option
val store : t -> Lalr_store.Store.t option

val persist : ?force:bool -> t -> unit
(** Writes every forced slot, and every store copy the run did not
    read, to the store as one entry (atomically replacing the
    grammar's entry) under the key {!create} built; a no-op without
    [?store]. Callers run it at exit — including after a budget trip
    or a verdict exit — so the completed prefix of an interrupted
    pipeline still warms the next process. Never raises.

    A run that missed no slot (a pure store hit) computed nothing, so
    it neither writes nor counts a skip. Grammars whose entire
    computation took less than {!Lalr_store.Store.small_threshold} of
    wall time are {e not} persisted (counted as [skipped_small] in the
    store's stats): rehydrating them costs more than recomputing.
    [~force] (default [false]) persists unconditionally — for tests and
    deliberate cache warming. *)

val peek_lr0_states : t -> int option
(** The LR(0) state count if that slot is forced, or else the one a
    forced [classification] verdict carries (a store hit reads no
    automaton), without forcing anything (a probe for reporting
    layers; does not perturb hit/miss counters). *)

(** {2 The failure boundary}

    Budgeted or not, an engine's computations have exactly three
    outcomes: a value, a budget trip, or a broken internal invariant.
    {!run} is the boundary that turns the two exceptional outcomes
    into data; inside it, any slot accessor (or combination) may be
    used freely. *)

type failure =
  | Budget_exceeded of Lalr_guard.Budget.exceeded
      (** a resource cap tripped; the record names the stage, the
          resource, consumed vs. cap, and any partial artifact *)
  | Internal_error of { stage : string; invariant : string }
      (** a broken invariant (the typed replacement for
          [assert false]), or a stack overflow during analysis *)

val run : t -> (t -> 'a) -> ('a, failure) result
(** [run e f] applies [f e], catching {!Lalr_guard.Budget.Exceeded},
    {!Lalr_guard.Budget.Internal_error}, [Stack_overflow],
    [Assert_failure] (a backstop for invariants not yet converted to
    the typed form) and — last — {e any other} exception, which
    becomes an [Internal_error] naming the current stage. Only the
    asynchronous [Out_of_memory] and [Sys.Break] escape. A slot
    interrupted by a failure stays unforced and may be re-forced under
    a fresh engine with looser caps. *)

val pp_failure : Format.formatter -> failure -> unit

(** {2 Partial results}

    Graceful degradation: when a consumer would rather render what
    finished than abort, {!run_partial} pairs the outcome with an
    explicit completeness marker and the list of completed stages.
    There is no way to get a partial value {e without} the marker —
    incomplete output can never masquerade as complete. *)

type completeness =
  | Complete
  | Incomplete of failure
      (** the failure that interrupted the pipeline; the slot it
          interrupted stayed unforced *)

type 'a partial = {
  pr_value : 'a option;
      (** [Some] iff {!pr_completeness} is [Complete] *)
  pr_completeness : completeness;
  pr_completed : string list;
      (** names of the slots that finished (pipeline order) — the
          artifacts a renderer may still draw on via the accessors,
          which are now memory reads for exactly these stages *)
}

val run_partial : t -> (t -> 'a) -> 'a partial
(** {!run}, keeping the completed prefix: on failure the caller gets
    the stage names that finished instead of only the error, and may
    re-enter the engine to render them ([--keep-going]). *)

val pp_completeness : Format.formatter -> completeness -> unit
(** ["complete"], or ["INCOMPLETE (<failure>)"] — loud by design. *)

(** {2 Slots}

    Each accessor forces its slot (and, transitively, the slots it
    depends on) on first call and is a memory read afterwards. All
    returned values are owned by the engine and shared between
    consumers: treat them as read-only. *)

val analysis : t -> Analysis.t
val lr0 : t -> Lalr_automaton.Lr0.t

val relations : t -> Lalr_core.Lalr.relations
(** Stage 1 of {!Lalr_core.Lalr}: DR/reads/includes/lookback. *)

val follow : t -> Lalr_core.Lalr.follow_sets
(** Stage 2: the Read and Follow Digraph fixpoints. *)

val lalr : t -> Lalr_core.Lalr.t
(** Stage 3, the [la] slot: the exact DeRemer–Pennello look-ahead
    sets. Shares the arrays of {!relations} and {!follow}. *)

val slr : t -> Lalr_baselines.Slr.t
(** The FOLLOW-based sets. The slot also holds their conflict count,
    the first pass of {!classification}. *)

val nqlalr : t -> Lalr_baselines.Nqlalr.t
(** The NQLALR sets, projected from the {!relations} slot (paper §7):
    no walk of its own over the grammar. *)

val propagation : t -> Lalr_baselines.Propagation.t
val lr1 : t -> Lalr_baselines.Lr1.t
(** The canonical LR(1) machine — the one genuinely expensive slot.
    {!classification} forces it only under [~with_lr1:true], or when
    the LALR(1) clashes are all reduce/reduce on a grammar of at most
    {!lr1_limit} productions. *)

val tables : t -> Lalr_tables.Tables.t
(** ACTION/GOTO under the exact LALR(1) sets. *)

val slr_tables : t -> Lalr_tables.Tables.t
val nqlalr_tables : t -> Lalr_tables.Tables.t

type method_ = [ `Lalr | `Slr | `Nqlalr ]

val tables_for : t -> method_ -> Lalr_tables.Tables.t
(** The table slot for a look-ahead method ([`Lalr] = {!tables}). *)

val lr1_limit : int
(** Production-count threshold (250) above which {!classification}
    never builds canonical LR(1) by default. Such a grammar whose
    LALR(1) conflicts are all reduce/reduce is reported not LR(1),
    possibly wrongly. *)

val classification : ?with_lr1:bool -> t -> Lalr_tables.Classify.verdict
(** The full hierarchy verdict. It always forces the [classification]
    slot first, returned as it is if the store holds it. Otherwise
    that is {!Lalr_tables.Classify.assemble} over the [slr] slot's
    SLR(1) count, the [nqlalr] and [relations] slots and, only if SLR(1)
    has a clash, the [la] slot: LA ⊆ FOLLOW, so an SLR(1)-clean grammar
    is LALR(1) without the [follow] and [la] slots. No table slot is
    forced. Its [lr1] is exact when [lr1_decided]. Otherwise (on a
    grammar of at most {!lr1_limit} productions), or under
    [~with_lr1:true] (default [false]), it returns the
    [classification+lr1] slot: the store's copy if it holds one, or
    else {!Lalr_tables.Classify.with_lr1} of the first after forcing
    {!lr1}, which differs only in [lr1] and [lr1_states]. A store hit
    therefore reads the verdict frame and nothing else. *)

(** {2 Observability}

    Per-slot instrumentation, surfaced by [lalrgen --timings]. *)

type stage = {
  stage : string;  (** slot name, e.g. ["relations"] *)
  forced : bool;
  misses : int;  (** computations: 0 or 1, by construction *)
  hits : int;  (** memoized reads after the computation *)
  wall : float;  (** seconds spent computing, exclusive of deps *)
}

val stats : t -> stage list
(** All slots in pipeline order, forced or not. The [wall] of a slot
    excludes the time of the slots it depends on — dependencies are
    forced before its timer starts — so the values sum to the real
    total. *)

val find_stage : t -> string -> stage
(** Raises [Not_found] for an unknown stage name. *)

val total_wall : t -> float
(** Σ [wall] over all slots. *)

val pp_stats : Format.formatter -> t -> unit
(** The [--timings] rendering: one line per forced slot (unforced
    slots are elided), then the total. *)
