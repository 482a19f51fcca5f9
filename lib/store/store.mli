(** The persistent artifact store: a crash-proof on-disk cache of
    engine artifacts, keyed by grammar content.

    The paper's pipeline is naturally staged — DR → reads/Read →
    includes/Follow → lookback/LA — and every stage output is a pure
    function of the grammar, so completed stages are well-defined
    artifacts worth keeping {e across} processes: a fleet re-analysing
    the same grammars (CI, a batch run, a service) should pay for each
    automaton once, ever.

    {2 Contract}

    The store makes exactly two promises, in this order:

    + {b never a silently wrong answer} — an entry is served only if
      its magic number, format/compiler stamp, payload length, payload
      checksum {e and} the rehydrated grammar's content digest all
      match what was written;
    + {b never a failure} — any violation (truncation, bit-flip,
      version skew, unwritable directory, an I/O error mid-read) is
      detected, the file is quarantined (renamed [*.corrupt]), the
      event is counted, and the caller sees an ordinary cache miss.
      Every entry point catches {e all} exceptions: a cache is an
      optional acceleration, never a correctness or availability
      dependency.

    {2 On-disk format}

    One file per grammar under the store directory, named
    [<key>.art] where [<key>] is {!key} (grammar content digest +
    source locations + format stamp, hex MD5):

    {v
    magic   "LALRART1"                         8 bytes
    stamp   u16 length + bytes                 format version + OCaml
                                               version (Marshal is not
                                               stable across compilers)
    sum     MD5 of payload                     16 bytes
    len     u64 big-endian payload length      8 bytes
    payload Marshal of the artifact bundle     len bytes
    v}

    Writes are atomic: a temp file in the same directory, then
    [rename]. A reader never observes a half-written entry.

    Fault-injection sites [store-read] and [store-write]
    ({!Lalr_guard.Faultpoint}) sit inside the catch-alls, so the CI
    matrix can prove the absorption contract. *)

type t

val create : dir:string -> t
(** Opens (creating if needed, like [mkdir -p]) the store directory.
    Raises [Sys_error] if the path exists and is not a directory or
    cannot be created — the only raising entry point, because a store
    the user explicitly asked for ([--cache DIR]) that cannot exist at
    all is a configuration error, not a cache miss. *)

val create_opt : dir:string -> t option
(** Non-raising {!create}: [None] when the directory cannot be
    opened. *)

val dir : t -> string

val small_threshold : float
(** Seconds of compute (1 ms) below which persisting a grammar is not
    worth it: BENCH_pr4 measured warm-cache loads of sub-millisecond
    grammars running slower than recomputation. The skip policy lives
    in [Engine.persist]; the threshold and the counter live here. *)

val skip_small : t -> unit
(** Records that a caller declined to persist a sub-threshold grammar
    (the [skipped_small] stat). *)

val format_version : int
(** Bumped whenever the marshalled artifact types change shape; part
    of the stamp, so entries written by other versions are skewed
    misses, never misreads. *)

val key : Grammar.t -> string
(** The store key: hex MD5 over {!Grammar.digest} (structure), the
    source locations (two structurally equal grammars from different
    files must not share an entry — their diagnostics print different
    positions), and the format stamp. *)

val entry_path : t -> Grammar.t -> string
(** Where this grammar's entry lives (whether or not it exists) —
    exposed for tests and tooling that damage or inspect entries. *)

(** {2 The artifact bundle}

    What one entry holds: any subset of the engine's slot artifacts,
    marshalled {e together} in one value so the aliasing between them
    (relations share the automaton's arrays, [la] shares the relation
    arrays, tables share the automaton) survives the round trip. *)

type bundle = {
  b_grammar : Grammar.t;
      (** the grammar the artifacts belong to; its {!key} must equal
          the entry's, or the entry is treated as corrupt *)
  b_analysis : Analysis.t option;
  b_lr0 : Lalr_automaton.Lr0.t option;
  b_relations : Lalr_core.Lalr.relations option;
  b_follow : Lalr_core.Lalr.follow_sets option;
  b_la : Lalr_core.Lalr.t option;
  b_slr : (Lalr_baselines.Slr.t * Lalr_tables.Tables.conflict_counts) option;
      (** the SLR(1) sets with their conflict-count pass *)
  b_nqlalr : Lalr_baselines.Nqlalr.t option;
  b_propagation : Lalr_baselines.Propagation.t option;
  b_lr1 : Lalr_baselines.Lr1.t option;
  b_tables : Lalr_tables.Tables.t option;
  b_slr_tables : Lalr_tables.Tables.t option;
  b_nqlalr_tables : Lalr_tables.Tables.t option;
  b_classification : Lalr_tables.Classify.verdict option;
  b_classification_lr1 : Lalr_tables.Classify.verdict option;
}

val empty_bundle : Grammar.t -> bundle

val load : t -> Grammar.t -> bundle option
(** [None] is a miss — no entry, or an entry that failed any check and
    was quarantined. Never raises. *)

val save : t -> bundle -> unit
(** Atomically (re)writes the grammar's entry. Failures are counted
    and swallowed. Never raises. *)

(** {2 Observability} *)

type stats = {
  hits : int;  (** loads that served a verified entry *)
  misses : int;  (** loads that found nothing servable *)
  corrupt : int;
      (** quarantine events: truncation, bad magic, version skew,
          checksum or digest mismatch (each also counts as a miss) *)
  writes : int;  (** successful saves *)
  errors : int;  (** absorbed I/O failures (load or save) *)
  skipped_small : int;
      (** persists declined because the grammar computed in under
          {!small_threshold} *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> t -> unit
(** One line, printed by [lalrgen --timings] alongside the engine
    stage table. *)
