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

    + {b never a silently wrong answer} — a frame is served only if
      the entry's magic number and format/compiler stamp, the frame's
      length and checksum, {e and} its key all match what was
      written: the verdict frame carries the key it was written
      under, and the artifact frame's rehydrated grammar is re-keyed;
    + {b never a failure} — any violation (truncation, bit-flip,
      version skew, unwritable directory, an I/O error mid-read) is
      detected, the file is quarantined (renamed [*.corrupt]), the
      event is counted, and the caller sees an ordinary cache miss
      (or, for the artifact frame, slots it recomputes).
      Every entry point catches {e all} exceptions: a cache is an
      optional acceleration, never a correctness or availability
      dependency.

    {2 On-disk format}

    One file per grammar under the store directory, named
    [<key>.art] where [<key>] is {!key} (grammar structure + source
    locations + format stamp, hex MD5):

    {v
    magic    "LALRART1"                        8 bytes
    stamp    u16 length + bytes                format version + OCaml
                                               version (Marshal is not
                                               stable across compilers)
    verdict frame                              about 100 bytes
      len      u64 big-endian payload length   8 bytes
      sum      MD5 of payload                  16 bytes
      payload  Marshal of (key, verdicts)      len bytes
    artifact frame                             the rest of the file
      len      u64 big-endian payload length   8 bytes
      sum      MD5 of payload                  16 bytes
      payload  Marshal of the artifacts        len bytes
    v}

    A hit ({!probe}) reads the header and the verdict frame only; the
    artifact frame is read when a caller asks for it ({!artifacts}).
    Damage in either frame is found where that frame is read, and
    quarantines the whole file. Writes are atomic: a temp file in the
    same directory, then [rename]. A reader never observes a
    half-written entry.

    Fault-injection sites [store-read] and [store-write]
    ({!Lalr_guard.Faultpoint}) sit inside the catch-alls, so the CI
    matrix can prove the absorption contract. [store-read] covers
    whichever frame is read. *)

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
(** Bumped whenever the entry layout or a marshalled type changes
    shape; part of the stamp, so entries written by other versions are
    skewed misses, never misreads. *)

val key : Grammar.t -> string
(** The store key: hex MD5 over one binary buffer holding
    {!Grammar.add_structure}, the source locations in the same
    conventions (two structurally equal grammars from different files
    must not share an entry — their diagnostics print different
    positions) and the format stamp. [Engine.create] builds it once per
    engine. *)

val entry_path : t -> Grammar.t -> string
(** Where this grammar's entry lives (whether or not it exists) —
    exposed for tests and tooling that damage or inspect entries. *)

(** {2 The two frames}

    What one entry holds: any subset of the engine's slot artifacts.
    The verdicts are a frame of their own, so a hit that only needs
    the verdict reads a hundred bytes. The artifacts are marshalled
    {e together} in one value so the aliasing between them (relations
    share the automaton's arrays, [la] shares the relation arrays,
    tables share the automaton) survives the round trip. *)

type verdicts = {
  v_classification : Lalr_tables.Classify.verdict option;
  v_classification_lr1 : Lalr_tables.Classify.verdict option;
}

type artifacts = {
  a_grammar : Grammar.t;
      (** the grammar the artifacts belong to; its {!key} must equal
          the entry's, or the entry is treated as corrupt *)
  a_analysis : Analysis.t option;
  a_lr0 : Lalr_automaton.Lr0.t option;
  a_relations : Lalr_core.Lalr.relations option;
  a_follow : Lalr_core.Lalr.follow_sets option;
  a_la : Lalr_core.Lalr.t option;
  a_slr : (Lalr_baselines.Slr.t * Lalr_tables.Tables.conflict_counts) option;
      (** the SLR(1) sets with their conflict-count pass *)
  a_nqlalr : Lalr_baselines.Nqlalr.t option;
  a_propagation : Lalr_baselines.Propagation.t option;
  a_lr1 : Lalr_baselines.Lr1.t option;
  a_tables : Lalr_tables.Tables.t option;
  a_slr_tables : Lalr_tables.Tables.t option;
  a_nqlalr_tables : Lalr_tables.Tables.t option;
}

type entry
(** An entry whose header and verdict frame passed every check. *)

val probe : t -> key:string -> entry option
(** Reads the header and the verdict frame of the entry stored under
    [key] (which must be {!key} of the grammar). Counts one hit, or
    one miss: no entry, or one that failed a check and was
    quarantined. Never raises. *)

val verdicts : entry -> verdicts

val artifacts : entry -> artifacts option
(** Reads the entry's artifact frame (counted in [artifact_reads]).
    [None] when the file is gone, or failed a check and was
    quarantined (counted in [corrupt]), or could not be read (counted
    in [errors]); the probe's hit stands, and the caller recomputes
    what it needs. Never raises. *)

val save : t -> key:string -> verdicts -> artifacts -> unit
(** Atomically (re)writes the entry under [key]. Failures are counted
    and swallowed. Never raises. *)

(** {2 Observability} *)

type stats = {
  hits : int;  (** probes that served a verified verdict frame *)
  misses : int;  (** probes that found nothing servable *)
  corrupt : int;
      (** quarantine events: truncation, bad magic, version skew,
          checksum or key mismatch, in either frame (one in the
          verdict frame also counts as a miss) *)
  writes : int;  (** successful saves *)
  errors : int;  (** absorbed I/O failures (reads or saves) *)
  skipped_small : int;
      (** persists declined because the grammar computed in under
          {!small_threshold} *)
  artifact_reads : int;  (** artifact frames read and verified *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> t -> unit
(** One line, printed by [lalrgen --timings] alongside the engine
    stage table. *)
