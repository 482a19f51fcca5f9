(** Structured tracing: spans and instants.

    A trace answers {e where the time went} in one run: a tree of
    timed spans (engine stages, Digraph solves, store I/O, serve
    requests) and point events carrying attributes (a faultpoint
    firing, a store quarantine, the fuel a budgeted stage burned, the
    daemon's final health counts). It keeps no counters, gauges or
    histograms. Each number has exactly one home elsewhere: structural
    quantities (relation sizes, set unions, SCCs, packed-array words)
    in [Lr0.size_report], [Lalr.stats] and [Digraph.stats]; per-object
    traffic in [Engine.stats] and [Store.stats]; daemon counters in
    {!Metrics}.

    {2 The disarmed-cost contract}

    Tracing is ambient and off by default, following the
    {!Lalr_guard.Faultpoint} pattern: every probe ({!with_span},
    {!instant}) starts with a single read of one domain-local cell and
    returns immediately when no session is armed. No allocation, no
    closure evaluation, no clock read. Attribute thunks are only
    called while a session is armed. Instrumented code therefore stays
    in the hot path unconditionally; [bench/main.exe -- trace]
    measures the armed and disarmed costs.

    {2 Sessions}

    {!start} arms one per-domain session; {!finish} closes any spans
    still open and disarms it. Probes fired while no session is armed
    are lost by design. The clock is injectable so tests produce
    byte-deterministic output; the default is [Unix.gettimeofday]
    (best available without extra dependencies — used only for
    intra-process durations, never compared across processes).

    {2 Sinks}

    One recording serves two formats:
    - {!Chrome}: trace-event JSON ([{"traceEvents":[...]}]), loadable
      in Perfetto / [chrome://tracing]; spans as B/E pairs, instants
      as i events.
    - {!Jsonl}: one JSON object per line — span [begin]/[end] and
      [instant] events, in recording order. *)

type value = Int of int | Float of float | Str of string | Bool of bool
type attr = string * value

type format = Chrome | Jsonl

val format_of_name : string -> format option
(** ["chrome"] or ["jsonl"]. *)

val format_name : format -> string

val infer_format : string -> format
(** From a file name: [.jsonl] → Jsonl, anything else (canonically
    [.json]) → Chrome. *)

type session

val default_clock : unit -> float
(** [Unix.gettimeofday], in seconds. *)

val start : ?clock:(unit -> float) -> unit -> session
(** Arms the calling domain's session (replacing any armed one). All
    probes on this domain record into it until {!finish}; each domain
    has its own session slot (the serve model: one session per
    worker). *)

val finish : session -> unit
(** Emits End events for spans still open (in LIFO order), then
    disarms the session if it is the armed one. Idempotent. *)

val active : unit -> session option
val enabled : unit -> bool

(** {2 Probes} — each is one domain-local read when no session is
    armed. *)

val with_span : ?attrs:(unit -> attr list) -> string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a named span. Nesting is the dynamic call
    nesting; the End event is emitted even when the thunk raises. *)

val instant : ?attrs:(unit -> attr list) -> string -> unit
(** A point event (e.g. a faultpoint firing, a store quarantine). *)

(** {2 Reading a session back} *)

val n_events : session -> int
(** Recorded event count (span begins/ends and instants) — 0 proves a
    code path emitted nothing. *)

val write : session -> format -> out_channel -> unit
(** Renders the session in the given format. Call after {!finish} (an
    unfinished session may have unbalanced spans in Chrome output). *)

val to_string : session -> format -> string

val json_escape : string -> string
(** Shared JSON string escaping (also used by the CLI emitters). *)
