(** Sharded, mergeable live metrics — the scrapeable half of the
    observability layer (DESIGN.md §17).

    {!Trace} records {e per-run} sessions flushed to files at exit;
    a long-running daemon needs {e live} telemetry it can answer
    queries from while serving. This module provides it: a registry of
    monotone counters, gauges and fixed-boundary latency histograms,
    sharded so that each writer domain updates its own shard without
    taking a lock on the hot path, with an associative merge applied
    only at scrape time.

    {2 Shards and the locking contract}

    A {!shard} is a hash table of cells guarded by a mutex, where each
    cell's value is an [Atomic]. The mutex is held only to {e add} a
    cell (first use of a (name, labels) pair) and to iterate for a
    {!snapshot_of_shard}; updating an existing cell is a lock-free
    atomic op. The probe fast path reads the table {e without} the
    mutex, which is sound only under the single-writer discipline:

    - a shard owned by one domain (the serve workers) may register
      cells lazily — only the owner adds, and both adds and scrape
      iteration hold the mutex;
    - a shard written by several sys-threads of one domain (the serve
      listener's shard, written by reader threads) must have every
      (name, labels) pair {e pre-registered} before the threads start
      (register by issuing the probe once with a zero delta).

    Probes are total: a kind clash (e.g. {!observe} on a name
    registered as a counter) drops the sample rather than raising.

    {2 Merge semantics}

    Counters and histogram buckets/sums merge by integer addition, so
    {!merge} is exactly associative and commutative with the empty
    snapshot as identity — scraping N shards gives byte-identical
    output regardless of merge order (the property tests in
    [test_metrics] pin this). Gauges also {e add}: per-source gauges
    must carry a distinguishing label (e.g. [worker="3"]) when a
    cross-shard sum is not the value wanted.

    {2 Fixed boundaries}

    Histograms bucket by fixed boundaries fixed at registration
    (default {!default_boundaries}, a 0.5ms–10s latency ladder), so
    cardinality is bounded regardless of traffic, and same-boundary
    histograms from different shards merge bucket-wise. Sums are kept
    in integer nanoseconds so merging never loses precision to float
    rounding. *)

type labels = (string * string) list
(** Label pairs; canonicalised (sorted by key) at probe time, so
    [\[("a","1");("b","2")\]] and its permutation are one series. *)

type shard
type t

val default_boundaries : unit -> float array
(** [0.0005; 0.001; …; 10.0] seconds (client_golang's default
    latency ladder). A fresh array per call — callers own their copy;
    nothing shared to mutate. *)

val create : shards:int -> t
(** A registry of [max 1 shards] shards. The serve daemon uses
    [domains + 1]: shard 0 for the listener, shard [i+1] owned by
    worker [i]. Shards survive worker restarts, keeping counters
    monotone across domain respawns. *)

val n_shards : t -> int

val shard : t -> int -> shard
(** Raises [Invalid_argument] out of range. *)

(** {2 Probes} *)

val inc : shard -> ?labels:labels -> ?n:int -> string -> unit
(** Adds [n] (default 1) to a monotone counter. [~n:0] registers the
    series without counting — the pre-registration idiom for
    multi-thread shards. *)

val set_gauge : shard -> ?labels:labels -> string -> float -> unit
(** Sets a gauge (last write wins). *)

val observe :
  shard -> ?labels:labels -> ?boundaries:float array -> string -> float -> unit
(** Adds one observation (in seconds for latencies) to a histogram.
    [boundaries] is consulted only on first registration of the
    series; callers must use consistent boundaries for a name across
    shards or the merge keeps only one side. *)

(** {2 Ambient shard}

    Domain-local, mirroring {!Trace}'s armed session: a worker domain
    arms its own shard once and ambient probes from anywhere on that
    domain land in it. Each [a*] probe is one DLS read when no shard
    is armed. *)

val set_ambient : shard option -> unit
val ambient : unit -> shard option
val ainc : ?labels:labels -> ?n:int -> string -> unit
val aset_gauge : ?labels:labels -> string -> float -> unit
val aobserve : ?labels:labels -> ?boundaries:float array -> string -> float -> unit

(** {2 Snapshots} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { boundaries : float array; counts : int array; sum_ns : int }
      (** [counts] has [length boundaries + 1] entries — per-bucket
          (not cumulative), the last being the +Inf bucket. [sum_ns]
          is the observation sum in integer nanoseconds. *)

type sample = { name : string; labels : labels; value : value }

type snapshot = sample list
(** Sorted by (name, labels); a plain immutable value, so snapshots
    compare with [=] and merge without touching live shards. *)

val snapshot_of_shard : shard -> snapshot
(** Takes the shard mutex for the iteration; concurrent probe updates
    land either side of the atomic reads. *)

val snapshot : t -> snapshot
(** [merge] of all shards' snapshots. *)

val merge : snapshot list -> snapshot
(** Pointwise combine: counters add, histogram buckets/sums add when
    boundaries agree, gauges add. Associative and commutative with
    [[]] as identity (exact — all int arithmetic except gauges). *)

(** {2 Reading a snapshot} *)

val find : snapshot -> ?labels:labels -> string -> value option
val counter_total : snapshot -> string -> int
(** Sum of a counter across all its label sets (0 when absent). *)

val hist_count : value -> int
(** Total observations ([Histogram] only; 0 otherwise). *)

val quantile : snapshot -> ?labels:labels -> string -> float -> float option
(** Rank-based quantile estimate from histogram buckets with linear
    interpolation inside the bucket; +Inf-bucket ranks clamp to the
    last finite boundary. [None] when the series is absent or empty. *)

(** {2 Prometheus text exposition} *)

val to_prometheus : snapshot -> string
(** Byte-deterministic text exposition: [# TYPE] comments, sorted
    samples, histograms as cumulative [_bucket{le="…"}] series plus
    [_sum]/[_count], label values escaped, one fixed float format.
    The +Inf bucket always equals [_count]. *)

val parse : string -> (snapshot, string) result
(** Parses a text exposition back into a snapshot (round-trips
    {!to_prometheus}; tolerates HELP lines and unknown comments).
    Histograms are reconstructed from [_bucket]/[_sum] series of
    names declared [# TYPE … histogram]. Used by [lalrgen top] and
    the scrape-reconciliation checks. *)
