(** The multicore analysis pool: OCaml 5 Domains behind a bounded
    admission queue, with supervision, deadlines and a crash-loop
    backstop.

    One pool owns [domains] worker domains, one shared bounded job
    queue, and (optionally) one shared artifact store. The robustness
    contract, in order of importance:

    + {b exactly one response per admitted job} — the worker responds
      with a typed outcome; if the worker domain {e crashes}
      mid-request (an exception escaping the per-job boundary, e.g. an
      armed [serve-worker] faultpoint), its supervisor responds
      [internal] for the in-flight job and {b restarts the domain} —
      one poisoned request never takes down the fleet, and a
      persistent crash loop still drains the queue one job per
      respawn;
    + {b bounded admission} — {!submit} refuses ([`Overloaded]) when
      the queue is at capacity, and ([`Unready]) while the crash-loop
      backstop holds; the caller turns those into typed [overloaded]
      and [internal] responses. There is no unbounded backlog
      anywhere;
    + {b deadline propagation} — a request carrying [deadline_ms] is
      shed {e before any compute} when already expired: at admission
      ([`Expired], without touching the queue lock) and again at
      dequeue (queue wait may have eaten the deadline). In-flight, the
      remaining deadline is intersected into the request's wall cap
      ({!Lalr_guard.Budget.intersect_wall}) per attempt — retries eat
      into the same deadline — so running work self-terminates; a
      deadline-bound wall trip is reported [deadline_exceeded], a
      client-cap trip stays [budget];
    + {b per-job isolation} — every job runs under its own fresh
      {!Lalr_guard.Budget.t} (the request's [budget] spec, or the pool
      default), behind {!Lalr_engine.Engine.run_partial}; transient
      internal faults are retried through {!Lalr_guard.Retry} with
      capped exponential backoff;
    + {b graceful drain} — {!drain} stops admission, lets the workers
      finish (or deadline-out, via their budgets) everything already
      admitted, then joins every domain. Idempotent.

    Supervision runs on sys-threads of the {e calling} domain (one per
    worker slot, blocked in [Domain.join]), so a worker crash is
    noticed immediately without polling. Every crash is also logged
    into a sliding window ([crash_window] seconds): once
    [crash_threshold] respawns accumulate inside it, {!ready} turns
    false and {!submit} fails fast with [`Unready] — a poisoned
    workload cannot convert the daemon into a domain-spawn treadmill.
    The window drains by itself, so readiness self-heals; respawning
    is never conditional (admitted work keeps its one-response
    guarantee).

    When [trace] is set, each worker domain arms its own
    {!Lalr_trace.Trace} session for its lifetime (sessions are
    domain-local by design — "one session per worker" is the model the
    trace layer documents) and {!drain} hands the finished sessions
    back, one per worker slot that exited cleanly; a crashed
    incarnation's session is lost, which the restart counter
    records.

    When [metrics] is set, every dequeued job additionally records
    queue-wait / compute / total-latency fixed-boundary histograms,
    a per-worker deadline-slack gauge and GC gauges into the worker
    domain's own {!Lalr_trace.Metrics} shard (lock-free updates, no
    cross-domain contention), and the supervisors count crashes into
    shard 0; the serve layer merges all shards when answering a
    [metrics] scrape. *)

type config = {
  domains : int;  (** worker domains; >= 1 (clamped) *)
  queue_capacity : int;  (** admission bound; >= 1 (clamped) *)
  default_budget : string option;
      (** {!Lalr_guard.Budget.of_spec} string applied to requests that
          carry none; validated per job (a bad default yields typed
          [bad_request] responses, never a crash) *)
  store : Lalr_store.Store.t option;  (** shared artifact store *)
  trace : bool;  (** arm a per-worker trace session *)
  metrics : Lalr_trace.Metrics.t option;
      (** live-telemetry registry; must have [domains + 1] shards
          (shard 0 for the caller/supervisors, shard i+1 armed as
          worker i's ambient shard — shards survive restarts so
          counters stay monotone). [None] disarms every per-request
          probe (the armed-overhead bench's baseline). *)
  retry : Lalr_guard.Retry.policy;  (** internal-fault retry policy *)
  sleep : float -> unit;
      (** backoff sleep in seconds, injectable for deterministic
          tests; default [Unix.sleepf] *)
  now : unit -> float;
      (** the clock used for deadlines and the crash window,
          injectable for deterministic tests; default
          [Unix.gettimeofday] *)
  crash_window : float;
      (** sliding window for the crash-loop backstop, seconds;
          clamped positive *)
  crash_threshold : int;
      (** respawns inside the window that flip {!ready} to false;
          >= 1 (clamped) *)
}

val default_config : config
(** 1 domain, capacity 64, no budget, no store, no trace, no metrics,
    {!Lalr_guard.Retry.default}, [Unix.sleepf], [Unix.gettimeofday],
    10 s crash window, threshold 5. *)

type t

val create : config -> t
(** Spawns the worker domains and their supervisor threads; returns
    once all are running. *)

val submit :
  t ->
  request:Protocol.request ->
  respond:(Protocol.response -> unit) ->
  [ `Accepted | `Overloaded | `Draining | `Expired | `Unready ]
(** Admits a [Classify] request (a [Health] request is answered by
    {!health} without entering the queue; submitting one is a
    programmer error answered as [internal]). [respond] is called
    exactly once, from a worker domain or a supervisor thread; it must
    not raise (the serve layer's responders absorb their own I/O
    failures). Every refusal means the job was NOT admitted and
    [respond] will never be called — the caller sheds with the typed
    response: [`Overloaded]/[`Draining] as [overloaded], [`Expired]
    (the request arrived with [deadline_ms <= 0]) as
    [deadline_exceeded], [`Unready] (crash-loop backstop) as
    [internal]. *)

val ready : t -> bool
(** False while the crash-loop backstop holds (>= [crash_threshold]
    respawns inside the last [crash_window] seconds). Self-healing:
    turns true again once the window slides past the burst. *)

val depth : t -> int
(** Current queue depth (the [queue_depth] of {!health}). *)

val health : t -> id:string -> Protocol.health_response
(** Liveness and load snapshot: readiness, queue depth/capacity,
    per-worker alive flag and jobs completed,
    restart/shed/deadline-expired/completed counters, store stats when
    a store is attached. *)

val drain : t -> Lalr_trace.Trace.session option array
(** Stops admission, waits for every admitted job to be responded to,
    joins all worker domains and supervisor threads. Returns the
    per-slot finished trace sessions ([None] without [trace], or for a
    slot whose last incarnation crashed). Idempotent: later calls
    return the same sessions. *)
