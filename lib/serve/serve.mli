(** The [lalrgen serve] daemon front end: sockets, line framing,
    signals, drain.

    {!run} owns the listener (Unix-domain path or TCP), a reader
    thread per accepted connection, and one {!Pool.t}. Its robustness
    contract complements the pool's:

    - {b every decoded line gets exactly one response line} — decode
      failures and oversized/truncated lines answer [bad_request],
      admission refusals answer [overloaded] (queue full, draining),
      [deadline_exceeded] (the request arrived already expired) or
      [internal] (crash-loop backstop: the pool reports itself
      unready), and only admitted jobs reach the pool (which owns the
      rest of the exactly-once guarantee);
    - {b the outer loops absorb their own faults} — an accept error, a
      response write onto a dead connection, or an armed
      [serve-accept]/[serve-respond] injection is counted in the live
      metrics ([lalr_serve_accept_errors_total],
      [lalr_serve_responses_dropped_total]) and the daemon keeps
      serving; nothing at the socket boundary can take the process
      down;
    - {b SIGTERM/SIGINT drain}: stop accepting, shut the read side of
      open connections, answer anything still admitted, join every
      worker domain, record a [serve.drained] instant with the final
      health counts, flush trace sinks, return [Ok ()] (process exit
      0). A second signal during drain is ignored — drain is already
      in progress and idempotent.

    Faultpoint sites exercised here: [serve-accept] (accept loop,
    absorbed), [serve-decode] (raise/wall → typed [internal]/[budget]
    response for that line; corrupt → the line is mangled before
    decoding, yielding a natural [bad_request]), [serve-dispatch]
    (admission, typed response), [serve-respond] (response writer,
    response dropped + counted). [serve-worker] lives in {!Pool}. *)

type endpoint =
  | Unix_path of string  (** Unix-domain stream socket at this path *)
  | Tcp of { host : string; port : int }

val parse_endpoint : string -> (endpoint, string) result
(** ["HOST:PORT"] or bare ["PORT"] (host 127.0.0.1) → {!Tcp};
    anything else is a filesystem path → {!Unix_path}. *)

val endpoint_to_string : endpoint -> string

type config = {
  endpoint : endpoint;
  pool : Pool.config;
  max_line : int;  (** request-line byte cap; beyond it: [bad_request] *)
  trace_file : string option;
      (** main-loop session → this path; worker sessions →
          [path ^ ".wN"]. Format inferred from the extension. Forces
          [pool.trace] on. *)
  access_log : string option;
      (** append one JSON line per response to this file (created
          0644): [{"ts":…,"id":…,"status":…,"exit":…,"sent":…}] plus,
          for pool jobs, [wall_ms]/[queue_ms]/[retries] and optional
          [worker]/[deadline_slack_ms]/[trace_id] — the schema README
          "Observability" documents. Flushed per line; write failures
          are absorbed (logging never takes a request down). *)
  on_ready : string -> unit;
      (** called once, listening, with a human-readable "listening
          on ..." line — the CLI prints it (library code never touches
          stdout) *)
}

val default_config : config
(** [Unix_path "lalrgen.sock"], {!Pool.default_config},
    {!default_max_line}, no trace, no access log, silent [on_ready]. *)

val default_max_line : int
(** 1 MiB. *)

val run : config -> (unit, string) result
(** Binds, listens, serves until SIGTERM/SIGINT, drains, cleans up the
    socket path. [Error] only for setup failures (path/port in use,
    bad host, unwritable access log) — once [on_ready] has fired, the
    result is [Ok ()]. Installs handlers for SIGTERM/SIGINT and
    ignores SIGPIPE for the process.

    Live telemetry is always armed: a {!Lalr_trace.Metrics} registry
    with one shard per worker domain plus one for this layer (reusing
    [pool.metrics] when the caller pre-built it). A [metrics] request
    is answered inline with the merged Prometheus exposition; every
    response is counted by status in [lalr_serve_requests_total] at
    the single writer funnel — incremented before the write, so a
    scrape issued after a response arrives always sees it — with
    failed writes also landing in
    [lalr_serve_responses_dropped_total]. Responses actually delivered
    therefore reconcile exactly with client-side per-id accounting as
    [requests_total - responses_dropped_total], per status. Accepted
    connections count in [lalr_serve_connections_total], absorbed
    accept failures in [lalr_serve_accept_errors_total]. *)
