module Budget = Lalr_guard.Budget
module Faultpoint = Lalr_guard.Faultpoint
module Store = Lalr_store.Store
module Trace = Lalr_trace.Trace
module Metrics = Lalr_trace.Metrics

type endpoint = Unix_path of string | Tcp of { host : string; port : int }

let parse_endpoint s =
  if s = "" then Error "empty endpoint"
  else
    match String.rindex_opt s ':' with
    | Some i ->
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        let host = if host = "" then "127.0.0.1" else host in
        if String.contains host '/' then Ok (Unix_path s)
        else (
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 -> Ok (Tcp { host; port = p })
          | Some p -> Error (Printf.sprintf "port %d out of range" p)
          | None -> Error (Printf.sprintf "bad port %S" port))
    | None -> (
        match int_of_string_opt s with
        | Some p when p > 0 && p < 65536 ->
            Ok (Tcp { host = "127.0.0.1"; port = p })
        | Some p -> Error (Printf.sprintf "port %d out of range" p)
        | None -> Ok (Unix_path s))

let endpoint_to_string = function
  | Unix_path p -> p
  | Tcp { host; port } -> Printf.sprintf "%s:%d" host port

type config = {
  endpoint : endpoint;
  pool : Pool.config;
  max_line : int;
  trace_file : string option;
  access_log : string option;
  on_ready : string -> unit;
}

let default_max_line = 1 lsl 20

let default_config =
  {
    endpoint = Unix_path "lalrgen.sock";
    pool = Pool.default_config;
    max_line = default_max_line;
    trace_file = None;
    access_log = None;
    on_ready = ignore;
  }

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  c_fd : Unix.file_descr;
  c_wmu : Mutex.t;  (* serialises response lines onto the fd *)
  c_pending : int Atomic.t;  (* admitted jobs not yet responded to *)
  c_eof : bool Atomic.t;
  c_closed : bool Atomic.t;  (* logically closed: no further writes *)
  c_reader_done : bool Atomic.t;
  c_freed : bool Atomic.t;  (* fd returned to the kernel *)
}

type srv = {
  cfg : config;
  pool : Pool.t;
  registry : Metrics.t;  (* shards: 0 = this layer, i+1 = worker i *)
  mshard : Metrics.shard;  (* shard 0; series pre-registered in run *)
  access : out_channel option;
  access_mu : Mutex.t;  (* one access-log line at a time, any thread *)
  conns_mu : Mutex.t;
  mutable conns : conn list;  (* guarded by conns_mu *)
  mutable threads : Thread.t list;  (* guarded by conns_mu *)
  draining : bool Atomic.t;
}

(* fd lifetime: a connection is closed in two steps. [close_conn]
   closes it LOGICALLY — shutdown(2) wakes the peer (EOF) and the
   reader, and no new write starts — but the descriptor itself is
   returned to the kernel only once nothing can still touch it: the
   reader thread has exited and every admitted job has responded.
   Closing earlier would free the fd number while late responders
   still hold it; the very next accept(2) reuses that number and a
   stale write would land INSIDE another client's response stream. *)
let free_fd conn =
  if
    Atomic.get conn.c_closed
    && Atomic.get conn.c_reader_done
    && Atomic.get conn.c_pending = 0
    && not (Atomic.exchange conn.c_freed true)
  then try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

let close_conn srv conn =
  if not (Atomic.exchange conn.c_closed true) then begin
    (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Mutex.lock srv.conns_mu;
    srv.conns <- List.filter (fun c -> c != conn) srv.conns;
    Mutex.unlock srv.conns_mu
  end;
  free_fd conn

let close_if_done srv conn =
  if Atomic.get conn.c_eof && Atomic.get conn.c_pending = 0 then
    close_conn srv conn
  else free_fd conn

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

(* One JSON line per response attempt — the documented access-log
   schema (README "Observability"): ts, id, status, exit, sent, and
   for pool jobs wall/queue timings, worker, retries, deadline slack
   and the client trace_id. Flushed per line so a tail (or the CI
   validator) sees requests as they finish. *)
let access_line srv response ~sent =
  match srv.access with
  | None -> ()
  | Some oc ->
      let esc = Trace.json_escape in
      let b = Buffer.create 160 in
      Printf.bprintf b
        "{\"ts\":%.6f,\"id\":\"%s\",\"status\":\"%s\",\"exit\":%d,\"sent\":%b"
        (Unix.gettimeofday ())
        (esc (Protocol.response_id response))
        (Protocol.response_status_label response)
        (Protocol.response_exit response)
        sent;
      (match response with
      | Protocol.Job r ->
          Printf.bprintf b ",\"wall_ms\":%.3f,\"queue_ms\":%.3f,\"retries\":%d"
            r.Protocol.r_wall_ms r.Protocol.r_queue_ms r.Protocol.r_retries;
          (match r.Protocol.r_worker with
          | Some w -> Printf.bprintf b ",\"worker\":%d" w
          | None -> ());
          (match r.Protocol.r_slack_ms with
          | Some s -> Printf.bprintf b ",\"deadline_slack_ms\":%.3f" s
          | None -> ());
          (match r.Protocol.r_trace_id with
          | Some t -> Printf.bprintf b ",\"trace_id\":\"%s\"" (esc t)
          | None -> ())
      | Protocol.Health _ | Protocol.Metrics_snapshot _ -> ());
      Buffer.add_char b '}';
      Buffer.add_char b '\n';
      Mutex.lock srv.access_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock srv.access_mu)
        (fun () ->
          try
            output_string oc (Buffer.contents b);
            flush oc
          with Sys_error _ -> ())

(* The response writer: the daemon's last chance to fail a request.
   Any failure here (dead peer, armed serve-respond injection) is
   absorbed — the response is dropped and counted, the connection is
   closed, the daemon keeps serving.

   This is also the telemetry funnel: EVERY response — pool jobs,
   inline health/metrics answers, bad_request, shed, supervisor crash
   responses — goes through here exactly once.
   [lalr_serve_requests_total{status=…}] counts each BEFORE the write:
   the increment must already be visible to any scrape a client issues
   after receiving the response (counting afterwards would let the
   scrape race ahead of the responder thread). A failed write then
   also lands in [lalr_serve_responses_dropped_total{status=…}], so
   responses actually delivered reconcile exactly as
   total − dropped, per status. *)
let send srv conn response =
  let status = Protocol.response_status_label response in
  Metrics.inc srv.mshard
    ~labels:[ ("status", status) ]
    "lalr_serve_requests_total";
  let ok =
    (not (Atomic.get conn.c_closed))
    && (try
          Faultpoint.check "serve-respond";
          let line = Protocol.encode_response response ^ "\n" in
          Mutex.lock conn.c_wmu;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock conn.c_wmu)
            (fun () -> write_all conn.c_fd line);
          true
        with _ -> false)
  in
  if not ok then
    Metrics.inc srv.mshard
      ~labels:[ ("status", status) ]
      "lalr_serve_responses_dropped_total";
  access_line srv response ~sent:ok;
  if not ok then close_conn srv conn
[@@lalr.allow
  D004
    "socket boundary: a response write can fail for reasons the daemon \
     must survive (peer gone, fd shut during drain, armed serve-respond \
     injection); the drop is counted and the connection closed rather \
     than letting one dead client kill the process"]

let plain_response id status detail =
  Protocol.Job
    {
      Protocol.r_id = id;
      r_status = status;
      r_detail = detail;
      r_lalr1 = None;
      r_wall_ms = 0.;
      r_queue_ms = 0.;
      r_retries = 0;
      r_worker = None;
      r_slack_ms = None;
      r_trace_id = None;
      r_stages = [];
      r_lr0_states = None;
      r_completed = [];
    }

let bad_request_response id detail = plain_response id Protocol.Bad_request detail

(* Mangle a line the way the serve-decode corrupt injection documents:
   flip a byte in the middle so the decoder must reject it cleanly. *)
let corrupt_line line =
  if String.length line = 0 then "\255"
  else begin
    let b = Bytes.of_string line in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
    Bytes.to_string b
  end

(* Answer a metrics scrape inline (never queued, like health):
   refresh the point-in-time gauges, then merge every shard into one
   deterministic exposition. Merging at scrape time is the design
   point — scrapes pay the iteration cost, request hot paths never
   wait on a scrape (DESIGN.md §17). *)
let scrape srv =
  let h = Pool.health srv.pool ~id:"scrape" in
  Metrics.set_gauge srv.mshard "lalr_serve_uptime_seconds"
    h.Protocol.h_uptime_s;
  Metrics.set_gauge srv.mshard "lalr_serve_queue_depth"
    (float_of_int h.Protocol.h_queue_depth);
  Metrics.set_gauge srv.mshard "lalr_serve_queue_capacity"
    (float_of_int h.Protocol.h_queue_capacity);
  Metrics.set_gauge srv.mshard "lalr_serve_ready"
    (if h.Protocol.h_ready then 1. else 0.);
  Metrics.set_gauge srv.mshard "lalr_serve_workers"
    (float_of_int (List.length h.Protocol.h_workers));
  Metrics.to_prometheus (Metrics.snapshot srv.registry)

let handle_line srv conn line =
  let decoded =
    try
      Faultpoint.check "serve-decode";
      let line =
        if Faultpoint.take_corrupt "serve-decode" then corrupt_line line
        else line
      in
      `Decoded (Protocol.decode_request line)
    with
    | Budget.Internal_error { stage; invariant } ->
        `Fault
          (plain_response "" Protocol.Internal
             (Printf.sprintf "internal error in stage '%s': %s" stage
                invariant))
    | Budget.Exceeded ex ->
        `Fault
          (plain_response "" Protocol.Budget
             (Format.asprintf "%a" Budget.pp_exceeded ex))
  in
  match decoded with
  | `Fault response -> send srv conn response
  | `Decoded (Error msg) ->
      send srv conn (bad_request_response "" msg)
  | `Decoded (Ok (Protocol.Health { id })) ->
      send srv conn (Protocol.Health (Pool.health srv.pool ~id))
  | `Decoded (Ok (Protocol.Metrics { id })) ->
      send srv conn
        (Protocol.Metrics_snapshot { Protocol.m_id = id; m_body = scrape srv })
  | `Decoded (Ok (Protocol.Classify _ as request)) -> (
      let id = Protocol.request_id request in
      Atomic.incr conn.c_pending;
      let respond response =
        send srv conn response;
        Atomic.decr conn.c_pending;
        close_if_done srv conn
      in
      match Pool.submit srv.pool ~request ~respond with
      | `Accepted -> ()
      | `Overloaded ->
          respond
            (Protocol.shed_response ~id
               ~queue_capacity:srv.cfg.pool.Pool.queue_capacity)
      | `Draining ->
          respond
            (plain_response id Protocol.Overloaded
               "draining: server is shutting down")
      | `Expired ->
          respond
            (plain_response id Protocol.Deadline_exceeded
               "deadline already expired at admission (deadline_ms <= 0); \
                shed before compute")
      | `Unready ->
          respond
            (plain_response id Protocol.Internal
               "worker pool unready: crash-loop backstop tripped (too many \
                worker restarts in the window); retry after the window \
                drains")
      | exception Budget.Internal_error { stage; invariant } ->
          respond
            (plain_response id Protocol.Internal
               (Printf.sprintf "internal error in stage '%s': %s" stage
                  invariant))
      | exception Budget.Exceeded ex ->
          respond
            (plain_response id Protocol.Budget
               (Format.asprintf "%a" Budget.pp_exceeded ex)))

(* Per-connection reader: newline framing with a byte cap. An
   over-long line answers bad_request once and is discarded up to the
   next newline; a truncated final line (EOF mid-line) answers
   bad_request and closes. *)
let reader srv conn () =
  let chunk = Bytes.create 8192 in
  let acc = Buffer.create 256 in
  let discarding = ref false in
  let overflow () =
    Buffer.clear acc;
    discarding := true;
    send srv conn
      (bad_request_response ""
         (Printf.sprintf "request line exceeds %d bytes" srv.cfg.max_line))
  in
  let feed n =
    for i = 0 to n - 1 do
      match Bytes.get chunk i with
      | '\n' ->
          if !discarding then discarding := false
          else begin
            let line = Buffer.contents acc in
            Buffer.clear acc;
            handle_line srv conn line
          end
      | c ->
          if not !discarding then
            if Buffer.length acc >= srv.cfg.max_line then overflow ()
            else Buffer.add_char acc c
    done
  in
  let rec loop () =
    let n = try Unix.read conn.c_fd chunk 0 8192 with Unix.Unix_error _ -> 0 in
    if n > 0 then begin
      feed n;
      loop ()
    end
  in
  loop ();
  if Buffer.length acc > 0 && not !discarding then
    send srv conn (bad_request_response "" "truncated request line (no newline before EOF)");
  Atomic.set conn.c_eof true;
  Atomic.set conn.c_reader_done true;
  close_if_done srv conn

(* ------------------------------------------------------------------ *)
(* Listener                                                            *)
(* ------------------------------------------------------------------ *)

let setup_listener endpoint =
  match endpoint with
  | Unix_path path -> (
      (* A leftover socket file from a dead daemon is stale iff nothing
         answers on it; only then is unlinking it safe. *)
      (if Sys.file_exists path then
         let probe_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         let live =
           try
             Unix.connect probe_fd (Unix.ADDR_UNIX path);
             true
           with Unix.Unix_error _ -> false
         in
         (try Unix.close probe_fd with Unix.Unix_error _ -> ());
         if live then failwith (Printf.sprintf "%s: already in use" path)
         else try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        Ok fd
      with
      | Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
      | Failure m ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error m)
  | Tcp { host; port } -> (
      match
        try Some (Unix.inet_addr_of_string host)
        with Failure _ -> (
          try Some (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found | Invalid_argument _ -> None)
      with
      | None -> Error (Printf.sprintf "cannot resolve host %S" host)
      | Some addr -> (
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          try
            Unix.setsockopt fd Unix.SO_REUSEADDR true;
            Unix.bind fd (Unix.ADDR_INET (addr, port));
            Unix.listen fd 64;
            Ok fd
          with Unix.Unix_error (e, _, _) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Error
              (Printf.sprintf "%s:%d: %s" host port (Unix.error_message e))))

let setup_listener endpoint =
  try setup_listener endpoint with Failure m -> Error m

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

let write_trace_file path session =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Trace.write session (Trace.infer_format path) oc)

(* Every status label [send] can emit, and the accept loop's two
   counters; pre-registered on shard 0 so the multi-thread fast path
   never mutates the table (the Metrics contract), and so a scrape
   always exposes the full series set. *)
let status_labels =
  [ "ok"; "verdict"; "bad_request"; "budget"; "overloaded";
    "deadline_exceeded"; "internal"; "health"; "metrics" ]

let preregister mshard =
  List.iter
    (fun s ->
      Metrics.inc mshard ~n:0
        ~labels:[ ("status", s) ]
        "lalr_serve_requests_total";
      Metrics.inc mshard ~n:0
        ~labels:[ ("status", s) ]
        "lalr_serve_responses_dropped_total")
    status_labels;
  List.iter
    (fun c -> Metrics.inc mshard ~n:0 c)
    [ "lalr_serve_connections_total"; "lalr_serve_accept_errors_total" ];
  List.iter
    (fun g -> Metrics.set_gauge mshard g 0.)
    [ "lalr_serve_uptime_seconds"; "lalr_serve_queue_depth";
      "lalr_serve_queue_capacity"; "lalr_serve_ready"; "lalr_serve_workers" ]

let open_access_log = function
  | None -> Ok None
  | Some path -> (
      match open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644 path with
      | oc -> Ok (Some oc)
      | exception Sys_error m -> Error m)

let run cfg =
  let cfg =
    if cfg.trace_file <> None && not cfg.pool.Pool.trace then
      { cfg with pool = { cfg.pool with Pool.trace = true } }
    else cfg
  in
  (* The daemon is always armed for live telemetry: a registry with
     one shard per worker plus shard 0 for this layer (callers may
     inject a pre-built one; bench does, to share handles). *)
  let registry =
    match cfg.pool.Pool.metrics with
    | Some m -> m
    | None -> Metrics.create ~shards:(max 1 cfg.pool.Pool.domains + 1)
  in
  let cfg =
    { cfg with pool = { cfg.pool with Pool.metrics = Some registry } }
  in
  let mshard = Metrics.shard registry 0 in
  preregister mshard;
  match open_access_log cfg.access_log with
  | Error m -> Error m
  | Ok access -> (
  match setup_listener cfg.endpoint with
  | Error m ->
      Option.iter close_out_noerr access;
      Error m
  | Ok listen_fd ->
      let main_session =
        if cfg.trace_file <> None then Some (Trace.start ()) else None
      in
      let pool = Pool.create cfg.pool in
      let srv =
        {
          cfg;
          pool;
          registry;
          mshard;
          access;
          access_mu = Mutex.create ();
          conns_mu = Mutex.create ();
          conns = [];
          threads = [];
          draining = Atomic.make false;
        }
      in
      (* Self-pipe: the signal handler writes one byte, the select
         loop wakes and starts the drain on its own thread — no
         daemon logic ever runs inside a signal handler. *)
      let pipe_rd, pipe_wr = Unix.pipe () in
      let request_shutdown _ =
        if not (Atomic.exchange srv.draining true) then
          try ignore (Unix.write pipe_wr (Bytes.of_string "x") 0 1)
          with Unix.Unix_error _ -> ()
      in
      let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle request_shutdown) in
      let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle request_shutdown) in
      let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      cfg.on_ready
        (Printf.sprintf "lalrgen serve: listening on %s (%d domains, queue %d)"
           (endpoint_to_string cfg.endpoint)
           cfg.pool.Pool.domains cfg.pool.Pool.queue_capacity);
      (* Accept loop: select on the listener and the self-pipe, so a
         signal interrupts the wait immediately. *)
      let rec accept_loop () =
        if not (Atomic.get srv.draining) then begin
          (match Unix.select [ listen_fd; pipe_rd ] [] [] (-1.) with
          | readable, _, _ ->
              if List.mem listen_fd readable && not (Atomic.get srv.draining)
              then begin
                try
                  Faultpoint.check "serve-accept";
                  let fd, _ = Unix.accept listen_fd in
                  (* Counted before the reader starts, so any scrape
                     this connection issues already sees it. *)
                  Metrics.inc srv.mshard "lalr_serve_connections_total";
                  let conn =
                    {
                      c_fd = fd;
                      c_wmu = Mutex.create ();
                      c_pending = Atomic.make 0;
                      c_eof = Atomic.make false;
                      c_closed = Atomic.make false;
                      c_reader_done = Atomic.make false;
                      c_freed = Atomic.make false;
                    }
                  in
                  Mutex.lock srv.conns_mu;
                  srv.conns <- conn :: srv.conns;
                  let t = Thread.create (reader srv conn) () in
                  srv.threads <- t :: srv.threads;
                  Mutex.unlock srv.conns_mu
                with
                | Unix.Unix_error _ | Budget.Internal_error _ | Budget.Exceeded _ ->
                    Metrics.inc srv.mshard "lalr_serve_accept_errors_total"
              end
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          accept_loop ()
        end
      in
      accept_loop ();
      (* ---- drain ---- *)
      Trace.instant "serve.drain";
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match cfg.endpoint with
      | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
      | Tcp _ -> ());
      (* Unblock every reader: no new requests can arrive, responses
         for what was already admitted still go out. *)
      Mutex.lock srv.conns_mu;
      let open_conns = srv.conns in
      Mutex.unlock srv.conns_mu;
      List.iter
        (fun c ->
          try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        open_conns;
      let worker_sessions = Pool.drain pool in
      let threads =
        Mutex.lock srv.conns_mu;
        let ts = srv.threads in
        Mutex.unlock srv.conns_mu;
        ts
      in
      List.iter Thread.join threads;
      Trace.instant
        ~attrs:(fun () ->
          let h = Pool.health pool ~id:"drain" in
          [ ("completed", Trace.Int h.Protocol.h_completed);
            ("restarts", Trace.Int h.Protocol.h_restarts);
            ("shed", Trace.Int h.Protocol.h_shed);
            ("deadline_expired", Trace.Int h.Protocol.h_deadline_expired) ]
          @
          match h.Protocol.h_store with
          | None -> []
          | Some s ->
              [ ("store_hits", Trace.Int s.Store.hits);
                ("store_misses", Trace.Int s.Store.misses) ])
        "serve.drained";
      (* Flush trace sinks: the main-loop session to the named file,
         each worker's session next to it. *)
      (match (cfg.trace_file, main_session) with
      | Some path, Some session ->
          Trace.finish session;
          write_trace_file path session;
          Array.iteri
            (fun i s ->
              match s with
              | Some s -> write_trace_file (Printf.sprintf "%s.w%d" path i) s
              | None -> ())
            worker_sessions
      | _ -> ());
      (* Close whatever connections are still open (their peers will
         see EOF after the last response). *)
      Mutex.lock srv.conns_mu;
      let leftovers = srv.conns in
      Mutex.unlock srv.conns_mu;
      List.iter (fun c -> close_conn srv c) leftovers;
      (try Unix.close pipe_rd with Unix.Unix_error _ -> ());
      (try Unix.close pipe_wr with Unix.Unix_error _ -> ());
      Option.iter close_out_noerr access;
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigpipe prev_pipe;
      Ok ())
