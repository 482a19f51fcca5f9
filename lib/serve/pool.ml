module Reader = Lalr_grammar.Reader
module Menhir_reader = Lalr_grammar.Menhir_reader
module Engine = Lalr_engine.Engine
module Classify = Lalr_tables.Classify
module Budget = Lalr_guard.Budget
module Faultpoint = Lalr_guard.Faultpoint
module Retry = Lalr_guard.Retry
module Registry = Lalr_suite.Registry
module Store = Lalr_store.Store
module Trace = Lalr_trace.Trace
module Metrics = Lalr_trace.Metrics

type config = {
  domains : int;
  queue_capacity : int;
  default_budget : string option;
  store : Store.t option;
  trace : bool;
  metrics : Metrics.t option;
  retry : Retry.policy;
  sleep : float -> unit;
  now : unit -> float;
  crash_window : float;
  crash_threshold : int;
}

let default_config =
  {
    domains = 1;
    queue_capacity = 64;
    default_budget = None;
    store = None;
    trace = false;
    metrics = None;
    retry = Retry.default;
    sleep = Unix.sleepf;
    now = Unix.gettimeofday;
    crash_window = 10.;
    crash_threshold = 5;
  }

(* Registry layout: shard 0 belongs to the serve/listener layer (and
   the supervisor threads, which share the main domain); shard i+1 is
   owned by worker domain i. Shards outlive worker incarnations, so
   counters stay monotone across crash restarts. *)
let worker_shard cfg i =
  Option.map (fun m -> Metrics.shard m (i + 1)) cfg.metrics

let pool_shard cfg = Option.map (fun m -> Metrics.shard m 0) cfg.metrics

type job = {
  jb_request : Protocol.request;
  jb_respond : Protocol.response -> unit;
  jb_deadline : float option;
      (* absolute, anchored at admission: now + deadline_ms/1e3 *)
  jb_admitted : float;  (* cfg.now at admission, for queue-wait *)
}

type worker = {
  w_id : int;
  w_alive : bool Atomic.t;
  w_jobs : int Atomic.t;  (* completed by the current incarnation *)
  w_current : job option Atomic.t;
  w_session : Trace.session option Atomic.t;  (* set on clean exit *)
}

type t = {
  cfg : config;
  mu : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  mutable draining : bool;  (* guarded by mu *)
  mutable drained : Trace.session option array option;  (* guarded by mu *)
  restart_log : float Queue.t;
      (* crash times inside the sliding window, oldest first; guarded
         by mu (pushed by supervisor threads, pruned by everyone) *)
  workers : worker array;
  mutable supervisors : Thread.t array;  (* written once in create *)
  started_at : float;
  restarts : int Atomic.t;
  shed : int Atomic.t;
  expired : int Atomic.t;  (* answered deadline_exceeded *)
  completed : int Atomic.t;
}

(* ------------------------------------------------------------------ *)
(* Crash-loop backstop                                                 *)
(* ------------------------------------------------------------------ *)

(* A crash-looping pool still makes progress (each respawn consumes
   its job), but admitting fresh work into one trades every request
   for a domain spawn. The backstop: count respawns inside a sliding
   window; past the threshold the pool reports itself unready and
   refuses NEW admissions fast (typed [internal] at the serve layer)
   until the window drains. Already-admitted work keeps its
   one-response guarantee — respawning is never conditional. *)

let prune_restarts_locked t ~now =
  while
    (not (Queue.is_empty t.restart_log))
    && now -. Queue.peek t.restart_log > t.cfg.crash_window
  do
    ignore (Queue.pop t.restart_log)
  done

let ready_locked t ~now =
  prune_restarts_locked t ~now;
  Queue.length t.restart_log < t.cfg.crash_threshold

let ready t =
  let now = t.cfg.now () in
  Mutex.lock t.mu;
  let r = ready_locked t ~now in
  Mutex.unlock t.mu;
  r

(* ------------------------------------------------------------------ *)
(* The per-job computation (typed outcomes only)                       *)
(* ------------------------------------------------------------------ *)

let job_response id status detail : Protocol.job_response =
  {
    r_id = id;
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

(* Registry grammars are memoized lazies shared by every worker
   domain, and [Lazy.force] is not domain-safe — two domains racing on
   the first force of the same entry is undefined. The force is
   serialised here; after the first one the critical section is a
   memo read. *)
let suite_mu = Mutex.create ()

let load_source = function
  | Protocol.File spec ->
      if String.length spec > 6 && String.sub spec 0 6 = "suite:" then
        let name = String.sub spec 6 (String.length spec - 6) in
        let g =
          Mutex.lock suite_mu;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock suite_mu)
            (fun () -> Lazy.force (Registry.find name).grammar)
        in
        (Some g, [])
      else if Filename.check_suffix spec ".mly" then
        Menhir_reader.of_file_tolerant spec
      else Reader.of_file_tolerant spec
  | Protocol.Inline { text; format = `Cfg } ->
      Reader.of_string_tolerant ~name:"request" text
  | Protocol.Inline { text; format = `Mly } ->
      Menhir_reader.of_string_tolerant ~name:"request" text

(* One isolated attempt, the serve twin of batch's [attempt]: every
   outcome is data. Exceptions that models as typed failures are
   mapped here; anything else escapes to the worker boundary and is a
   crash (supervised). [deadline] is absolute: the remaining time is
   re-measured per attempt (retries eat into the same deadline) and
   intersected into the wall cap, so in-flight work self-terminates
   when the client's deadline passes. *)
let attempt_job t id source budget_spec ~deadline : Protocol.job_response =
  let fresh_budget () =
    match budget_spec with
    | None -> Ok None
    | Some s -> (
        match Budget.of_spec s with
        | Ok b -> Ok (Some b)
        | Error m -> Error (Printf.sprintf "invalid budget spec: %s" m))
  in
  match fresh_budget () with
  | Error m -> job_response id Protocol.Bad_request m
  | Ok budget -> (
      let remaining = Option.map (fun d -> d -. t.cfg.now ()) deadline in
      match remaining with
      | Some r when r <= 0. ->
          job_response id Protocol.Deadline_exceeded
            (Printf.sprintf
               "deadline expired %.1fms before the attempt started; shed \
                before compute"
               (-.r *. 1e3))
      | _ -> (
          (* deadline_bound: a Wall_clock trip under this budget means
             the DEADLINE ran out, not the client's own wall cap — the
             response must say deadline_exceeded, not budget. *)
          let budget, deadline_bound =
            match (remaining, budget) with
            | None, b -> (b, false)
            | Some r, None -> (Some (Budget.create ~wall:r ()), true)
            | Some r, Some b ->
                let bound =
                  match Budget.cap b Budget.Wall_clock with
                  | None -> true
                  | Some w -> r < w
                in
                (Some (Budget.intersect_wall b ~remaining:r), bound)
          in
          let budget_status (ex : Budget.exceeded) =
            if deadline_bound && ex.Budget.ex_resource = Budget.Wall_clock
            then Protocol.Deadline_exceeded
            else Protocol.Budget
          in
          match load_source source with
          | exception Not_found ->
              job_response id Protocol.Bad_request "no such suite grammar"
          | exception Sys_error msg -> job_response id Protocol.Bad_request msg
          | exception Invalid_argument msg ->
              job_response id Protocol.Bad_request msg
          | exception Budget.Exceeded ex ->
              job_response id (budget_status ex)
                (Format.asprintf "%a" Budget.pp_exceeded ex)
          | exception Budget.Internal_error { stage; invariant } ->
              job_response id Protocol.Internal
                (Printf.sprintf "internal error in stage '%s': %s" stage
                   invariant)
          | Some g, [] -> (
              let e = Engine.create ?budget ?store:t.cfg.store g in
              let p = Engine.run_partial e Engine.classification in
              Engine.persist e;
              let stages =
                List.filter_map
                  (fun (s : Engine.stage) ->
                    if s.Engine.forced then Some (s.Engine.stage, s.Engine.wall)
                    else None)
                  (Engine.stats e)
              in
              let lr0_states = Engine.peek_lr0_states e in
              match (p.Engine.pr_value, p.Engine.pr_completeness) with
              | Some v, _ ->
                  let lalr1 = v.Classify.lalr1 in
                  {
                    (job_response id
                       (if lalr1 then Protocol.Ok_ else Protocol.Verdict)
                       "")
                    with
                    r_lalr1 = Some lalr1;
                    r_stages = stages;
                    r_lr0_states = lr0_states;
                    r_completed = [];
                  }
              | None, Engine.Complete ->
                  job_response id Protocol.Internal
                    "run_partial: no value yet complete"
              | None, Engine.Incomplete failure ->
                  {
                    (job_response id
                       (match failure with
                       | Engine.Budget_exceeded ex -> budget_status ex
                       | Engine.Internal_error _ -> Protocol.Internal)
                       (Format.asprintf "%a" Engine.pp_failure failure))
                    with
                    r_stages = stages;
                    r_lr0_states = lr0_states;
                    r_completed = p.Engine.pr_completed;
                  })
          | g_opt, errors ->
              let detail =
                match errors with
                | e :: _ -> Format.asprintf "%a" Reader.pp_error e
                | [] ->
                    if g_opt = None then "unreadable grammar" else "no grammar"
              in
              job_response id Protocol.Bad_request detail))

(* Per-worker runtime gauges, refreshed after every job. The ambient
   check first: when metrics are disarmed [Gc.quick_stat] is never
   called (the armed-overhead bench compares exactly this path). *)
let sample_gc w =
  match Metrics.ambient () with
  | None -> ()
  | Some _ ->
      let s = Gc.quick_stat () in
      let labels = [ ("worker", string_of_int w.w_id) ] in
      Metrics.aset_gauge ~labels "lalr_serve_gc_minor_collections"
        (float_of_int s.Gc.minor_collections);
      Metrics.aset_gauge ~labels "lalr_serve_gc_major_collections"
        (float_of_int s.Gc.major_collections);
      Metrics.aset_gauge ~labels "lalr_serve_gc_heap_words"
        (float_of_int s.Gc.heap_words)

let run_job t w job : Protocol.response =
  match job.jb_request with
  | Protocol.Health { id } | Protocol.Metrics { id } ->
      (* Health/metrics never enter the queue (serve answers them
         inline); reaching a worker with one is a wiring bug, reported
         as such rather than silently misclassified. *)
      Protocol.Job
        (job_response id Protocol.Internal
           "inline-answerable request reached the pool")
  | Protocol.Classify { id; source; budget; deadline_ms = _; trace_id } -> (
      let dequeued = t.cfg.now () in
      let queue_s = Float.max 0. (dequeued -. job.jb_admitted) in
      let queue_ms = queue_s *. 1e3 in
      Metrics.aobserve "lalr_serve_queue_wait_seconds" queue_s;
      let worker_label () = [ ("worker", string_of_int w.w_id) ] in
      let finish_metrics (r : Protocol.job_response) =
        Metrics.ainc "lalr_serve_pool_jobs_total";
        Metrics.aobserve "lalr_serve_request_seconds"
          (Float.max 0. (t.cfg.now () -. job.jb_admitted));
        (match r.Protocol.r_slack_ms with
        | Some slack_ms ->
            Metrics.aset_gauge ~labels:(worker_label ())
              "lalr_serve_deadline_slack_seconds" (slack_ms /. 1e3)
        | None -> ());
        sample_gc w
      in
      (* Dequeue re-check: the wait in the queue may have consumed the
         whole deadline. Shed before any compute — no engine, no
         budget parse, no retries. *)
      let late =
        match job.jb_deadline with
        | Some d ->
            let past = dequeued -. d in
            if past > 0. then Some past else None
        | None -> None
      in
      match late with
      | Some past ->
          let r =
            {
              (job_response id Protocol.Deadline_exceeded
                 (Printf.sprintf
                    "deadline expired while queued (%.1fms past); shed before \
                     compute"
                    (past *. 1e3)))
              with
              Protocol.r_queue_ms = queue_ms;
              Protocol.r_worker = Some w.w_id;
              Protocol.r_slack_ms = Some (-.past *. 1e3);
              Protocol.r_trace_id = trace_id;
            }
          in
          Atomic.incr t.expired;
          finish_metrics r;
          Protocol.Job r
      | None ->
          let budget_spec =
            match budget with Some _ -> budget | None -> t.cfg.default_budget
          in
          let t0 = Unix.gettimeofday () in
          let r, retries =
            Retry.run ~policy:t.cfg.retry ~sleep:t.cfg.sleep
              ~retryable:(fun (o : Protocol.job_response) ->
                o.Protocol.r_status = Protocol.Internal)
              (fun ~attempt ->
                Trace.with_span
                  ~attrs:(fun () ->
                    let base =
                      [ ("id", Trace.Str id); ("attempt", Trace.Int attempt) ]
                    in
                    match trace_id with
                    | Some tid -> ("trace_id", Trace.Str tid) :: base
                    | None -> base)
                  "serve.request"
                  (fun () ->
                    attempt_job t id source budget_spec
                      ~deadline:job.jb_deadline))
          in
          let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
          Metrics.aobserve "lalr_serve_compute_seconds" (wall_ms /. 1e3);
          if r.Protocol.r_status = Protocol.Deadline_exceeded then
            Atomic.incr t.expired;
          if retries > 0 then Metrics.ainc ~n:retries "lalr_serve_retries_total";
          let slack_ms =
            Option.map
              (fun d -> (d -. t.cfg.now ()) *. 1e3)
              job.jb_deadline
          in
          let r =
            {
              r with
              Protocol.r_wall_ms = wall_ms;
              Protocol.r_queue_ms = queue_ms;
              Protocol.r_retries = retries;
              Protocol.r_worker = Some w.w_id;
              Protocol.r_slack_ms = slack_ms;
              Protocol.r_trace_id = trace_id;
            }
          in
          finish_metrics r;
          Protocol.Job r)

(* ------------------------------------------------------------------ *)
(* Worker domains and supervision                                      *)
(* ------------------------------------------------------------------ *)

let take_job t =
  Mutex.lock t.mu;
  let rec wait () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.draining then None
    else begin
      Condition.wait t.nonempty t.mu;
      wait ()
    end
  in
  let j = wait () in
  Mutex.unlock t.mu;
  j

let rec worker_loop t w =
  match take_job t with
  | None -> ()
  | Some job ->
      Atomic.set w.w_current (Some job);
      (* The crash site: deliberately OUTSIDE the typed per-job
         boundary, so an armed serve-worker raise escapes, kills this
         domain, and exercises the supervisor's restart path. *)
      Faultpoint.check "serve-worker";
      let response = run_job t w job in
      (* Clear the in-flight marker BEFORE responding: if the respond
         callback itself dies (a broken connection absorbed too late),
         the supervisor must not answer this job a second time. *)
      Atomic.set w.w_current None;
      Atomic.incr w.w_jobs;
      Atomic.incr t.completed;
      job.jb_respond response;
      worker_loop t w

let worker_body t w () =
  Atomic.set w.w_alive true;
  Atomic.set w.w_jobs 0;
  (* Arm this domain's metrics shard: ambient probes in [run_job] (and
     anything below it) land in shard w_id+1 without a handle. The
     shard itself persists across incarnations. *)
  Metrics.set_ambient (worker_shard t.cfg w.w_id);
  let session = if t.cfg.trace then Some (Trace.start ()) else None in
  match worker_loop t w with
  | () ->
      Option.iter
        (fun s ->
          Trace.finish s;
          Atomic.set w.w_session (Some s))
        session;
      `Done
  | exception exn ->
      Atomic.set w.w_alive false;
      `Crashed (Printexc.to_string exn)
[@@lalr.allow
  D004
    "supervision boundary: the worker domain converts ANY escaping \
     exception into a `Crashed value so the supervisor thread can \
     respond for the in-flight job and restart the domain — \
     re-raising would abort the whole daemon, which is exactly what \
     supervision exists to prevent"]

let rec supervise t w =
  let d = Domain.spawn (worker_body t w) in
  match Domain.join d with
  | `Done -> ()
  | `Crashed msg ->
      Atomic.incr t.restarts;
      (* Supervisor threads share the main domain; their counters go
         to shard 0, pre-registered in [create] (the multi-thread
         shard contract). *)
      (match pool_shard t.cfg with
      | Some sh -> Metrics.inc sh "lalr_serve_worker_crashes_total"
      | None -> ());
      let now = t.cfg.now () in
      Mutex.lock t.mu;
      Queue.push now t.restart_log;
      prune_restarts_locked t ~now;
      Mutex.unlock t.mu;
      (match Atomic.exchange w.w_current None with
      | Some job ->
          Atomic.incr t.completed;
          (match pool_shard t.cfg with
          | Some sh -> Metrics.inc sh "lalr_serve_worker_crash_responses_total"
          | None -> ());
          let trace_id =
            match job.jb_request with
            | Protocol.Classify { trace_id; _ } -> trace_id
            | _ -> None
          in
          job.jb_respond
            (Protocol.Job
               {
                 (job_response
                    (Protocol.request_id job.jb_request)
                    Protocol.Internal
                    (Printf.sprintf "worker %d crashed: %s (domain restarted)"
                       w.w_id msg))
                 with
                 Protocol.r_retries = 0;
                 Protocol.r_worker = Some w.w_id;
                 Protocol.r_trace_id = trace_id;
               })
      | None -> ());
      (* Unconditional respawn: while draining, the fresh incarnation
         exits as soon as the queue is empty, so a crash during drain
         still finishes the admitted work. A persistent crash loop
         makes progress anyway — each crash consumes its job; the
         readiness backstop above only stops NEW admissions. *)
      supervise t w

let create cfg =
  let cfg =
    {
      cfg with
      domains = max 1 cfg.domains;
      queue_capacity = max 1 cfg.queue_capacity;
      crash_threshold = max 1 cfg.crash_threshold;
      crash_window = Float.max 1e-3 cfg.crash_window;
    }
  in
  let workers =
    Array.init cfg.domains (fun i ->
        {
          w_id = i;
          w_alive = Atomic.make false;
          w_jobs = Atomic.make 0;
          w_current = Atomic.make None;
          w_session = Atomic.make None;
        })
  in
  let t =
    {
      cfg;
      mu = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      draining = false;
      drained = None;
      restart_log = Queue.create ();
      workers;
      supervisors = [||];
      started_at = Unix.gettimeofday ();
      restarts = Atomic.make 0;
      shed = Atomic.make 0;
      expired = Atomic.make 0;
      completed = Atomic.make 0;
    }
  in
  (* Shard 0 is written by several sys-threads (supervisors here,
     reader threads in serve), so its series must exist before any of
     them start — the Metrics pre-registration contract. *)
  (match pool_shard cfg with
  | Some sh ->
      Metrics.inc sh ~n:0 "lalr_serve_worker_crashes_total";
      Metrics.inc sh ~n:0 "lalr_serve_worker_crash_responses_total"
  | None -> ());
  t.supervisors <-
    Array.map (fun w -> Thread.create (fun () -> supervise t w) ()) workers;
  t

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let submit t ~request ~respond =
  Faultpoint.check "serve-dispatch";
  match request with
  | Protocol.Classify { deadline_ms = Some ms; _ } when ms <= 0. ->
      (* Already expired on arrival: shed before any compute, before
         even touching the queue lock. *)
      Atomic.incr t.expired;
      `Expired
  | _ ->
      let deadline =
        match request with
        | Protocol.Classify { deadline_ms = Some ms; _ } ->
            Some (t.cfg.now () +. (ms /. 1e3))
        | _ -> None
      in
      let now = t.cfg.now () in
      Mutex.lock t.mu;
      if t.draining then begin
        Mutex.unlock t.mu;
        Atomic.incr t.shed;
        `Draining
      end
      else if not (ready_locked t ~now) then begin
        Mutex.unlock t.mu;
        Atomic.incr t.shed;
        `Unready
      end
      else if Queue.length t.queue >= t.cfg.queue_capacity then begin
        Mutex.unlock t.mu;
        Atomic.incr t.shed;
        `Overloaded
      end
      else begin
        Queue.push
          {
            jb_request = request;
            jb_respond = respond;
            jb_deadline = deadline;
            jb_admitted = now;
          }
          t.queue;
        Condition.signal t.nonempty;
        Mutex.unlock t.mu;
        `Accepted
      end

let depth t =
  Mutex.lock t.mu;
  let d = Queue.length t.queue in
  Mutex.unlock t.mu;
  d

let health t ~id : Protocol.health_response =
  {
    h_id = id;
    h_uptime_s = Unix.gettimeofday () -. t.started_at;
    h_pid = Unix.getpid ();
    h_version = Protocol.version;
    h_ready = ready t;
    h_queue_depth = depth t;
    h_queue_capacity = t.cfg.queue_capacity;
    h_workers =
      Array.to_list
        (Array.map
           (fun w ->
             {
               Protocol.w_id = w.w_id;
               w_alive = Atomic.get w.w_alive;
               w_jobs = Atomic.get w.w_jobs;
             })
           t.workers);
    h_restarts = Atomic.get t.restarts;
    h_shed = Atomic.get t.shed;
    h_deadline_expired = Atomic.get t.expired;
    h_completed = Atomic.get t.completed;
    h_store = Option.map Store.stats t.cfg.store;
  }

let drain t =
  Mutex.lock t.mu;
  match t.drained with
  | Some sessions ->
      Mutex.unlock t.mu;
      sessions
  | None ->
      t.draining <- true;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mu;
      Array.iter Thread.join t.supervisors;
      let sessions = Array.map (fun w -> Atomic.get w.w_session) t.workers in
      Mutex.lock t.mu;
      t.drained <- Some sessions;
      Mutex.unlock t.mu;
      sessions
