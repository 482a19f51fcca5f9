(* The serve daemon's robustness contract, pinned end to end.

   In-process layers first — the wire protocol (a total decoder), the
   Retry policy (deterministic backoff), the Pool (supervision,
   shedding, per-job budgets) — then the chaos acceptance test through
   the real binary: a mixed load with a poisoned request, an
   over-budget request and a malformed line must produce exactly one
   typed response per request while the daemon keeps serving, and
   SIGTERM must drain to exit 0. *)

module Protocol = Lalr_serve.Protocol
module Pool = Lalr_serve.Pool
module Serve = Lalr_serve.Serve
module Client = Lalr_serve.Client
module Retry = Lalr_guard.Retry
module Breaker = Lalr_guard.Breaker
module Faultpoint = Lalr_guard.Faultpoint
module Metrics = Lalr_trace.Metrics

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let decode_ok line =
  match Protocol.decode_request line with
  | Ok r -> r
  | Error m -> Alcotest.failf "decode %S: %s" line m

let decode_err line =
  match Protocol.decode_request line with
  | Ok _ -> Alcotest.failf "decode %S: expected rejection" line
  | Error m -> m

let test_decode_requests () =
  (match decode_ok {|{"id":"r1","kind":"classify","file":"suite:expr"}|} with
  | Protocol.Classify { id = "r1"; source = Protocol.File "suite:expr";
                        budget = None; deadline_ms = None;
                        trace_id = None } -> ()
  | _ -> Alcotest.fail "file request decoded wrong");
  (match decode_ok {|{"id":"d","file":"g.cfg","deadline_ms":250}|} with
  | Protocol.Classify { id = "d"; deadline_ms = Some 250.; _ } -> ()
  | _ -> Alcotest.fail "deadline_ms decoded wrong");
  (match decode_ok {|{"id":7,"file":"g.cfg","budget":"fuel=10"}|} with
  | Protocol.Classify { id = "7"; budget = Some "fuel=10"; _ } -> ()
  | _ -> Alcotest.fail "integer id / budget decoded wrong");
  (match decode_ok {|{"id":"h","kind":"health"}|} with
  | Protocol.Health { id = "h" } -> ()
  | _ -> Alcotest.fail "health decoded wrong");
  match
    decode_ok {|{"grammar":"%token a\n%start s\n%%\ns : a ;","format":"mly"}|}
  with
  | Protocol.Classify
      { id = ""; source = Protocol.Inline { format = `Mly; text }; _ } ->
      Alcotest.(check bool) "inline text carries the newlines" true
        (String.contains text '\n')
  | _ -> Alcotest.fail "inline request decoded wrong"

let test_decode_rejects () =
  let cases =
    [
      ("", "empty line");
      ("not json", "garbage");
      ({|{"id":"x","buget":"fuel=1"}|}, "unknown field (typo must not pass)");
      ({|{"file":"a","grammar":"b"}|}, "file and grammar are exclusive");
      ({|{"kind":"reboot"}|}, "unknown kind");
      ({|{"id":["x"]}|}, "non-scalar id");
      ({|{"file":"a"} trailing|}, "trailing garbage");
      ({|{"format":"cfg"}|}, "format without grammar");
    ]
  in
  List.iter (fun (line, _why) -> ignore (decode_err line : string)) cases;
  (* depth bomb: linear time, clean rejection, no stack overflow *)
  let bomb = String.make 4000 '[' in
  ignore (decode_err bomb : string);
  (* NUL and friends are rejected, not smuggled through *)
  ignore (decode_err "{\"id\":\"a\x00b\"}" : string)

let test_encode_roundtrip () =
  let reqs =
    [
      Protocol.Classify
        { id = "r1"; source = Protocol.File "suite:expr";
          budget = Some "wall=500ms"; deadline_ms = None; trace_id = None };
      Protocol.Classify
        { id = "r2"; source = Protocol.File "suite:expr"; budget = None;
          deadline_ms = Some 250.; trace_id = Some "t-r2" };
      Protocol.Classify
        {
          id = "";
          source =
            Protocol.Inline
              { text = "%token a\n%start s\n%%\ns : a ;"; format = `Cfg };
          budget = None;
          deadline_ms = None;
          trace_id = None;
        };
      Protocol.Health { id = "h1" };
      Protocol.Metrics { id = "m1" };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.decode_request (Protocol.encode_request r) with
      | Ok r' when r = r' -> ()
      | Ok _ -> Alcotest.failf "round-trip changed %s" (Protocol.encode_request r)
      | Error m -> Alcotest.failf "round-trip rejected: %s" m)
    reqs

let test_observability_protocol () =
  (* trace_id rides along on classify; non-strings are rejected *)
  (match decode_ok {|{"id":"t","file":"g.cfg","trace_id":"abc-1"}|} with
  | Protocol.Classify { trace_id = Some "abc-1"; _ } -> ()
  | _ -> Alcotest.fail "trace_id decoded wrong");
  ignore (decode_err {|{"id":"t","file":"g.cfg","trace_id":7}|} : string);
  (match decode_ok {|{"id":"m","kind":"metrics"}|} with
  | Protocol.Metrics { id = "m" } -> ()
  | _ -> Alcotest.fail "metrics request decoded wrong");
  (* the health line pins the members collectors key on *)
  let h =
    Protocol.Health
      {
        Protocol.h_id = "h"; h_uptime_s = 1.5; h_pid = 42;
        h_version = Protocol.version; h_ready = true; h_queue_depth = 0;
        h_queue_capacity = 64; h_workers = []; h_restarts = 0; h_shed = 0;
        h_deadline_expired = 0; h_completed = 0; h_store = None;
      }
  in
  let hline = Protocol.encode_response h in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("health carries " ^ needle) true
        (contains hline needle))
    [
      {|"uptime_ms":1500|}; {|"pid":42|};
      Printf.sprintf {|"version":"%s"|} Protocol.version;
    ];
  (* a metrics response is one string member, status "metrics", exit 0 *)
  let m =
    Protocol.Metrics_snapshot
      { Protocol.m_id = "m"; m_body = "# TYPE a counter\na 1\n" }
  in
  let mline = Protocol.encode_response m in
  Alcotest.(check bool) "metrics status" true
    (contains mline {|"status":"metrics"|});
  Alcotest.(check bool) "metrics exit 0" true (contains mline {|"exit":0|});
  Alcotest.(check bool) "newlines escaped in body" true
    (contains mline {|\n|});
  Alcotest.(check string) "status label" "metrics"
    (Protocol.response_status_label m)

let test_stamp_trace_ids () =
  let classify = {|{"id":"a","file":"g.cfg"}|} in
  let stamped_already = {|{"id":"b","file":"g.cfg","trace_id":"keep"}|} in
  let health = {|{"id":"h","kind":"health"}|} in
  let garbage = "not json at all" in
  let out =
    Client.stamp_trace_ids ~prefix:"p"
      [ classify; stamped_already; health; garbage ]
  in
  (match out with
  | [ a; b; h; g ] ->
      (match Protocol.decode_request a with
      | Ok (Protocol.Classify { trace_id = Some "p-0"; _ }) -> ()
      | _ -> Alcotest.fail "unstamped classify gains prefix-index");
      Alcotest.(check string) "already-stamped line untouched" stamped_already
        b;
      Alcotest.(check string) "health untouched" health h;
      Alcotest.(check string) "garbage untouched" garbage g
  | _ -> Alcotest.fail "stamping preserves arity");
  Alcotest.(check (list string)) "trace_ids extracts in order"
    [ "p-0"; "keep" ] (Client.trace_ids out)

let test_response_exits () =
  List.iter
    (fun (status, want) ->
      Alcotest.(check int)
        (Protocol.status_name status)
        want
        (Protocol.status_exit status))
    [
      (Protocol.Ok_, 0); (Protocol.Verdict, 1); (Protocol.Bad_request, 2);
      (Protocol.Budget, 3); (Protocol.Overloaded, 3);
      (Protocol.Deadline_exceeded, 3); (Protocol.Internal, 4);
      (Protocol.Health_ok, 0);
    ]

(* ------------------------------------------------------------------ *)
(* Retry                                                               *)
(* ------------------------------------------------------------------ *)

let test_retry_deterministic_backoff () =
  let p = Retry.default in
  for attempt = 1 to 5 do
    let d1 = Retry.delay_for p ~attempt in
    let d2 = Retry.delay_for p ~attempt in
    Alcotest.(check (float 0.)) "same attempt, same delay" d1 d2;
    let lo = p.Retry.base_delay *. (1. -. p.Retry.jitter) in
    let hi =
      p.Retry.max_delay *. (1. +. p.Retry.jitter)
    in
    Alcotest.(check bool)
      (Printf.sprintf "delay %g within jittered envelope" d1)
      true
      (d1 >= lo && d1 <= hi)
  done;
  (* growth up to the cap: un-jittered raw doubles each attempt *)
  let nj = { p with Retry.jitter = 0. } in
  Alcotest.(check (float 1e-9)) "attempt 1" 0.05 (Retry.delay_for nj ~attempt:1);
  Alcotest.(check (float 1e-9)) "attempt 2" 0.1 (Retry.delay_for nj ~attempt:2);
  Alcotest.(check (float 1e-9)) "cap" 1.0 (Retry.delay_for nj ~attempt:20)

let test_retry_run () =
  let slept = ref [] in
  let sleep d = slept := d :: !slept in
  (* first attempt stands: no sleeps, zero retries *)
  let r, retries =
    Retry.run ~sleep ~retryable:(fun _ -> false) (fun ~attempt -> attempt)
  in
  Alcotest.(check int) "value" 1 r;
  Alcotest.(check int) "no retries" 0 retries;
  Alcotest.(check int) "no sleeps" 0 (List.length !slept);
  (* always-retryable: bounded by max_attempts, one sleep per retry *)
  let policy = { Retry.default with Retry.max_attempts = 4 } in
  let calls = ref 0 in
  let _, retries =
    Retry.run ~policy ~sleep
      ~retryable:(fun _ -> true)
      (fun ~attempt:_ -> incr calls)
  in
  Alcotest.(check int) "attempt cap respected" 4 !calls;
  Alcotest.(check int) "retries reported" 3 retries;
  Alcotest.(check int) "one sleep per retry" 3 (List.length !slept)

(* ------------------------------------------------------------------ *)
(* Pool (in-process)                                                   *)
(* ------------------------------------------------------------------ *)

let collector () =
  let mu = Mutex.create () in
  let acc = ref [] in
  let respond r =
    Mutex.lock mu;
    acc := r :: !acc;
    Mutex.unlock mu
  in
  let get () =
    Mutex.lock mu;
    let v = !acc in
    Mutex.unlock mu;
    v
  in
  (respond, get)

let classify ?budget ?deadline_ms ?trace_id id file =
  Protocol.Classify
    { id; source = Protocol.File file; budget; deadline_ms; trace_id }

(* A job that is slow by construction: 54 Scaled units come to 1300
   productions, 70-95 ms to classify on a 2-vCPU x86 host, so the job
   holds its worker through the queue, shedding and deadline tests
   below. (Every suite grammar classifies in a few ms.) *)
let slow_text =
  lazy
    (Lalr_grammar.Reader.to_string
       (Lalr_suite.Scaled.grammar ~units:54 ()))

let slow_job ?deadline_ms id =
  Protocol.Classify
    {
      id;
      source = Protocol.Inline { text = Lazy.force slow_text; format = `Cfg };
      budget = None;
      deadline_ms;
      trace_id = None;
    }

let job_statuses responses =
  List.filter_map
    (function
      | Protocol.Job j -> Some (j.Protocol.r_id, j.Protocol.r_status)
      | Protocol.Health _ | Protocol.Metrics_snapshot _ -> None)
    responses

let test_pool_serves_and_drains () =
  let pool = Pool.create { Pool.default_config with Pool.domains = 2 } in
  let respond, get = collector () in
  let ids = List.init 6 (fun i -> Printf.sprintf "j%d" i) in
  List.iter
    (fun id ->
      match Pool.submit pool ~request:(classify id "suite:expr") ~respond with
      | `Accepted -> ()
      | `Overloaded | `Draining | `Expired | `Unready ->
          Alcotest.failf "%s not admitted" id)
    ids;
  ignore (Pool.drain pool);
  let got = job_statuses (get ()) in
  Alcotest.(check int) "one response per job" (List.length ids)
    (List.length got);
  List.iter
    (fun id ->
      match List.assoc_opt id got with
      | Some Protocol.Ok_ -> ()
      | Some s -> Alcotest.failf "%s: status %s" id (Protocol.status_name s)
      | None -> Alcotest.failf "%s: no response" id)
    ids;
  (* drain is idempotent *)
  ignore (Pool.drain pool)

let test_pool_per_request_budget () =
  let pool = Pool.create { Pool.default_config with Pool.domains = 1 } in
  let respond, get = collector () in
  let submit r =
    match Pool.submit pool ~request:r ~respond with
    | `Accepted -> ()
    | `Overloaded | `Draining | `Expired | `Unready ->
        Alcotest.fail "not admitted"
  in
  submit (classify ~budget:"fuel=10" "tight" "suite:ada-subset");
  submit (classify "free" "suite:ada-subset");
  submit (classify ~budget:"no-such-resource=1" "badspec" "suite:expr");
  ignore (Pool.drain pool);
  let got = job_statuses (get ()) in
  (match List.assoc_opt "tight" got with
  | Some Protocol.Budget -> ()
  | s ->
      Alcotest.failf "tight: %s"
        (match s with
        | Some s -> Protocol.status_name s
        | None -> "no response"))
  ;
  (match List.assoc_opt "free" got with
  | Some (Protocol.Ok_ | Protocol.Verdict) -> ()
  | _ -> Alcotest.fail "free: the budget leaked across jobs");
  match List.assoc_opt "badspec" got with
  | Some Protocol.Bad_request -> ()
  | _ -> Alcotest.fail "badspec: expected bad_request"

let test_pool_sheds_when_full () =
  (* One busy domain, queue of one: a slow job in flight, one queued,
     the rest of a fast burst must be refused as overloaded. *)
  let pool =
    Pool.create
      { Pool.default_config with Pool.domains = 1; Pool.queue_capacity = 1 }
  in
  let respond, get = collector () in
  let outcomes =
    List.init 10 (fun i ->
        let id = Printf.sprintf "b%d" i in
        Pool.submit pool
          ~request:(if i = 0 then slow_job id else classify id "suite:expr")
          ~respond)
  in
  let accepted =
    List.length (List.filter (fun o -> o = `Accepted) outcomes)
  in
  let shed = List.length (List.filter (fun o -> o = `Overloaded) outcomes) in
  Alcotest.(check bool) "first job admitted" true
    (List.hd outcomes = `Accepted);
  Alcotest.(check bool) "burst partially shed" true (shed > 0);
  ignore (Pool.drain pool);
  Alcotest.(check int) "every admitted job answered" accepted
    (List.length (get ()));
  let h = Pool.health pool ~id:"h" in
  Alcotest.(check int) "sheds counted" shed h.Protocol.h_shed

let test_pool_supervises_crash () =
  Faultpoint.disarm ();
  (match Faultpoint.arm "serve-worker:raise" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Fun.protect ~finally:Faultpoint.disarm (fun () ->
      let pool = Pool.create { Pool.default_config with Pool.domains = 1 } in
      let respond, get = collector () in
      List.iter
        (fun id ->
          match
            Pool.submit pool ~request:(classify id "suite:expr") ~respond
          with
          | `Accepted -> ()
          | `Overloaded | `Draining | `Expired | `Unready ->
              Alcotest.fail "not admitted")
        [ "poisoned"; "after" ];
      ignore (Pool.drain pool);
      let got = job_statuses (get ()) in
      Alcotest.(check int) "both jobs answered" 2 (List.length got);
      (match List.assoc_opt "poisoned" got with
      | Some Protocol.Internal -> ()
      | _ -> Alcotest.fail "poisoned job: expected typed internal");
      (match List.assoc_opt "after" got with
      | Some Protocol.Ok_ -> ()
      | _ -> Alcotest.fail "job after the crash: expected ok");
      let h = Pool.health pool ~id:"h" in
      Alcotest.(check int) "restart recorded" 1 h.Protocol.h_restarts)

(* ------------------------------------------------------------------ *)
(* Pool: deadlines                                                     *)
(* ------------------------------------------------------------------ *)

let test_pool_deadline_admission () =
  let pool = Pool.create { Pool.default_config with Pool.domains = 1 } in
  let respond, get = collector () in
  (match
     Pool.submit pool
       ~request:(classify ~deadline_ms:(-5.) "neg" "suite:expr")
       ~respond
   with
  | `Expired -> ()
  | _ -> Alcotest.fail "negative deadline must shed at admission");
  (match
     Pool.submit pool
       ~request:(classify ~deadline_ms:0. "zero" "suite:expr")
       ~respond
   with
  | `Expired -> ()
  | _ -> Alcotest.fail "zero deadline must shed at admission");
  ignore (Pool.drain pool);
  Alcotest.(check int) "shed before any compute: respond never called" 0
    (List.length (get ()));
  let h = Pool.health pool ~id:"h" in
  Alcotest.(check int) "expired counter" 2 h.Protocol.h_deadline_expired;
  Alcotest.(check bool) "deadline sheds do not flip readiness" true
    h.Protocol.h_ready

let test_pool_deadline_dequeue () =
  (* Injected clock: a blocker holds the single worker while "late"
     queues; the clock jumps past late's deadline during the wait, so
     the dequeue re-check must shed it without running the engine. *)
  let clock = ref 1000. in
  let pool =
    Pool.create
      {
        Pool.default_config with
        Pool.domains = 1;
        Pool.now = (fun () -> !clock);
      }
  in
  let respond, get = collector () in
  let submit r =
    match Pool.submit pool ~request:r ~respond with
    | `Accepted -> ()
    | _ -> Alcotest.fail "not admitted"
  in
  submit (slow_job "blocker");
  submit (classify ~deadline_ms:10. "late" "suite:expr");
  clock := !clock +. 60.;
  ignore (Pool.drain pool);
  let got = job_statuses (get ()) in
  (match List.assoc_opt "late" got with
  | Some Protocol.Deadline_exceeded -> ()
  | Some s -> Alcotest.failf "late: %s" (Protocol.status_name s)
  | None -> Alcotest.fail "late: no response");
  (match List.assoc_opt "blocker" got with
  | Some (Protocol.Ok_ | Protocol.Verdict) -> ()
  | _ -> Alcotest.fail "blocker must complete unaffected");
  let h = Pool.health pool ~id:"h" in
  Alcotest.(check int) "dequeue shed counted" 1 h.Protocol.h_deadline_expired

let test_pool_deadline_in_flight () =
  (* Real clock: the remaining deadline is intersected into the wall
     cap, so running work self-terminates — and the trip is typed
     deadline_exceeded, not budget. (If the queue wait eats the 5 ms
     first, the dequeue re-check sheds with the same status.) *)
  let pool = Pool.create { Pool.default_config with Pool.domains = 1 } in
  let respond, get = collector () in
  (match
     Pool.submit pool
       ~request:(slow_job ~deadline_ms:5. "running")
       ~respond
   with
  | `Accepted -> ()
  | _ -> Alcotest.fail "not admitted");
  ignore (Pool.drain pool);
  match job_statuses (get ()) with
  | [ ("running", Protocol.Deadline_exceeded) ] -> ()
  | [ ("running", s) ] -> Alcotest.failf "running: %s" (Protocol.status_name s)
  | _ -> Alcotest.fail "expected exactly one response"

let test_pool_deadline_vs_budget () =
  (* The client's own wall cap is tighter than the deadline: the trip
     belongs to the budget, and must NOT be reported deadline_exceeded. *)
  let pool = Pool.create { Pool.default_config with Pool.domains = 1 } in
  let respond, get = collector () in
  (match
     Pool.submit pool
       ~request:
         (classify ~budget:"wall=1ms" ~deadline_ms:60000. "capped"
            "suite:ada-subset")
       ~respond
   with
  | `Accepted -> ()
  | _ -> Alcotest.fail "not admitted");
  ignore (Pool.drain pool);
  match job_statuses (get ()) with
  | [ ("capped", Protocol.Budget) ] -> ()
  | [ ("capped", s) ] -> Alcotest.failf "capped: %s" (Protocol.status_name s)
  | _ -> Alcotest.fail "expected exactly one response"

(* ------------------------------------------------------------------ *)
(* Pool: crash-loop backstop                                           *)
(* ------------------------------------------------------------------ *)

let wait_restarts pool n =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let h = Pool.health pool ~id:"w" in
    if h.Protocol.h_restarts >= n then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %d restarts (have %d)" n
        h.Protocol.h_restarts
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let test_pool_crash_loop_unready () =
  Faultpoint.disarm ();
  (* Two fire-once points on the same site: each of the first two jobs
     crashes its worker exactly once. *)
  (match Faultpoint.arm "serve-worker:raise@1,serve-worker:raise@1" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Fun.protect ~finally:Faultpoint.disarm (fun () ->
      let clock = ref 0. in
      let pool =
        Pool.create
          {
            Pool.default_config with
            Pool.domains = 1;
            Pool.crash_threshold = 2;
            Pool.crash_window = 10.;
            Pool.now = (fun () -> !clock);
          }
      in
      let respond, get = collector () in
      let submit id =
        Pool.submit pool ~request:(classify id "suite:expr") ~respond
      in
      (match submit "c1" with
      | `Accepted -> ()
      | _ -> Alcotest.fail "c1 not admitted");
      wait_restarts pool 1;
      Alcotest.(check bool) "one crash inside the window: still ready" true
        (Pool.ready pool);
      (match submit "c2" with
      | `Accepted -> ()
      | _ -> Alcotest.fail "c2 not admitted");
      wait_restarts pool 2;
      Alcotest.(check bool) "threshold reached: backstop holds" false
        (Pool.ready pool);
      (match submit "refused" with
      | `Unready -> ()
      | `Accepted -> Alcotest.fail "unready pool must not admit"
      | _ -> Alcotest.fail "expected `Unready");
      (* the window slides past the burst: readiness self-heals *)
      clock := !clock +. 60.;
      Alcotest.(check bool) "self-healed after the window" true
        (Pool.ready pool);
      (match submit "healed" with
      | `Accepted -> ()
      | _ -> Alcotest.fail "healed not admitted");
      ignore (Pool.drain pool);
      let got = job_statuses (get ()) in
      (match List.assoc_opt "healed" got with
      | Some Protocol.Ok_ -> ()
      | _ -> Alcotest.fail "job after self-heal must run clean");
      let h = Pool.health pool ~id:"h" in
      Alcotest.(check int) "both respawns recorded" 2 h.Protocol.h_restarts;
      Alcotest.(check bool) "health reports ready again" true
        h.Protocol.h_ready)

(* ------------------------------------------------------------------ *)
(* Breaker                                                             *)
(* ------------------------------------------------------------------ *)

let check_decision msg want got =
  let name = function
    | Breaker.Proceed -> "proceed"
    | Breaker.Probe -> "probe"
    | Breaker.Reject r -> Printf.sprintf "reject(%g)" r
  in
  if got <> want then Alcotest.failf "%s: %s, wanted %s" msg (name got) (name want)

let test_breaker_transitions () =
  let clock = ref 0. in
  let b =
    Breaker.create
      ~config:
        {
          Breaker.failure_threshold = 2;
          Breaker.reset_after = 1.0;
          Breaker.now = (fun () -> !clock);
        }
      ()
  in
  Alcotest.(check string) "fresh" "closed"
    (Breaker.state_name (Breaker.state b));
  check_decision "closed admits" Breaker.Proceed (Breaker.acquire b);
  Breaker.failure b;
  Alcotest.(check string) "below threshold" "closed"
    (Breaker.state_name (Breaker.state b));
  check_decision "still admits" Breaker.Proceed (Breaker.acquire b);
  Breaker.failure b;
  Alcotest.(check string) "threshold trips" "open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check int) "trip counted" 1 (Breaker.trips b);
  check_decision "open rejects with full window" (Breaker.Reject 1.0)
    (Breaker.acquire b);
  clock := 0.5;
  check_decision "mid-window reject reports time left" (Breaker.Reject 0.5)
    (Breaker.acquire b);
  clock := 1.0;
  Alcotest.(check string) "window elapsed" "half-open"
    (Breaker.state_name (Breaker.state b));
  check_decision "single probe slot won" Breaker.Probe (Breaker.acquire b);
  check_decision "concurrent caller sheds while probe in flight"
    (Breaker.Reject 0.) (Breaker.acquire b);
  Breaker.success b;
  Alcotest.(check string) "probe success closes" "closed"
    (Breaker.state_name (Breaker.state b));
  check_decision "closed again" Breaker.Proceed (Breaker.acquire b);
  Alcotest.(check int) "no extra trip" 1 (Breaker.trips b);
  (* a success also reset the failure count: one new failure must not
     re-trip a threshold-2 breaker *)
  Breaker.failure b;
  Alcotest.(check string) "failure count was reset" "closed"
    (Breaker.state_name (Breaker.state b))

let test_breaker_failed_probe_reopens () =
  let before_total = Breaker.total_trips () in
  let clock = ref 0. in
  let b =
    Breaker.create
      ~config:
        {
          Breaker.failure_threshold = 1;
          Breaker.reset_after = 1.0;
          Breaker.now = (fun () -> !clock);
        }
      ()
  in
  Breaker.failure b;
  Alcotest.(check string) "threshold 1 trips at once" "open"
    (Breaker.state_name (Breaker.state b));
  clock := 1.0;
  check_decision "probe allowed" Breaker.Probe (Breaker.acquire b);
  Breaker.failure b;
  Alcotest.(check int) "failed probe re-trips" 2 (Breaker.trips b);
  clock := 1.5;
  check_decision "re-opened for a FULL window" (Breaker.Reject 0.5)
    (Breaker.acquire b);
  clock := 2.0;
  check_decision "next probe" Breaker.Probe (Breaker.acquire b);
  Breaker.success b;
  Alcotest.(check string) "recovered" "closed"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "process-wide trip counter is monotone" true
    (Breaker.total_trips () >= before_total + 2)

let test_retry_jitter_stream () =
  let delays p = List.init 6 (fun i -> Retry.delay_for p ~attempt:(i + 1)) in
  let p = { Retry.default with Retry.max_attempts = 7 } in
  Alcotest.(check (list (float 0.))) "same policy, same stream" (delays p)
    (delays p);
  let p' = { p with Retry.seed = p.Retry.seed + 1 } in
  Alcotest.(check bool) "a different seed moves the stream" true
    (delays p <> delays p');
  (* the jitter factor varies across attempts — a constant factor would
     keep a failed fleet in lockstep *)
  let raw attempt =
    Float.min p.Retry.max_delay
      (p.Retry.base_delay *. (p.Retry.multiplier ** float_of_int (attempt - 1)))
  in
  let factors =
    List.mapi (fun i d -> d /. raw (i + 1)) (delays p)
  in
  let distinct =
    List.sort_uniq compare (List.map (fun f -> Float.round (f *. 1e6)) factors)
  in
  Alcotest.(check bool) "jitter varies across attempts" true
    (List.length distinct > 1);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "factor %g within [1-j, 1+j]" f)
        true
        (f >= 1. -. p.Retry.jitter -. 1e-9
        && f <= 1. +. p.Retry.jitter +. 1e-9))
    factors

(* ------------------------------------------------------------------ *)
(* Client (in-process, against throwaway sockets)                      *)
(* ------------------------------------------------------------------ *)

let one_shot_retry = { Retry.default with Retry.max_attempts = 1 }
let no_sleep (_ : float) = ()

let test_client_connect_failure_messages () =
  (* nothing at that path *)
  let missing = "/nonexistent/lalr_no_such_dir/daemon.sock" in
  let c =
    Client.create ~retry:one_shot_retry ~sleep:no_sleep
      (Serve.Unix_path missing)
  in
  (match Client.call c [ {|{"id":"x","kind":"health"}|} ] with
  | Error (Client.Unavailable { reason; partial; _ }) ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names the failure mode" reason)
        true
        (contains reason "no such socket");
      Alcotest.(check bool)
        (Printf.sprintf "%S names the endpoint" reason)
        true (contains reason missing);
      Alcotest.(check int) "nothing partially delivered" 0
        (List.length partial)
  | Error (Client.Breaker_open _) -> Alcotest.fail "breaker cannot be open yet"
  | Ok _ -> Alcotest.fail "connect to a missing socket cannot succeed");
  (* something at that path, but nobody accepting: bind without listen *)
  let stale = Filename.temp_file "lalr_stale_" ".sock" in
  Sys.remove stale;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Sys.remove stale with Sys_error _ -> ())
    (fun () ->
      Unix.bind fd (Unix.ADDR_UNIX stale);
      let c =
        Client.create ~retry:one_shot_retry ~sleep:no_sleep
          (Serve.Unix_path stale)
      in
      match Client.call c [ {|{"id":"x","kind":"health"}|} ] with
      | Error (Client.Unavailable { reason; _ }) ->
          Alcotest.(check bool)
            (Printf.sprintf "%S distinguishes refused from missing" reason)
            true
            (contains reason "connection refused");
          Alcotest.(check bool)
            (Printf.sprintf "%S names the endpoint" reason)
            true (contains reason stale)
      | Error (Client.Breaker_open _) ->
          Alcotest.fail "breaker cannot be open yet"
      | Ok _ -> Alcotest.fail "connect to a dead socket cannot succeed");
  (* wording pinned for the CLI, which prints these verbatim *)
  Alcotest.(check string) "ENOENT wording"
    "no such socket /p.sock (is the daemon running?)"
    (Client.connect_failure (Serve.Unix_path "/p.sock") Unix.ENOENT)

let test_client_breaker_fast_fail () =
  let b =
    Breaker.create
      ~config:{ Breaker.default with Breaker.failure_threshold = 1 }
      ()
  in
  let c =
    Client.create ~retry:one_shot_retry ~sleep:no_sleep ~breaker:b
      (Serve.Unix_path "/nonexistent/lalr_no_such_dir/daemon.sock")
  in
  (match Client.call c [ {|{"id":"x","kind":"health"}|} ] with
  | Error (Client.Unavailable _) -> ()
  | _ -> Alcotest.fail "first call must fail through the transport");
  Alcotest.(check string) "one failure tripped the threshold-1 breaker" "open"
    (Breaker.state_name (Breaker.state b));
  match Client.call c [ {|{"id":"x","kind":"health"}|} ] with
  | Error (Client.Breaker_open { retry_after; _ } as e) ->
      Alcotest.(check bool) "retry_after is in the future" true
        (retry_after > 0.);
      Alcotest.(check bool) "operator message names the breaker" true
        (contains (Client.error_message e) "circuit breaker open")
  | Error (Client.Unavailable _) ->
      Alcotest.fail "second call must shed locally, not touch the network"
  | Ok _ -> Alcotest.fail "second call cannot succeed"

(* ------------------------------------------------------------------ *)
(* End to end: the daemon through the real binary                      *)
(* ------------------------------------------------------------------ *)

let binary =
  lazy
    (List.find Sys.file_exists
       [
         Filename.concat
           (Filename.dirname Sys.executable_name)
           "../bin/lalrgen.exe";
         "../bin/lalrgen.exe";
         "_build/default/bin/lalrgen.exe";
       ])

let run_client args =
  let cmd =
    Printf.sprintf "%s %s 2>&1"
      (Filename.quote (Lazy.force binary))
      (String.concat " " (List.map Filename.quote args))
  in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n -> Alcotest.failf "client killed by signal %d" n
    | Unix.WSTOPPED n -> Alcotest.failf "client stopped by signal %d" n
  in
  (code, out)

type daemon = { d_pid : int; d_sock : string; d_log : string }

let start_daemon ?sock extra_args =
  let sock =
    match sock with
    | Some s -> s
    | None ->
        let s = Filename.temp_file "lalr_serve_" ".sock" in
        Sys.remove s;
        s
  in
  let log = Filename.temp_file "lalr_serve_" ".log" in
  let log_fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process (Lazy.force binary)
      (Array.of_list
         ([ Lazy.force binary; "serve"; "--socket"; sock ] @ extra_args))
      null log_fd log_fd
  in
  Unix.close null;
  Unix.close log_fd;
  (* ready when the socket accepts a raw connect — deliberately NOT a
     protocol round-trip, so readiness polling never consumes
     faultpoint hits armed on the decode path *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let up =
      try
        Unix.connect fd (Unix.ADDR_UNIX sock);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if up then ()
    else if Unix.gettimeofday () > deadline then (
      Unix.kill pid Sys.sigkill;
      Alcotest.failf "daemon did not come up; log:\n%s"
        (In_channel.with_open_bin log In_channel.input_all))
    else (
      Unix.sleepf 0.05;
      wait ())
  in
  wait ();
  { d_pid = pid; d_sock = sock; d_log = log }

let stop_daemon ?(signal = Sys.sigterm) d =
  Unix.kill d.d_pid signal;
  let _, status = Unix.waitpid [] d.d_pid in
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n ->
      Alcotest.failf "drain exited %d; log:\n%s" n
        (In_channel.with_open_bin d.d_log In_channel.input_all)
  | Unix.WSIGNALED n -> Alcotest.failf "daemon killed by signal %d" n
  | Unix.WSTOPPED n -> Alcotest.failf "daemon stopped by signal %d" n);
  Alcotest.(check bool) "socket path cleaned up" false (Sys.file_exists d.d_sock)

let kill_daemon d = try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error _ -> ()

(* Pull "field":"value" (string) or "field":123 out of a response line
   without a JSON parser on the test side: the line shape itself is
   pinned by the protocol round-trip tests. *)
let field_string line name =
  match Protocol.Json.parse line with
  | Ok j -> (
      match Protocol.Json.member name j with
      | Some (Protocol.Json.Str s) -> Some s
      | Some (Protocol.Json.Num f) -> Some (string_of_int (int_of_float f))
      | _ -> None)
  | Error _ -> None

let test_e2e_chaos_acceptance () =
  let d = start_daemon [ "--domains"; "2"; "--inject"; "serve-worker:raise" ] in
  Fun.protect
    ~finally:(fun () -> kill_daemon d)
    (fun () ->
      (* poisoned: the armed one-shot serve-worker fault crashes the
         first worker that picks a job up. It goes in a call of its
         own, answered before the rest is sent: with a second job in
         the queue, the other domain could reach the fault first. *)
      let poisoned = {|{"id":"poisoned","file":"suite:expr"}|} in
      let requests =
        [
          {|{"id":"clean","file":"suite:expr"}|};
          {|{"id":"conflicted","grammar":"%token plus id\n%start e\n%%\ne : e plus e | id ;","format":"cfg"}|};
          {|{"id":"tight","file":"suite:ada-subset","budget":"fuel=10"}|};
          "this is not json";
          {|{"id":"h","kind":"health"}|};
        ]
      in
      let call lines = run_client ([ "call"; "--socket"; d.d_sock ] @ lines) in
      let code_poisoned, out_poisoned = call [ poisoned ] in
      let code_rest, out_rest = call requests in
      let lines =
        String.split_on_char '\n' (out_poisoned ^ out_rest)
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
      in
      Alcotest.(check int) "exactly one response per request"
        (1 + List.length requests) (List.length lines);
      let status_of id =
        match
          List.filter (fun l -> field_string l "id" = Some id) lines
        with
        | [ l ] -> field_string l "status"
        | [] -> Alcotest.failf "%s: no response" id
        | _ -> Alcotest.failf "%s: more than one response" id
      in
      Alcotest.(check (option string)) "poisoned -> typed internal"
        (Some "internal") (status_of "poisoned");
      Alcotest.(check (option string)) "clean -> ok" (Some "ok")
        (status_of "clean");
      Alcotest.(check (option string)) "conflicts -> verdict"
        (Some "verdict") (status_of "conflicted");
      Alcotest.(check (option string)) "over budget -> budget"
        (Some "budget") (status_of "tight");
      Alcotest.(check (option string)) "malformed line -> bad_request"
        (Some "bad_request") (status_of "");
      Alcotest.(check (option string)) "health answered" (Some "health")
        (status_of "h");
      (* a call exits with its worst response *)
      Alcotest.(check int) "poisoned call exits 4 (internal)" 4 code_poisoned;
      Alcotest.(check int) "the other call exits 3 (budget)" 3 code_rest;
      (* the daemon survived all of it and still serves *)
      let code2, out2 = call [ {|{"id":"again","file":"suite:expr"}|} ] in
      Alcotest.(check int) "daemon keeps serving after chaos" 0 code2;
      Alcotest.(check bool) "fresh request is clean" true
        (field_string (String.trim out2) "status" = Some "ok");
      stop_daemon d)

let test_e2e_overload_shed () =
  let d = start_daemon [ "--domains"; "1"; "--queue"; "1" ] in
  Fun.protect
    ~finally:(fun () -> kill_daemon d)
    (fun () ->
      let requests =
        Protocol.encode_request (slow_job "slow")
        :: List.init 8 (fun i ->
               Printf.sprintf {|{"id":"f%d","file":"suite:expr"}|} i)
      in
      let _, out = run_client ([ "call"; "--socket"; d.d_sock ] @ requests) in
      let lines =
        String.split_on_char '\n' out
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
      in
      Alcotest.(check int) "every request answered" (List.length requests)
        (List.length lines);
      let statuses =
        List.filter_map (fun l -> field_string l "status") lines
      in
      Alcotest.(check bool) "some of the burst was shed" true
        (List.mem "overloaded" statuses);
      Alcotest.(check bool) "the slow job itself completed" true
        (List.exists
           (fun l ->
             field_string l "id" = Some "slow"
             && field_string l "status" <> Some "overloaded")
           lines);
      stop_daemon d)

let test_e2e_decode_fault_absorbed () =
  (* @2: the client's connect-time health probe is the daemon's first
     decode (readiness polling is a raw connect, no protocol line), so
     the fault lands on "x" and "y" decodes clean *)
  let d =
    start_daemon [ "--domains"; "1"; "--inject"; "serve-decode:raise@2" ]
  in
  Fun.protect
    ~finally:(fun () -> kill_daemon d)
    (fun () ->
      let code, out =
        run_client
          [
            "call"; "--socket"; d.d_sock;
            {|{"id":"x","file":"suite:expr"}|};
            {|{"id":"y","file":"suite:expr"}|};
          ]
      in
      let lines =
        String.split_on_char '\n' out
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
      in
      Alcotest.(check int) "both lines answered" 2 (List.length lines);
      let statuses = List.filter_map (fun l -> field_string l "status") lines in
      Alcotest.(check bool) "injected decode fault is a typed internal" true
        (List.mem "internal" statuses);
      Alcotest.(check bool) "next line decodes normally" true
        (List.mem "ok" statuses);
      Alcotest.(check int) "worst code reported" 4 code;
      stop_daemon d)

let test_e2e_oversized_line () =
  let d = start_daemon [ "--domains"; "1"; "--max-line"; "512" ] in
  Fun.protect
    ~finally:(fun () -> kill_daemon d)
    (fun () ->
      let big =
        Printf.sprintf {|{"id":"big","grammar":"%s","format":"cfg"}|}
          (String.make 2000 'a')
      in
      let code, out =
        run_client
          [
            "call"; "--socket"; d.d_sock; big;
            {|{"id":"small","file":"suite:expr"}|};
          ]
      in
      let lines =
        String.split_on_char '\n' out
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
      in
      Alcotest.(check int) "both lines answered" 2 (List.length lines);
      let statuses = List.filter_map (fun l -> field_string l "status") lines in
      Alcotest.(check bool) "oversized -> bad_request" true
        (List.mem "bad_request" statuses);
      Alcotest.(check bool) "framing recovers for the next line" true
        (List.mem "ok" statuses);
      Alcotest.(check int) "worst code is the bad_request" 2 code;
      stop_daemon d)

(* --- client resilience against a real daemon ---------------------- *)

let test_client_reconnects_after_restart () =
  let d = start_daemon [ "--domains"; "1" ] in
  let d2 = ref None in
  Fun.protect
    ~finally:(fun () ->
      kill_daemon d;
      match !d2 with Some d -> kill_daemon d | None -> ())
    (fun () ->
      let c = Client.create ~sleep:no_sleep (Serve.Unix_path d.d_sock) in
      (match Client.call c [ {|{"id":"one","file":"suite:expr"}|} ] with
      | Ok [ l ] ->
          Alcotest.(check (option string)) "first call served" (Some "ok")
            (field_string l "status")
      | Ok _ -> Alcotest.fail "one request, one response"
      | Error e -> Alcotest.failf "first call: %s" (Client.error_message e));
      (* daemon restarts on the SAME socket path; the client holds a
         now-stale connection *)
      stop_daemon d;
      d2 := Some (start_daemon ~sock:d.d_sock [ "--domains"; "1" ]);
      (match Client.call c [ {|{"id":"two","file":"suite:expr"}|} ] with
      | Ok [ l ] ->
          Alcotest.(check (option string))
            "stale connection replaced, call served by the new daemon"
            (Some "ok") (field_string l "status")
      | Ok _ -> Alcotest.fail "one request, one response"
      | Error e -> Alcotest.failf "after restart: %s" (Client.error_message e));
      Alcotest.(check string) "breaker closed throughout" "closed"
        (Breaker.state_name (Breaker.state (Client.breaker c)));
      Client.close c;
      match !d2 with Some d -> stop_daemon d | None -> ())

let test_client_faultpoint_absorbed () =
  Faultpoint.disarm ();
  (match Faultpoint.arm "serve-client:raise" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Fun.protect ~finally:Faultpoint.disarm (fun () ->
      let d = start_daemon [ "--domains"; "1" ] in
      Fun.protect
        ~finally:(fun () -> kill_daemon d)
        (fun () ->
          let c = Client.create ~sleep:no_sleep (Serve.Unix_path d.d_sock) in
          (match Client.call c [ {|{"id":"x","file":"suite:expr"}|} ] with
          | Ok [ l ] ->
              Alcotest.(check (option string))
                "connect-time fault absorbed by the retry layer" (Some "ok")
                (field_string l "status")
          | Ok _ -> Alcotest.fail "one request, one response"
          | Error e -> Alcotest.failf "call: %s" (Client.error_message e));
          Alcotest.(check string) "one absorbed fault leaves the breaker closed"
            "closed"
            (Breaker.state_name (Breaker.state (Client.breaker c)));
          Client.close c;
          stop_daemon d))

(* --- deadlines over the wire --------------------------------------- *)

let test_e2e_deadline_expired () =
  let d = start_daemon [ "--domains"; "1" ] in
  Fun.protect
    ~finally:(fun () -> kill_daemon d)
    (fun () ->
      let code, out =
        run_client
          [
            "call"; "--socket"; d.d_sock;
            {|{"id":"dead","file":"suite:expr","deadline_ms":-1}|};
            {|{"id":"live","file":"suite:expr","deadline_ms":60000}|};
          ]
      in
      let lines =
        String.split_on_char '\n' out
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
      in
      Alcotest.(check int) "both answered" 2 (List.length lines);
      let status_of id =
        List.find_map
          (fun l ->
            if field_string l "id" = Some id then field_string l "status"
            else None)
          lines
      in
      Alcotest.(check (option string)) "expired on arrival -> typed shed"
        (Some "deadline_exceeded") (status_of "dead");
      Alcotest.(check (option string)) "generous deadline -> served"
        (Some "ok") (status_of "live");
      Alcotest.(check int) "deadline_exceeded maps to exit 3" 3 code;
      (* the daemon counts the shed in its health payload *)
      let _, hout =
        run_client
          [ "call"; "--socket"; d.d_sock; {|{"id":"h","kind":"health"}|} ]
      in
      let hline =
        String.split_on_char '\n' hout
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
        |> function
        | [ l ] -> l
        | _ -> Alcotest.fail "one health line"
      in
      Alcotest.(check (option string)) "health counts the shed" (Some "1")
        (field_string hline "deadline_expired");
      Alcotest.(check bool) "health reports readiness" true
        (contains hline {|"ready":true|});
      stop_daemon d)

(* --- SIGINT drains like SIGTERM ------------------------------------ *)

let test_e2e_sigint_drain () =
  let trace = Filename.temp_file "lalr_serve_trace_" ".json" in
  let d = start_daemon [ "--domains"; "1"; "--trace"; trace ] in
  Fun.protect
    ~finally:(fun () ->
      kill_daemon d;
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ trace; trace ^ ".w0" ])
    (fun () ->
      let code, _ =
        run_client
          [ "call"; "--socket"; d.d_sock; {|{"id":"j","file":"suite:expr"}|} ]
      in
      Alcotest.(check int) "request served before the signal" 0 code;
      (* stop_daemon asserts exit 0 and the unlinked socket *)
      stop_daemon ~signal:Sys.sigint d;
      let non_empty f =
        Sys.file_exists f
        && In_channel.with_open_bin f In_channel.length > 0L
      in
      Alcotest.(check bool) "main trace file flushed" true (non_empty trace);
      Alcotest.(check bool) "per-worker trace file flushed" true
        (non_empty (trace ^ ".w0"));
      (* A trace holds spans and instants only; the final health counts
         ride on one serve.drained instant. *)
      let events f =
        match
          Protocol.Json.parse (In_channel.with_open_bin f In_channel.input_all)
        with
        | Ok j -> (
            match Protocol.Json.member "traceEvents" j with
            | Some (Protocol.Json.List evs) -> evs
            | _ -> Alcotest.failf "%s: no traceEvents array" f)
        | Error m -> Alcotest.failf "%s: not JSON: %s" f m
      in
      List.iter
        (fun f ->
          List.iter
            (fun ev ->
              match Protocol.Json.member "ph" ev with
              | Some (Protocol.Json.Str ("B" | "E" | "i")) -> ()
              | _ -> Alcotest.failf "%s: event is not a span or instant" f)
            (events f))
        [ trace; trace ^ ".w0" ];
      let drained =
        List.filter
          (fun ev ->
            Protocol.Json.member "name" ev
            = Some (Protocol.Json.Str "serve.drained"))
          (events trace)
      in
      Alcotest.(check int) "one serve.drained instant" 1 (List.length drained);
      let completed =
        match
          Option.bind
            (Protocol.Json.member "args" (List.hd drained))
            (Protocol.Json.member "completed")
        with
        | Some (Protocol.Json.Num n) -> n
        | _ -> Alcotest.fail "serve.drained lacks completed"
      in
      Alcotest.(check bool) "drain counted the served job" true
        (completed >= 1.))

(* --- batch --via-serve --------------------------------------------- *)

let test_e2e_batch_via_serve () =
  let d = start_daemon [ "--domains"; "2" ] in
  Fun.protect
    ~finally:(fun () -> kill_daemon d)
    (fun () ->
      let code, out =
        run_client
          [ "batch"; "--via-serve"; d.d_sock; "suite:expr"; "suite:mini-c" ]
      in
      let lines =
        String.split_on_char '\n' out
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
      in
      Alcotest.(check int) "one JSON line per job" 2 (List.length lines);
      let status_of id =
        List.find_map
          (fun l ->
            if field_string l "id" = Some id then field_string l "status"
            else None)
          lines
      in
      Alcotest.(check (option string)) "clean grammar" (Some "ok")
        (status_of "suite:expr");
      Alcotest.(check (option string)) "conflicted grammar" (Some "verdict")
        (status_of "suite:mini-c");
      Alcotest.(check int) "worst per-job exit" 1 code;
      stop_daemon d)

(* --- live telemetry: scrape, reconciliation, access log ----------- *)

(* One persistent in-process client (a single connect, so exactly one
   health probe) driving a known request mix; the scrape's counters
   must reconcile exactly with the responses the client received. *)
let test_e2e_scrape_reconciles () =
  let access = Filename.temp_file "lalr_serve_access_" ".jsonl" in
  let d = start_daemon [ "--domains"; "1"; "--access-log"; access ] in
  Fun.protect
    ~finally:(fun () ->
      kill_daemon d;
      try Sys.remove access with Sys_error _ -> ())
    (fun () ->
      let c = Client.create ~sleep:no_sleep (Serve.Unix_path d.d_sock) in
      let requests =
        [
          {|{"id":"a","file":"suite:expr","trace_id":"scrape-a"}|};
          {|{"id":"b","file":"suite:expr"}|};
          "malformed";
          {|{"id":"h","kind":"health"}|};
        ]
      in
      let hline =
        match Client.call c requests with
        | Ok lines -> (
            Alcotest.(check int) "all answered" 4 (List.length lines);
            (* responses arrive in completion order (health is inline,
               classifies run in the pool) — find the health by id *)
            match
              List.find_opt (fun l -> field_string l "id" = Some "h") lines
            with
            | Some l -> l
            | None -> Alcotest.fail "health response missing")
        | Error e -> Alcotest.failf "call: %s" (Client.error_message e)
      in
      (* health pins: pid is the daemon's, version is the protocol's *)
      Alcotest.(check (option string)) "health pid"
        (Some (string_of_int d.d_pid)) (field_string hline "pid");
      Alcotest.(check (option string)) "health version"
        (Some Protocol.version) (field_string hline "version");
      Alcotest.(check bool) "health uptime_ms present" true
        (contains hline {|"uptime_ms":|});
      let scrape () =
        match Client.call c [ {|{"id":"m","kind":"metrics"}|} ] with
        | Ok [ line ] -> (
            Alcotest.(check (option string)) "scrape status" (Some "metrics")
              (field_string line "status");
            match Protocol.Json.parse line with
            | Ok j -> (
                match Protocol.Json.member "body" j with
                | Some (Protocol.Json.Str body) -> (
                    match Metrics.parse body with
                    | Ok snap -> snap
                    | Error m -> Alcotest.failf "invalid exposition: %s" m)
                | _ -> Alcotest.fail "metrics response carries no body")
            | Error m -> Alcotest.failf "garbled metrics line: %s" m)
        | Ok _ -> Alcotest.fail "one scrape line"
        | Error e -> Alcotest.failf "scrape: %s" (Client.error_message e)
      in
      let counter snap status =
        match
          Metrics.find snap ~labels:[ ("status", status) ]
            "lalr_serve_requests_total"
        with
        | Some (Metrics.Counter n) -> n
        | _ -> 0
      in
      let gauge snap name =
        match Metrics.find snap name with
        | Some (Metrics.Gauge v) -> v
        | _ -> nan
      in
      let s1 = scrape () in
      (* exact reconciliation with what this client was sent: 2 ok,
         1 bad_request, 1 explicit health + 1 connect probe *)
      Alcotest.(check int) "ok responses counted" 2 (counter s1 "ok");
      Alcotest.(check int) "bad_request counted" 1 (counter s1 "bad_request");
      Alcotest.(check int) "health counted (probe + explicit)" 2
        (counter s1 "health");
      Alcotest.(check int) "no scrape counted yet" 0 (counter s1 "metrics");
      Alcotest.(check int) "nothing dropped" 0
        (Metrics.counter_total s1 "lalr_serve_responses_dropped_total");
      Alcotest.(check int) "pool jobs = classify responses" 2
        (Metrics.counter_total s1 "lalr_serve_pool_jobs_total");
      (match Metrics.find s1 "lalr_serve_request_seconds" with
      | Some (Metrics.Histogram _ as h) ->
          Alcotest.(check int) "latency histogram covers every job" 2
            (Metrics.hist_count h)
      | _ -> Alcotest.fail "request_seconds histogram missing");
      Alcotest.(check bool) "workers gauge" true
        (gauge s1 "lalr_serve_workers" = 1.);
      Alcotest.(check bool) "ready gauge" true
        (gauge s1 "lalr_serve_ready" = 1.);
      Alcotest.(check bool) "uptime gauge sane" true
        (gauge s1 "lalr_serve_uptime_seconds" >= 0.);
      Alcotest.(check bool) "queue empty at scrape" true
        (gauge s1 "lalr_serve_queue_depth" = 0.);
      Alcotest.(check bool) "connection counted" true
        (Metrics.counter_total s1 "lalr_serve_connections_total" >= 1);
      Alcotest.(check int) "no accept errors" 0
        (Metrics.counter_total s1 "lalr_serve_accept_errors_total");
      Alcotest.(check bool) "no store, no store counters" true
        (Metrics.find s1 "lalr_store_hits_total" = None);
      (* per-worker GC gauges materialised under the worker label *)
      Alcotest.(check bool) "gc gauges per worker" true
        (Metrics.find s1
           ~labels:[ ("worker", "0") ]
           "lalr_serve_gc_heap_words"
        <> None);
      (* second scrape: counters are monotone and the first scrape's
         own response is now in the ledger *)
      let s2 = scrape () in
      Alcotest.(check int) "first scrape now counted" 1 (counter s2 "metrics");
      Alcotest.(check int) "ok count unchanged" 2 (counter s2 "ok");
      Client.close c;
      stop_daemon d;
      (* the access log has one JSON line per response: 1 probe + 4
         responses + 2 scrapes, each with the documented members *)
      let lines =
        In_channel.with_open_bin access In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.length l > 0)
      in
      Alcotest.(check int) "one access line per response" 7
        (List.length lines);
      List.iter
        (fun l ->
          match Protocol.Json.parse l with
          | Error m -> Alcotest.failf "access line not JSON (%s): %s" m l
          | Ok j ->
              List.iter
                (fun k ->
                  if Protocol.Json.member k j = None then
                    Alcotest.failf "access line lacks %S: %s" k l)
                [ "ts"; "id"; "status"; "exit"; "sent" ])
        lines;
      Alcotest.(check bool) "job lines carry latency members" true
        (List.exists
           (fun l ->
             field_string l "id" = Some "a"
             && contains l {|"wall_ms":|}
             && contains l {|"queue_ms":|}
             && field_string l "trace_id" = Some "scrape-a")
           lines))

(* The store's counters join the scrape as counter families, read
   from [Store.stats] when the scrape is taken: two sequential calls
   for one grammar are a write and then a hit. *)
let test_e2e_scrape_store_counters () =
  let cache = Filename.temp_file "lalr_serve_cache_" "" in
  Sys.remove cache;
  let d = start_daemon [ "--domains"; "1"; "--cache"; cache ] in
  Fun.protect
    ~finally:(fun () -> kill_daemon d)
    (fun () ->
      let c = Client.create ~sleep:no_sleep (Serve.Unix_path d.d_sock) in
      List.iter
        (fun id ->
          match
            Client.call c
              [ Printf.sprintf {|{"id":"%s","file":"suite:mini-c"}|} id ]
          with
          | Ok [ line ] ->
              Alcotest.(check (option string)) (id ^ " answered")
                (Some "verdict") (field_string line "status")
          | Ok _ -> Alcotest.fail "one response per call"
          | Error e -> Alcotest.failf "call: %s" (Client.error_message e))
        [ "cold"; "warm" ];
      let body =
        match Client.call c [ {|{"id":"m","kind":"metrics"}|} ] with
        | Ok [ line ] -> (
            match Protocol.Json.parse line with
            | Ok j -> (
                match Protocol.Json.member "body" j with
                | Some (Protocol.Json.Str body) -> body
                | _ -> Alcotest.fail "metrics response carries no body")
            | Error m -> Alcotest.failf "garbled metrics line: %s" m)
        | Ok _ -> Alcotest.fail "one scrape line"
        | Error e -> Alcotest.failf "scrape: %s" (Client.error_message e)
      in
      Client.close c;
      stop_daemon d;
      let snap =
        match Metrics.parse body with
        | Ok snap -> snap
        | Error m -> Alcotest.failf "invalid exposition: %s" m
      in
      let counter name =
        if not (contains body (Printf.sprintf "# TYPE %s counter\n" name)) then
          Alcotest.failf "no %s counter family:\n%s" name body;
        Metrics.counter_total snap name
      in
      Alcotest.(check int) "one miss" 1 (counter "lalr_store_misses_total");
      Alcotest.(check int) "one write" 1 (counter "lalr_store_writes_total");
      Alcotest.(check int) "one hit" 1 (counter "lalr_store_hits_total");
      Alcotest.(check int) "the hit read the verdict frame only" 0
        (counter "lalr_store_artifact_reads_total");
      List.iter
        (fun name -> Alcotest.(check int) name 0 (counter name))
        [ "lalr_store_corrupt_total"; "lalr_store_errors_total";
          "lalr_store_skipped_small_total" ])

(* --- trace-context propagation over the wire ----------------------- *)

let test_e2e_trace_propagation () =
  let trace = Filename.temp_file "lalr_serve_trace_" ".jsonl" in
  let d = start_daemon [ "--domains"; "1"; "--trace"; trace ] in
  Fun.protect
    ~finally:(fun () ->
      kill_daemon d;
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ trace; trace ^ ".w0" ])
    (fun () ->
      let code, out =
        run_client
          [
            "call"; "--socket"; d.d_sock; "--trace-id"; "e2e";
            {|{"id":"j","file":"suite:expr"}|};
          ]
      in
      Alcotest.(check int) "request served" 0 code;
      let line =
        String.split_on_char '\n' out
        |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
        |> function
        | [ l ] -> l
        | _ -> Alcotest.fail "one response line"
      in
      (* the daemon echoes the id the client stamped *)
      Alcotest.(check (option string)) "trace_id echoed" (Some "e2e-0")
        (field_string line "trace_id");
      Alcotest.(check (option string)) "worker attributed" (Some "0")
        (field_string line "worker");
      (* drain flushes the worker's trace session; the stamped id must
         appear in the request's span attributes there *)
      stop_daemon d;
      let wtrace =
        In_channel.with_open_bin (trace ^ ".w0") In_channel.input_all
      in
      Alcotest.(check bool) "trace_id lands in the worker trace" true
        (contains wtrace {|"trace_id":"e2e-0"|}))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "decode requests" `Quick test_decode_requests;
          Alcotest.test_case "decode rejects hostile lines" `Quick
            test_decode_rejects;
          Alcotest.test_case "observability members" `Quick
            test_observability_protocol;
          Alcotest.test_case "trace-id stamping" `Quick test_stamp_trace_ids;
          Alcotest.test_case "encode/decode round-trip" `Quick
            test_encode_roundtrip;
          Alcotest.test_case "status exit codes" `Quick test_response_exits;
        ] );
      ( "retry",
        [
          Alcotest.test_case "deterministic capped backoff" `Quick
            test_retry_deterministic_backoff;
          Alcotest.test_case "run honours policy and reports retries" `Quick
            test_retry_run;
          Alcotest.test_case "jitter stream is seeded and per-attempt" `Quick
            test_retry_jitter_stream;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "closed -> open -> half-open -> closed" `Quick
            test_breaker_transitions;
          Alcotest.test_case "failed probe re-opens a full window" `Quick
            test_breaker_failed_probe_reopens;
        ] );
      ( "pool",
        [
          Alcotest.test_case "serves and drains" `Quick
            test_pool_serves_and_drains;
          Alcotest.test_case "per-request budgets are isolated" `Quick
            test_pool_per_request_budget;
          Alcotest.test_case "sheds when full" `Quick test_pool_sheds_when_full;
          Alcotest.test_case "supervises a worker crash" `Quick
            test_pool_supervises_crash;
          Alcotest.test_case "expired deadline shed at admission" `Quick
            test_pool_deadline_admission;
          Alcotest.test_case "deadline re-checked at dequeue" `Quick
            test_pool_deadline_dequeue;
          Alcotest.test_case "deadline bounds in-flight work" `Quick
            test_pool_deadline_in_flight;
          Alcotest.test_case "client wall cap trips as budget" `Quick
            test_pool_deadline_vs_budget;
          Alcotest.test_case "crash-loop backstop flips readiness" `Quick
            test_pool_crash_loop_unready;
        ] );
      ( "client",
        [
          Alcotest.test_case "connect failures name the endpoint" `Quick
            test_client_connect_failure_messages;
          Alcotest.test_case "open breaker sheds locally" `Quick
            test_client_breaker_fast_fail;
          Alcotest.test_case "reconnects across a daemon restart" `Quick
            test_client_reconnects_after_restart;
          Alcotest.test_case "connect-time faultpoint absorbed" `Quick
            test_client_faultpoint_absorbed;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "chaos acceptance" `Quick
            test_e2e_chaos_acceptance;
          Alcotest.test_case "overload shed" `Quick test_e2e_overload_shed;
          Alcotest.test_case "decode fault absorbed" `Quick
            test_e2e_decode_fault_absorbed;
          Alcotest.test_case "oversized line" `Quick test_e2e_oversized_line;
          Alcotest.test_case "expired deadline over the wire" `Quick
            test_e2e_deadline_expired;
          Alcotest.test_case "SIGINT drains like SIGTERM" `Quick
            test_e2e_sigint_drain;
          Alcotest.test_case "metrics scrape reconciles" `Quick
            test_e2e_scrape_reconciles;
          Alcotest.test_case "metrics scrape carries store counters" `Quick
            test_e2e_scrape_store_counters;
          Alcotest.test_case "trace-id propagation" `Quick
            test_e2e_trace_propagation;
          Alcotest.test_case "batch --via-serve" `Quick
            test_e2e_batch_via_serve;
        ] );
    ]
