(* End-to-end exit-code contract: lalrgen's five documented codes
   (0 ok / 1 verdict / 2 diagnostics / 3 budget / 4 internal), driven
   through the real binary, plus the batch aggregate rule and the
   --keep-going partial rendering. Deterministic fault injection stands
   in for the failures that are otherwise hard to provoke on demand. *)

let binary =
  lazy
    (List.find Sys.file_exists
       [
         (* dune runtest runs in _build/default/test with the binary
            declared as a dep next door *)
         Filename.concat (Filename.dirname Sys.executable_name) "../bin/lalrgen.exe";
         "../bin/lalrgen.exe";
         "_build/default/bin/lalrgen.exe";
       ])

(* Run the binary, capturing exit code and stdout. stderr is folded
   into stdout so assertions can look at either stream. *)
let run args =
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
    | Unix.WSIGNALED n -> Alcotest.failf "killed by signal %d:\n%s" n out
    | Unix.WSTOPPED n -> Alcotest.failf "stopped by signal %d:\n%s" n out
  in
  (code, out)

let check_exit name want (code, out) =
  if code <> want then
    Alcotest.failf "%s: expected exit %d, got %d; output:\n%s" name want code
      out

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains name needle (_, out) =
  if not (contains out needle) then
    Alcotest.failf "%s: output does not mention %S:\n%s" name needle out

let temp_grammar content =
  let path = Filename.temp_file "lalr_cli_" ".cfg" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc content);
  path

let good_grammar () =
  temp_grammar
    {|
%token plus id
%start e
%%
e : e plus id | id ;
|}

(* ------------------------------------------------------------------ *)
(* The five codes                                                      *)
(* ------------------------------------------------------------------ *)

let test_exit_0_success () =
  let r = run [ "classify"; "suite:expr" ] in
  check_exit "clean grammar" 0 r;
  check_contains "clean grammar" "LALR(1)" r

let test_exit_1_verdict () =
  check_exit "not LALR(1)" 1 (run [ "classify"; "suite:lr1-not-lalr" ])

let test_exit_2_diagnostics () =
  check_exit "missing file" 2 (run [ "classify"; "no/such/file.cfg" ]);
  let broken = temp_grammar "%%\n@@nonsense@@\n" in
  check_exit "broken grammar" 2 (run [ "classify"; broken ]);
  Sys.remove broken

let test_exit_3_budget () =
  let g = good_grammar () in
  let r = run [ "classify"; g; "--inject"; "follow:wall" ] in
  Sys.remove g;
  check_exit "injected wall" 3 r;
  check_contains "injected wall" "budget exceeded" r

let test_exit_4_internal () =
  let g = good_grammar () in
  let r = run [ "classify"; g; "--inject"; "la:raise" ] in
  Sys.remove g;
  check_exit "injected raise" 4 r;
  check_contains "injected raise" "internal error" r

let test_reader_corruption_is_diagnostics () =
  let g = good_grammar () in
  let r = run [ "classify"; g; "--inject"; "reader:corrupt" ] in
  Sys.remove g;
  check_exit "injected reader corruption" 2 r

let test_store_injections_are_absorbed () =
  let g = good_grammar () in
  let dir = Filename.temp_file "lalr_cli_cache_" "" in
  Sys.remove dir;
  List.iter
    (fun kind ->
      check_exit
        ("store " ^ kind ^ " absorbed")
        0
        (run [ "exercise"; g; "--cache"; dir; "--inject"; "store:" ^ kind ]))
    [ "raise"; "wall"; "corrupt" ];
  Sys.remove g

(* ------------------------------------------------------------------ *)
(* classify: where canonical LR(1) is built                            *)
(* ------------------------------------------------------------------ *)

let has_line_prefix out prefix =
  List.exists
    (fun l -> String.starts_with ~prefix l)
    (String.split_on_char '\n' out)

(* The LALR(1) sets decide assign (clean): no canonical collection, so
   no LR(1) state count and no "LR(1):" line. *)
let test_classify_default_no_lr1 () =
  let ((_, out) as r) = run [ "classify"; "suite:assign" ] in
  check_exit "assign" 0 r;
  check_contains "assign" "LALR(1) (not SLR(1)); LR(0) states 11\n" r;
  if contains out "LR(1) states" || has_line_prefix out "LR(1)" then
    Alcotest.failf "default classify printed an LR(1) line:\n%s" out

let test_classify_with_lr1 () =
  let r = run [ "classify"; "suite:assign"; "--with-lr1" ] in
  check_exit "assign --with-lr1" 0 r;
  check_contains "assign --with-lr1" "LR(0) states 11, LR(1) states 15" r;
  check_contains "assign --with-lr1" "LR(1):    true (15 states" r

(* Reduce/reduce conflicts only: the LALR(1) sets cannot decide, so the
   canonical collection is still built, and finds the grammar LR(1). *)
let test_classify_lr1_not_lalr () =
  let r = run [ "classify"; "suite:lr1-not-lalr" ] in
  check_exit "lr1-not-lalr" 1 r;
  check_contains "lr1-not-lalr" "LR(1) (not LALR(1))" r;
  check_contains "lr1-not-lalr" "LR(1) states 15" r

(* ------------------------------------------------------------------ *)
(* keep-going                                                          *)
(* ------------------------------------------------------------------ *)

let test_keep_going_partial () =
  let g = good_grammar () in
  let r = run [ "classify"; g; "--keep-going"; "--inject"; "follow:wall" ] in
  Sys.remove g;
  (* same exit code as without --keep-going … *)
  check_exit "keep-going preserves the code" 3 r;
  (* … but the completed prefix is rendered, loudly marked *)
  check_contains "keep-going" "INCOMPLETE" r;
  check_contains "keep-going" "completed stages" r;
  check_contains "keep-going" "relations" r

(* ------------------------------------------------------------------ *)
(* batch                                                               *)
(* ------------------------------------------------------------------ *)

let test_batch_aggregate_and_isolation () =
  let good = good_grammar () in
  let broken = temp_grammar "%%\n@@nonsense@@\n" in
  let r, out =
    run [ "batch"; good; broken; "suite:lr1-not-lalr"; "suite:expr" ]
  in
  Sys.remove good;
  Sys.remove broken;
  (* max(0, 2, 1, 0) — and the jobs after the failing one still ran *)
  check_exit "aggregate is the max" 2 (r, out);
  let json_lines =
    String.split_on_char '\n' out
    |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
  in
  Alcotest.(check int) "one JSON line per job" 4 (List.length json_lines);
  check_contains "good job" "\"status\":\"ok\"" (r, out);
  check_contains "broken job" "\"status\":\"diagnostics\"" (r, out);
  check_contains "verdict job" "\"status\":\"verdict\"" (r, out)

let test_batch_retries_internal_once () =
  (* [la:raise@2] fires on the second forcing of [la] — the second
     job's first attempt. Its retry recomputes cleanly, so the batch
     reports the fault as retried and the job lands on its verdict. *)
  let r, out =
    run [ "batch"; "suite:expr"; "suite:expr"; "--inject"; "la:raise@2" ]
  in
  check_exit "retried to success" 0 (r, out);
  check_contains "retry recorded" "\"retries\":1" (r, out)

let test_batch_all_clean () =
  check_exit "all clean" 0 (run [ "batch"; "suite:expr"; "suite:lr0" ])

let test_batch_line_schema () =
  (* The always-present members of the documented line schema (README
     "Batch mode"), plus the success-only ones on a clean job. *)
  let r = run [ "batch"; "suite:expr" ] in
  check_exit "clean job" 0 r;
  List.iter
    (fun needle -> check_contains "schema member" needle r)
    [
      "\"file\":\"suite:expr\""; "\"exit\":0"; "\"status\":\"ok\"";
      "\"retries\":0"; "\"wall_ms\":"; "\"lalr1\":true";
      "\"lr0_states\":13"; "\"stages\":{"; "\"lr0\":";
    ];
  (* [completed] is a failure-only member: on success it would only
     repeat the [stages] keys. *)
  if contains (snd r) "\"completed\"" then
    Alcotest.failf "clean job lists completed stages:\n%s" (snd r);
  let r = run [ "batch"; "suite:ada-subset"; "--budget"; "fuel=5000" ] in
  check_exit "budget trip" 3 r;
  check_contains "failed job lists its completed stages"
    "\"completed\":[\"analysis\",\"lr0\"" r

(* ------------------------------------------------------------------ *)
(* tracing                                                             *)
(* ------------------------------------------------------------------ *)

let temp_path suffix =
  let p = Filename.temp_file "lalr_cli_trace_" suffix in
  Sys.remove p;
  p

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_trace_chrome_sink () =
  let out = temp_path ".json" in
  let r = run [ "exercise"; "suite:expr"; "--trace"; out ] in
  check_exit "traced exercise" 0 r;
  let t = read_file out in
  Sys.remove out;
  List.iter
    (fun needle ->
      if not (contains t needle) then
        Alcotest.failf "chrome trace lacks %S:\n%s" needle t)
    [
      "\"traceEvents\":["; "\"displayTimeUnit\":\"ms\"";
      (* engine spans (no reader span: suite grammars are built-in, not
         parsed) *)
      "\"name\":\"engine.lr0\""; "\"name\":\"engine.classification\"";
    ]

let test_trace_explicit_format () =
  (* FILE:FORMAT overrides the extension: a .json path forced to the
     jsonl sink. *)
  let out = temp_path ".json" in
  let r = run [ "classify"; "suite:expr"; "--trace"; out ^ ":jsonl" ] in
  check_exit "traced classify" 0 r;
  let t = read_file out in
  Sys.remove out;
  if contains t "traceEvents" then
    Alcotest.failf "expected jsonl, got chrome JSON:\n%s" t;
  List.iter
    (fun needle ->
      if not (contains t needle) then
        Alcotest.failf "jsonl sink lacks %S:\n%s" needle t)
    [ "{\"ev\":\"begin\",\"name\":\"engine.lr0\"" ]

(* The fuel each budgeted stage burned is a [budget.fuel] instant: one
   per stage the run computed, i.e. per row of the --timings table. *)
let test_trace_budget_fuel () =
  let out = temp_path ".jsonl" in
  let r =
    run
      [ "classify"; "suite:ada-subset"; "--budget"; "fuel=100000";
        "--timings"; "--trace"; out ]
  in
  check_exit "budgeted classify" 0 r;
  let t = read_file out in
  Sys.remove out;
  let timed =
    String.split_on_char '\n' (snd r)
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' (String.trim l) with
           | stage :: _ when contains l " ms " && stage <> "total" -> Some stage
           | _ -> None)
  in
  let module Json = Lalr_serve.Protocol.Json in
  let str j k =
    match Json.member k j with Some (Json.Str v) -> Some v | _ -> None
  in
  let fuel_stages =
    String.split_on_char '\n' t
    |> List.filter_map (fun l ->
           match Json.parse l with
           | Ok j when str j "name" = Some "budget.fuel" -> (
               match Json.member "attrs" j with
               | Some attrs -> (
                   match (str attrs "stage", Json.member "fuel" attrs) with
                   | Some stage, Some (Json.Num _) -> Some stage
                   | _ -> Alcotest.failf "budget.fuel lacks stage/fuel: %s" l)
               | None -> Alcotest.failf "budget.fuel without attrs: %s" l)
           | _ -> None)
  in
  Alcotest.(check bool) "timings lists stages" true (List.length timed >= 8);
  Alcotest.(check (list string)) "one budget.fuel instant per timed stage"
    timed fuel_stages

let test_stats_document () =
  let r = run [ "stats"; "suite:expr" ] in
  check_exit "stats" 0 r;
  (* Structural members, pinned here on one grammar. *)
  List.iter
    (fun needle -> check_contains "stats member" needle r)
    [
      "\"lr0\": {\"states\":13"; "\"reads_edges\":0"; "\"includes_edges\":10";
      "\"lalr1\": true";
    ]

(* ------------------------------------------------------------------ *)
(* call: connection failures name the endpoint and the failure mode    *)
(* ------------------------------------------------------------------ *)

let test_call_no_such_socket () =
  let missing = "/nonexistent/lalr_cli_no_daemon/daemon.sock" in
  let r =
    run [ "call"; "--socket"; missing; {|{"id":"x","kind":"health"}|} ]
  in
  check_exit "call against a missing socket" 4 r;
  check_contains "failure mode named" "no such socket" r;
  check_contains "endpoint named" missing r

let test_call_connection_refused () =
  (* A socket file that exists but has no listener behind it: bind
     without listen yields ECONNREFUSED, the "daemon gone, stale
     socket" shape — the message must differ from "no such socket". *)
  let stale = Filename.temp_file "lalr_cli_stale_" ".sock" in
  Sys.remove stale;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Sys.remove stale with Sys_error _ -> ())
    (fun () ->
      Unix.bind fd (Unix.ADDR_UNIX stale);
      let r =
        run [ "call"; "--socket"; stale; {|{"id":"x","kind":"health"}|} ]
      in
      check_exit "call against a dead socket" 4 r;
      check_contains "failure mode named" "connection refused" r;
      check_contains "endpoint named" stale r;
      let _, out = r in
      if contains out "no such socket" then
        Alcotest.failf "refused must not read as missing:\n%s" out)

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "0: success" `Quick test_exit_0_success;
          Alcotest.test_case "1: verdict" `Quick test_exit_1_verdict;
          Alcotest.test_case "2: diagnostics" `Quick test_exit_2_diagnostics;
          Alcotest.test_case "3: budget" `Quick test_exit_3_budget;
          Alcotest.test_case "4: internal" `Quick test_exit_4_internal;
          Alcotest.test_case "reader corruption -> 2" `Quick
            test_reader_corruption_is_diagnostics;
          Alcotest.test_case "store injections -> 0" `Quick
            test_store_injections_are_absorbed;
        ] );
      ( "classify",
        [
          Alcotest.test_case "default prints no LR(1) line" `Quick
            test_classify_default_no_lr1;
          Alcotest.test_case "--with-lr1 prints LR(1) states" `Quick
            test_classify_with_lr1;
          Alcotest.test_case "lr1-not-lalr still LR(1)" `Quick
            test_classify_lr1_not_lalr;
        ] );
      ( "keep-going",
        [ Alcotest.test_case "partial render" `Quick test_keep_going_partial ] );
      ( "batch",
        [
          Alcotest.test_case "aggregate and isolation" `Quick
            test_batch_aggregate_and_isolation;
          Alcotest.test_case "internal fault retried once" `Quick
            test_batch_retries_internal_once;
          Alcotest.test_case "all clean" `Quick test_batch_all_clean;
          Alcotest.test_case "line schema" `Quick test_batch_line_schema;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "chrome sink" `Quick test_trace_chrome_sink;
          Alcotest.test_case "explicit format" `Quick
            test_trace_explicit_format;
          Alcotest.test_case "budget fuel instants" `Quick
            test_trace_budget_fuel;
          Alcotest.test_case "stats document" `Quick test_stats_document;
        ] );
      ( "call",
        [
          Alcotest.test_case "no such socket" `Quick test_call_no_such_socket;
          Alcotest.test_case "connection refused" `Quick
            test_call_connection_refused;
        ] );
    ]
