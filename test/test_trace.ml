(* The tracing layer against its two contracts: (1) armed, a scripted
   session renders byte-identically in both sinks under an injected
   clock; (2) disarmed, probes emit nothing and observable output
   elsewhere (Engine.pp_stats) is unchanged by the layer's
   existence. *)

module Trace = Lalr_trace.Trace
module Reader = Lalr_grammar.Reader
module Engine = Lalr_engine.Engine

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* A fake clock ticking 1 ms per read: session t0 consumes the first
   tick, so the first event lands at exactly 1000 µs. *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := !t +. 0.001;
    v

(* The scripted session every golden below renders: nested spans with
   attributes, and an instant carrying a float and a bool. *)
let scripted () =
  let s = Trace.start ~clock:(fake_clock ()) () in
  Trace.with_span "outer" (fun () ->
      Trace.with_span
        ~attrs:(fun () -> [ ("k", Trace.Int 7); ("s", Trace.Str "v\"x") ])
        "inner"
        (fun () -> ());
      Trace.instant
        ~attrs:(fun () -> [ ("fuel", Trace.Float 2.5); ("ok", Trace.Bool true) ])
        "i");
  Trace.finish s;
  s

(* ------------------------------------------------------------------ *)
(* Golden sinks                                                       *)
(* ------------------------------------------------------------------ *)

let golden_chrome =
  {|{"traceEvents":[
{"name":"outer","ph":"B","ts":1000.000,"pid":1,"tid":1},
{"name":"inner","ph":"B","ts":2000.000,"pid":1,"tid":1,"args":{"k":7,"s":"v\"x"}},
{"name":"inner","ph":"E","ts":3000.000,"pid":1,"tid":1},
{"name":"i","ph":"i","s":"t","ts":4000.000,"pid":1,"tid":1,"args":{"fuel":2.5,"ok":true}},
{"name":"outer","ph":"E","ts":5000.000,"pid":1,"tid":1}
],"displayTimeUnit":"ms"}
|}

let golden_jsonl =
  {|{"ev":"begin","name":"outer","ts_us":1000.000,"depth":0}
{"ev":"begin","name":"inner","ts_us":2000.000,"depth":1,"attrs":{"k":7,"s":"v\"x"}}
{"ev":"end","name":"inner","ts_us":3000.000,"depth":1}
{"ev":"instant","name":"i","ts_us":4000.000,"depth":1,"attrs":{"fuel":2.5,"ok":true}}
{"ev":"end","name":"outer","ts_us":5000.000,"depth":0}
|}

let test_golden_chrome () =
  let s = scripted () in
  Alcotest.(check int) "event count" 5 (Trace.n_events s);
  check_str "chrome sink" golden_chrome (Trace.to_string s Trace.Chrome)

let test_golden_jsonl () =
  check_str "jsonl sink" golden_jsonl
    (Trace.to_string (scripted ()) Trace.Jsonl)

(* ------------------------------------------------------------------ *)
(* Span semantics                                                     *)
(* ------------------------------------------------------------------ *)

let test_span_closes_on_raise () =
  let s = Trace.start ~clock:(fake_clock ()) () in
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Trace.finish s;
  (* Begin + End, balanced, despite the raise. *)
  Alcotest.(check int) "balanced events" 2 (Trace.n_events s)

let test_finish_closes_open_spans () =
  let s = Trace.start ~clock:(fake_clock ()) () in
  (* Simulate a process exiting mid-span: finish must balance it so
     the Chrome rendering stays loadable. *)
  let in_span = ref false in
  (try
     Trace.with_span "outer" (fun () ->
         in_span := true;
         Trace.finish s;
         raise Exit)
   with Exit -> ());
  check "span entered" true !in_span;
  Alcotest.(check int) "begin balanced by forced end" 2 (Trace.n_events s)

(* ------------------------------------------------------------------ *)
(* Disarmed behaviour                                                 *)
(* ------------------------------------------------------------------ *)

let test_disabled_emits_nothing () =
  check "no ambient session" true (Trace.active () = None);
  check "disabled" false (Trace.enabled ());
  (* Probes are no-ops (and must not evaluate attribute thunks). *)
  let thunk_ran = ref false in
  let v =
    Trace.with_span
      ~attrs:(fun () ->
        thunk_ran := true;
        [])
      "dead"
      (fun () -> 42)
  in
  Trace.instant
    ~attrs:(fun () ->
      thunk_ran := true;
      [])
    "dead";
  Alcotest.(check int) "value passes through" 42 v;
  check "attr thunk not evaluated" false !thunk_ran;
  (* A session armed afterwards has seen none of it. *)
  let s = Trace.start ~clock:(fake_clock ()) () in
  Trace.finish s;
  Alcotest.(check int) "nothing recorded" 0 (Trace.n_events s);
  check_str "empty chrome trace"
    "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ms\"}\n"
    (Trace.to_string s Trace.Chrome);
  check_str "empty jsonl trace" "" (Trace.to_string s Trace.Jsonl)

let expr_src =
  {|
%token plus times lparen rparen id
%start e
%%
e : e plus t | t ;
t : t times f | f ;
f : lparen e rparen | id ;
|}

let render_pp_stats () =
  let g = Reader.of_string ~name:"trace-test" expr_src in
  let e = Engine.create g in
  ignore (Engine.tables e);
  ignore (Engine.classification e);
  Format.asprintf "%a" Engine.pp_stats e

(* Wall times vary run to run; digits are scrubbed so the assertion
   pins the exact layout (stage set, order, column widths) instead. *)
let scrub s = String.map (fun c -> if c >= '0' && c <= '9' then '#' else c) s

let golden_pp_stats_shape =
  "engine timings for <trace-test>:\n\
  \  stage                      wall   miss   hit\n\
  \  analysis                #.### ms      #     #\n\
  \  lr#                     #.### ms      #     #\n\
  \  relations               #.### ms      #     #\n\
  \  follow                  #.### ms      #     #\n\
  \  la                      #.### ms      #     #\n\
  \  slr                     #.### ms      #     #\n\
  \  nqlalr                  #.### ms      #     #\n\
  \  tables                  #.### ms      #     #\n\
  \  classification          #.### ms      #     #\n\
  \  total                   #.### ms"

let test_disabled_pp_stats_unchanged () =
  (* The --timings rendering with tracing disarmed: the pre-PR format,
     down to the column widths — the layer's existence is invisible. *)
  check "disarmed" false (Trace.enabled ());
  check_str "pp_stats shape (disarmed)" golden_pp_stats_shape
    (scrub (render_pp_stats ()));
  (* And arming a session must not change a byte of it either. *)
  let s = Trace.start ~clock:(fake_clock ()) () in
  let armed = scrub (render_pp_stats ()) in
  Trace.finish s;
  check_str "pp_stats shape (armed)" golden_pp_stats_shape armed

(* ------------------------------------------------------------------ *)
(* Format plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let test_format_names () =
  check "chrome" true (Trace.format_of_name "chrome" = Some Trace.Chrome);
  check "jsonl" true (Trace.format_of_name "jsonl" = Some Trace.Jsonl);
  check "unknown" true (Trace.format_of_name "xml" = None);
  check "metrics is no format" true (Trace.format_of_name "metrics" = None);
  check "infer .json" true (Trace.infer_format "t.json" = Trace.Chrome);
  check "infer .jsonl" true (Trace.infer_format "t.jsonl" = Trace.Jsonl);
  check "infer .txt" true (Trace.infer_format "t.txt" = Trace.Chrome);
  List.iter
    (fun f -> check (Trace.format_name f ^ " round-trips") true
        (Trace.format_of_name (Trace.format_name f) = Some f))
    [ Trace.Chrome; Trace.Jsonl ]

let test_json_escape () =
  check_str "escaping" {|a\"b\\c\n\t\u0001|}
    (Trace.json_escape "a\"b\\c\n\t\x01")

let () =
  Alcotest.run "trace"
    [
      ( "golden",
        [
          Alcotest.test_case "chrome sink" `Quick test_golden_chrome;
          Alcotest.test_case "jsonl sink" `Quick test_golden_jsonl;
        ] );
      ( "spans",
        [
          Alcotest.test_case "closes on raise" `Quick test_span_closes_on_raise;
          Alcotest.test_case "finish closes open spans" `Quick
            test_finish_closes_open_spans;
        ] );
      ( "disarmed",
        [
          Alcotest.test_case "emits nothing" `Quick test_disabled_emits_nothing;
          Alcotest.test_case "pp_stats unchanged" `Quick
            test_disabled_pp_stats_unchanged;
        ] );
      ( "formats",
        [
          Alcotest.test_case "names and inference" `Quick test_format_names;
          Alcotest.test_case "json escaping" `Quick test_json_escape;
        ] );
    ]
