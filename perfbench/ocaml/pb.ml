(* The in-process half of the benchmark of record (see ../NOTES.md).
   [run.py] drives the [lalrgen] binary and daemon; this program makes
   the seeded inputs they read, replays a workload's inputs under the
   benchmark's own spans to attribute time to layers, sweeps the size
   ladder, and times the parser runtime.

     pb info
     pb expect
     pb gen WORKLOAD --seed N --dir DIR [--count N]   (--count: serve-mixed only, required)
     pb replay WORKLOAD --seed N --dir DIR --ops FILE
     pb parse --seed N --dir DIR
     pb ladder --seed N --dir DIR

   Every command prints one JSON object on stdout. *)

module Grammar = Lalr_grammar.Grammar
module Reader = Lalr_grammar.Reader
module Registry = Lalr_suite.Registry
module Scaled = Lalr_suite.Scaled
module Engine = Lalr_engine.Engine
module Store = Lalr_store.Store
module Protocol = Lalr_serve.Protocol
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Tables = Lalr_tables.Tables
module Classify = Lalr_tables.Classify
module Driver = Lalr_runtime.Driver
module Token = Lalr_runtime.Token
module Tree = Lalr_runtime.Tree

(* ------------------------------------------------------------------ *)
(* Command line and JSON output                                        *)
(* ------------------------------------------------------------------ *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("pb: " ^ m); exit 2) fmt

let opt name =
  let rec go i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 2

let req name = match opt name with Some v -> v | None -> die "missing %s" name

let int_opt name s =
  match int_of_string_opt s with Some n -> n | None -> die "%s: not an integer: %s" name s

let seed () = match opt "--seed" with Some s -> int_opt "--seed" s | None -> Inputs.default_seed

let workload () =
  if Array.length Sys.argv < 3 then die "missing WORKLOAD" else Sys.argv.(2)

type json =
  | I of int
  | F of float
  | S of string
  | B of bool
  | L of json list
  | O of (string * json) list

let rec to_buf b = function
  | I n -> Buffer.add_string b (string_of_int n)
  | F f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.6g" f)
  | F _ -> Buffer.add_string b "null"
  | B v -> Buffer.add_string b (string_of_bool v)
  | S s ->
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | L l ->
      Buffer.add_char b '[';
      List.iteri (fun i v -> if i > 0 then Buffer.add_char b ','; to_buf b v) l;
      Buffer.add_char b ']'
  | O l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          to_buf b (S k);
          Buffer.add_char b ':';
          to_buf b v)
        l;
      Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  to_buf b j;
  print_endline (Buffer.contents b)

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Reference answers                                                   *)
(* ------------------------------------------------------------------ *)

let expected_json (x : Registry.expectation) =
  O
    [
      ("lr0", B x.lr0);
      ("slr1", B x.slr1);
      ("lalr1", B x.lalr1);
      ("lr1", B x.lr1);
      ("lalr_sr", I x.lalr_sr);
      ("lalr_rr", I x.lalr_rr);
      ("not_lr_k", B x.not_lr_k);
    ]

(* A verdict agrees with the registry on every field the registry
   freezes; [lr1] only when the verdict actually built LR(1). *)
let verdict_ok (x : Registry.expectation) (v : Classify.verdict) =
  v.lr0 = x.lr0 && v.slr1 = x.slr1 && v.lalr1 = x.lalr1
  && v.lalr_sr_conflicts = x.lalr_sr
  && v.lalr_rr_conflicts = x.lalr_rr
  && v.not_lr_k = x.not_lr_k
  && (v.lr1_states = 0 || v.lr1 = x.lr1)

(* Scaled grammars are conflict-free LALR(1) by construction. *)
let scaled_ok (v : Classify.verdict) =
  v.lalr1 && v.lalr_sr_conflicts = 0 && v.lalr_rr_conflicts = 0

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

(* Pass orders are generated for this many passes and then reused
   cyclically; a run needs far fewer. *)
let order_passes = 512

let gen () =
  let seed = seed () and dir = req "--dir" in
  match workload () with
  | "cli-suite" ->
      print_json
        (O
           [
             ( "orders",
               L
                 (List.init order_passes (fun pass ->
                      L (List.map (fun n -> S n) (Inputs.suite_order ~seed ~pass)))) );
           ])
  | "cli-scaled" ->
      let files =
        List.mapi
          (fun i s ->
            let path = Filename.concat dir (Printf.sprintf "scaled-%d.cfg" i) in
            write_file path (Inputs.scaled_text s);
            S path)
          (Inputs.cli_scaled ~seed)
      in
      print_json
        (O
           [
             ("files", L files);
             ( "orders",
               L
                 (List.init order_passes (fun pass ->
                      L (List.map (fun i -> I i) (Inputs.scaled_order ~seed ~pass)))) );
           ])
  | "serve-mixed" ->
      let count = int_opt "--count" (req "--count") in
      let path = Filename.concat dir "requests.jsonl" in
      let ops = Inputs.serve_ops ~seed ~count in
      Out_channel.with_open_bin path (fun oc ->
          List.iteri
            (fun i op ->
              output_string oc (Inputs.serve_request ~id:i op);
              output_char oc '\n')
            ops);
      print_json
        (O
           [
             ("requests", S path);
             ("warmup", L (List.map (fun n -> S ("suite:" ^ n)) Inputs.language_names));
           ])
  | w -> die "gen: unknown workload %s" w

(* ------------------------------------------------------------------ *)
(* Per-layer aggregation over spans                                    *)
(* ------------------------------------------------------------------ *)

(* Per-op self time of a layer: the durations of its spans summed
   within each op, then averaged over the ops that have such a span.
   Stages are forced in dependency order, so each stage span is that
   stage's self time. *)
let per_op spans names value =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (sp : Span.span) ->
      if List.mem sp.name names then
        Hashtbl.replace tbl sp.op
          (value sp +. Option.value ~default:0. (Hashtbl.find_opt tbl sp.op)))
    spans;
  let n = Hashtbl.length tbl in
  let sum = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0. in
  (n, if n = 0 then 0. else sum /. float_of_int n)

let metric name unit (ops, value) = (name, O [ ("value", F value); ("unit", S unit); ("ops", I ops) ])

(* The three [Tables.build] calls of one classification. *)
let table_stages = [ "tables"; "slr_tables"; "nqlalr_tables" ]

let span_metrics spans =
  let ms names = per_op spans names Span.ms in
  let mb names = per_op spans names Span.mb in
  let us names = let n, v = ms names in (n, v *. 1e3) in
  let tables = table_stages in
  [
    metric "classification.ms" "ms" (ms [ "classification" ]);
    metric "lr0.ms" "ms" (ms [ "lr0" ]);
    metric "lr0.alloc_mb" "MB" (mb [ "lr0" ]);
    metric "tables.ms" "ms" (ms tables);
    metric "tables.alloc_mb" "MB" (mb tables);
    metric "driver.ms" "ms" (ms [ "driver.parse" ]);
    metric "driver.alloc_mb" "MB" (mb [ "driver.parse" ]);
    metric "lalr.relations.ms" "ms" (ms [ "relations" ]);
    metric "lalr.follow.ms" "ms" (ms [ "follow" ]);
    metric "lalr.la.ms" "ms" (ms [ "la" ]);
    metric "reader.ms" "ms" (ms [ "load"; "read" ]);
    metric "analysis.ms" "ms" (ms [ "analysis" ]);
    metric "slr.ms" "ms" (ms [ "slr" ]);
    metric "nqlalr.ms" "ms" (ms [ "nqlalr" ]);
    metric "store.load_ms" "ms" (ms [ "store.load" ]);
    metric "store.save_ms" "ms" (ms [ "store.save" ]);
    metric "protocol.decode_us" "us" (us [ "protocol.decode" ]);
    metric "protocol.encode_us" "us" (us [ "protocol.encode" ]);
  ]

(* Counts kept beside the spans, one sample per op (or per build). *)
type counts = { mutable samples : (string * float) list }

let counts () = { samples = [] }
let count c name v = c.samples <- (name, v) :: c.samples

let count_metrics c names =
  List.map
    (fun (name, unit) ->
      let vs = List.filter_map (fun (n, v) -> if n = name then Some v else None) c.samples in
      let n = List.length vs in
      metric name unit (n, if n = 0 then 0. else List.fold_left ( +. ) 0. vs /. float_of_int n))
    names

(* Shifts plus reductions: every token (and the final eof) is shifted
   once, every production in the right parse is reduced once. *)
let parse_actions tbl toks =
  match Driver.right_parse tbl toks with
  | Ok prods -> List.length toks + 1 + List.length prods
  | Error _ -> 0

(* Non-error ACTION cells plus defined GOTO cells: what any table
   representation has to store. *)
let table_cells tbl =
  let a = Tables.automaton tbl in
  let g = Lr0.grammar a in
  let n = ref 0 in
  for state = 0 to Lr0.n_states a - 1 do
    for terminal = 0 to Grammar.n_terminals g - 1 do
      if Tables.action tbl ~state ~terminal <> Tables.Error then incr n
    done;
    for nonterminal = 0 to Grammar.n_nonterminals g - 1 do
      if Tables.goto tbl ~state ~nonterminal <> None then incr n
    done
  done;
  !n

let lalr_counts c (s : Lalr.stats) =
  count c "lalr.nt_transitions" (float_of_int s.n_nt_transitions);
  count c "lalr.reads_edges" (float_of_int s.reads_edges);
  count c "lalr.includes_edges" (float_of_int s.includes_edges);
  count c "lalr.lookback_edges" (float_of_int s.lookback_edges);
  count c "lalr.unions" (float_of_int (s.reads_unions + s.includes_unions))

let count_names =
  [
    ("lr1.states", "count");
    ("lr1.useful_ratio", "ratio");
    ("lr0.states", "count");
    ("tables.cells", "count");
    ("driver.actions", "count");
    ("driver.ns_per_action", "ns");
    ("lalr.nt_transitions", "count");
    ("lalr.reads_edges", "count");
    ("lalr.includes_edges", "count");
    ("lalr.lookback_edges", "count");
    ("lalr.unions", "count");
    ("reader.mb_per_s", "MB/s");
    ("store.hit_ratio", "ratio");
    ("store.entry_kb", "kB");
    ("heap.top_mb", "MB");
    ("gc.major_collections", "count");
    ("trace.overhead_ratio", "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Replay: one op = the engine stages forced in dependency order       *)
(* ------------------------------------------------------------------ *)

let stages =
  [
    ("analysis", fun e -> ignore (Engine.analysis e));
    ("lr0", fun e -> ignore (Engine.lr0 e));
    ("relations", fun e -> ignore (Engine.relations e));
    ("follow", fun e -> ignore (Engine.follow e));
    ("la", fun e -> ignore (Engine.lalr e));
    ("slr", fun e -> ignore (Engine.slr e));
    ("nqlalr", fun e -> ignore (Engine.nqlalr e));
    ("tables", fun e -> ignore (Engine.tables e));
    ("slr_tables", fun e -> ignore (Engine.slr_tables e));
    ("nqlalr_tables", fun e -> ignore (Engine.nqlalr_tables e));
  ]

let force_stages tr ~op e =
  List.iter (fun (name, f) -> Span.with_span tr ~op name (fun () -> f e)) stages;
  Span.with_span tr ~op "classification" (fun () -> Engine.classification e)

(* Counts for one analysed grammar. [cells] memoizes [table_cells] per
   grammar ([key]): it is a property of the grammar, and scanning a 5x
   table costs tens of milliseconds. *)
let engine_counts c cells ~key e (v : Classify.verdict) =
  count c "lr0.states" (float_of_int (Lr0.n_states (Engine.lr0 e)));
  lalr_counts c (Lalr.stats (Engine.lalr e));
  let n =
    match Hashtbl.find_opt cells key with
    | Some n -> n
    | None ->
        let n = table_cells (Engine.tables e) in
        Hashtbl.add cells key n;
        n
  in
  count c "tables.cells" (float_of_int n);
  (* Only LR(1) machines built here count, not verdicts from the store. *)
  if List.exists (fun (s : Engine.stage) -> s.stage = "lr1" && s.misses > 0) (Engine.stats e)
  then begin
    count c "lr1.states" (float_of_int v.lr1_states);
    (* An LR(1) build is useful only when the cheaper verdicts did not
       already decide LR(1)-ness: LALR(1) implies LR(1), a reads cycle
       refutes it. *)
    count c "lr1.useful_ratio" (if v.lalr1 || v.not_lr_k then 0. else 1.)
  end

let read_lines path = In_channel.with_open_bin path In_channel.input_lines

let suite_name spec =
  if String.length spec > 6 && String.sub spec 0 6 = "suite:" then
    Some (String.sub spec 6 (String.length spec - 6))
  else None

let load_registry name = Lazy.force (Registry.find name).Registry.grammar

type replay = {
  tr : Span.t;
  c : counts;
  mutable failed : int;
  mutable reader_bytes : int;
}

(* Loads a grammar under a span: [load] for a registry lookup, [read]
   for grammar text through the reader (the one [reader.mb_per_s]
   divides by). *)
let load_grammar r ~op source =
  match source with
  | `Suite name ->
      let g = Span.with_span r.tr ~op "load" (fun () -> load_registry name) in
      (Some g, `Registry (Registry.find name).Registry.expected)
  | `File path ->
      r.reader_bytes <- r.reader_bytes + (Unix.stat path).Unix.st_size;
      (Span.with_span r.tr ~op "read" (fun () -> fst (Reader.of_file_tolerant path)), `Scaled)
  | `Text text ->
      r.reader_bytes <- r.reader_bytes + String.length text;
      ( Span.with_span r.tr ~op "read" (fun () ->
            fst (Reader.of_string_tolerant ~name:"request" text)),
        `Scaled )

let check r (v : Classify.verdict) = function
  | `Registry x -> if not (verdict_ok x v) then r.failed <- r.failed + 1
  | `Scaled -> if not (scaled_ok v) then r.failed <- r.failed + 1

(* Counts and answer checks run after each op's root span closes, so the
   span covers only what the program does. *)
let replay_cli r cells ops =
  List.iteri
    (fun op spec ->
      let source = match suite_name spec with Some n -> `Suite n | None -> `File spec in
      let result =
        Span.with_span r.tr ~op "op" (fun () ->
            match load_grammar r ~op source with
            | None, _ -> None
            | Some g, expect ->
                let e = Span.with_span r.tr ~op "engine.create" (fun () -> Engine.create g) in
                Some (e, expect, force_stages r.tr ~op e))
      in
      match result with
      | None -> r.failed <- r.failed + 1
      | Some (e, expect, v) ->
          check r v expect;
          engine_counts r.c cells ~key:spec e v)
    ops

let health_response id : Protocol.response =
  Protocol.Health
    {
      h_id = id;
      h_uptime_s = 0.;
      h_pid = Unix.getpid ();
      h_version = Protocol.version;
      h_ready = true;
      h_queue_depth = 0;
      h_queue_capacity = 64;
      h_workers = [ { Protocol.w_id = 0; w_alive = true; w_jobs = 0 } ];
      h_restarts = 0;
      h_shed = 0;
      h_deadline_expired = 0;
      h_completed = 0;
      h_store = None;
    }

let job_response id (v : Classify.verdict) e : Protocol.response =
  Protocol.Job
    {
      r_id = id;
      r_status = (if v.lalr1 then Protocol.Ok_ else Protocol.Verdict);
      r_detail = "";
      r_lalr1 = Some v.lalr1;
      r_wall_ms = 0.;
      r_queue_ms = 0.;
      r_retries = 0;
      r_worker = Some 0;
      r_slack_ms = None;
      r_trace_id = None;
      r_stages =
        List.filter_map
          (fun (s : Engine.stage) -> if s.forced then Some (s.stage, s.wall) else None)
          (Engine.stats e);
      r_lr0_states = Engine.peek_lr0_states e;
      r_completed = [];
    }

(* The daemon's path for one request line, minus sockets and the pool:
   decode, load, store probe, stages, persist, encode. *)
let replay_serve r cells ~store lines =
  (* The daemon is warmed with one request per language before timing;
     so is the replay's store, outside any span. *)
  List.iter
    (fun name ->
      let e = Engine.create ~store (load_registry name) in
      ignore (Engine.classification e);
      Engine.persist e)
    Inputs.language_names;
  List.iteri
    (fun op line ->
      let writes = (Store.stats store).writes in
      let result =
        Span.with_span r.tr ~op "op" (fun () ->
            match Span.with_span r.tr ~op "protocol.decode" (fun () -> Protocol.decode_request line) with
            | Ok (Protocol.Health { id }) ->
                ignore
                  (Span.with_span r.tr ~op "protocol.encode" (fun () ->
                       Protocol.encode_response (health_response id)));
                `Health
            | Ok (Protocol.Classify { id; source; _ }) -> (
                let source =
                  match source with
                  | Protocol.File spec -> `Suite (Option.get (suite_name spec))
                  | Protocol.Inline { text; _ } -> `Text text
                in
                match load_grammar r ~op source with
                | None, _ -> `Failed
                | Some g, expect ->
                    let e = Span.with_span r.tr ~op "store.load" (fun () -> Engine.create ~store g) in
                    let v = force_stages r.tr ~op e in
                    Span.with_span r.tr ~op "store.save" (fun () -> Engine.persist e);
                    ignore
                      (Span.with_span r.tr ~op "protocol.encode" (fun () ->
                           Protocol.encode_response (job_response id v e)));
                    `Classified (g, e, expect, v))
            | Ok (Protocol.Metrics _) | Error _ -> `Failed)
      in
      match result with
      | `Health -> ()
      | `Failed -> r.failed <- r.failed + 1
      | `Classified (g, e, expect, v) ->
          (* The serve reference is the verdict bit the response carries. *)
          (match expect with
          | `Registry x -> if v.lalr1 <> x.lalr1 then r.failed <- r.failed + 1
          | `Scaled -> check r v `Scaled);
          if (Store.stats store).writes > writes then
            count r.c "store.entry_kb"
              (float_of_int (Unix.stat (Store.entry_path store g)).Unix.st_size /. 1e3);
          engine_counts r.c cells ~key:(Store.key g) e v)
    lines

(* Per-op totals of the root spans, in op order, for run.py to set
   beside each op's untraced latency. *)
let op_totals spans =
  List.filter_map (fun (sp : Span.span) -> if sp.name = "op" then Some (F (Span.ms sp)) else None) spans

let replay () =
  let w = workload () and seed = seed () and dir = req "--dir" in
  let ops = read_lines (req "--ops") in
  let r = { tr = Span.create (); c = counts (); failed = 0; reader_bytes = 0 } in
  let cells = Hashtbl.create 16 in
  let g0 = Gc.quick_stat () in
  (match w with
  | "cli-suite" | "cli-scaled" -> replay_cli r cells ops
  | "serve-mixed" ->
      let store = Store.create ~dir:(Filename.concat dir "replay-store") in
      replay_serve r cells ~store ops
  | w -> die "replay: unknown workload %s" w);
  let g1 = Gc.quick_stat () in
  let n_ops = List.length ops in
  let spans = Span.spans r.tr in
  count r.c "heap.top_mb" (top_heap_mb ());
  count r.c "gc.major_collections"
    (float_of_int (g1.major_collections - g0.major_collections) /. float_of_int (max 1 n_ops));
  let reader_ms = List.fold_left (fun a (sp : Span.span) -> if sp.name = "read" then a +. Span.ms sp else a) 0. spans in
  if r.reader_bytes > 0 && reader_ms > 0. then
    count r.c "reader.mb_per_s" (float_of_int r.reader_bytes /. 1e6 /. (reader_ms /. 1e3));
  let trace_file = Filename.concat dir (Printf.sprintf "spans-%s-%d.json" w seed) in
  Span.write_chrome r.tr trace_file;
  print_json
    (O
       [
         ("ops", I n_ops);
         ("failed", I r.failed);
         ("spans", I (List.length spans));
         ("spans_file", S trace_file);
         ("op_ms", L (op_totals spans));
         ("metrics", O (span_metrics spans @ count_metrics r.c count_names));
       ])

(* ------------------------------------------------------------------ *)
(* ladder: cli-scaled's size sweep, for the growth exponents           *)
(* ------------------------------------------------------------------ *)

(* Least-squares slope of log y against log x. *)
let loglog_slope pts =
  let pts = List.filter (fun (x, y) -> x > 0. && y > 0.) pts in
  let n = float_of_int (List.length pts) in
  if n < 2. then 0.
  else
    let lx = List.map (fun (x, _) -> log x) pts and ly = List.map (fun (_, y) -> log y) pts in
    let mean l = List.fold_left ( +. ) 0. l /. n in
    let mx = mean lx and my = mean ly in
    let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0. lx ly in
    let sxx = List.fold_left (fun a x -> a +. ((x -. mx) ** 2.)) 0. lx in
    sxy /. sxx

(* Multiples of the mini-c-sized 18-unit block; ascending, in one
   process, so each step's top heap is its own peak. *)
let ladder_steps = [ 1; 2; 5; 10 ]

let ladder () =
  let seed = seed () and dir = req "--dir" in
  let tr = Span.create () in
  let gseed = Random.State.bits (Inputs.rng ~seed "ladder" 0) in
  let rows =
    List.mapi
      (fun op k ->
        let text = Inputs.scaled_text { Inputs.gseed; units = 18 * k } in
        Span.with_span tr ~op "op" (fun () ->
            let g =
              Span.with_span tr ~op "read" (fun () ->
                  Option.get (fst (Reader.of_string_tolerant ~name:"ladder" text)))
            in
            let e = Engine.create g in
            ignore (force_stages tr ~op e);
            let s = Lalr.stats (Engine.lalr e) in
            (k, s.n_nt_transitions, Lr0.n_states (Engine.lr0 e), top_heap_mb ())))
      ladder_steps
  in
  let spans = Span.spans tr in
  let stage_ms op names =
    List.fold_left
      (fun a (sp : Span.span) -> if sp.op = op && List.mem sp.name names then a +. Span.ms sp else a)
      0. spans
  in
  let series names =
    List.mapi (fun op (_, nt, _, _) -> (float_of_int nt, stage_ms op names)) rows
  in
  let tables = table_stages and lalr = [ "relations"; "follow"; "la" ] in
  let heap = List.map (fun (_, nt, _, h) -> (float_of_int nt, h)) rows in
  let n = List.length rows in
  Span.write_chrome tr (Filename.concat dir (Printf.sprintf "spans-ladder-%d.json" seed));
  print_json
    (O
       [
         ( "steps",
           L
             (List.mapi
                (fun op (k, nt, states, h) ->
                  O
                    [
                      ("scale", I k);
                      ("nt_transitions", I nt);
                      ("lr0_states", I states);
                      ("lr0_ms", F (stage_ms op [ "lr0" ]));
                      ("tables_ms", F (stage_ms op tables));
                      ("lalr_ms", F (stage_ms op lalr));
                      ("top_heap_mb", F h);
                    ])
                rows) );
         ( "metrics",
           O
             [
               metric "lr0.exp" "ratio" (n, loglog_slope (series [ "lr0" ]));
               metric "tables.exp" "ratio" (n, loglog_slope (series tables));
               metric "lalr.exp" "ratio" (n, loglog_slope (series lalr));
               metric "heap.exp" "ratio" (n, loglog_slope heap);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* parse: the parser runtime, for cli-scaled's traced run              *)
(* ------------------------------------------------------------------ *)

let yield_ok toks tree =
  List.equal (fun (a : Token.t) (b : Token.t) -> a.terminal = b.terminal) toks (Tree.yield tree)

(* Seconds of untraced parsing, the baseline for the recorder's
   overhead. *)
let parse_loop_s = 3.

(* Tables are built as examples/calculator.ml builds them. One untimed
   cycle over every sentence comes first (a fresh process runs its
   first cycles markedly slower), then an untraced loop for
   [parse_loop_s] and one traced cycle; the ratio of their mean
   latencies is the span recorder's overhead. Every parse must yield
   its sentence. *)
let parse () =
  let seed = seed () and dir = req "--dir" in
  let grammars = Inputs.parse_grammars ~seed in
  let sents = Array.of_list (Inputs.sentences ~seed grammars) in
  let tables =
    Array.of_list
      (List.map
         (fun (_, g) ->
           let a = Lr0.build g in
           Tables.build ~lookahead:(Lalr.lookahead (Lalr.compute a)) a)
         grammars)
  in
  let order =
    Inputs.shuffle (Inputs.rng ~seed "parse-order" 0)
      (List.concat
         (List.mapi (fun gi s -> List.init (Array.length s) (fun si -> (gi, si))) (Array.to_list sents)))
    |> Array.of_list
  in
  let failed = ref 0 in
  let parse_checked ~time (gi, si) =
    let toks = sents.(gi).(si) in
    match time (fun () -> Driver.parse tables.(gi) toks) with
    | Ok tree when yield_ok toks tree -> ()
    | _ -> incr failed
  in
  Array.iter (fun (gi, si) -> ignore (Driver.parse tables.(gi) sents.(gi).(si))) order;
  let ops = ref 0 and busy = ref 0 in
  let deadline = Span.now_ns () + int_of_float (parse_loop_s *. 1e9) in
  while Span.now_ns () < deadline do
    parse_checked
      ~time:(fun f ->
        let t0 = Span.now_ns () in
        let r = f () in
        busy := !busy + (Span.now_ns () - t0);
        r)
      order.(!ops mod Array.length order);
    incr ops
  done;
  let tr = Span.create () and c = counts () in
  let actions = ref 0 in
  Array.iteri
    (fun op (gi, si) ->
      parse_checked ~time:(Span.with_span tr ~op "driver.parse") (gi, si);
      let n = parse_actions tables.(gi) sents.(gi).(si) in
      actions := !actions + n;
      count c "driver.actions" (float_of_int n))
    order;
  let spans = Span.spans tr in
  let driver_ns =
    List.fold_left (fun a (sp : Span.span) -> a + (sp.stop_ns - sp.start_ns)) 0 spans
  in
  count c "driver.ns_per_action" (float_of_int driver_ns /. float_of_int (max 1 !actions));
  count c "trace.overhead_ratio"
    (float_of_int driver_ns /. float_of_int (Array.length order)
    /. (float_of_int !busy /. float_of_int (max 1 !ops)));
  let spans_file = Filename.concat dir (Printf.sprintf "spans-parse-%d.json" seed) in
  Span.write_chrome tr spans_file;
  print_json
    (O
       [
         ("ops", I (!ops + Array.length order));
         ("failed", I !failed);
         ("sentences", I (Array.length order));
         ("spans_file", S spans_file);
         ("metrics", O (span_metrics spans @ count_metrics c count_names));
       ])

(* ------------------------------------------------------------------ *)

let () =
  match if Array.length Sys.argv < 2 then "" else Sys.argv.(1) with
  | "info" -> print_json (O [ ("ocaml", S Sys.ocaml_version) ])
  | "expect" ->
      print_json
        (O (List.map (fun (e : Registry.entry) -> (e.name, expected_json e.expected)) Registry.all))
  | "gen" -> gen ()
  | "parse" -> parse ()
  | "replay" -> replay ()
  | "ladder" -> ladder ()
  | c -> die "unknown command %S (info|expect|gen|parse|replay|ladder)" c
