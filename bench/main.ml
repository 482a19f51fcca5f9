(* Benchmark harness — regenerates every timing table and figure of the
   evaluation (see DESIGN.md §3 and EXPERIMENTS.md):

     T1  LR(0) automaton construction cost per language grammar
     T2  relation construction + Digraph solve (Lalr.compute)
     T3  full pipeline: grammar → look-aheads → ACTION/GOTO tables
     T4  method shoot-out: DeRemer–Pennello vs yacc propagation vs
         canonical-LR(1)+merge vs SLR FOLLOW       (the headline table)
     F1  scaling over the synthetic grammar families (time vs |G|)
     F2  speedup of DP over the baselines as size grows
     F3  the Digraph algorithm vs naive fixpoint iteration
     RT  parser-runtime throughput (tokens/s) as a sanity check that
         tables from the exact method drive the parser at full speed

   Each experiment is one Bechamel Test.make (or a Test.make per
   grammar×method cell); after the statistics, the paper-shaped tables
   T1–T5 are printed via Lalr_bench_tables.

   Run with:  dune exec bench/main.exe            (everything)
              dune exec bench/main.exe -- t4 f1   (a subset) *)

open Bechamel
open Toolkit

module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Slr = Lalr_baselines.Slr
module Lr1 = Lalr_baselines.Lr1
module Propagation = Lalr_baselines.Propagation
module Tables = Lalr_tables.Tables
module Driver = Lalr_runtime.Driver
module Sentence = Lalr_runtime.Sentence
module Registry = Lalr_suite.Registry
module Digraph = Lalr_sets.Digraph
module E = Lalr_bench_tables.Experiments
module Engine = Lalr_engine.Engine
module Store = Lalr_store.Store

(* Prebuilt artifacts for benchmark setup come from the shared
   per-language engines (one pipeline per grammar per process); the
   timed thunks themselves stay raw computations. *)
let languages =
  lazy
    (List.map (fun (name, eng) -> (name, Engine.grammar eng)) (E.engines ()))

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let run_tests ~quota_s tests =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~kde:None ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" tests) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  Analyze.all ols Instance.monotonic_clock raw

let estimate results name =
  match Hashtbl.find_opt results name with
  | None -> nan
  | Some ols -> (
      match Analyze.OLS.estimates ols with
      | Some [ e ] -> e (* nanoseconds per run *)
      | _ -> nan)

let pp_ns ppf ns =
  if Float.is_nan ns then Format.fprintf ppf "n/a"
  else if ns > 1e9 then Format.fprintf ppf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Format.fprintf ppf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Format.fprintf ppf "%.2f µs" (ns /. 1e3)
  else Format.fprintf ppf "%.0f ns" ns

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* T1 — LR(0) construction                                            *)
(* ------------------------------------------------------------------ *)

let bench_t1 () =
  section "bench T1 — LR(0) automaton construction";
  let tests =
    List.map
      (fun (name, g) ->
        Test.make ~name (Staged.stage (fun () -> Lr0.build g)))
      (Lazy.force languages)
  in
  let results = run_tests ~quota_s:0.5 tests in
  List.iter
    (fun (name, eng) ->
      Format.printf "%-14s %a   (%d states)@." name pp_ns
        (estimate results ("/" ^ name))
        (Lr0.n_states (Engine.lr0 eng)))
    (E.engines ())

(* ------------------------------------------------------------------ *)
(* T2 — relations + Digraph                                           *)
(* ------------------------------------------------------------------ *)

let bench_t2 () =
  section "bench T2 — relations + Digraph solve (Lalr.compute)";
  let prebuilt =
    List.map (fun (name, eng) -> (name, Engine.lr0 eng)) (E.engines ())
  in
  let tests =
    List.map
      (fun (name, a) ->
        Test.make ~name (Staged.stage (fun () -> Lalr.compute a)))
      prebuilt
  in
  let results = run_tests ~quota_s:0.5 tests in
  List.iter
    (fun (name, eng) ->
      let s = Lalr.stats (Engine.lalr eng) in
      Format.printf "%-14s %a   (%d nt transitions, %d+%d edges)@." name
        pp_ns
        (estimate results ("/" ^ name))
        s.Lalr.n_nt_transitions s.Lalr.reads_edges s.Lalr.includes_edges)
    (E.engines ())

(* ------------------------------------------------------------------ *)
(* T3 — full pipeline to tables                                       *)
(* ------------------------------------------------------------------ *)

let bench_t3 () =
  section "bench T3 — grammar → look-aheads → ACTION/GOTO tables";
  let pipeline g () =
    let a = Lr0.build g in
    let t = Lalr.compute a in
    Tables.build ~lookahead:(Lalr.lookahead t) a
  in
  let tests =
    List.map
      (fun (name, g) -> Test.make ~name (Staged.stage (pipeline g)))
      (Lazy.force languages)
  in
  let results = run_tests ~quota_s:0.5 tests in
  List.iter
    (fun (name, _) ->
      Format.printf "%-14s %a@." name pp_ns (estimate results ("/" ^ name)))
    (Lazy.force languages)

(* ------------------------------------------------------------------ *)
(* T4 — the method shoot-out                                          *)
(* ------------------------------------------------------------------ *)

let methods a g =
  [
    ("dp", fun () -> ignore (Sys.opaque_identity (Lalr.compute a)));
    ("prop", fun () -> ignore (Sys.opaque_identity (Propagation.compute a)));
    ( "merge",
      fun () ->
        ignore (Sys.opaque_identity (Lr1.merged_lookaheads (Lr1.build g) a)) );
    ("slr", fun () -> ignore (Sys.opaque_identity (Slr.compute a)));
  ]

let bench_t4 () =
  section "bench T4 — look-ahead methods (the paper's headline comparison)";
  let prebuilt =
    List.map
      (fun (name, eng) -> (name, Engine.grammar eng, Engine.lr0 eng))
      (E.engines ())
  in
  let tests =
    List.concat_map
      (fun (name, g, a) ->
        List.map
          (fun (m, f) -> Test.make ~name:(name ^ ":" ^ m) (Staged.stage f))
          (methods a g))
      prebuilt
  in
  let results = run_tests ~quota_s:0.5 tests in
  Format.printf "%-14s %12s %12s %12s %12s %9s %9s@." "grammar" "DP" "prop"
    "LR1+merge" "SLR" "prop/DP" "merge/DP";
  List.iter
    (fun (name, _, _) ->
      let e m = estimate results ("/" ^ name ^ ":" ^ m) in
      let dp = e "dp" and prop = e "prop" in
      let merge = e "merge" and slr = e "slr" in
      Format.printf "%-14s %12s %12s %12s %12s %8.1fx %8.1fx@." name
        (Format.asprintf "%a" pp_ns dp)
        (Format.asprintf "%a" pp_ns prop)
        (Format.asprintf "%a" pp_ns merge)
        (Format.asprintf "%a" pp_ns slr)
        (prop /. dp) (merge /. dp))
    prebuilt

(* ------------------------------------------------------------------ *)
(* F1/F2 — scaling and speedup over the synthetic families            *)
(* ------------------------------------------------------------------ *)

let bench_f1_f2 () =
  section "bench F1 — scaling (time vs grammar size) / F2 — speedup";
  List.iter
    (fun (family_name, points) ->
      Format.printf "@.family %s:@." family_name;
      Format.printf "%6s %6s %12s %12s %12s %9s %9s@." "n" "|G|" "DP" "prop"
        "LR1+merge" "prop/DP" "merge/DP";
      List.iter
        (fun (n, size, times) ->
          let dp = times.(0) and prop = times.(1) and merge = times.(2) in
          Format.printf "%6d %6d %12s %12s %12s %8.1fx %8.1fx@." n size
            (Format.asprintf "%a" pp_ns (dp *. 1e9))
            (Format.asprintf "%a" pp_ns (prop *. 1e9))
            (Format.asprintf "%a" pp_ns (merge *. 1e9))
            (prop /. dp) (merge /. dp))
        points)
    (E.f1_series ())

(* ------------------------------------------------------------------ *)
(* F3 — Digraph vs naive fixpoint                                     *)
(* ------------------------------------------------------------------ *)

let bench_f3 () =
  section "bench F3 — Digraph traversal vs naive fixpoint iteration";
  (* The Follow computation (includes relation) of each language
     grammar, solved both ways. *)
  let cases =
    List.map
      (fun (name, eng) ->
        let a = Engine.lr0 eng in
        let t = Engine.lalr eng in
        let nx = Lr0.n_nt_transitions a in
        let successors x = Lalr.includes t x in
        let init x = Lalr.read t x in
        (name, nx, successors, init))
      (E.engines ())
  in
  let tests =
    List.concat_map
      (fun (name, nx, successors, init) ->
        [
          Test.make ~name:(name ^ ":digraph")
            (Staged.stage (fun () ->
                 Digraph.ForBitset.run ~n:nx ~successors ~init));
          Test.make ~name:(name ^ ":naive")
            (Staged.stage (fun () ->
                 Digraph.naive_fixpoint ~n:nx ~successors ~init));
        ])
      cases
  in
  let results = run_tests ~quota_s:0.5 tests in
  Format.printf "%-14s %12s %12s %9s@." "grammar" "digraph" "naive" "naive/dg";
  List.iter
    (fun (name, _, _, _) ->
      let dg = estimate results ("/" ^ name ^ ":digraph") in
      let naive = estimate results ("/" ^ name ^ ":naive") in
      Format.printf "%-14s %12s %12s %8.1fx@." name
        (Format.asprintf "%a" pp_ns dg)
        (Format.asprintf "%a" pp_ns naive)
        (naive /. dg))
    cases

(* ------------------------------------------------------------------ *)
(* F4 — LALR(k) fixpoint vs canonical LR(k) (the §8 extension)        *)
(* ------------------------------------------------------------------ *)

let bench_f4 () =
  section
    "bench F4 — LALR(k) relational fixpoint vs canonical LR(k) merge (§8)";
  (* Small/medium grammars only: canonical LR(k) explodes, which is the
     result being demonstrated. *)
  let cases =
    List.map
      (fun name ->
        let g = Lazy.force (Registry.find name).grammar in
        (name, g, Lalr_automaton.Lr0.build g))
      [ "expr"; "expr-ll"; "assign"; "json"; "lalr2" ]
  in
  let tests =
    List.concat_map
      (fun (name, g, a) ->
        List.concat_map
          (fun kk ->
            [
              Test.make
                ~name:(Printf.sprintf "%s:k%d:fix" name kk)
                (Staged.stage (fun () ->
                     Lalr_core.Lalr_k.compute ~k:kk a));
              Test.make
                ~name:(Printf.sprintf "%s:k%d:can" name kk)
                (Staged.stage (fun () ->
                     Lalr_baselines.Lrk.merged_lookaheads
                       (Lalr_baselines.Lrk.build ~k:kk g)
                       a));
            ])
          [ 1; 2; 3 ])
      cases
  in
  let results = run_tests ~quota_s:0.3 tests in
  Format.printf "%-10s %4s %12s %12s %9s@." "grammar" "k" "fixpoint"
    "canonical" "can/fix";
  List.iter
    (fun (name, _, _) ->
      List.iter
        (fun kk ->
          let f = estimate results (Printf.sprintf "/%s:k%d:fix" name kk) in
          let c = estimate results (Printf.sprintf "/%s:k%d:can" name kk) in
          Format.printf "%-10s %4d %12s %12s %8.1fx@." name kk
            (Format.asprintf "%a" pp_ns f)
            (Format.asprintf "%a" pp_ns c)
            (c /. f))
        [ 1; 2; 3 ])
    cases

(* ------------------------------------------------------------------ *)
(* RT — parser throughput                                             *)
(* ------------------------------------------------------------------ *)

let bench_rt () =
  section "bench RT — parser throughput on generated sentences";
  let cases =
    List.filter_map
      (fun (name, eng) ->
        let g = Engine.grammar eng in
        let t = Engine.lalr eng in
        if not (Lalr.is_lalr1 t) then None
        else begin
          let tbl = Engine.tables eng in
          let prep = Sentence.prepare g in
          let rng = Random.State.make [| 17 |] in
          let sentences =
            List.init 50 (fun _ -> Sentence.generate ~max_depth:12 prep rng)
          in
          let total_tokens =
            List.fold_left (fun acc s -> acc + List.length s) 0 sentences
          in
          Some (name, tbl, sentences, total_tokens)
        end)
      (E.engines ())
  in
  let tests =
    List.map
      (fun (name, tbl, sentences, _) ->
        Test.make ~name
          (Staged.stage (fun () ->
               List.iter
                 (fun s -> ignore (Sys.opaque_identity (Driver.accepts tbl s)))
                 sentences)))
      cases
  in
  let results = run_tests ~quota_s:0.5 tests in
  List.iter
    (fun (name, _, _, total_tokens) ->
      let ns = estimate results ("/" ^ name) in
      Format.printf "%-14s %a for %d tokens  (%.1f M tokens/s)@." name pp_ns
        ns total_tokens
        (float_of_int total_tokens /. ns *. 1e3))
    cases

(* ------------------------------------------------------------------ *)
(* TR — tracing layer: disarmed vs armed overhead                     *)
(* ------------------------------------------------------------------ *)

module Trace = Lalr_trace.Trace

(* Manual best-of-N wall timing rather than Bechamel: the claim under
   test is macro-level ("the layer costs one ref read when disarmed,
   and arming it stays cheap"), so each row runs the full pipeline
   from a fresh engine with tracing off and on, and times a warm-store
   run beside them. The rows go to BENCH_pr5.json. *)
let bench_trace () =
  section "bench TR — tracing: disarmed vs armed pipeline";
  let tmp_root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lalr_bench_trace_%d" (Unix.getpid ()))
  in
  let pipeline e =
    ignore (Engine.tables e);
    ignore (Engine.classification e)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let reps = 5 in
  let best_of f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t = time f in
      if t < !best then best := t
    done;
    !best
  in
  let armed_run f =
    let s = Trace.start () in
    let r = time f in
    Trace.finish s;
    (r, Trace.n_events s)
  in
  let best_armed f =
    let best = ref infinity and events = ref 0 in
    for _ = 1 to reps do
      let t, n = armed_run f in
      if t < !best then begin
        best := t;
        events := n
      end
    done;
    (!best, !events)
  in
  let rows =
    List.map
      (fun (name, eng) ->
        let g = Engine.grammar eng in
        let disarmed = best_of (fun () -> pipeline (Engine.create g)) in
        let armed, events =
          best_armed (fun () -> pipeline (Engine.create g))
        in
        let warm_store =
          Store.create ~dir:(Printf.sprintf "%s/%s-warm" tmp_root name)
        in
        (let e = Engine.create ~store:warm_store g in
         pipeline e;
         Engine.persist ~force:true e);
        let warm =
          best_of (fun () -> pipeline (Engine.create ~store:warm_store g))
        in
        Format.printf
          "%-14s disarmed %10s   armed %10s   (%5.2fx, %3d events)   warm \
           %10s@."
          name
          (Format.asprintf "%a" pp_ns (disarmed *. 1e9))
          (Format.asprintf "%a" pp_ns (armed *. 1e9))
          (armed /. disarmed) events
          (Format.asprintf "%a" pp_ns (warm *. 1e9));
        (name, disarmed, armed, events, warm))
      (E.engines ())
  in
  let oc = open_out "BENCH_pr5.json" in
  Printf.fprintf oc
    "{\n\
    \  \"pr\": 5,\n\
    \  \"experiment\": \"trace-disarmed-vs-armed\",\n\
    \  \"pipeline\": \"tables + classification (no lr1)\",\n\
    \  \"unit\": \"seconds, best of %d\",\n\
    \  \"grammars\": [\n"
    reps;
  let n = List.length rows in
  List.iteri
    (fun i (name, disarmed, armed, events, warm) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"disarmed_s\": %.9f, \"armed_s\": %.9f, \
         \"armed_overhead\": %.3f, \"events\": %d, \"warm_cache_s\": \
         %.9f}%s\n"
        name disarmed armed (armed /. disarmed) events warm
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Format.printf "@.wrote BENCH_pr5.json (%d grammars)@." n

(* ------------------------------------------------------------------ *)
(* Serve — worker-pool throughput at 1/4/8 domains (BENCH_pr8.json)   *)
(* ------------------------------------------------------------------ *)

module G = Lalr_grammar.Grammar
module Reader = Lalr_grammar.Reader
module Pool = Lalr_serve.Pool
module Protocol = Lalr_serve.Protocol
module Metrics = Lalr_trace.Metrics

(* Render a grammar back to the reader's surface syntax so the scaled
   generator's output can travel as an [Inline] request — the pool has
   no entry that accepts a Grammar.t directly, by design (the daemon
   only trusts bytes). Precedence-free grammars only, which the scaled
   family is. *)
let grammar_to_cfg g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "%token";
  for t = 1 to G.n_terminals g - 1 do
    Buffer.add_char buf ' ';
    Buffer.add_string buf (G.terminal_name g t)
  done;
  Printf.bprintf buf "\n%%start %s\n%%%%\n"
    (G.nonterminal_name g g.G.start);
  Array.iter
    (fun (p : G.production) ->
      if p.G.id <> 0 then begin
        Buffer.add_string buf (G.nonterminal_name g p.G.lhs);
        Buffer.add_string buf " :";
        Array.iter
          (fun s ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf (G.symbol_name g s))
          p.G.rhs;
        Buffer.add_string buf " ;\n"
      end)
    g.G.productions;
  Buffer.contents buf

let serve_suite_names =
  [ "json"; "mini-pascal"; "mini-c"; "modula2"; "ada-subset"; "algol60" ]

(* [reps] copies of (every language grammar + the scaled-10x grammar
   inline): the same request stream every arm consumes. *)
let serve_workload ~reps scaled_cfg =
  List.concat
    (List.init reps (fun r ->
         List.map
           (fun n ->
             Protocol.Classify
               {
                 id = Printf.sprintf "%s-%d" n r;
                 source = Protocol.File ("suite:" ^ n);
                 budget = None;
                 deadline_ms = None;
                 trace_id = None;
               })
           serve_suite_names
         @ [
             Protocol.Classify
               {
                 id = Printf.sprintf "scaled-10x-%d" r;
                 source =
                   Protocol.Inline { text = scaled_cfg; format = `Cfg };
                 budget = None;
                 deadline_ms = None;
                 trace_id = None;
               };
           ]))

(* The sequential-batch baseline: the same per-request work the pool's
   workers do (load, engine, classification, persist), one request
   after another on the calling domain, no queue, no dispatch. *)
let serve_run_sequential ?store requests =
  List.iter
    (fun (req : Protocol.request) ->
      match req with
      | Protocol.Health _ | Protocol.Metrics _ -> ()
      | Protocol.Classify { source; _ } ->
          let g =
            match source with
            | Protocol.File spec ->
                let name = String.sub spec 6 (String.length spec - 6) in
                Lazy.force (Registry.find name).Registry.grammar
            | Protocol.Inline { text; _ } -> (
                match Reader.of_string_tolerant ~name:"bench" text with
                | Some g, [] -> g
                | _ -> failwith "serve bench: unreadable inline grammar")
          in
          let e = Engine.create ?store g in
          ignore (Engine.run_partial e Engine.classification);
          Engine.persist e)
    requests

let serve_run_pool ~domains ?store ?metrics requests =
  let pool =
    Pool.create
      {
        Pool.default_config with
        Pool.domains;
        queue_capacity = List.length requests + 1;
        store;
        metrics;
      }
  in
  let pending = Atomic.make (List.length requests) in
  List.iter
    (fun request ->
      match Pool.submit pool ~request ~respond:(fun _ -> Atomic.decr pending) with
      | `Accepted -> ()
      | `Overloaded | `Draining | `Expired | `Unready ->
          failwith "serve bench: request not admitted")
    requests;
  ignore (Pool.drain pool);
  assert (Atomic.get pending = 0)

(* Physical core count as the OS reports it ([nproc]), for the JSON
   records: [Domain.recommended_domain_count] can be clamped by the
   runtime, and the speedup-bound story should be judged against the
   real machine. Falls back to the runtime's number when [nproc] is
   unavailable. *)
let nproc () =
  let fallback = Domain.recommended_domain_count () in
  match
    let ic = Unix.open_process_in "nproc 2>/dev/null" in
    let line =
      try Some (String.trim (input_line ic)) with End_of_file -> None
    in
    let status = Unix.close_process_in ic in
    match (status, line) with
    | Unix.WEXITED 0, Some l -> int_of_string_opt l
    | _ -> None
  with
  | Some n when n > 0 -> n
  | Some _ | None -> fallback
  | exception (Unix.Unix_error _ | Sys_error _) -> fallback

let serve_samples = 3

let serve_wall f =
  let best = ref infinity in
  for _ = 1 to serve_samples do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    f ();
    let t = Unix.gettimeofday () -. t0 in
    if t < !best then best := t
  done;
  !best

let bench_serve_rows ~reps =
  let scaled_cfg = grammar_to_cfg (Lalr_suite.Scaled.grammar ()) in
  let requests = serve_workload ~reps scaled_cfg in
  let n = List.length requests in
  (* Warm-up: force the registry lazies and level the allocator so the
     first timed arm is not billed for one-time construction. *)
  serve_run_sequential requests;
  let seq = serve_wall (fun () -> serve_run_sequential requests) in
  let arms =
    List.map
      (fun domains ->
        let w = serve_wall (fun () -> serve_run_pool ~domains requests) in
        (domains, w))
      [ 1; 4; 8 ]
  in
  (requests, n, seq, arms)

let bench_serve () =
  section "bench SV — serve pool throughput, 1/4/8 domains vs sequential";
  let reps = 3 in
  let requests, n, seq, arms = bench_serve_rows ~reps in
  Format.printf "sequential: %d requests in %.3fs (%.1f req/s)@." n seq
    (float_of_int n /. seq);
  List.iter
    (fun (d, w) ->
      Format.printf "%d domain(s): %.3fs (%.1f req/s, %.2fx)@." d w
        (float_of_int n /. w) (seq /. w))
    arms;
  (* Warm-store pass at the widest arm: one cold fill, one warm run
     over the same shared store; the hit rate lands in the JSON. *)
  let store_dir = Filename.temp_file "lalr_serve_bench_" "" in
  Sys.remove store_dir;
  let store = Store.create ~dir:store_dir in
  serve_run_pool ~domains:8 ~store requests;
  let cold = Store.stats store in
  let warm_wall =
    serve_wall (fun () -> serve_run_pool ~domains:8 ~store requests)
  in
  let warm = Store.stats store in
  let w_hits = warm.Store.hits - cold.Store.hits in
  let w_misses = warm.Store.misses - cold.Store.misses in
  let hit_rate =
    if w_hits + w_misses = 0 then 0.
    else float_of_int w_hits /. float_of_int (w_hits + w_misses)
  in
  Format.printf
    "warm store (8 domains): %.3fs, hit rate %.2f (%d hits / %d misses)@."
    warm_wall hit_rate w_hits w_misses;
  let cores = nproc () in
  Bench_json.(
    write "BENCH_pr8.json"
      (Obj
         [
           ("pr", Int 8);
           ("experiment", Str "serve-pool-throughput");
           ( "workload",
             Str
               (Printf.sprintf
                  "%d requests: %d x (%s) + %d x scaled-10x inline" n reps
                  (String.concat " " serve_suite_names)
                  reps) );
           ("cores", Int cores);
           ( "note",
             Str
               "throughput arms share one physical machine; speedups are \
                bounded above by the available cores, so judge the 4- and \
                8-domain arms against min(domains, cores)" );
           ("requests", Int n);
           ("sequential_s", Sec seq);
           ( "arms",
             List
               (List.map
                  (fun (d, w) ->
                    Obj
                      [
                        ("domains", Int d);
                        ("wall_s", Sec w);
                        ( "throughput_req_s",
                          Ratio (float_of_int n /. w) );
                        ("speedup_vs_sequential", Ratio (seq /. w));
                        ( "speedup_bound",
                          Int (min d cores) );
                      ])
                  arms) );
           ( "warm_store",
             Obj
               [
                 ("domains", Int 8);
                 ("wall_s", Sec warm_wall);
                 ("hits", Int w_hits);
                 ("misses", Int w_misses);
                 ("hit_rate", Ratio hit_rate);
               ] );
         ]));
  Format.printf "@.wrote BENCH_pr8.json (%d requests, %d cores)@." n cores

(* CI smoke: one rep, pool vs sequential shape only, no file write. *)
let bench_serve_smoke () =
  section "bench SV (smoke) — serve pool, one rep";
  let scaled_cfg = grammar_to_cfg (Lalr_suite.Scaled.grammar ()) in
  let requests = serve_workload ~reps:1 scaled_cfg in
  serve_run_sequential requests;
  serve_run_pool ~domains:2 requests;
  Format.printf "serve smoke: %d requests served@." (List.length requests)

(* ------------------------------------------------------------------ *)
(* Metrics — armed vs disarmed telemetry overhead (BENCH_pr10)        *)
(* ------------------------------------------------------------------ *)

(* The telemetry probes ride the serving hot path (a histogram observe
   and a counter bump per job, GC gauges per dequeue), so the claim
   "always armed" needs a price tag: the same pool workload with
   [metrics = None] (every probe compiled to a [None] branch) vs a live
   registry with one shard per domain. The gate is a hard ceiling on
   the ratio; the reconciliation asserts the armed run's registry
   actually counted every job (an unwired probe would also be fast). *)
let bench_metrics () =
  section "bench MX — metrics overhead, armed vs disarmed pool";
  let scaled_cfg = grammar_to_cfg (Lalr_suite.Scaled.grammar ()) in
  let requests = serve_workload ~reps:2 scaled_cfg in
  let n = List.length requests in
  let cores = nproc () in
  let domains = max 1 (min cores 8) in
  (* Warm-up (disarmed): registry lazies, allocator leveling. *)
  serve_run_pool ~domains requests;
  (* Interleave the arms — disarmed then armed, [serve_samples] pairs,
     best of each — so a machine-load drift across the bench hits both
     arms alike instead of being billed to whichever ran last. *)
  let registry = Metrics.create ~shards:(domains + 1) in
  let disarmed = ref infinity and armed = ref infinity in
  for _ = 1 to serve_samples do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    serve_run_pool ~domains requests;
    let d = Unix.gettimeofday () -. t0 in
    if d < !disarmed then disarmed := d;
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    serve_run_pool ~domains ~metrics:registry requests;
    let a = Unix.gettimeofday () -. t0 in
    if a < !armed then armed := a
  done;
  let disarmed = !disarmed and armed = !armed in
  let ratio = armed /. disarmed in
  (* Reconcile: the armed arm ran [serve_samples] times over the same
     registry, and with no faults armed every dequeued job observes
     queue-wait, then finishes (jobs counter + request histogram)
     exactly once. *)
  let snap = Metrics.snapshot registry in
  let expected_jobs = serve_samples * n in
  let jobs = Metrics.counter_total snap "lalr_serve_pool_jobs_total" in
  let hcount name =
    match Metrics.find snap name with
    | Some v -> Metrics.hist_count v
    | None -> 0
  in
  let req_observed = hcount "lalr_serve_request_seconds" in
  let wait_observed = hcount "lalr_serve_queue_wait_seconds" in
  let exposition = Metrics.to_prometheus snap in
  let parse_ok =
    match Metrics.parse exposition with Ok _ -> true | Error _ -> false
  in
  Format.printf
    "metrics: %d requests x %d samples, %d domains (%d cores)@." n
    serve_samples domains cores;
  Format.printf "disarmed: %.3fs  armed: %.3fs  overhead: %.3fx@." disarmed
    armed ratio;
  Format.printf
    "armed registry: %d jobs, %d request observations, %d queue-wait \
     observations, %d exposition bytes (parse ok: %b)@."
    jobs req_observed wait_observed
    (String.length exposition)
    parse_ok;
  Bench_json.(
    write "BENCH_pr10.json"
      (Obj
         [
           ("pr", Int 10);
           ("experiment", Str "metrics-overhead-armed-vs-disarmed");
           ("cores", Int cores);
           ("domains", Int domains);
           ("requests", Int n);
           ("samples", Int serve_samples);
           ("disarmed_s", Sec disarmed);
           ("armed_s", Sec armed);
           ("overhead_ratio", Ratio ratio);
           ("overhead_gate", Ratio 1.2);
           ("armed_jobs", Int jobs);
           ("expected_jobs", Int expected_jobs);
           ("request_observations", Int req_observed);
           ("queue_wait_observations", Int wait_observed);
           ("exposition_bytes", Int (String.length exposition));
           ("exposition_parse_ok", Int (if parse_ok then 1 else 0));
         ]));
  Format.printf "@.wrote BENCH_pr10.json@.";
  (* Hard gates, after the JSON so a failing run still leaves the
     numbers on disk for the post-mortem. *)
  if jobs <> expected_jobs then
    failwith
      (Printf.sprintf "metrics: armed registry counted %d jobs, expected %d"
         jobs expected_jobs);
  if req_observed <> expected_jobs || wait_observed <> expected_jobs then
    failwith
      (Printf.sprintf
         "metrics: histogram counts (%d request, %d wait) disagree with %d \
          jobs"
         req_observed wait_observed expected_jobs);
  if not parse_ok then failwith "metrics: exposition does not parse back";
  if ratio > 1.2 then
    failwith
      (Printf.sprintf "metrics: armed overhead %.3fx exceeds the 1.2x gate"
         ratio)

(* ------------------------------------------------------------------ *)
(* Soak — deterministic chaos soak against a live daemon (BENCH_pr9)  *)
(* ------------------------------------------------------------------ *)

module Serve = Lalr_serve.Serve
module Client = Lalr_serve.Client
module Breaker = Lalr_guard.Breaker
module Faultpoint = Lalr_guard.Faultpoint
module Retry = Lalr_guard.Retry
module Json = Protocol.Json
module Cls = Lalr_tables.Classify

(* The soak is a bench AND an acceptance gate: it drives a real
   [lalrgen serve] subprocess through >= 500 mixed requests — valid,
   poisoned, over-budget, expired-deadline, near-deadline, health —
   under a seeded, deterministic fault schedule across every serve
   faultpoint site (accept, decode, dispatch, respond, worker, plus
   the in-process client connect site), and asserts the robustness
   invariants the serving stack claims:

   - exactly one typed response per request id, zero duplicates
     (responses eaten by an injected fault are re-requested; the
     resubmission loop must converge);
   - zero hangs: every blocking wait is covered by a watchdog;
   - successful analyses byte-agree with a local engine run on the
     classification triple (status, lalr1, lr0_states);
   - expired deadlines are shed before compute, and deadline_exceeded
     shows up as its own typed status;
   - the breaker trip counter and the daemon restart counter are
     monotone over the whole run;
   - SIGTERM drains cleanly: exit 0 and the socket file removed.

   Seeded via SOAK_SEED (default 42), sized via SOAK_REQUESTS
   (default 560, floor 500). Writes BENCH_pr9.json; the CI step
   re-asserts the headline numbers with jq. *)

(* splitmix64: the same deterministic stream idiom Retry uses for
   jitter — no Random, no wall clock, so one seed pins the whole
   schedule and request mix. *)
let splitmix64 st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_int st lo hi =
  lo
  + Int64.to_int
      (Int64.rem
         (Int64.shift_right_logical (splitmix64 st) 1)
         (Int64.of_int (hi - lo + 1)))

let soak_ok_grammars = [ "json"; "expr"; "mini-pascal"; "mini-c" ]

(* The request mix, by position: ~60% valid analyses (half of them
   carrying a generous deadline so the happy path exercises deadline
   propagation end to end), plus over-budget, already-expired,
   near-deadline, unreadable-file and health requests. Ids are
   prefix-tagged so the accounting can pivot per class. A near-deadline
   request carries [slow_cfg], a grammar slow by construction, so its
   5 ms deadline trips in flight. *)
let soak_request ~slow_cfg rng i : Protocol.request =
  match i mod 16 with
  | 15 -> Protocol.Health { id = Printf.sprintf "hlt:%d" i }
  | 5 | 13 ->
      Protocol.Classify
        {
          id = Printf.sprintf "bud:%d" i;
          source = Protocol.File "suite:ada-subset";
          budget = Some "fuel=10";
          deadline_ms = None;
          trace_id = None;
        }
  | 6 ->
      Protocol.Classify
        {
          id = Printf.sprintf "exp:%d" i;
          source = Protocol.File "suite:json";
          budget = None;
          deadline_ms = Some (-.float_of_int (rand_int rng 1 50));
          trace_id = None;
        }
  | 7 | 14 ->
      Protocol.Classify
        {
          id = Printf.sprintf "ndl:%d" i;
          source = Protocol.Inline { text = slow_cfg; format = `Cfg };
          budget = None;
          deadline_ms = Some 5.;
          trace_id = None;
        }
  | 8 ->
      Protocol.Classify
        {
          id = Printf.sprintf "bad:%d" i;
          source = Protocol.File "/nonexistent/soak.cfg";
          budget = None;
          deadline_ms = None;
          trace_id = None;
        }
  | _ ->
      let name =
        List.nth soak_ok_grammars
          (rand_int rng 0 (List.length soak_ok_grammars - 1))
      in
      Protocol.Classify
        {
          id = Printf.sprintf "ok:%s:%d" name i;
          source = Protocol.File ("suite:" ^ name);
          budget = None;
          deadline_ms =
            (if rand_int rng 0 1 = 0 then Some 600000. else None);
          trace_id = Some (Printf.sprintf "soak-%d" i);
        }

let soak_has_prefix p id =
  String.length id >= String.length p && String.sub id 0 (String.length p) = p

(* The local ground truth the daemon's successful responses must
   byte-agree with: the same engine, run in this process, no budget,
   no chaos. *)
let soak_expected_table () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun name ->
      let g = Lazy.force (Registry.find name).Registry.grammar in
      let e = Engine.create g in
      let p = Engine.run_partial e Engine.classification in
      match p.Engine.pr_value with
      | Some v ->
          Hashtbl.replace tbl name
            ( (if v.Cls.lalr1 then "ok" else "verdict"),
              v.Cls.lalr1,
              Engine.peek_lr0_states e )
      | None -> failwith (Printf.sprintf "soak: local %s run failed" name))
    soak_ok_grammars;
  tbl

let soak_find_binary () =
  let candidates =
    [
      Filename.concat
        (Filename.dirname Sys.executable_name)
        "../bin/lalrgen.exe";
      "_build/default/bin/lalrgen.exe";
      "bin/lalrgen.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some b -> b
  | None -> failwith "soak: cannot find lalrgen.exe (build bin/ first)"

(* Deadline-check overhead: the same in-process pool workload with and
   without a generous per-request deadline. The delta is the cost of
   the admission check, the dequeue re-check and the wall-cap
   intersection on requests whose deadline never actually bites. *)
let soak_deadline_overhead () =
  let requests dl =
    List.init 64 (fun i ->
        Protocol.Classify
          {
            id = Printf.sprintf "ov:%d" i;
            source = Protocol.File "suite:json";
            budget = None;
            deadline_ms = dl;
            trace_id = None;
          })
  in
  serve_run_pool ~domains:2 (requests None);
  let base_s = serve_wall (fun () -> serve_run_pool ~domains:2 (requests None)) in
  let dl_s =
    serve_wall (fun () ->
        serve_run_pool ~domains:2 (requests (Some 600000.)))
  in
  (base_s, dl_s)

let bench_soak () =
  section "bench SOAK — deterministic chaos soak (deadline-aware serving)";
  let seed =
    match Option.bind (Sys.getenv_opt "SOAK_SEED") int_of_string_opt with
    | Some s -> s
    | None -> 42
  in
  let n_requests =
    match Option.bind (Sys.getenv_opt "SOAK_REQUESTS") int_of_string_opt with
    | Some n -> max 500 n
    | None -> 560
  in
  let rng = ref (Int64.of_int seed) in
  Format.printf "seed %d, %d requests@." seed n_requests;

  (* -- deadline-check overhead (in-process, no daemon, no chaos) -- *)
  let base_s, dl_s = soak_deadline_overhead () in
  Format.printf
    "deadline-check overhead: %.3fs base vs %.3fs with deadline (%.3fx)@."
    base_s dl_s (dl_s /. base_s);

  (* -- the fault schedule, drawn from the seed ---------------------- *)
  let inject =
    String.concat ","
      [
        Printf.sprintf "serve-accept:raise@%d" (rand_int rng 2 4);
        Printf.sprintf "serve-decode:raise@%d" (rand_int rng 100 300);
        Printf.sprintf "serve-dispatch:raise@%d" (rand_int rng 50 250);
        Printf.sprintf "serve-respond:raise@%d" (rand_int rng 80 350);
        Printf.sprintf "serve-worker:raise@%d" (rand_int rng 30 150);
        Printf.sprintf "serve-worker:raise@%d" (rand_int rng 160 300);
      ]
  in
  Format.printf "daemon fault schedule: %s@." inject;
  let expected = soak_expected_table () in
  let slow_cfg = grammar_to_cfg (Lalr_suite.Scaled.grammar ~units:54 ()) in
  let requests = List.init n_requests (soak_request ~slow_cfg rng) in

  (* -- live daemon -------------------------------------------------- *)
  let binary = soak_find_binary () in
  let sock = Filename.temp_file "lalr_soak_" ".sock" in
  Sys.remove sock;
  let log = Filename.temp_file "lalr_soak_" ".log" in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process binary
      [|
        binary; "serve"; "--socket"; sock; "--domains"; "2"; "--queue"; "64";
        "--inject"; inject;
      |]
      devnull logfd logfd
  in
  Unix.close devnull;
  Unix.close logfd;
  let dump_log () =
    try
      let ic = open_in log in
      let len = in_channel_length ic in
      seek_in ic (max 0 (len - 4000));
      (try
         while true do
           prerr_endline ("  [daemon] " ^ input_line ic)
         done
       with End_of_file -> ());
      close_in ic
    with Sys_error _ -> ()
  in
  (* Every blocking wait below sits under this watchdog: if the soak
     has not finished inside the cap, the run FAILS — "no hangs" is an
     asserted invariant, not a hope. *)
  let soak_done = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let t0 = Unix.gettimeofday () in
        while
          (not (Atomic.get soak_done))
          && Unix.gettimeofday () -. t0 < 240.
        do
          Thread.delay 0.25
        done;
        if not (Atomic.get soak_done) then begin
          prerr_endline "soak: WATCHDOG fired — a wait hung; killing daemon";
          dump_log ();
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          exit 1
        end)
      ()
  in
  (* Readiness: poll until the socket accepts a connection. *)
  let rec wait_ready deadline =
    let ok =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let r =
        try
          Unix.connect fd (Unix.ADDR_UNIX sock);
          true
        with Unix.Unix_error _ -> false
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      r
    in
    if ok then ()
    else if Unix.gettimeofday () > deadline then begin
      dump_log ();
      failwith "soak: daemon did not become ready"
    end
    else begin
      Thread.delay 0.05;
      wait_ready deadline
    end
  in
  wait_ready (Unix.gettimeofday () +. 15.);

  (* -- breaker demo: a dead endpoint must trip and then fast-fail --- *)
  let dead = Filename.temp_file "lalr_soak_dead_" ".sock" in
  Sys.remove dead;
  let trips_before = Breaker.total_trips () in
  let demo =
    Client.create
      ~retry:{ Retry.default with Retry.max_attempts = 1 }
      ~sleep:(fun _ -> ())
      ~breaker:
        (Breaker.create
           ~config:{ Breaker.default with Breaker.failure_threshold = 1 }
           ())
      (Serve.Unix_path dead)
  in
  let health_line id =
    Protocol.encode_request (Protocol.Health { id })
  in
  (match Client.call demo [ health_line "demo" ] with
  | Ok _ -> failwith "soak: dead endpoint answered"
  | Error (Client.Unavailable _) -> ()
  | Error (Client.Breaker_open _) ->
      failwith "soak: breaker open before any failure");
  (match Client.call demo [ health_line "demo2" ] with
  | Error (Client.Breaker_open _) -> ()
  | Ok _ | Error (Client.Unavailable _) ->
      failwith "soak: tripped breaker did not fast-fail");
  if Breaker.total_trips () <= trips_before then
    failwith "soak: breaker trip not counted";

  (* -- client-side chaos: arm the connect-path faultpoint ----------- *)
  (match Faultpoint.arm (Printf.sprintf "serve-client:raise@%d" (rand_int rng 2 3)) with
  | Ok () -> ()
  | Error m -> failwith ("soak: arm: " ^ m));

  (* -- the soak loop ------------------------------------------------ *)
  let client = Client.create (Serve.Unix_path sock) in
  let delivered = Hashtbl.create (2 * n_requests) in
  let id_status = Hashtbl.create (2 * n_requests) in
  let statuses = Hashtbl.create 16 in
  let restarts_samples = ref [] in
  let breaker_samples = ref [] in
  let decode_faults = ref 0 in
  let mismatches = ref 0 in
  let resubmits = ref 0 in
  let bump tbl key =
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let process_line line =
    match Json.parse line with
    | Error m ->
        failwith (Printf.sprintf "soak: unparseable response %S: %s" line m)
    | Ok j -> (
        let id =
          match Json.member "id" j with Some (Json.Str s) -> s | _ -> ""
        in
        let status =
          match Json.member "status" j with
          | Some (Json.Str s) -> s
          | _ -> "?"
        in
        if id = "" then incr decode_faults
        else begin
          bump delivered id;
          bump statuses status;
          if not (Hashtbl.mem id_status id) then
            Hashtbl.replace id_status id status;
          if status = "health" then
            match Json.member "restarts" j with
            | Some (Json.Num r) ->
                restarts_samples := int_of_float r :: !restarts_samples
            | _ -> failwith "soak: health response without restarts"
        end;
        (* Successful analyses must agree with the local engine. *)
        match (String.split_on_char ':' id, status) with
        | [ "ok"; name; _ ], ("ok" | "verdict") -> (
            match Hashtbl.find_opt expected name with
            | None -> ()
            | Some (est, elalr1, elr0) ->
                let lalr1 =
                  match Json.member "lalr1" j with
                  | Some (Json.Bool b) -> Some b
                  | _ -> None
                in
                let lr0 =
                  match Json.member "lr0_states" j with
                  | Some (Json.Num n) -> Some (int_of_float n)
                  | _ -> None
                in
                if
                  not (status = est && lalr1 = Some elalr1 && lr0 = elr0)
                then begin
                  incr mismatches;
                  Format.eprintf
                    "soak: MISMATCH %s: got (%s, %s, %s), expected (%s, %b, \
                     %s)@."
                    id status
                    (match lalr1 with
                    | Some b -> string_of_bool b
                    | None -> "-")
                    (match lr0 with
                    | Some n -> string_of_int n
                    | None -> "-")
                    est elalr1
                    (match elr0 with
                    | Some n -> string_of_int n
                    | None -> "-")
                end)
        | _ -> ())
  in
  let pending = Queue.create () in
  List.iter (fun r -> Queue.add r pending) requests;
  let first_sent = Hashtbl.create (2 * n_requests) in
  let rounds = ref 0 in
  let chunk = ref 0 in
  let t_soak0 = Unix.gettimeofday () in
  while not (Queue.is_empty pending) do
    incr rounds;
    if !rounds > 40 * (n_requests / 16 + 1) then begin
      dump_log ();
      failwith "soak: resubmission loop did not converge"
    end;
    let batch = ref [] in
    while List.length !batch < 16 && not (Queue.is_empty pending) do
      batch := Queue.pop pending :: !batch
    done;
    let batch = List.rev !batch in
    let lines = List.map Protocol.encode_request batch in
    let requeue_missing () =
      List.iter
        (fun r ->
          let id = Protocol.request_id r in
          if not (Hashtbl.mem delivered id) then Queue.add r pending)
        batch
    in
    (match Client.call client lines with
    | Ok responses ->
        List.iter
          (fun r ->
            let id = Protocol.request_id r in
            if Hashtbl.mem first_sent id then incr resubmits
            else Hashtbl.replace first_sent id ())
          batch;
        List.iter process_line responses;
        (* A decode-injected blank response leaves its id unanswered
           even on a "complete" call: re-request it. *)
        requeue_missing ()
    | Error (Client.Breaker_open { retry_after; _ }) ->
        Thread.delay (Float.max 0.05 retry_after +. 0.01);
        List.iter (fun r -> Queue.add r pending) batch
    | Error (Client.Unavailable { partial; _ }) ->
        List.iter
          (fun r ->
            let id = Protocol.request_id r in
            if Hashtbl.mem first_sent id then incr resubmits
            else Hashtbl.replace first_sent id ())
          batch;
        List.iter process_line partial;
        requeue_missing ());
    breaker_samples := Breaker.total_trips () :: !breaker_samples;
    incr chunk;
    (* Periodic forced reconnects keep the accept/probe paths hot. *)
    if !chunk mod 8 = 0 then Client.close client
  done;
  let soak_wall = Unix.gettimeofday () -. t_soak0 in
  Faultpoint.disarm ();

  (* -- final health, then a clean SIGTERM drain --------------------- *)
  (match Client.call client [ health_line "hlt:final" ] with
  | Ok responses -> List.iter process_line responses
  | Error e -> failwith ("soak: final health failed: " ^ Client.error_message e));
  (* Live scrape, while the daemon is still up: the merged exposition
     must parse and reconcile with the client-side per-id accounting
     (gated below, with the other invariants). *)
  let scrape =
    match
      Client.call client
        [ Protocol.encode_request (Protocol.Metrics { id = "hlt:scrape" }) ]
    with
    | Error e ->
        failwith ("soak: metrics scrape failed: " ^ Client.error_message e)
    | Ok [ line ] -> (
        match Json.parse line with
        | Error m -> failwith ("soak: scrape response unparseable: " ^ m)
        | Ok j -> (
            match Json.member "body" j with
            | Some (Json.Str body) -> (
                match Metrics.parse body with
                | Ok snap -> snap
                | Error m ->
                    failwith ("soak: scrape exposition does not parse: " ^ m))
            | _ -> failwith "soak: scrape response without body"))
    | Ok other ->
        failwith
          (Printf.sprintf "soak: scrape returned %d lines"
             (List.length other))
  in
  Client.close client;
  Unix.kill pid Sys.sigterm;
  let _, st = Unix.waitpid [] pid in
  let clean_drain = st = Unix.WEXITED 0 && not (Sys.file_exists sock) in
  Atomic.set soak_done true;
  Thread.join watchdog;
  if not clean_drain then begin
    dump_log ();
    failwith "soak: daemon did not drain cleanly on SIGTERM"
  end;

  (* -- invariants --------------------------------------------------- *)
  let rec is_sorted = function
    | a :: (b :: _ as rest) -> a <= b && is_sorted rest
    | _ -> true
  in
  if not (is_sorted (List.rev !breaker_samples)) then
    failwith "soak: breaker trip counter went backwards";
  if not (is_sorted (List.rev !restarts_samples)) then
    failwith "soak: daemon restart counter went backwards";
  let duplicates =
    Hashtbl.fold (fun _ c acc -> if c > 1 then acc + 1 else acc) delivered 0
  in
  (* [delivered] holds every id that got a response: the n_requests
     soak ids plus the final out-of-loop health probe. *)
  let responses = Hashtbl.length delivered - 1 in
  let expired_shed =
    Hashtbl.fold
      (fun id st acc ->
        if soak_has_prefix "exp:" id && st = "deadline_exceeded" then acc + 1
        else acc)
      id_status 0
  in
  let restarts_final =
    match !restarts_samples with r :: _ -> r | [] -> 0
  in
  let status_count s =
    Option.value ~default:0 (Hashtbl.find_opt statuses s)
  in
  (* Scrape-side accounting. The funnel counts every response by
     status before its socket write ([requests_total]) and failed
     writes again in [responses_dropped_total], so per status
     "delivered" = total - dropped, and every line this client
     actually received was delivered: received <= delivered. Two
     relations are exact, chaos or not, because both sides live in the
     daemon: crash restarts (health counter vs crash counter bumped at
     the same supervisor site) and pool jobs (the jobs counter and the
     request-latency observation share one probe). *)
  let scrape_counter ?labels name =
    match Metrics.find scrape ?labels name with
    | Some (Metrics.Counter n) -> n
    | _ -> 0
  in
  let scrape_gauge name =
    match Metrics.find scrape name with
    | Some (Metrics.Gauge g) -> Some g
    | _ -> None
  in
  let sent_status s =
    scrape_counter ~labels:[ ("status", s) ] "lalr_serve_requests_total"
    - scrape_counter
        ~labels:[ ("status", s) ]
        "lalr_serve_responses_dropped_total"
  in
  let scrape_crashes = scrape_counter "lalr_serve_worker_crashes_total" in
  let scrape_jobs = scrape_counter "lalr_serve_pool_jobs_total" in
  let scrape_req_observed =
    match Metrics.find scrape "lalr_serve_request_seconds" with
    | Some v -> Metrics.hist_count v
    | None -> 0
  in
  let scrape_statuses =
    [
      "ok"; "verdict"; "bad_request"; "budget"; "overloaded";
      "deadline_exceeded"; "internal"; "health"; "metrics";
    ]
  in
  Format.printf
    "soak: %d requests in %.2fs (%.1f req/s), %d resubmits, %d decode \
     faults, %d duplicates, %d mismatches@."
    n_requests soak_wall
    (float_of_int n_requests /. soak_wall)
    !resubmits !decode_faults duplicates !mismatches;
  Format.printf
    "soak: statuses:%s@."
    (Hashtbl.fold
       (fun s c acc -> acc ^ Printf.sprintf " %s=%d" s c)
       statuses "");
  Format.printf
    "soak: expired_shed %d, restarts %d, breaker trips %d, clean drain %b@."
    expired_shed restarts_final (Breaker.total_trips ()) clean_drain;
  Format.printf
    "soak: scrape: %d pool jobs, %d request observations, %d crashes, \
     delivered%s@."
    scrape_jobs scrape_req_observed scrape_crashes
    (List.fold_left
       (fun acc s -> acc ^ Printf.sprintf " %s=%d" s (sent_status s))
       "" scrape_statuses);

  Bench_json.(
    write "BENCH_pr9.json"
      (Obj
         [
           ("pr", Int 9);
           ("experiment", Str "chaos-soak-deadline-serving");
           ("seed", Int seed);
           ("cores", Int (nproc ()));
           ("fault_schedule", Str inject);
           ("requests", Int n_requests);
           ("responses", Int responses);
           ("resubmits", Int !resubmits);
           ("decode_faults", Int !decode_faults);
           ("duplicates", Int duplicates);
           ("mismatches", Int !mismatches);
           ("expired_shed", Int expired_shed);
           ("restarts", Int restarts_final);
           ("breaker_trips", Int (Breaker.total_trips ()));
           ("clean_drain", Int (if clean_drain then 1 else 0));
           ( "statuses",
             Obj
               (List.map
                  (fun s -> (s, Int (status_count s)))
                  [
                    "ok"; "verdict"; "bad_request"; "budget"; "overloaded";
                    "deadline_exceeded"; "internal"; "health";
                  ]) );
           ( "scrape",
             Obj
               [
                 ("pool_jobs", Int scrape_jobs);
                 ("request_observations", Int scrape_req_observed);
                 ("worker_crashes", Int scrape_crashes);
                 ( "delivered",
                   Obj
                     (List.map
                        (fun s -> (s, Int (sent_status s)))
                        scrape_statuses) );
               ] );
           ("soak_wall_s", Sec soak_wall);
           ( "soak_throughput_req_s",
             Ratio (float_of_int n_requests /. soak_wall) );
           ( "deadline_overhead",
             Obj
               [
                 ("baseline_s", Sec base_s);
                 ("with_deadline_s", Sec dl_s);
                 ("overhead_ratio", Ratio (dl_s /. base_s));
               ] );
         ]));
  Format.printf "@.wrote BENCH_pr9.json@.";

  (* Hard gates, after the JSON so a failing run still leaves the
     numbers on disk for the post-mortem. *)
  if responses <> n_requests then
    failwith
      (Printf.sprintf "soak: %d distinct ids answered, expected %d" responses
         n_requests);
  if duplicates > 0 then
    failwith (Printf.sprintf "soak: %d duplicated responses" duplicates);
  if !mismatches > 0 then
    failwith (Printf.sprintf "soak: %d analysis mismatches" !mismatches);
  if expired_shed = 0 then
    failwith "soak: no expired-deadline request was shed";
  if status_count "deadline_exceeded" = 0 then
    failwith "soak: no deadline_exceeded response observed";
  if restarts_final = 0 then
    failwith "soak: worker crash injections produced no restart";
  if scrape_crashes <> restarts_final then
    failwith
      (Printf.sprintf
         "soak: scrape counted %d worker crashes, health reported %d restarts"
         scrape_crashes restarts_final);
  if scrape_req_observed <> scrape_jobs then
    failwith
      (Printf.sprintf
         "soak: scrape latency histogram has %d observations for %d pool jobs"
         scrape_req_observed scrape_jobs);
  List.iter
    (fun s ->
      if sent_status s < status_count s then
        failwith
          (Printf.sprintf
             "soak: scrape delivered %d %s responses, client received %d"
             (sent_status s) s (status_count s)))
    scrape_statuses;
  (match scrape_gauge "lalr_serve_ready" with
  | Some 1.0 -> ()
  | g ->
      failwith
        (Printf.sprintf "soak: scrape ready gauge %s, expected 1"
           (match g with Some v -> string_of_float v | None -> "absent")));
  match scrape_gauge "lalr_serve_workers" with
  | Some 2.0 -> ()
  | g ->
      failwith
        (Printf.sprintf "soak: scrape workers gauge %s, expected 2"
           (match g with Some v -> string_of_float v | None -> "absent"))

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let all =
  [
    ("t1", bench_t1);
    ("t2", bench_t2);
    ("t3", bench_t3);
    ("t4", bench_t4);
    ("f1", bench_f1_f2);
    ("f2", bench_f1_f2);
    ("f3", bench_f3);
    ("f4", bench_f4);
    ("rt", bench_rt);
    ("trace", bench_trace);
    ("serve", bench_serve);
    ("serve-smoke", bench_serve_smoke);
    ("metrics", bench_metrics);
    ("soak", bench_soak);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ ->
[ "t1"; "t2"; "t3"; "t4"; "f1"; "f3"; "f4"; "rt"; "trace" ]
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f -> f ()
      | None ->
          Format.eprintf "unknown bench %S (want: %s)@." name
            (String.concat ", " (List.map fst all));
          exit 2)
    requested;
  (* The paper-shaped static tables, for the record. *)
  section "paper-shaped tables (also via bin/experiments.exe)";
  E.run_all Format.std_formatter
