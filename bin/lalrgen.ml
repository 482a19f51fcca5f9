(* lalrgen — the command-line front end.

   Subcommands:
     classify  FILE      place the grammar in the LR hierarchy
     report    FILE      grammar summary, relations, conflicts, automaton
     conflicts FILE      conflicts only (choose the look-ahead method)
     tables    FILE      print the ACTION/GOTO table
     parse     FILE -- t1 t2 ...   parse a token sequence
     batch     FILE...   classify many grammars, isolated per job
     exercise  FILE      force every engine stage (matrix/cache driver)
     faultpoints          list injection sites and documented exits
     suite                list the built-in grammar suite

   FILE may be "-" for stdin, or "suite:NAME" for a built-in grammar.

   Exit codes (scripting contract, see DESIGN.md):
     0  success
     1  analysis verdict: conflicts / not LALR(1)
     2  input diagnostics: unreadable grammar, lint errors, rejected input
     3  resource budget exhausted (--budget)
     4  internal error (broken invariant in the analysis)
   [batch] exits with the maximum per-job code. *)

open Cmdliner

module G = Lalr_grammar.Grammar
module Reader = Lalr_grammar.Reader
module Transform = Lalr_grammar.Transform
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Tables = Lalr_tables.Tables
module Engine = Lalr_engine.Engine
module Describe = Lalr_report.Describe
module Driver = Lalr_runtime.Driver
module Token = Lalr_runtime.Token
module Registry = Lalr_suite.Registry
module Budget = Lalr_guard.Budget
module Faultpoint = Lalr_guard.Faultpoint
module Retry = Lalr_guard.Retry
module Protocol = Lalr_serve.Protocol
module Pool = Lalr_serve.Pool
module Serve = Lalr_serve.Serve
module Client = Lalr_serve.Client
module Store = Lalr_store.Store
module Classify = Lalr_tables.Classify
module Trace = Lalr_trace.Trace
module Metrics = Lalr_trace.Metrics

(* ------------------------------------------------------------------ *)
(* Common arguments and loading                                       *)
(* ------------------------------------------------------------------ *)

(* Grammars load through the error-recovering readers so one run
   reports every syntax error, not just the first. A grammar that
   produced any diagnostic is never analysed: best-effort recovery is
   for batching error reports, not for silently linting half a file. *)
let load_grammar spec =
  match spec with
  | "-" ->
      let src = In_channel.input_all In_channel.stdin in
      Reader.of_string_tolerant ~name:"stdin" src
  | s when String.length s > 6 && String.sub s 0 6 = "suite:" ->
      let name = String.sub s 6 (String.length s - 6) in
      (Some (Lazy.force (Registry.find name).grammar), [])
  | path when Filename.check_suffix path ".mly" ->
      Lalr_grammar.Menhir_reader.of_file_tolerant path
  | path -> Reader.of_file_tolerant path

let report_reader_error spec (e : Reader.error) =
  (* [pp_error] already prints the file when the error carries one. *)
  match e.Reader.file with
  | Some _ -> Format.eprintf "%a@." Reader.pp_error e
  | None -> Format.eprintf "%s: %a@." spec Reader.pp_error e

let handle_load spec f =
  match load_grammar spec with
  | Some g, [] -> f g
  | g_opt, errors ->
      List.iter (report_reader_error spec) errors;
      (if g_opt = None && errors = [] then
         Format.eprintf "%s: unreadable grammar@." spec);
      exit 2
  | exception Not_found ->
      Format.eprintf "%s: no such suite grammar (try 'lalrgen suite')@." spec;
      exit 2
  | exception Sys_error msg ->
      Format.eprintf "%s@." msg;
      exit 2
  | exception Invalid_argument msg ->
      Format.eprintf "%s: %s@." spec msg;
      exit 2

let grammar_arg =
  let doc =
    "Grammar to analyse: a file in the yacc-like format, $(b,-) for stdin, \
     or $(b,suite:NAME) for a built-in benchmark grammar."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAMMAR" ~doc)

let timings_arg =
  let doc =
    "After the command, print per-stage engine timings (wall time and \
     memoization hit/miss counters) to stderr."
  in
  Arg.(value & flag & info [ "timings" ] ~doc)

let budget_arg =
  let budget_conv =
    let parse s = Result.map_error (fun m -> `Msg m) (Budget.of_spec s) in
    let print ppf _ = Format.pp_print_string ppf "<budget>" in
    Arg.conv (parse, print)
  in
  let doc =
    Printf.sprintf
      "Bound the whole analysis by a resource budget — %s. When any cap \
       is hit the command stops, prints a structured report naming the \
       stage and resource, and exits 3."
      Budget.spec_doc
  in
  Arg.(
    value
    & opt (some budget_conv) None
    & info [ "budget" ] ~docv:"SPEC" ~doc)

let cache_arg =
  let doc =
    "Persistent artifact cache directory (created if needed). Verified \
     entries seed the engine; corrupt or stale entries are quarantined \
     and recomputed. Plays no part in correctness: any store failure is \
     an ordinary cache miss."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

let inject_arg =
  let doc =
    Printf.sprintf
      "Arm deterministic fault injections for robustness testing — %s. \
       See $(b,lalrgen faultpoints) for the sites and their documented \
       exit codes."
      Lalr_guard.Faultpoint.spec_doc
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC" ~doc
        ~env:(Cmd.Env.info "LALRGEN_INJECT"))

let trace_arg =
  let trace_conv =
    let parse s =
      (* FILE[:FORMAT] — a trailing :chrome/:jsonl/:metrics overrides
         the extension-inferred format; any other colon is part of the
         file name. *)
      match String.rindex_opt s ':' with
      | Some i -> (
          let file = String.sub s 0 i in
          let fmt_s = String.sub s (i + 1) (String.length s - i - 1) in
          match Trace.format_of_name fmt_s with
          | Some fmt when file <> "" -> Ok (file, fmt)
          | _ -> Ok (s, Trace.infer_format s))
      | None -> Ok (s, Trace.infer_format s)
    in
    let print ppf (file, fmt) =
      Format.fprintf ppf "%s:%s" file (Trace.format_name fmt)
    in
    Arg.conv (parse, print)
  in
  let doc =
    "Record a structured trace of the run (spans, algorithm counters) to \
     $(docv). FORMAT is $(b,chrome) (trace-event JSON, loadable in \
     Perfetto; the default for $(b,.json)), $(b,jsonl) (one event per \
     line; inferred from $(b,.jsonl)) or $(b,metrics) (flat key/value \
     dump; inferred from $(b,.txt))."
  in
  Arg.(
    value
    & opt (some trace_conv) None
    & info [ "trace" ] ~docv:"FILE[:FORMAT]" ~doc)

(* Arm the ambient trace session and register its flush. The flush is
   registered BEFORE the pp_stats/persist hooks of [handle_engine]:
   at_exit runs LIFO, so it executes last and the trace captures the
   store-save events the persist hook emits. *)
let setup_trace trace =
  match trace with
  | None -> ()
  | Some (file, fmt) ->
      let session = Trace.start () in
      at_exit (fun () ->
          Trace.finish session;
          try
            Out_channel.with_open_bin file (fun oc ->
                Trace.write session fmt oc)
          with Sys_error msg ->
            Format.eprintf "lalrgen: --trace: %s@." msg)

let keep_going_arg =
  let doc =
    "On budget exhaustion or internal failure, render whatever stages \
     completed — clearly marked INCOMPLETE — instead of only the error. \
     The exit code is unchanged (3 or 4)."
  in
  Arg.(value & flag & info [ "keep-going" ] ~doc)

(* The failure boundary of the process: installs the budget (if any)
   around [f] so even work outside the engine's memoized slots — the
   LALR(k) search, the parse driver — is bounded, and maps the two
   structured failure outcomes to their exit codes. *)
let with_failure_boundary ?budget f =
  let run () =
    match budget with
    | None -> f ()
    | Some b -> Budget.with_budget b ~stage:"main" f
  in
  match run () with
  | v -> v
  | exception Budget.Exceeded ex ->
      Format.eprintf "lalrgen: %a@." Budget.pp_exceeded ex;
      exit 3
  | exception Budget.Internal_error { stage; invariant } ->
      Format.eprintf "lalrgen: internal error in stage '%s': %s@." stage
        invariant;
      exit 4
  | exception Stack_overflow ->
      Format.eprintf "lalrgen: internal error: stack overflow during \
                      analysis@.";
      exit 4
  | exception Faultpoint.Injected { site } ->
      (* Only store sites raise [Injected] and the store absorbs them;
         seeing one here means an absorption contract broke. *)
      Format.eprintf "lalrgen: internal error: unabsorbed injected fault \
                      at %s@." site;
      exit 4
  | exception Assert_failure (file, line, _) ->
      Format.eprintf "lalrgen: internal error: assertion failed at %s:%d@."
        file line;
      exit 4

let arm_injection inject =
  match inject with
  | None -> ()
  | Some spec -> (
      match Faultpoint.arm spec with
      | Ok () -> ()
      | Error msg ->
          Format.eprintf "lalrgen: --inject: %s@." msg;
          exit 2)

let open_store cache =
  match cache with
  | None -> None
  | Some dir -> (
      (* A cache directory the user named but that cannot exist at all
         is a configuration error (exit 2), not a miss; everything
         after this point is absorbed by the store itself. *)
      match Store.create ~dir with
      | st -> Some st
      | exception Sys_error msg ->
          Format.eprintf "lalrgen: --cache: %s@." msg;
          exit 2)

(* Every subcommand threads ONE engine per grammar: whatever subset of
   the pipeline it touches — automaton, relations, look-aheads, tables,
   classification — is computed at most once per process.

   The stats are printed via [at_exit] so commands that exit nonzero
   (conflicts, budget exhaustion) still report their timings; the
   store is persisted the same way — and first, being registered last
   — so an interrupted pipeline still saves its completed prefix.

   Loading happens INSIDE the failure boundary: a reader failure
   (including an injected one) maps to the same typed exits as an
   engine failure. *)
let handle_engine spec ~timings ?budget ?cache ?inject ?trace f =
  arm_injection inject;
  setup_trace trace;
  let store = open_store cache in
  with_failure_boundary ?budget (fun () ->
      handle_load spec (fun g ->
          let e = Engine.create ?budget ?store g in
          if timings then
            at_exit (fun () ->
                Format.eprintf "%a@." Engine.pp_stats e;
                match Engine.store e with
                | Some st -> Format.eprintf "%a@." Store.pp_stats st
                | None -> ());
          at_exit (fun () -> Engine.persist e);
          f e))

let exit_of_failure = function
  | Engine.Budget_exceeded _ -> 3
  | Engine.Internal_error _ -> 4

let method_arg =
  let doc =
    "Look-ahead method: $(b,lalr) (DeRemer–Pennello, default), $(b,slr), or \
     $(b,nqlalr)."
  in
  Arg.(
    value
    & opt (enum [ ("lalr", `Lalr); ("slr", `Slr); ("nqlalr", `Nqlalr) ]) `Lalr
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let tables_of_method e m = Engine.tables_for e m

(* ------------------------------------------------------------------ *)
(* classify                                                           *)
(* ------------------------------------------------------------------ *)

let classify_cmd =
  let run spec with_lr1 try_k keep_going timings budget cache inject trace =
    handle_engine spec ~timings ?budget ?cache ?inject ?trace (fun e ->
        let finish v =
          Describe.classification Format.std_formatter v;
          (if try_k > 1 && not v.Lalr_tables.Classify.lalr1 then
             match Lalr_core.Lalr_k.smallest_k ~limit:try_k (Engine.lr0 e) with
             | Some k -> Format.printf "LALR(%d) with a %d-token window@." k k
             | None ->
                 Format.printf "not LALR(k) for any k ≤ %d@." try_k);
          (* Exit status mirrors LALR(1)-cleanliness, for scripting. *)
          if not v.Lalr_tables.Classify.lalr1 then exit 1
        in
        if not keep_going then
          finish (Engine.classification ~with_lr1 e)
        else
          let p =
            Engine.run_partial e (Engine.classification ~with_lr1)
          in
          match (p.Engine.pr_value, p.Engine.pr_completeness) with
          | Some v, _ -> finish v
          | None, Engine.Complete -> assert false
          | None, Engine.Incomplete failure ->
              Format.printf "== INCOMPLETE: %a ==@." Engine.pp_failure
                failure;
              Format.printf "completed stages: %s@."
                (match p.Engine.pr_completed with
                | [] -> "(none)"
                | l -> String.concat ", " l);
              exit (exit_of_failure failure))
  in
  let with_lr1 =
    Arg.(
      value & flag
      & info [ "with-lr1" ]
          ~doc:
            "Build the canonical LR(1) collection and print its state count. \
             Without it, the LALR(1) conflicts decide LR(1)-ness, and the \
             collection is built only when they are all reduce/reduce \
             (on grammars of at most 250 productions).")
  in
  let try_k =
    Arg.(
      value & opt int 1
      & info [ "k" ] ~docv:"K"
          ~doc:
            "When not LALR(1), also search for the least k ≤ $(docv) making \
             the grammar LALR(k) (paper §8 extension).")
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Place a grammar in the LR hierarchy")
    Term.(const run $ grammar_arg $ with_lr1 $ try_k $ keep_going_arg
          $ timings_arg $ budget_arg $ cache_arg $ inject_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* report                                                             *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let run spec dump_states keep_going timings budget cache inject trace =
    handle_engine spec ~timings ?budget ?cache ?inject ?trace (fun e ->
        if not keep_going then
          Describe.report ~dump_states Format.std_formatter e
        else
          let p =
            Engine.run_partial e
              (Describe.report ~dump_states Format.std_formatter)
          in
          match p.Engine.pr_completeness with
          | Engine.Complete -> ()
          | Engine.Incomplete failure ->
              (* The report printed up to the stage that failed; close
                 it with a marker no reader can miss. *)
              Format.printf "@.== INCOMPLETE REPORT: %a ==@."
                Engine.pp_failure failure;
              Format.printf "completed stages: %s@."
                (match p.Engine.pr_completed with
                | [] -> "(none)"
                | l -> String.concat ", " l);
              exit (exit_of_failure failure))
  in
  let dump =
    Arg.(
      value & flag
      & info [ "dump-states" ] ~doc:"Print all states regardless of size.")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Full analysis report (yacc -v style)")
    Term.(const run $ grammar_arg $ dump $ keep_going_arg $ timings_arg
          $ budget_arg $ cache_arg $ inject_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* conflicts                                                          *)
(* ------------------------------------------------------------------ *)

let conflicts_cmd =
  let run spec m timings budget cache inject trace =
    handle_engine spec ~timings ?budget ?cache ?inject ?trace (fun e ->
        let tbl = tables_of_method e m in
        Describe.conflicts Format.std_formatter tbl;
        if Tables.unresolved_conflicts tbl <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "conflicts" ~doc:"Report table conflicts under a chosen method")
    Term.(const run $ grammar_arg $ method_arg $ timings_arg $ budget_arg
          $ cache_arg $ inject_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* tables                                                             *)
(* ------------------------------------------------------------------ *)

let tables_cmd =
  let run spec m compact timings budget cache inject trace =
    handle_engine spec ~timings ?budget ?cache ?inject ?trace (fun e ->
        let tbl = tables_of_method e m in
        if compact then begin
          let module Compact = Lalr_tables.Compact in
          Format.printf "exact:  %a@." Compact.pp_stats
            (Compact.stats (Compact.compress tbl));
          Format.printf "yacc:   %a@." Compact.pp_stats
            (Compact.stats (Compact.compress ~mode:Compact.Yacc tbl))
        end
        else Format.printf "%a@." Tables.pp tbl)
  in
  let compact =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Print compression statistics (exact and yacc-style comb \
             packing) instead of the dense table.")
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Print the ACTION/GOTO table")
    Term.(const run $ grammar_arg $ method_arg $ compact $ timings_arg
          $ budget_arg $ cache_arg $ inject_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* parse                                                              *)
(* ------------------------------------------------------------------ *)

let parse_cmd =
  let run spec tokens sexp timings budget cache inject trace =
    handle_engine spec ~timings ?budget ?cache ?inject ?trace (fun e ->
        let g = Engine.grammar e in
        let tbl = Engine.tables e in
        match Token.of_names g tokens with
        | exception Invalid_argument msg ->
            Format.eprintf "%s@." msg;
            exit 2
        | toks -> (
            match Driver.parse tbl toks with
            | Ok tree ->
                if sexp then
                  Format.printf "%a@." (Lalr_runtime.Tree.pp_sexp g) tree
                else Format.printf "%a@." (Lalr_runtime.Tree.pp g) tree
            | Error e ->
                Format.printf "%a@." (Driver.pp_error g) e;
                exit 2))
  in
  let tokens =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"TOKEN" ~doc:"Terminal names forming the input.")
  in
  let sexp =
    Arg.(
      value & flag
      & info [ "sexp" ] ~doc:"Print the tree as a compact s-expression.")
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a token sequence and print the tree")
    Term.(const run $ grammar_arg $ tokens $ sexp $ timings_arg $ budget_arg
          $ cache_arg $ inject_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* generate                                                           *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let run spec m output timings budget cache inject trace =
    handle_engine spec ~timings ?budget ?cache ?inject ?trace (fun e ->
        let tbl = tables_of_method e m in
        let source = Lalr_report.Codegen.emit_to_string tbl in
        match output with
        | None -> print_string source
        | Some path -> Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc source))
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the generated module to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Emit a standalone OCaml parser module (tables + engine, no \
          library dependency)")
    Term.(const run $ grammar_arg $ method_arg $ output $ timings_arg
          $ budget_arg $ cache_arg $ inject_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                               *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let module Lint = Lalr_lint.Engine in
  let module Diagnostic = Lalr_lint.Diagnostic in
  let run spec format severity select ignored self_check list_codes timings
      budget trace =
    if list_codes then begin
      List.iter
        (fun (p : Lalr_lint.Passes.pass) ->
          Format.printf "%-14s %-12s %s@." p.name
            (String.concat "," p.codes)
            p.doc)
        (Lint.passes ~self_check:true);
      exit 0
    end;
    let min_severity =
      match Diagnostic.severity_of_string severity with
      | Some s -> s
      | None ->
          Format.eprintf
            "invalid --severity %S (expected error, warning or info)@."
            severity;
          exit 2
    in
    let parse_codes what csv =
      let codes =
        List.concat_map (String.split_on_char ',') csv
        |> List.filter (fun s -> s <> "")
      in
      List.iter
        (fun c ->
          if not (List.mem c Lint.known_codes) then begin
            Format.eprintf "unknown lint code %S in %s (known: %s)@." c what
              (String.concat " " Lint.known_codes);
            exit 2
          end)
        codes;
      codes
    in
    let config =
      {
        Lint.select = parse_codes "--select" select;
        ignored = parse_codes "--ignore" ignored;
        min_severity;
        self_check;
      }
    in
    let spec =
      match spec with
      | Some s -> s
      | None ->
          Format.eprintf "lint: a GRAMMAR argument is required@.";
          exit 2
    in
    setup_trace trace;
    handle_load spec (fun g ->
        (* The context owns the engine: every pass and the self-check
           oracle share one memoized pipeline over this grammar. *)
        let ctx = Lalr_lint.Context.of_grammar ?budget g in
        (if timings then
           at_exit (fun () ->
               match Lalr_lint.Context.engine ctx with
               | Some e -> Format.eprintf "%a@." Engine.pp_stats e
               | None ->
                   Format.eprintf
                     "engine timings: unavailable (start symbol is \
                      unproductive)@."));
        with_failure_boundary ?budget (fun () ->
            let diags = Lint.run_ctx ~config ctx in
            (match format with
            | `Text -> Format.printf "%a" Lint.pp_report diags
            | `Json -> print_endline (Diagnostic.list_to_json_string diags));
            if Lint.has_errors diags then exit 2))
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,text) (default) or $(b,json).")
  in
  let severity =
    Arg.(
      value & opt string "info"
      & info [ "severity" ] ~docv:"LEVEL"
          ~doc:
            "Minimum severity to report: $(b,error), $(b,warning) or \
             $(b,info) (default: everything). The exit code reflects only \
             error findings regardless of this filter.")
  in
  let select =
    Arg.(
      value & opt_all string []
      & info [ "select" ] ~docv:"CODES"
          ~doc:
            "Comma-separated diagnostic codes to report (repeatable); \
             default all.")
  in
  let ignored =
    Arg.(
      value & opt_all string []
      & info [ "ignore" ] ~docv:"CODES"
          ~doc:"Comma-separated diagnostic codes to suppress (repeatable).")
  in
  let self_check =
    Arg.(
      value & flag
      & info [ "self-check" ]
          ~doc:
            "Also run the oracle pass auditing the look-ahead computation \
             itself on this grammar (paper cross-validation; slower).")
  in
  let list_codes =
    Arg.(
      value & flag
      & info [ "codes" ]
          ~doc:"List the registered passes and their codes, then exit.")
  in
  let grammar_opt =
    let doc =
      "Grammar to lint: a file, $(b,-) for stdin, or $(b,suite:NAME). \
       Optional only with $(b,--codes)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"GRAMMAR" ~doc)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis of a grammar with structured diagnostics \
          (exit 2 iff an error-severity finding exists)")
    Term.(
      const run $ grammar_opt $ format $ severity $ select $ ignored
      $ self_check $ list_codes $ timings_arg $ budget_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* exercise                                                           *)
(* ------------------------------------------------------------------ *)

(* Forces every slot, in dependency order. [classify] alone never
   touches [propagation] or the table slots, and forces [lr1] and
   [classification+lr1] only for some grammars, so the fault-injection
   matrix (and cache warming) drives THIS command: an armed compute
   site is guaranteed to be reached. *)
let force_all_stages e =
  ignore (Engine.analysis e);
  ignore (Engine.lr0 e);
  ignore (Engine.relations e);
  ignore (Engine.follow e);
  ignore (Engine.lalr e);
  ignore (Engine.slr e);
  ignore (Engine.nqlalr e);
  ignore (Engine.propagation e);
  ignore (Engine.lr1 e);
  ignore (Engine.tables e);
  ignore (Engine.slr_tables e);
  ignore (Engine.nqlalr_tables e);
  ignore (Engine.classification e);
  ignore (Engine.classification ~with_lr1:true e)

let exercise_cmd =
  let run spec timings budget cache inject trace =
    handle_engine spec ~timings ?budget ?cache ?inject ?trace (fun e ->
        force_all_stages e;
        let stages = Engine.stats e in
        let forced =
          List.length (List.filter (fun (s : Engine.stage) -> s.forced) stages)
        in
        Format.printf "forced %d/%d stages@." forced (List.length stages))
  in
  Cmd.v
    (Cmd.info "exercise"
       ~doc:
         "Force every engine stage — the driver for the fault-injection \
          matrix and for warming a $(b,--cache) directory")
    Term.(const run $ grammar_arg $ timings_arg $ budget_arg $ cache_arg
          $ inject_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* faultpoints                                                        *)
(* ------------------------------------------------------------------ *)

let faultpoints_cmd =
  let run () =
    (* Three machine-readable columns — site, kind, documented exit —
       so the CI matrix iterates with `while read site kind code`. *)
    List.iter
      (fun (s : Faultpoint.site_info) ->
        List.iter
          (fun k ->
            Format.printf "%-20s %-8s %d@." s.si_name (Faultpoint.kind_name k)
              (Faultpoint.expected_exit s k))
          s.si_kinds)
      Faultpoint.sites
  in
  Cmd.v
    (Cmd.info "faultpoints"
       ~doc:
         "List the fault-injection sites, the kinds meaningful at each, \
          and the documented exit code when the injection fires")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* batch                                                              *)
(* ------------------------------------------------------------------ *)

(* The per-response exit code carried in a serve response line; an
   undecodable line counts as the worst outcome (the daemon never
   emits one — seeing it means the transport mangled the stream). *)
let response_exit_of_line line =
  match Protocol.Json.parse line with
  | Ok j -> (
      match Protocol.Json.member "exit" j with
      | Some (Protocol.Json.Num f) -> int_of_float f
      | _ -> 4)
  | Error _ -> 4

(* Print whatever response lines arrived (possibly a partial set, when
   the connection died mid-call) and fold their worst exit code. *)
let print_response_lines lines =
  List.fold_left
    (fun worst l ->
      print_endline l;
      max worst (response_exit_of_line l))
    0 lines

(* batch --via-serve: ship the whole batch to a running daemon over
   one resilient connection instead of analysing in-process. Per-job
   isolation, budgets and retries then happen server-side; the output
   contract (one JSON line per job, worst exit, stderr summary) is
   unchanged. *)
let batch_via_serve endpoint_s files budget_spec =
  let endpoint =
    match Serve.parse_endpoint endpoint_s with
    | Ok e -> e
    | Error m ->
        Format.eprintf "lalrgen: --via-serve: %s@." m;
        exit 2
  in
  let request file =
    let source =
      if file = "-" then
        Protocol.Inline
          { text = In_channel.input_all In_channel.stdin; format = `Cfg }
      else Protocol.File file
    in
    Protocol.encode_request
      (Protocol.Classify
         {
           id = file;
           source;
           budget = budget_spec;
           deadline_ms = None;
           trace_id = None;
         })
  in
  (* Every job ships with a trace id: the daemon stamps it onto the
     request's span tree and access-log line, so a lost or slow job in
     a big batch can be found server-side by grep. *)
  let lines =
    Client.stamp_trace_ids
      ~prefix:(Printf.sprintf "batch-%d" (Unix.getpid ()))
      (List.map request files)
  in
  let client = Client.create endpoint in
  match Client.call client lines with
  | Ok responses ->
      Client.close client;
      let nonzero =
        List.length
          (List.filter (fun l -> response_exit_of_line l <> 0) responses)
      in
      let worst = print_response_lines responses in
      Format.eprintf "batch: %d jobs, %d nonzero@." (List.length responses)
        nonzero;
      exit worst
  | Error err ->
      let partial =
        match err with
        | Client.Unavailable { partial; _ } -> partial
        | Client.Breaker_open _ -> []
      in
      let worst = print_response_lines partial in
      Format.eprintf "lalrgen: batch: %s@." (Client.error_message err);
      Format.eprintf "batch: %d jobs, %d responded@." (List.length lines)
        (List.length partial);
      (* Responses arrive in request order, so the unanswered jobs are
         exactly the suffix past what arrived — echo their trace ids
         for the server-side hunt. *)
      let unanswered =
        Client.trace_ids
          (List.filteri (fun i _ -> i >= List.length partial) lines)
      in
      if unanswered <> [] then
        Format.eprintf "batch: unanswered trace ids: %s@."
          (String.concat " " unanswered);
      exit (max worst 4)

type job_result = {
  j_exit : int;
  j_status : string;  (* ok | verdict | diagnostics | budget | internal *)
  j_detail : string;
  j_lalr1 : bool option;
  j_completed : string list;
  j_wall_ms : float;  (* whole attempt, load included *)
  j_stages : (string * float) list;  (* forced engine stages, seconds *)
  j_lr0_states : int option;  (* peak automaton size, when built *)
}

let batch_cmd =
  let run files budget_spec cache inject timings trace via_serve =
    arm_injection inject;
    setup_trace trace;
    (* Validate the budget spec once; each job then parses its own
       fresh copy, because a Budget.t accumulates consumption and
       isolation means no job pays for another's spending. *)
    (match budget_spec with
    | Some s when Result.is_error (Budget.of_spec s) ->
        (match Budget.of_spec s with
        | Error m ->
            Format.eprintf "lalrgen: --budget: %s@." m;
            exit 2
        | Ok _ -> ())
    | _ -> ());
    (match via_serve with
    | Some ep -> batch_via_serve ep files budget_spec
    | None -> ());
    let store = open_store cache in
    let fresh_budget () =
      match budget_spec with
      | None -> None
      | Some s -> (
          match Budget.of_spec s with Ok b -> Some b | Error _ -> None)
    in
    let diag code status detail =
      { j_exit = code; j_status = status; j_detail = detail; j_lalr1 = None;
        j_completed = []; j_wall_ms = 0.; j_stages = []; j_lr0_states = None }
    in
    (* One isolated attempt: every outcome is data, nothing escapes. *)
    let attempt file =
      match load_grammar file with
      | exception Not_found -> diag 2 "diagnostics" "no such suite grammar"
      | exception Sys_error msg -> diag 2 "diagnostics" msg
      | exception Invalid_argument msg -> diag 2 "diagnostics" msg
      | exception Budget.Exceeded ex ->
          diag 3 "budget" (Format.asprintf "%a" Budget.pp_exceeded ex)
      | exception Budget.Internal_error { stage; invariant } ->
          diag 4 "internal"
            (Printf.sprintf "internal error in stage '%s': %s" stage invariant)
      | Some g, [] -> (
          let e = Engine.create ?budget:(fresh_budget ()) ?store g in
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
                j_exit = (if lalr1 then 0 else 1);
                j_status = (if lalr1 then "ok" else "verdict");
                j_detail = "";
                j_lalr1 = Some lalr1;
                j_completed = p.Engine.pr_completed;
                j_wall_ms = 0.;
                j_stages = stages;
                j_lr0_states = lr0_states;
              }
          | None, Engine.Complete -> assert false
          | None, Engine.Incomplete failure ->
              {
                j_exit = exit_of_failure failure;
                j_status =
                  (match failure with
                  | Engine.Budget_exceeded _ -> "budget"
                  | Engine.Internal_error _ -> "internal");
                j_detail = Format.asprintf "%a" Engine.pp_failure failure;
                j_lalr1 = None;
                j_completed = p.Engine.pr_completed;
                j_wall_ms = 0.;
                j_stages = stages;
                j_lr0_states = lr0_states;
              })
      | g_opt, errors ->
          let detail =
            match errors with
            | e :: _ -> Format.asprintf "%a" Reader.pp_error e
            | [] ->
                if g_opt = None then "unreadable grammar" else "no grammar"
          in
          diag 2 "diagnostics" detail
    in
    (* Line schema documented in README ("Batch mode"): keep in sync. *)
    let emit file r ~retries =
      Format.printf
        "{\"file\":\"%s\",\"exit\":%d,\"status\":\"%s\",\"retries\":%d,\"wall_ms\":%.3f%s%s%s%s%s}@."
        (Trace.json_escape file) r.j_exit r.j_status retries r.j_wall_ms
        (match r.j_lalr1 with
        | Some b -> Printf.sprintf ",\"lalr1\":%b" b
        | None -> "")
        (match r.j_lr0_states with
        | Some n -> Printf.sprintf ",\"lr0_states\":%d" n
        | None -> "")
        (if r.j_stages = [] then ""
         else
           Printf.sprintf ",\"stages\":{%s}"
             (String.concat ","
                (List.map
                   (fun (name, wall) ->
                     Printf.sprintf "\"%s\":%.3f" (Trace.json_escape name)
                       (wall *. 1e3))
                   r.j_stages)))
        (if r.j_detail = "" then ""
         else
           Printf.sprintf ",\"detail\":\"%s\""
             (Trace.json_escape r.j_detail))
        (if r.j_completed = [] then ""
         else
           Printf.sprintf ",\"completed\":[%s]"
             (String.concat ","
                (List.map
                   (fun s -> Printf.sprintf "\"%s\"" (Trace.json_escape s))
                   r.j_completed)))
    in
    (* One span per attempt, so a trace of a batch run shows a forest of
       per-job trees; the measured wall covers load + analysis. *)
    let timed_attempt file =
      let t0 = Unix.gettimeofday () in
      let r =
        Trace.with_span
          ~attrs:(fun () -> [ ("file", Trace.Str file) ])
          "batch.job"
          (fun () -> attempt file)
      in
      { r with j_wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 }
    in
    let codes =
      List.map
        (fun file ->
          (* Retry on internal faults with capped exponential backoff
             (deterministic jitter): a broken invariant may be a
             transient environmental condition (and the fire-once
             injections model exactly that); when the attempt cap is
             reached the last failure is reported as final. *)
          let r, retries =
            Retry.run
              ~retryable:(fun r -> r.j_exit = 4)
              (fun ~attempt:_ -> timed_attempt file)
          in
          emit file r ~retries;
          r.j_exit)
        files
    in
    let nonzero = List.length (List.filter (fun c -> c <> 0) codes) in
    Format.eprintf "batch: %d jobs, %d nonzero@." (List.length codes) nonzero;
    if timings then (
      match store with
      | Some st -> Format.eprintf "%a@." Store.pp_stats st
      | None -> ());
    (* The aggregate verdict is the worst per-job one. *)
    exit (List.fold_left max 0 codes)
  in
  let files =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"GRAMMAR"
          ~doc:
            "Grammars to process (files, $(b,-), or $(b,suite:NAME)); one \
             JSON line per job on stdout.")
  in
  let budget_spec =
    let doc =
      Printf.sprintf
        "Per-job resource budget, parsed afresh for every job — %s."
        Budget.spec_doc
    in
    Arg.(value & opt (some string) None & info [ "budget" ] ~docv:"SPEC" ~doc)
  in
  let via_serve =
    let doc =
      "Route the batch through a running $(b,lalrgen serve) daemon at \
       $(docv) instead of analysing in-process: one request per grammar \
       over a single resilient connection (health-checked reconnect, \
       circuit breaker). Isolation, budgets and retries happen \
       server-side; $(b,--cache) and $(b,--inject) apply to the daemon's \
       process, not this one. The output contract is unchanged. On \
       connection failure the responses that arrived are printed and the \
       exit code is 4."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "via-serve" ] ~docv:"ENDPOINT" ~doc)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Classify many grammars in one invocation with per-job isolation: \
          a failing job is reported (JSON-lines) and never aborts the \
          batch; internal faults are retried with capped exponential \
          backoff; the exit code is the maximum per-job code. With \
          $(b,--via-serve), the jobs are dispatched to a running daemon \
          instead of analysed in-process")
    Term.(const run $ files $ budget_spec $ cache_arg $ inject_arg
          $ timings_arg $ trace_arg $ via_serve)

(* ------------------------------------------------------------------ *)
(* stats                                                              *)
(* ------------------------------------------------------------------ *)

(* One JSON document profiling the structures the paper's complexity
   argument is about: automaton sizes, relation cardinalities, the
   Digraph solver's work (unions, stack depth, SCCs), plus the ambient
   trace metrics gathered while computing them. CI cross-checks the
   structural members against the metric gauges — two code paths, one
   truth. *)
let stats_cmd =
  let run spec timings budget cache inject trace =
    handle_engine spec ~timings ?budget ?cache ?inject ?trace (fun e ->
        (* Metrics are recorded by the ambient session; arm a private
           one when --trace didn't, so the "metrics" member is always
           populated. It must be armed BEFORE the stages force. *)
        let owned, session =
          match Trace.active () with
          | Some s -> (false, s)
          | None -> (true, Trace.start ())
        in
        let la = Engine.lalr e in
        let a = Engine.lr0 e in
        let g = Engine.grammar e in
        let st = Lalr.stats la in
        let states, kernel_items, transitions = Lr0.size_report a in
        let lalr1 = Lalr.is_lalr1 la in
        if owned then Trace.finish session;
        let buf = Buffer.create 2048 in
        let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
        let scc_sizes sccs =
          String.concat ","
            (List.map
               (fun scc -> string_of_int (List.length scc))
               (List.sort
                  (fun a b -> compare (List.length a) (List.length b))
                  sccs))
        in
        let digraph_member ~unions ~max_depth ~sccs =
          Printf.sprintf
            "{\"unions\":%d,\"max_stack_depth\":%d,\"sccs\":%d,\"scc_sizes\":[%s]}"
            unions max_depth (List.length sccs) (scc_sizes sccs)
        in
        p "{\n";
        p "  \"grammar\": {\"source\":\"%s\",\"terminals\":%d,\"nonterminals\":%d,\"productions\":%d},\n"
          (Trace.json_escape (G.source g))
          (G.n_terminals g) (G.n_nonterminals g) (G.n_productions g);
        p "  \"lr0\": {\"states\":%d,\"kernel_items\":%d,\"transitions\":%d,\"nt_transitions\":%d},\n"
          states kernel_items transitions (Lr0.n_nt_transitions a);
        p "  \"relations\": {\"nt_transitions\":%d,\"dr_total\":%d,\"reads_edges\":%d,\"includes_edges\":%d,\"lookback_edges\":%d,\"reductions\":%d,\"la_total\":%d},\n"
          st.Lalr.n_nt_transitions st.Lalr.dr_total st.Lalr.reads_edges
          st.Lalr.includes_edges st.Lalr.lookback_edges st.Lalr.n_reductions
          st.Lalr.la_total;
        p "  \"digraph\": {\"reads\":%s,\"includes\":%s},\n"
          (digraph_member ~unions:st.Lalr.reads_unions
             ~max_depth:st.Lalr.reads_max_depth ~sccs:st.Lalr.reads_sccs)
          (digraph_member ~unions:st.Lalr.includes_unions
             ~max_depth:st.Lalr.includes_max_depth ~sccs:st.Lalr.includes_sccs);
        let m = st.Lalr.mem in
        p "  \"memory\": {\"reads_offsets_words\":%d,\"reads_cols_words\":%d,\"includes_offsets_words\":%d,\"includes_cols_words\":%d,\"lookback_offsets_words\":%d,\"lookback_cols_words\":%d,\"reduction_index_words\":%d},\n"
          m.Lalr.reads_offsets_words m.Lalr.reads_cols_words
          m.Lalr.includes_offsets_words m.Lalr.includes_cols_words
          m.Lalr.lookback_offsets_words m.Lalr.lookback_cols_words
          m.Lalr.reduction_index_words;
        p "  \"lalr1\": %b,\n" lalr1;
        p "  \"metrics\": %s\n" (Trace.metrics_json session);
        p "}\n";
        print_string (Buffer.contents buf))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print a structural and metric profile of the analysis as one \
          JSON document: automaton sizes, relation cardinalities, Digraph \
          solver work (set unions, stack depth, SCC histogram), the words \
          held by the packed relation arrays, and the trace metrics \
          recorded while computing them")
    Term.(const run $ grammar_arg $ timings_arg $ budget_arg $ cache_arg
          $ inject_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* suite                                                              *)
(* ------------------------------------------------------------------ *)

let suite_cmd =
  let run () =
    List.iter
      (fun (e : Registry.entry) ->
        Format.printf "%-16s %s@." e.name e.description)
      Registry.all
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"List the built-in benchmark grammars")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc =
    "Endpoint to listen on (serve) or connect to (call): a filesystem \
     path for a Unix-domain socket, $(b,HOST:PORT) or a bare $(b,PORT) \
     (host 127.0.0.1) for TCP."
  in
  Arg.(
    value
    & opt string "lalrgen.sock"
    & info [ "socket" ] ~docv:"ENDPOINT" ~doc)

let serve_cmd =
  let run socket domains queue budget_spec cache inject max_line trace_file
      access_log =
    arm_injection inject;
    (match budget_spec with
    | Some s -> (
        match Budget.of_spec s with
        | Ok _ -> ()
        | Error m ->
            Format.eprintf "lalrgen: --budget: %s@." m;
            exit 2)
    | None -> ());
    let endpoint =
      match Serve.parse_endpoint socket with
      | Ok e -> e
      | Error m ->
          Format.eprintf "lalrgen: --socket: %s@." m;
          exit 2
    in
    let store = open_store cache in
    let cfg =
      {
        Serve.endpoint;
        pool =
          {
            Pool.default_config with
            Pool.domains;
            queue_capacity = queue;
            default_budget = budget_spec;
            store;
          };
        max_line;
        trace_file;
        access_log;
        on_ready =
          (fun line ->
            print_endline line;
            flush stdout);
      }
    in
    match Serve.run cfg with
    | Ok () ->
        (match store with
        | Some st -> Format.eprintf "%a@." Store.pp_stats st
        | None -> ());
        exit 0
    | Error m ->
        Format.eprintf "lalrgen: serve: %s@." m;
        exit 2
  in
  let domains =
    let doc =
      "Worker domains in the analysis pool (defaults to the runtime's \
       recommended domain count)."
    in
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "domains" ] ~docv:"N" ~doc)
  in
  let queue =
    let doc =
      "Admission queue capacity; requests beyond it are shed with a typed \
       $(b,overloaded) response instead of queueing without bound."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let budget_spec =
    let doc =
      Printf.sprintf
        "Default per-request resource budget, applied to requests that \
         carry no $(b,budget) field — %s."
        Budget.spec_doc
    in
    Arg.(value & opt (some string) None & info [ "budget" ] ~docv:"SPEC" ~doc)
  in
  let max_line =
    let doc =
      "Request-line byte cap; longer lines are answered with a typed \
       $(b,bad_request) and discarded."
    in
    Arg.(
      value
      & opt int Serve.default_max_line
      & info [ "max-line" ] ~docv:"BYTES" ~doc)
  in
  let trace_file =
    let doc =
      "Write the daemon's trace to $(docv) (format inferred from the \
       extension) and each worker domain's session to $(docv).wN."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let access_log =
    let doc =
      "Append one JSON line per response to $(docv): timestamp, request \
       id, status, exit, delivery flag, latency and queue-wait \
       milliseconds, worker and trace id when known (see README \
       \"Observability\" for the schema). Write failures are absorbed — \
       logging never takes a request down."
    in
    Arg.(
      value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis daemon: newline-delimited JSON requests over a \
          Unix or TCP socket, dispatched to a supervised pool of worker \
          domains sharing one artifact store. Degrades under fault and \
          overload with typed per-request responses; SIGTERM drains \
          gracefully (exit 0). See README \"Serving\" for the protocol.")
    Term.(const run $ socket_arg $ domains $ queue $ budget_spec $ cache_arg
          $ inject_arg $ max_line $ trace_file $ access_log)

(* ------------------------------------------------------------------ *)
(* call — the matching line-protocol client                           *)
(* ------------------------------------------------------------------ *)

let call_cmd =
  let run socket trace_prefix requests =
    let endpoint =
      match Serve.parse_endpoint socket with
      | Ok e -> e
      | Error m ->
          Format.eprintf "lalrgen: --socket: %s@." m;
          exit 2
    in
    let lines =
      match requests with
      | [ "-" ] | [] -> In_channel.input_lines stdin
      | rs -> rs
    in
    let lines =
      match trace_prefix with
      | None -> lines
      | Some prefix -> Client.stamp_trace_ids ~prefix lines
    in
    let client = Client.create endpoint in
    match Client.call client lines with
    | Ok responses ->
        Client.close client;
        exit (print_response_lines responses)
    | Error err ->
        (* A failed transport is the client's failure, not the
           daemon's verdict: exit 4 (internal), after delivering every
           response line that DID arrive — the daemon already did that
           work. *)
        let partial =
          match err with
          | Client.Unavailable { partial; _ } -> partial
          | Client.Breaker_open _ -> []
        in
        let worst = print_response_lines partial in
        Format.eprintf "lalrgen: call: %s@." (Client.error_message err);
        let missing = List.length lines - List.length partial in
        if missing > 0 && partial <> [] then
          Format.eprintf "lalrgen: call: %d response(s) missing@." missing;
        (* Responses arrive in request order: the unanswered requests
           are the suffix, and their trace ids are the handle for
           finding them in the daemon's trace files and access log. *)
        let unanswered =
          Client.trace_ids
            (List.filteri (fun i _ -> i >= List.length partial) lines)
        in
        if unanswered <> [] then
          Format.eprintf "lalrgen: call: unanswered trace ids: %s@."
            (String.concat " " unanswered);
        exit (max worst 4)
  in
  let trace_prefix =
    let doc =
      "Stamp every classify request that carries no $(b,trace_id) with \
       $(docv)-$(i,INDEX) before sending. The daemon echoes the id in \
       the response, its access log and the worker trace session; on \
       transport failure the ids of unanswered requests are printed to \
       stderr."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-id" ] ~docv:"PREFIX" ~doc)
  in
  let requests =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Request lines (JSON, see README \"Serving\"); with no \
             arguments or a single $(b,-), lines are read from stdin. One \
             response line is printed per request; the exit code is the \
             maximum per-response $(b,exit) field.")
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send requests to a running $(b,lalrgen serve) daemon over a \
          resilient connection (health-checked reconnect, circuit \
          breaker) and print its response lines; exits with the worst \
          per-response code, or 4 when the daemon is unreachable (the \
          error names the endpoint and distinguishes a missing socket \
          from a refused connection)")
    Term.(const run $ socket_arg $ trace_prefix $ requests)

(* ------------------------------------------------------------------ *)
(* top — polling terminal view over the metrics scrape                *)
(* ------------------------------------------------------------------ *)

let top_cmd =
  let run endpoint_s interval count no_clear =
    let endpoint =
      match Serve.parse_endpoint endpoint_s with
      | Ok e -> e
      | Error m ->
          Format.eprintf "lalrgen: top: %s@." m;
          exit 2
    in
    let interval = Float.max 0.1 interval in
    let client = Client.create endpoint in
    let req = Protocol.encode_request (Protocol.Metrics { id = "__top__" }) in
    let scrape () =
      match Client.call client [ req ] with
      | Error err ->
          Format.eprintf "lalrgen: top: %s@." (Client.error_message err);
          exit 4
      | Ok [ line ] -> (
          match Protocol.Json.parse line with
          | Ok j -> (
              match Protocol.Json.member "body" j with
              | Some (Protocol.Json.Str body) -> (
                  match Metrics.parse body with
                  | Ok snap -> snap
                  | Error m ->
                      Format.eprintf
                        "lalrgen: top: unparseable exposition: %s@." m;
                      exit 4)
              | _ ->
                  Format.eprintf
                    "lalrgen: top: metrics response carries no body@.";
                  exit 4)
          | Error m ->
              Format.eprintf "lalrgen: top: garbled response: %s@." m;
              exit 4)
      | Ok _ ->
          Format.eprintf "lalrgen: top: expected exactly one response line@.";
          exit 4
    in
    let gauge snap name =
      match Metrics.find snap name with
      | Some (Metrics.Gauge v) -> v
      | _ -> 0.
    in
    (* Per-worker gauges (GC, deadline slack) carry a [worker] label:
       the fleet view is their sum across label sets. *)
    let gauge_sum snap name =
      List.fold_left
        (fun acc (s : Metrics.sample) ->
          match s.Metrics.value with
          | Metrics.Gauge v when s.Metrics.name = name -> acc +. v
          | _ -> acc)
        0. snap
    in
    let quantile_ms snap name q =
      match Metrics.quantile snap name q with
      | Some s -> Printf.sprintf "%.1fms" (s *. 1e3)
      | None -> "-"
    in
    let status_breakdown snap =
      List.filter_map
        (fun (s : Metrics.sample) ->
          match (s.Metrics.name, s.Metrics.value) with
          | "lalr_serve_requests_total", Metrics.Counter n when n > 0 ->
              Some
                (Printf.sprintf "%s=%d"
                   (match List.assoc_opt "status" s.Metrics.labels with
                   | Some v -> v
                   | None -> "?")
                   n)
          | _ -> None)
        snap
    in
    let prev = ref None in
    let frame i =
      let snap = scrape () in
      let now = Unix.gettimeofday () in
      let total = Metrics.counter_total snap "lalr_serve_requests_total" in
      let qps =
        match !prev with
        | Some (t0, n0) when now > t0 ->
            Printf.sprintf "%.1f" (float_of_int (total - n0) /. (now -. t0))
        | _ -> "-"
      in
      prev := Some (now, total);
      if not no_clear then print_string "\027[H\027[2J";
      Format.printf "lalrgen top — %s   up %.0fs   ready %s   workers %.0f@."
        (Serve.endpoint_to_string endpoint)
        (gauge snap "lalr_serve_uptime_seconds")
        (if gauge snap "lalr_serve_ready" >= 1. then "yes" else "NO")
        (gauge snap "lalr_serve_workers");
      Format.printf
        "requests  total %d   qps %s   dropped %d   restarts %d@." total qps
        (Metrics.counter_total snap "lalr_serve_responses_dropped_total")
        (Metrics.counter_total snap "lalr_serve_worker_crashes_total");
      Format.printf "latency   p50 %s   p95 %s   p99 %s@."
        (quantile_ms snap "lalr_serve_request_seconds" 0.50)
        (quantile_ms snap "lalr_serve_request_seconds" 0.95)
        (quantile_ms snap "lalr_serve_request_seconds" 0.99);
      Format.printf "queue     depth %.0f / %.0f   wait p95 %s@."
        (gauge snap "lalr_serve_queue_depth")
        (gauge snap "lalr_serve_queue_capacity")
        (quantile_ms snap "lalr_serve_queue_wait_seconds" 0.95);
      Format.printf
        "gc        minor %.0f   major %.0f   heap %.2f Mwords@."
        (gauge_sum snap "lalr_serve_gc_minor_collections")
        (gauge_sum snap "lalr_serve_gc_major_collections")
        (gauge_sum snap "lalr_serve_gc_heap_words" /. 1e6);
      (match status_breakdown snap with
      | [] -> ()
      | parts -> Format.printf "status    %s@." (String.concat "  " parts));
      Format.print_flush ();
      if count = 0 || i + 1 < count then Unix.sleepf interval
    in
    let rec loop i =
      frame i;
      if count = 0 || i + 1 < count then loop (i + 1)
    in
    loop 0;
    Client.close client;
    exit 0
  in
  let endpoint =
    Arg.(
      value
      & pos 0 string "lalrgen.sock"
      & info [] ~docv:"ENDPOINT"
          ~doc:
            "Daemon endpoint: a Unix-socket path, $(b,HOST:PORT) or a \
             bare $(b,PORT).")
  in
  let interval =
    Arg.(
      value & opt float 2.
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between polls (min 0.1).")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop after $(docv) frames; 0 (the default) polls forever.")
  in
  let no_clear =
    Arg.(
      value & flag
      & info [ "no-clear" ]
          ~doc:
            "Append frames instead of redrawing in place — for logs and \
             tests.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Poll a running $(b,lalrgen serve) daemon's $(b,metrics) scrape \
          and render a one-screen live view: request rate, latency \
          quantiles, queue depth, worker restarts and GC pressure. \
          Exits 4 when the daemon is unreachable.")
    Term.(const run $ endpoint $ interval $ count $ no_clear)

let () =
  let doc =
    "LALR(1) parser generator toolkit (DeRemer–Pennello look-ahead sets)"
  in
  let info = Cmd.info "lalrgen" ~version:Protocol.version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            classify_cmd; report_cmd; conflicts_cmd; tables_cmd; parse_cmd;
            generate_cmd; lint_cmd; batch_cmd; exercise_cmd; stats_cmd;
            faultpoints_cmd; suite_cmd; serve_cmd; call_cmd; top_cmd;
          ]))
