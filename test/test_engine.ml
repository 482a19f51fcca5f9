(* The query engine is a memoization layer, nothing more: every
   artifact it serves must be the one the underlying module computes
   directly, each pipeline stage must be computed at most once per
   engine, and the consumers that were ported onto it (experiments,
   the tables CLI, lint) must produce byte-identical output. *)

module Bitset = Lalr_sets.Bitset
module G = Lalr_grammar.Grammar
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Tables = Lalr_tables.Tables
module Classify = Lalr_tables.Classify
module Engine = Lalr_engine.Engine
module Registry = Lalr_suite.Registry
module Randgen = Lalr_suite.Randgen
module E = Lalr_bench_tables.Experiments
module Lint = Lalr_lint.Engine
module Context = Lalr_lint.Context

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let grammar_of name = Lazy.force (Registry.find name).Registry.grammar

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let read_file path =
  (* cwd is test/ under [dune runtest], the project root under
     [dune exec test/test_engine.exe]. *)
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Engine artifacts = direct per-module computation                   *)
(* ------------------------------------------------------------------ *)

(* Engine-mediated LA sets, tables and classification vs computing
   each from scratch; returns an error description or None. *)
let engine_vs_direct g =
  let e = Engine.create g in
  let a = Lr0.build g in
  let t = Lalr.compute a in
  let et = Engine.lalr e in
  let err = ref None in
  let fail what = if !err = None then err := Some what in
  if Lalr.n_reductions t <> Lalr.n_reductions et then
    fail "reduction counts differ";
  for r = 0 to min (Lalr.n_reductions t) (Lalr.n_reductions et) - 1 do
    if Lalr.reduction t r <> Lalr.reduction et r then
      fail (Printf.sprintf "reduction %d pair differs" r);
    if not (Bitset.equal (Lalr.la t r) (Lalr.la et r)) then
      fail (Printf.sprintf "LA set %d differs" r)
  done;
  let direct_tbl = Tables.build ~lookahead:(Lalr.lookahead t) a in
  let pp_tbl tbl = render (fun ppf -> Tables.pp ppf tbl) in
  if pp_tbl direct_tbl <> pp_tbl (Engine.tables e) then fail "tables differ";
  if Classify.classify g <> Engine.classification ~with_lr1:true e then
    fail "classification differs";
  !err

let test_engine_vs_direct_suite () =
  List.iter
    (fun (e : Registry.entry) ->
      match engine_vs_direct (Lazy.force e.grammar) with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" e.name msg)
    Registry.all

let prop_engine_vs_direct_random =
  QCheck.Test.make ~name:"engine = direct computation (random grammars)"
    ~count:100 (Randgen.arbitrary ()) (fun g -> engine_vs_direct g = None)

(* ------------------------------------------------------------------ *)
(* Canonical LR(1) stays the oracle of the default verdict            *)
(* ------------------------------------------------------------------ *)

type conflicts = Clean | Shift_reduce | Reduce_reduce_only

(* The raw LALR(1) conflicts, read from the tables' conflict list
   (precedence-resolved ones included) rather than from
   [Lalr.is_lr1], which the engine decides by. *)
let conflicts_of e =
  match Tables.conflicts (Engine.tables e) with
  | [] -> Clean
  | cs ->
      if
        List.exists
          (fun (c : Tables.conflict) ->
            match c.kind with
            | Tables.Shift_reduce _ -> true
            | Tables.Reduce_reduce _ -> false)
          cs
      then Shift_reduce
      else Reduce_reduce_only

(* The default verdict must equal the canonical-LR(1) one on every
   field but [lr1_states], and must have built the canonical machine
   exactly when the conflicts are all reduce/reduce. Returns the case
   and an error description, if any. *)
let default_vs_lr1 g =
  let e = Engine.create g in
  let v = Engine.classification e in
  let built = (Engine.find_stage e "lr1").Engine.forced in
  let case = conflicts_of e in
  let oracle = Engine.classification ~with_lr1:true e in
  let err =
    if { v with Classify.lr1_states = 0 } <> { oracle with lr1_states = 0 }
    then Some "default verdict differs from the canonical LR(1) one"
    else if built <> (case = Reduce_reduce_only) then
      Some
        (if built then "built LR(1) though the LALR(1) sets decide"
         else "skipped LR(1) with only reduce/reduce conflicts")
    else None
  in
  (case, err)

let test_default_vs_lr1_suite () =
  let built =
    List.filter_map
      (fun (e : Registry.entry) ->
        match default_vs_lr1 (Lazy.force e.grammar) with
        | _, Some msg -> Alcotest.failf "%s: %s" e.name msg
        | Reduce_reduce_only, None -> Some e.name
        | (Clean | Shift_reduce), None -> None)
      Registry.all
  in
  Alcotest.(check (list string))
    "only the reduce/reduce-only grammars build LR(1)"
    [ "lr1-not-lalr"; "lalr2" ] built

(* Randgen's default grammars are far below [Engine.lr1_limit]; the
   fixed seed keeps the case counts printed below reproducible. *)
let test_default_vs_lr1_random () =
  let counts = Hashtbl.create 3 in
  let prop =
    QCheck.Test.make ~name:"default = --with-lr1 (random grammars)"
      ~count:500 (Randgen.arbitrary ()) (fun g ->
        QCheck.assume (G.n_productions g <= Engine.lr1_limit);
        let case, err = default_vs_lr1 g in
        Hashtbl.replace counts case
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts case));
        match err with
        | None -> true
        | Some msg -> QCheck.Test.fail_report msg)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 13 |]) prop;
  let count case = Option.value ~default:0 (Hashtbl.find_opt counts case) in
  Printf.printf
    "random grammars: %d LALR(1)-clean, %d with a shift/reduce conflict, %d \
     with reduce/reduce conflicts only\n"
    (count Clean) (count Shift_reduce) (count Reduce_reduce_only);
  List.iter
    (fun (case, name) ->
      if count case = 0 then Alcotest.failf "no random grammar was %s" name)
    [
      (Clean, "LALR(1)-clean");
      (Shift_reduce, "shift/reduce-conflicted");
      (Reduce_reduce_only, "reduce/reduce-only");
    ]

(* ------------------------------------------------------------------ *)
(* Force-once slot discipline                                         *)
(* ------------------------------------------------------------------ *)

let test_la_forces_relations_once () =
  let e = Engine.create (grammar_of "expr") in
  check "relations starts unforced" false
    (Engine.find_stage e "relations").Engine.forced;
  check "la starts unforced" false (Engine.find_stage e "la").Engine.forced;
  ignore (Engine.lalr e);
  check_int "forcing la computes relations once" 1
    (Engine.find_stage e "relations").Engine.misses;
  check_int "and lr0 once" 1 (Engine.find_stage e "lr0").Engine.misses;
  check_int "and follow once" 1 (Engine.find_stage e "follow").Engine.misses;
  ignore (Engine.lalr e);
  ignore (Engine.lalr e);
  check_int "relations never recomputed" 1
    (Engine.find_stage e "relations").Engine.misses;
  check_int "la computed once" 1 (Engine.find_stage e "la").Engine.misses;
  check "repeat queries are hits" true
    ((Engine.find_stage e "la").Engine.hits >= 2);
  (* Unrelated slots stay unforced: demand-driven, not eager. *)
  check "lr1 untouched" false (Engine.find_stage e "lr1").Engine.forced

let test_seeded_analysis () =
  let g = grammar_of "expr" in
  let analysis = Lalr_grammar.Analysis.compute g in
  let e = Engine.create ~analysis g in
  let st = Engine.find_stage e "analysis" in
  check "seeded slot is forced" true st.Engine.forced;
  check_int "with zero misses" 0 st.Engine.misses;
  check "seeded value is returned" true (Engine.analysis e == analysis)

let test_find_stage_not_found () =
  let e = Engine.create (grammar_of "expr") in
  match Engine.find_stage e "no-such-stage" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_stats_wall_sums () =
  let e = Engine.create (grammar_of "mini-pascal") in
  ignore (Engine.tables e);
  let sum =
    List.fold_left
      (fun acc (st : Engine.stage) -> acc +. st.Engine.wall)
      0. (Engine.stats e)
  in
  check "per-stage walls sum to the total" true
    (Float.abs (sum -. Engine.total_wall e) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Lint self-check rides the same pipeline                            *)
(* ------------------------------------------------------------------ *)

let test_lint_selfcheck_shares_engine () =
  let ctx = Context.of_grammar (grammar_of "mini-c") in
  let config = { Lint.default_config with Lint.self_check = true } in
  let diags = Lint.run_ctx ~config ctx in
  check "self-check emitted findings" true
    (List.exists (fun (d : Lalr_lint.Diagnostic.t) -> d.code = "L900") diags);
  match Context.engine ctx with
  | None -> Alcotest.fail "mini-c must have an engine"
  | Some eng ->
      (* The oracle (L900/L901) and the regular passes both walked the
         pipeline; the counters prove nothing was built twice. *)
      check_int "LR(0) automaton built exactly once" 1
        (Engine.find_stage eng "lr0").Engine.misses;
      check_int "reads/includes relations built exactly once" 1
        (Engine.find_stage eng "relations").Engine.misses;
      check_int "LA sets solved exactly once" 1
        (Engine.find_stage eng "la").Engine.misses;
      check "the automaton was actually shared (hits > 0)" true
        ((Engine.find_stage eng "lr0").Engine.hits > 0)

(* ------------------------------------------------------------------ *)
(* Byte-identity with the pre-engine pipeline (golden files)          *)
(* ------------------------------------------------------------------ *)

let test_golden_experiments_t2 () =
  Alcotest.(check string)
    "experiments t2 unchanged"
    (read_file "golden/experiments_t2.txt")
    (render E.t2)

let golden_tables name file () =
  let e = Engine.create (grammar_of name) in
  Alcotest.(check string)
    (name ^ " tables unchanged") (read_file ("golden/" ^ file))
    (render (fun ppf -> Format.fprintf ppf "%a@." Tables.pp (Engine.tables e)))

let test_golden_lint_mini_c () =
  let ctx = Context.of_grammar (grammar_of "mini-c") in
  let config = { Lint.default_config with Lint.self_check = true } in
  let diags = Lint.run_ctx ~config ctx in
  Alcotest.(check string)
    "lint --self-check report unchanged"
    (read_file "golden/lint_mini_c.txt")
    (render (fun ppf -> Lint.pp_report ppf diags))

(* ------------------------------------------------------------------ *)
(* The failure boundary                                               *)
(* ------------------------------------------------------------------ *)

module Budget = Lalr_guard.Budget

let test_budget_trips_named_stage () =
  let e =
    Engine.create ~budget:(Budget.create ~fuel:10 ()) (grammar_of "expr")
  in
  (match Engine.run e Engine.tables with
  | Ok _ -> Alcotest.fail "10 fuel must not build the expr tables"
  | Error (Engine.Budget_exceeded ex) ->
      check "fuel resource" true (ex.Budget.ex_resource = Budget.Fuel);
      Alcotest.(check string) "innermost stage" "lr0" ex.Budget.ex_stage
  | Error f ->
      Alcotest.failf "expected Budget_exceeded, got %a" Engine.pp_failure f);
  (* The interrupted slot is not poisoned: a fresh unbudgeted engine
     over the same grammar — and this engine's accessor reports the
     budget it carries. *)
  check "budget accessor" true (Engine.budget e <> None)

let test_unbudgeted_engine_unchanged () =
  let e = Engine.create (grammar_of "expr") in
  check "no budget" true (Engine.budget e = None);
  match Engine.run e Engine.tables with
  | Ok tbl ->
      let direct =
        let g = grammar_of "expr" in
        let a = Lr0.build g in
        Tables.build ~lookahead:(Lalr.lookahead (Lalr.compute a)) a
      in
      check "same states as direct" true
        (Lr0.n_states (Tables.automaton tbl)
        = Lr0.n_states (Tables.automaton direct))
  | Error f -> Alcotest.failf "unbudgeted failure: %a" Engine.pp_failure f

let test_failure_rendering () =
  let e =
    Engine.create ~budget:(Budget.create ~fuel:5 ()) (grammar_of "expr")
  in
  match Engine.run e Engine.lr0 with
  | Error (Engine.Budget_exceeded _ as f) ->
      let s = render (fun ppf -> Engine.pp_failure ppf f) in
      check "report names the resource" true
        (String.length s > 0
        && (let has needle =
              let n = String.length needle and m = String.length s in
              let rec go i = i + n <= m
                && (String.sub s i n = needle || go (i + 1)) in
              go 0
            in
            has "fuel" && has "lr0"))
  | _ -> Alcotest.fail "expected a budget failure"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "engine = direct on the whole suite" `Slow
            test_engine_vs_direct_suite;
        ] );
      qsuite "equivalence-props" [ prop_engine_vs_direct_random ];
      ( "lr1-oracle",
        [
          Alcotest.test_case "default = --with-lr1 on the whole suite" `Slow
            test_default_vs_lr1_suite;
          Alcotest.test_case "default = --with-lr1 on random grammars" `Quick
            test_default_vs_lr1_random;
        ] );
      ( "slots",
        [
          Alcotest.test_case "la forces relations exactly once" `Quick
            test_la_forces_relations_once;
          Alcotest.test_case "seeded analysis slot" `Quick test_seeded_analysis;
          Alcotest.test_case "budget trips with stage" `Quick
            test_budget_trips_named_stage;
          Alcotest.test_case "unbudgeted unchanged" `Quick
            test_unbudgeted_engine_unchanged;
          Alcotest.test_case "failure renders" `Quick test_failure_rendering;
          Alcotest.test_case "find_stage Not_found" `Quick
            test_find_stage_not_found;
          Alcotest.test_case "stage walls sum to total" `Quick
            test_stats_wall_sums;
        ] );
      ( "lint",
        [
          Alcotest.test_case "self-check shares the lint engine" `Quick
            test_lint_selfcheck_shares_engine;
        ] );
      ( "golden",
        [
          Alcotest.test_case "experiments t2" `Quick test_golden_experiments_t2;
          Alcotest.test_case "tables mini-c" `Quick
            (golden_tables "mini-c" "tables_mini_c.txt");
          Alcotest.test_case "tables expr" `Quick
            (golden_tables "expr" "tables_expr.txt");
          Alcotest.test_case "lint mini-c self-check" `Quick
            test_golden_lint_mini_c;
        ] );
    ]
