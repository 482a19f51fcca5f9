(* The query engine is a memoization layer, nothing more: every
   artifact it serves must be the one the underlying module computes
   directly, each pipeline stage must be computed at most once per
   engine, and the consumers that were ported onto it (experiments,
   the tables CLI, lint) must produce byte-identical output. *)

module Bitset = Lalr_sets.Bitset
module G = Lalr_grammar.Grammar
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Slr = Lalr_baselines.Slr
module Nqlalr = Lalr_baselines.Nqlalr
module Lr1 = Lalr_baselines.Lr1
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

(* The verdict with every count pass run: the exact sets are counted
   even where the SLR(1) pass alone decides. *)
let full_verdict a =
  let r = Lalr.relations a in
  let s = Slr.compute a in
  Classify.assemble
    ~lalr:(Lalr.of_stages r (Lalr.solve_follow r))
    ~slr:(Tables.count_conflicts ~lookahead:(Slr.lookahead s) a)
    ~nqlalr:(Nqlalr.compute r) r

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
  let direct = Classify.with_lr1 (full_verdict a) (Lr1.build g) in
  if direct <> Engine.classification ~with_lr1:true e then
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

(* The raw LALR(1) conflicts, read from the built table's conflict
   list (precedence-resolved ones included) rather than from the
   conflict count's clash class, which the engine decides by. *)
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
(* The SLR-first verdict                                              *)
(* ------------------------------------------------------------------ *)

(* The default verdict against the full one. Returns whether it took
   the short path (the [la] slot unforced), the verdict, and an error
   description, if any: the short path is for SLR(1)-clean grammars
   only, and [not_lr_k] is the reads-cycle diagnostic of the solved
   sets on a reduced grammar. SLR(1) and reduced exclude a reads
   cycle, so no short-path verdict claims [not_lr_k]. *)
let short_vs_full g =
  let e = Engine.create g in
  let v = Engine.classification e in
  let short = not (Engine.find_stage e "la").Engine.forced in
  let a = Engine.lr0 e in
  let full =
    if (Engine.find_stage e "lr1").Engine.forced then
      Classify.with_lr1 (full_verdict a) (Engine.lr1 e)
    else full_verdict a
  in
  let reads_cycle =
    List.exists
      (function Lalr.Reads_cycle _ -> true | Lalr.Includes_cycle _ -> false)
      (Lalr.diagnostics (Lalr.compute a))
    && Lalr_grammar.Analysis.is_reduced (Engine.analysis e)
  in
  let err =
    if v <> full then Some "default verdict differs from the full one"
    else if short <> v.slr1 then
      Some
        (if short then "skipped the LALR(1) sets despite an SLR(1) clash"
         else "forced the LALR(1) sets on an SLR(1)-clean grammar")
    else if v.not_lr_k <> reads_cycle then
      Some "not_lr_k differs from the reads-cycle diagnostic"
    else if short && v.not_lr_k then
      Some "an SLR(1) verdict claims not LR(k)"
    else None
  in
  (short, v, err)

(* Two SLR(1) grammars whose verdict needs more than the SLR(1) pass.
   In the first, NQLALR's state quotient merges goto(s_xx, cc) with
   goto(s_zz, cc), so [b] leaks into the reduction xx → x of the state
   {xx → x·, zz → x·b}: SLR(1) does not imply NQLALR(1). The second is
   not reduced ([u] derives no sentence) and its reads relation is
   cyclic, so "LALR(1) ⇒ no reads cycle" fails without reduction, and
   its verdict makes no not-LR(k) claim. *)
let slr_not_nqlalr_src =
  {|
%token a b c x z
%start s
%%
s : xx d a | zz d b ;
xx : x ;
zz : x b | z ;
d : cc ;
cc : | c ;
|}

let slr_reads_cycle_src =
  {|
%token a
%start s
%%
s : a | u ;
u : cc u ;
cc : ;
|}

let test_short_vs_full_fixtures () =
  List.iter
    (fun (name, src, (pin : Classify.verdict -> bool)) ->
      let g = Lalr_grammar.Reader.of_string ~name src in
      match short_vs_full g with
      | _, _, Some msg -> Alcotest.failf "%s: %s" name msg
      | short, v, None ->
          check (name ^ ": short path") true short;
          check (name ^ ": verdict") true (pin v))
    [
      ( "slr-not-nqlalr",
        slr_not_nqlalr_src,
        fun v ->
          v.lalr1 && (not v.nqlalr1) && v.nq_sr_conflicts = 1
          && v.nq_rr_conflicts = 0 && not v.not_lr_k );
      ( "slr-reads-cycle",
        slr_reads_cycle_src,
        fun v -> v.slr1 && not v.not_lr_k );
    ]

(* Randgen's start symbol is [n0]: the splice leaves each grammar's
   sentences as they were and makes it non-reduced ([zu] derives no
   sentence), with a reads cycle through the nullable [zc]. *)
let with_reads_cycle g =
  Lalr_grammar.Reader.of_string ~name:"spliced"
    (Lalr_grammar.Reader.to_string g ^ "\nn0 : zu ;\nzu : zc zu ;\nzc : ;\n")

let test_short_vs_full_random () =
  let short = ref 0 and full = ref 0 in
  List.iteri
    (fun i config ->
      let prop =
        QCheck.Test.make ~name:"SLR-first = full verdict (random grammars)"
          ~count:150 (Randgen.arbitrary ~config ()) (fun g ->
            List.for_all
              (fun g ->
                let s, _, err = short_vs_full g in
                incr (if s then short else full);
                match err with
                | None -> true
                | Some msg -> QCheck.Test.fail_report msg)
              [ g; with_reads_cycle g ])
      in
      QCheck.Test.check_exn ~rand:(Random.State.make [| 21 + i |]) prop)
    [
      Randgen.default;
      { Randgen.default with epsilon_weight = 0.35 };
      { n_terminals = 2; n_nonterminals = 3; max_rhs = 3;
        productions_per_nt = 1; epsilon_weight = 0.15 };
      { n_terminals = 6; n_nonterminals = 8; max_rhs = 5;
        productions_per_nt = 2; epsilon_weight = 0.1 };
    ];
  Printf.printf
    "random grammars and their spliced variants: %d took the short path, %d \
     the full one\n"
    !short !full;
  if !short = 0 then Alcotest.fail "no random grammar took the short path";
  if !full = 0 then Alcotest.fail "no random grammar took the full path"

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

(* The verdict counts conflicts without building a table. It forces
   its inputs and the [classification] slot, then the canonical machine
   and the [classification+lr1] slot that refines it, under [~with_lr1]
   or on the reduce/reduce-only grammars; and nothing else. The exact
   sets ([follow], [la]) are inputs only where SLR(1) has a clash.
   Every forced slot is computed once. *)
let test_classification_builds_no_tables () =
  let expected ~slr1 ~refined =
    [ "analysis"; "lr0"; "relations" ]
    @ (if slr1 then [] else [ "follow"; "la" ])
    @ [ "slr"; "nqlalr" ]
    @ (if refined then [ "lr1" ] else [])
    @ [ "classification" ]
    @ if refined then [ "classification+lr1" ] else []
  in
  List.iter
    (fun (entry : Registry.entry) ->
      List.iter
        (fun with_lr1 ->
          let e = Engine.create (Lazy.force entry.grammar) in
          ignore (Engine.classification ~with_lr1 e);
          let label =
            entry.name ^ if with_lr1 then " ~with_lr1:true" else ""
          in
          let forced =
            List.filter (fun (s : Engine.stage) -> s.forced) (Engine.stats e)
          in
          Alcotest.(check (list string))
            (label ^ ": forced slots")
            (expected ~slr1:entry.expected.slr1
               ~refined:
                 (with_lr1 || List.mem entry.name [ "lr1-not-lalr"; "lalr2" ]))
            (List.map (fun (s : Engine.stage) -> s.stage) forced);
          List.iter
            (fun (s : Engine.stage) ->
              check_int (label ^ ": " ^ s.stage ^ " misses") 1 s.misses)
            forced)
        [ false; true ])
    Registry.all

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

(* T5 builds canonical LR(1) for every language grammar: its state
   counts pin the collection size, which merged look-aheads alone
   cannot (a builder that failed to merge equal kernels would still
   merge to the same sets). *)
let test_golden_experiments_t5 () =
  Alcotest.(check string)
    "experiments t5 unchanged"
    (read_file "golden/experiments_t5.txt")
    (render E.t5)

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
      ( "slr-first",
        [
          Alcotest.test_case "short path = full verdict on the fixtures" `Quick
            test_short_vs_full_fixtures;
          Alcotest.test_case "short path = full verdict on random grammars"
            `Quick test_short_vs_full_random;
        ] );
      ( "slots",
        [
          Alcotest.test_case "la forces relations exactly once" `Quick
            test_la_forces_relations_once;
          Alcotest.test_case "classification builds no tables" `Quick
            test_classification_builds_no_tables;
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
          Alcotest.test_case "experiments t5" `Quick test_golden_experiments_t5;
          Alcotest.test_case "tables mini-c" `Quick
            (golden_tables "mini-c" "tables_mini_c.txt");
          Alcotest.test_case "tables expr" `Quick
            (golden_tables "expr" "tables_expr.txt");
          Alcotest.test_case "lint mini-c self-check" `Quick
            test_golden_lint_mini_c;
        ] );
    ]
