(* Tests for lib/lint: pass findings on crafted grammars, golden JSON
   output, provenance on conflict diagnostics, the self-check oracle,
   and property tests tying the lint passes to the independent
   implementations they mirror (Classify, Transform.reduce). *)

module G = Lalr_grammar.Grammar
module Reader = Lalr_grammar.Reader
module Transform = Lalr_grammar.Transform
module Classify = Lalr_tables.Classify
module Registry = Lalr_suite.Registry
module Randgen = Lalr_suite.Randgen
module D = Lalr_lint.Diagnostic
module Engine = Lalr_lint.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let suite_grammar name = Lazy.force (Registry.find name).Registry.grammar

let codes_of diags =
  List.sort_uniq String.compare (List.map (fun d -> d.D.code) diags)

let with_code code diags = List.filter (fun d -> d.D.code = code) diags

let symbols_with_code code diags =
  with_code code diags
  |> List.filter_map (fun d ->
         match List.assoc_opt "symbol" d.D.data with
         | Some (D.String s) -> Some s
         | _ -> None)
  |> List.sort_uniq String.compare

let run ?config g = Engine.run ?config g

(* The classifier's verdict, through the query engine. *)
let verdict_of g = Lalr_engine.Engine.(classification (create g))

(* ------------------------------------------------------------------ *)
(* Findings on crafted grammars                                       *)
(* ------------------------------------------------------------------ *)

(* One grammar exhibiting most of the declaration-level findings:
   unproductive u (L001), unreachable w (L002), cyclic c (L003), an
   unused token (L006), a dead precedence level (L007), a duplicate
   production (L008) and a reduce/reduce conflict (L102). *)
let messy_text =
  {|%token a b x pt unused
%left pt
%%
s : a c | a b | a b | u ;
c : c | x ;
u : u a ;
w : x ;
|}

let messy () = Reader.of_string ~name:"messy" messy_text

let test_messy_codes () =
  let diags = run (messy ()) in
  check_str "codes" "L001 L002 L003 L006 L007 L008 L102"
    (String.concat " " (codes_of diags));
  check_str "unproductive" "u" (String.concat " " (symbols_with_code "L001" diags));
  check_str "unreachable" "w" (String.concat " " (symbols_with_code "L002" diags));
  check_str "cyclic" "c" (String.concat " " (symbols_with_code "L003" diags));
  check "has errors" true (Engine.has_errors diags)

let test_messy_locations () =
  (* Reader line numbers must survive into the diagnostics. *)
  let diags = run (messy ()) in
  let line_of code =
    match (List.hd (with_code code diags)).D.loc with
    | Some l -> l.G.line
    | None -> -1
  in
  check_int "L001 at u's rule" 6 (line_of "L001");
  check_int "L002 at w's rule" 7 (line_of "L002");
  check_int "L003 at c's rule" 5 (line_of "L003");
  check_int "L006 at %token" 1 (line_of "L006");
  check_int "L007 at %left" 2 (line_of "L007")

let test_clean_grammar () =
  let diags = run (suite_grammar "expr") in
  check_int "no findings" 0 (List.length diags);
  check "no errors" false (Engine.has_errors diags)

let test_reads_cycle_error () =
  let diags = run (suite_grammar "not-lr-k") in
  check "L004 present" true (List.mem "L004" (codes_of diags));
  check "L004 is an error" true
    (List.for_all (fun d -> d.D.severity = D.Error) (with_code "L004" diags))

let test_includes_cycle_warning () =
  let diags = run (suite_grammar "dangling-else") in
  check_str "codes" "L005 L101" (String.concat " " (codes_of diags));
  check "exit clean: warnings only" false (Engine.has_errors diags)

let test_nqlalr_gap () =
  let diags = run (suite_grammar "nqlalr-gap") in
  check "L201 present" true (List.mem "L201" (codes_of diags));
  check "no real conflicts" false
    (List.exists (fun c -> List.mem c (codes_of diags)) [ "L101"; "L102" ])

(* ------------------------------------------------------------------ *)
(* Conflict provenance                                                *)
(* ------------------------------------------------------------------ *)

let provenance_nonempty (d : D.t) =
  match List.assoc_opt "provenance" d.D.data with
  | Some (D.List (_ :: _)) -> true
  | _ -> false

let test_conflicts_carry_provenance () =
  (* Every LALR conflict diagnostic must carry at least one static
     lookback → includes* → reads* → DR witness chain. *)
  List.iter
    (fun name ->
      let diags = run (suite_grammar name) in
      let conflicts = with_code "L101" diags @ with_code "L102" diags in
      check (name ^ " has conflicts") true (conflicts <> []);
      List.iter
        (fun d ->
          check (name ^ " provenance") true (provenance_nonempty d);
          check (name ^ " sample input") true
            (List.exists
               (fun l -> String.length l >= 12 && String.sub l 0 12 = "sample input")
               d.D.detail))
        conflicts)
    [ "dangling-else"; "ambiguous"; "lr1-not-lalr" ]

(* ------------------------------------------------------------------ *)
(* Engine config: severity, select, ignore                            *)
(* ------------------------------------------------------------------ *)

let test_severity_filter () =
  let g = messy () in
  let at sev = { Engine.default_config with min_severity = sev } in
  let all = run ~config:(at D.Info) g in
  let warnings = run ~config:(at D.Warning) g in
  let errors = run ~config:(at D.Error) g in
  check "warning filter monotone" true
    (List.length warnings <= List.length all);
  check "error filter keeps only errors" true
    (List.for_all (fun d -> d.D.severity = D.Error) errors);
  check_str "error codes" "L001 L003" (String.concat " " (codes_of errors))

let test_select_ignore () =
  let g = messy () in
  let sel =
    run ~config:{ Engine.default_config with select = [ "L008" ] } g
  in
  check_str "select L008" "L008" (String.concat " " (codes_of sel));
  let ign =
    run ~config:{ Engine.default_config with ignored = [ "L001"; "L003" ] } g
  in
  check "ignored codes dropped" false
    (List.exists (fun c -> List.mem c (codes_of ign)) [ "L001"; "L003" ]);
  check "ignoring all errors clears the gate" false (Engine.has_errors ign)

let test_known_codes () =
  (* The vocabulary the CLI validates --select/--ignore against. *)
  List.iter
    (fun c -> check (c ^ " known") true (List.mem c Engine.known_codes))
    [ "L001"; "L002"; "L003"; "L004"; "L005"; "L006"; "L007"; "L008";
      "L101"; "L102"; "L201"; "L900"; "L901" ]

(* ------------------------------------------------------------------ *)
(* Self-check oracle                                                  *)
(* ------------------------------------------------------------------ *)

let test_selfcheck_clean () =
  let config = { Engine.default_config with self_check = true } in
  List.iter
    (fun name ->
      let diags = run ~config (suite_grammar name) in
      check (name ^ " L900") true (List.mem "L900" (codes_of diags));
      check (name ^ " no L901") false (List.mem "L901" (codes_of diags)))
    [ "expr"; "lalr2"; "nqlalr-gap"; "dangling-else"; "json" ]

(* ------------------------------------------------------------------ *)
(* Golden JSON                                                        *)
(* ------------------------------------------------------------------ *)

let test_golden_json_clean () =
  check_str "empty report" {|{"diagnostics":[],"errors":0,"warnings":0,"infos":0}|}
    (D.list_to_json_string (run (suite_grammar "expr")))

let golden_dangling_else =
  {|{"diagnostics":[
  {"code":"L005","severity":"warning","file":"<dangling-else>","line":5,"message":"cycle in the 'includes' relation with nonempty Read sets: the grammar is ambiguous (paper §6)","detail":["cycle: (6, stmt) → (8, stmt)"],"cycle":[{"state":6,"symbol":"stmt"},{"state":8,"symbol":"stmt"}]},
  {"code":"L101","severity":"warning","file":"<dangling-else>","line":5,"message":"shift/reduce conflict in state 7 on 'else' (shift vs reduce stmt → if expr then stmt)","detail":["sample input: if expr then other . else   (state 7)","'else' ∈ LA(7, stmt → if expr then stmt):","  lookback  (7, stmt → if expr then stmt) ⇝ (8, stmt)","  includes  (8, stmt) → (6, stmt)","  DR        'else' ∈ DR(6, stmt) — shiftable in state 7"],"state":7,"terminal":"else","provenance":[{"lookback":{"state":8,"symbol":"stmt"},"includes_path":[{"state":6,"symbol":"stmt"}],"reads_path":[],"dr":{"state":6,"symbol":"stmt"}}]}
],"errors":0,"warnings":2,"infos":0}|}

let test_golden_json_dangling_else () =
  check_str "dangling-else report" golden_dangling_else
    (D.list_to_json_string (run (suite_grammar "dangling-else")))

let test_json_escaping () =
  let b = Buffer.create 32 in
  D.json_to_buffer b
    (D.Obj [ ("s", D.String "a\"b\\c\n\t\x01") ]);
  check_str "escaped" {|{"s":"a\"b\\c\n\t\u0001"}|} (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Properties on random grammars                                      *)
(* ------------------------------------------------------------------ *)

(* L004 fires exactly when the independent classifier finds a reads
   cycle (both sides reduce the grammar first; Randgen output is
   already reduced). *)
let prop_reads_cycle_matches_classify =
  QCheck.Test.make ~name:"L004 ⇔ Classify.not_lr_k (random grammars)"
    ~count:150 (Randgen.arbitrary ()) (fun g ->
      let verdict = verdict_of g in
      let has_l004 = List.mem "L004" (codes_of (run g)) in
      has_l004 = verdict.Classify.not_lr_k)

(* Plant one reachable-unproductive and one productive-unreachable
   nonterminal in a random reduced grammar; L001/L002 must flag exactly
   those, and they must coincide with what Transform.reduce removes. *)
let prop_reduction_matches_transform =
  QCheck.Test.make ~name:"L001/L002 ⇔ Transform.reduce (random grammars)"
    ~count:100 (Randgen.arbitrary ()) (fun g ->
      let text =
        Reader.to_string g
        ^ "\nn0 : lintU ;\nlintU : lintU t0 ;\nlintW : t0 ;\n"
      in
      let g' = Reader.of_string ~name:"mutated" text in
      let diags = run g' in
      let unproductive = symbols_with_code "L001" diags in
      let unreachable = symbols_with_code "L002" diags in
      let reduced = Transform.reduce g' in
      let removed =
        List.init (G.n_nonterminals g' - 1) (( + ) 1)
        |> List.filter_map (fun n ->
               let name = G.nonterminal_name g' n in
               if G.find_nonterminal reduced name = None then Some name
               else None)
        |> List.sort_uniq String.compare
      in
      unproductive = [ "lintU" ]
      && unreachable = [ "lintW" ]
      && removed = List.sort_uniq String.compare (unproductive @ unreachable))

(* The lint gate agrees with the conflict counts of the classifier:
   error-free ⇒ no reads cycle; L101/L102 ⇔ unresolved LALR
   conflicts. *)
let prop_conflict_codes_match_classify =
  QCheck.Test.make ~name:"L101/L102 ⇔ LALR conflict counts (random grammars)"
    ~count:150 (Randgen.arbitrary ()) (fun g ->
      let verdict = verdict_of g in
      let diags = run g in
      let has c = List.mem c (codes_of diags) in
      has "L101" = (verdict.Classify.lalr_sr_conflicts > 0)
      && has "L102" = (verdict.Classify.lalr_rr_conflicts > 0))

(* The self-check oracle never trips on random grammars: the three
   LALR implementations agree and LA ⊆ SLR FOLLOW. *)
let prop_selfcheck_clean =
  QCheck.Test.make ~name:"self-check oracle clean (random grammars)" ~count:60
    (Randgen.arbitrary ()) (fun g ->
      let config = { Engine.default_config with self_check = true } in
      let diags = run ~config g in
      List.mem "L900" (codes_of diags)
      && not (List.mem "L901" (codes_of diags)))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lint"
    [
      ( "passes",
        [
          Alcotest.test_case "messy codes" `Quick test_messy_codes;
          Alcotest.test_case "messy locations" `Quick test_messy_locations;
          Alcotest.test_case "clean grammar" `Quick test_clean_grammar;
          Alcotest.test_case "reads cycle error" `Quick test_reads_cycle_error;
          Alcotest.test_case "includes cycle warning" `Quick
            test_includes_cycle_warning;
          Alcotest.test_case "nqlalr gap" `Quick test_nqlalr_gap;
        ] );
      ( "provenance",
        [
          Alcotest.test_case "conflicts carry traces" `Quick
            test_conflicts_carry_provenance;
        ] );
      ( "engine",
        [
          Alcotest.test_case "severity filter" `Quick test_severity_filter;
          Alcotest.test_case "select/ignore" `Quick test_select_ignore;
          Alcotest.test_case "known codes" `Quick test_known_codes;
        ] );
      ( "selfcheck",
        [ Alcotest.test_case "clean on suite" `Quick test_selfcheck_clean ] );
      ( "golden",
        [
          Alcotest.test_case "clean json" `Quick test_golden_json_clean;
          Alcotest.test_case "dangling-else json" `Quick
            test_golden_json_dangling_else;
          Alcotest.test_case "string escaping" `Quick test_json_escaping;
        ] );
      ( "properties",
        qsuite
          [
            prop_reads_cycle_matches_classify;
            prop_reduction_matches_transform;
            prop_conflict_codes_match_classify;
            prop_selfcheck_clean;
          ] );
    ]
