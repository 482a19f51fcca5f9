(* Tests for the extension features: compressed tables, panic-mode
   recovery, the Menhir-subset reader, conflict counterexamples, and
   the LALR(k) generalisation (paper §8). *)

module Bitset = Lalr_sets.Bitset
module Kstring = Lalr_sets.Kstring
module KSet = Kstring.Set
module G = Lalr_grammar.Grammar
module Reader = Lalr_grammar.Reader
module Menhir_reader = Lalr_grammar.Menhir_reader
module Firstk = Lalr_grammar.Firstk
module Analysis = Lalr_grammar.Analysis
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Lalr_k = Lalr_core.Lalr_k
module Lrk = Lalr_baselines.Lrk
module Lr1 = Lalr_baselines.Lr1
module Tables = Lalr_tables.Tables
module Compact = Lalr_tables.Compact
module Token = Lalr_runtime.Token
module Tree = Lalr_runtime.Tree
module Driver = Lalr_runtime.Driver
module Counterexample = Lalr_report.Counterexample
module Registry = Lalr_suite.Registry
module Randgen = Lalr_suite.Randgen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_strs = Alcotest.(check (list string))

let grammar_of name = Lazy.force (Registry.find name).grammar

let lalr_tables g =
  let a = Lr0.build g in
  let t = Lalr.compute a in
  Tables.build ~lookahead:(Lalr.lookahead t) a

(* ------------------------------------------------------------------ *)
(* Kstring                                                            *)
(* ------------------------------------------------------------------ *)

let test_kstring_ops () =
  check "truncate" true (Kstring.truncate 2 [ 1; 2; 3 ] = [ 1; 2 ]);
  check "truncate short" true (Kstring.truncate 5 [ 1 ] = [ 1 ]);
  check "concat fills" true (Kstring.concat 3 [ 1 ] [ 2; 3; 4 ] = [ 1; 2; 3 ]);
  check "concat full left" true (Kstring.concat 2 [ 1; 2 ] [ 9 ] = [ 1; 2 ]);
  check "concat short both" true (Kstring.concat 4 [ 1 ] [ 2 ] = [ 1; 2 ]);
  let a = KSet.of_list [ [ 1 ]; [ 2; 3 ] ] in
  let b = KSet.of_list [ []; [ 9 ] ] in
  let c = Kstring.concat_sets 2 a b in
  check "concat_sets" true
    (KSet.equal c (KSet.of_list [ [ 1 ]; [ 1; 9 ]; [ 2; 3 ] ]))

let test_kstring_unit () =
  let a = KSet.of_list [ [ 1; 2 ]; [ 3 ] ] in
  check "epsilon is right unit up to k" true
    (KSet.equal (Kstring.concat_sets 2 a Kstring.epsilon) a);
  check "epsilon is left unit" true
    (KSet.equal (Kstring.concat_sets 2 Kstring.epsilon a) a)

(* ------------------------------------------------------------------ *)
(* FIRSTk                                                             *)
(* ------------------------------------------------------------------ *)

let test_firstk_matches_first1 () =
  List.iter
    (fun name ->
      let g = grammar_of name in
      let a = Analysis.compute g in
      let fk = Firstk.compute ~k:1 g in
      for n = 0 to G.n_nonterminals g - 1 do
        let bits = Bitset.elements (Analysis.first a n) in
        let strings = KSet.elements (Firstk.nonterminal fk n) in
        let singletons =
          List.filter_map (function [ x ] -> Some x | _ -> None) strings
          |> List.sort compare
        in
        check (name ^ ": FIRST1 terminals agree") true (singletons = bits);
        check (name ^ ": ε iff nullable") true
          (List.mem [] strings = Analysis.nullable a n)
      done)
    [ "expr"; "expr-ll"; "json"; "right-nullable" ]

let test_firstk2_expr () =
  (* FIRST2(e) of the expr grammar: e ⇒* id..., ( ... — the 2-prefixes
     are {id plus, id star, id $-absent... } — concretely: id then one
     of {plus, star, rparen?no...}. Spot-check a few members. *)
  let g = grammar_of "expr" in
  let fk = Firstk.compute ~k:2 g in
  let e = Option.get (G.find_nonterminal g "e") in
  let term n = Option.get (G.find_terminal g n) in
  let set = Firstk.nonterminal fk e in
  check "id alone (sentence 'id')" true (KSet.mem [ term "id" ] set);
  check "id plus" true (KSet.mem [ term "id"; term "plus" ] set);
  check "id star" true (KSet.mem [ term "id"; term "star" ] set);
  check "lparen id" true (KSet.mem [ term "lparen"; term "id" ] set);
  check "no plus-first strings" true
    (KSet.for_all (fun s -> List.hd s <> term "plus") set)

let test_firstk0 () =
  let g = grammar_of "expr" in
  let fk = Firstk.compute ~k:0 g in
  for n = 0 to G.n_nonterminals g - 1 do
    check "FIRST0 = {ε}" true
      (KSet.equal (Firstk.nonterminal fk n) Kstring.epsilon)
  done

(* ------------------------------------------------------------------ *)
(* LALR(k)                                                            *)
(* ------------------------------------------------------------------ *)

let cross_validate_k g kk =
  let a = Lr0.build g in
  let t = Lalr_k.compute ~k:kk a in
  let merged = Lrk.merged_lookaheads (Lrk.build ~k:kk g) a in
  let ok = ref true in
  Hashtbl.iter
    (fun (state, prod) set ->
      if not (KSet.equal (Lalr_k.lookahead t ~state ~prod) set) then
        ok := false)
    merged;
  (* Same domain in both directions. *)
  let exact = Lalr.compute a in
  if Hashtbl.length merged <> Lalr.n_reductions exact then ok := false;
  (* The LR(1) and LR(k) instances of the one builder agree at k = 1. *)
  if kk = 1 && Lrk.n_states (Lrk.build ~k:1 g) <> Lr1.n_states (Lr1.build g)
  then ok := false;
  !ok

let test_lalrk_vs_canonical_suite () =
  List.iter
    (fun name ->
      let g = grammar_of name in
      check (name ^ " k=1") true (cross_validate_k g 1);
      check (name ^ " k=2") true (cross_validate_k g 2);
      check (name ^ " k=3") true (cross_validate_k g 3))
    [
      "expr"; "expr-ll"; "assign"; "lr0"; "lr1-not-lalr"; "dangling-else";
      "nqlalr-gap"; "lalr2"; "right-nullable";
    ]

let prop_lalrk_vs_canonical_random =
  QCheck.Test.make ~name:"LALR(k) fixpoint = canonical LR(k) merge (random)"
    ~count:40 (Randgen.arbitrary ()) (fun g ->
      cross_validate_k g 1 && cross_validate_k g 2)

let test_lalrk1_matches_bitset () =
  List.iter
    (fun name ->
      let g = grammar_of name in
      let a = Lr0.build g in
      let t1 = Lalr.compute a in
      let tk = Lalr_k.compute ~k:1 a in
      for r = 0 to Lalr.n_reductions t1 - 1 do
        let state, prod = Lalr.reduction t1 r in
        let bits = Bitset.elements (Lalr.la t1 r) in
        let strings =
          KSet.elements (Lalr_k.lookahead tk ~state ~prod)
          |> List.map (function [ x ] -> x | _ -> -1)
          |> List.sort compare
        in
        check (name ^ ": LA1 = LA") true (strings = bits)
      done;
      check (name ^ ": verdicts agree") true
        (Lalr_k.is_lalr_k tk = Lalr.is_lalr1 t1))
    [ "expr"; "expr-ll"; "assign"; "lr1-not-lalr"; "dangling-else"; "json" ]

let test_lalr2_witness () =
  let g = grammar_of "lalr2" in
  let a = Lr0.build g in
  check "not LALR(1)" false (Lalr_k.is_lalr_k (Lalr_k.compute ~k:1 a));
  check "LALR(2)" true (Lalr_k.is_lalr_k (Lalr_k.compute ~k:2 a));
  check "smallest k = 2" true (Lalr_k.smallest_k a = Some 2)

let test_smallest_k_bounds () =
  let a = Lr0.build (grammar_of "expr") in
  check "expr: k=1" true (Lalr_k.smallest_k a = Some 1);
  let amb = Lr0.build (grammar_of "ambiguous") in
  check "ambiguous: none" true (Lalr_k.smallest_k ~limit:2 amb = None);
  match Lalr_k.compute ~k:0 a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k=0 must be rejected"

let test_lalrk_la_shorter_strings_at_end () =
  (* Near the end of input, LALR(2) look-aheads are 1-string "[$]". *)
  let g = grammar_of "expr" in
  let a = Lr0.build g in
  let tk = Lalr_k.compute ~k:2 a in
  let exact = Lalr.compute a in
  let found = ref false in
  for r = 0 to Lalr.n_reductions exact - 1 do
    let state, prod = Lalr.reduction exact r in
    KSet.iter
      (fun s -> if s = [ 0 ] then found := true)
      (Lalr_k.lookahead tk ~state ~prod)
  done;
  check "some [$] string" true !found

(* ------------------------------------------------------------------ *)
(* Compact tables                                                     *)
(* ------------------------------------------------------------------ *)

let compact_agrees g =
  let tbl = lalr_tables g in
  let c = Compact.compress tbl in
  let a = Tables.automaton tbl in
  let n_term = G.n_terminals (Lr0.grammar a) in
  let ok = ref true in
  for state = 0 to Lr0.n_states a - 1 do
    for terminal = 0 to n_term - 1 do
      if Compact.action c ~state ~terminal <> Tables.action tbl ~state ~terminal
      then ok := false
    done
  done;
  !ok

let test_compact_exact_suite () =
  List.iter
    (fun (e : Registry.entry) ->
      check (e.name ^ ": compact = dense") true
        (compact_agrees (Lazy.force e.grammar)))
    Registry.all

let prop_compact_exact_random =
  QCheck.Test.make ~name:"compact tables = dense tables (random)" ~count:60
    (Randgen.arbitrary ()) compact_agrees

let test_compact_compresses () =
  let tbl = lalr_tables (grammar_of "mini-pascal") in
  let exact = Compact.stats (Compact.compress tbl) in
  let yacc = Compact.stats (Compact.compress ~mode:Compact.Yacc tbl) in
  check "fewer packed than dense" true
    (exact.Compact.packed_entries < exact.Compact.dense_entries);
  check "yacc mode packs much tighter" true
    (yacc.Compact.packed_entries * 4 < exact.Compact.packed_entries);
  check "meaningful yacc ratio" true (yacc.Compact.compression_ratio > 4.0);
  check "many default states" true (yacc.Compact.default_states > 50)

(* A minimal acceptance engine over an action oracle, to compare dense
   and compressed tables behaviourally. *)
let runs_to ~action ~goto_fn g tokens =
  let rec with_eof = function
    | [] -> [ Token.eof ]
    | tok :: _ when tok.Token.terminal = 0 -> [ tok ]
    | tok :: rest -> tok :: with_eof rest
  in
  let rec step stack pos input =
    match (stack, input) with
    | state :: _, tok :: rest -> (
        match action ~state ~terminal:tok.Token.terminal with
        | Tables.Shift q -> step (q :: stack) (pos + 1) rest
        | Tables.Reduce prod -> (
            let p = G.production g prod in
            let stack' =
              List.filteri (fun i _ -> i >= Array.length p.rhs) stack
            in
            match stack' with
            | state :: _ -> (
                match goto_fn ~state ~nonterminal:p.lhs with
                | Some q -> step (q :: stack') pos input
                | None -> `Reject pos)
            | [] -> `Reject pos)
        | Tables.Accept -> `Accept
        | Tables.Error -> `Reject pos)
    | _ -> `Reject pos
  in
  step [ 0 ] 0 (with_eof tokens)

let test_compact_yacc_behavioural () =
  (* Yacc-mode tables accept the same strings and report errors at the
     same token positions, on generated sentences and corruptions. *)
  let g = grammar_of "mini-pascal" in
  let tbl = lalr_tables g in
  let c = Compact.compress ~mode:Compact.Yacc tbl in
  let dense = runs_to ~action:(Tables.action tbl) ~goto_fn:(Tables.goto tbl) g in
  let packed = runs_to ~action:(Compact.action c) ~goto_fn:(Compact.goto c) g in
  let prep = Lalr_runtime.Sentence.prepare g in
  let rng = Random.State.make [| 23 |] in
  for _ = 1 to 100 do
    let sent = Lalr_runtime.Sentence.generate ~max_depth:9 prep rng in
    check "same verdict (valid)" true (dense sent = packed sent);
    (* Corrupt: drop a token somewhere. *)
    if List.length sent > 2 then begin
      let i = Random.State.int rng (List.length sent) in
      let corrupted = List.filteri (fun j _ -> j <> i) sent in
      check "same verdict (corrupted)" true (dense corrupted = packed corrupted)
    end
  done

let test_compact_goto_passthrough () =
  let g = grammar_of "expr" in
  let tbl = lalr_tables g in
  let c = Compact.compress tbl in
  let e = Option.get (G.find_nonterminal g "e") in
  check "goto" true
    (Compact.goto c ~state:0 ~nonterminal:e
    = Tables.goto tbl ~state:0 ~nonterminal:e)

(* ------------------------------------------------------------------ *)
(* Panic-mode recovery                                                *)
(* ------------------------------------------------------------------ *)

(* A statement-list grammar with yacc-style error productions. *)
let recovery_grammar =
  lazy
    (Reader.of_string ~name:"recovery"
       {|
%token semi id assign num error
%start prog
%%
prog : stmts ;
stmts : stmt | stmts stmt ;
stmt : id assign num semi
     | error semi ;
|})

let recovery_tables = lazy (lalr_tables (Lazy.force recovery_grammar))

let toks names = Token.of_names (Lazy.force recovery_grammar) names

let test_recovery_clean_parse () =
  let out =
    Driver.parse_with_recovery (Lazy.force recovery_tables)
      (toks [ "id"; "assign"; "num"; "semi" ])
  in
  check "tree" true (out.Driver.tree <> None);
  check_int "no errors" 0 (List.length out.Driver.errors)

let test_recovery_resumes () =
  (* First statement broken; second fine: one error, full tree. *)
  let out =
    Driver.parse_with_recovery (Lazy.force recovery_tables)
      (toks
         [ "id"; "assign"; "assign"; "semi"; "id"; "assign"; "num"; "semi" ])
  in
  check "tree recovered" true (out.Driver.tree <> None);
  check_int "one error" 1 (List.length out.Driver.errors);
  (match out.Driver.errors with
  | [ e ] -> check_int "error position" 2 e.Driver.position
  | _ -> Alcotest.fail "expected one error");
  (* The tree contains an <error> leaf. *)
  match out.Driver.tree with
  | Some tree ->
      let rec has_error = function
        | Tree.Leaf tok -> tok.Token.lexeme = "<error>"
        | Tree.Node { children; _ } -> List.exists has_error children
      in
      check "error leaf present" true (has_error tree)
  | None -> Alcotest.fail "no tree"

let test_recovery_multiple_errors () =
  let out =
    Driver.parse_with_recovery (Lazy.force recovery_tables)
      (toks
         [
           "id"; "assign"; "assign"; "semi";  (* error 1 *)
           "id"; "assign"; "num"; "semi";     (* ok *)
           "num"; "semi";                     (* error 2 *)
           "id"; "assign"; "num"; "semi";     (* ok *)
         ])
  in
  check "tree" true (out.Driver.tree <> None);
  check_int "two errors" 2 (List.length out.Driver.errors)

let test_recovery_abandons_at_eof () =
  (* Broken input with nothing to synchronise on. *)
  let out =
    Driver.parse_with_recovery (Lazy.force recovery_tables)
      (toks [ "id"; "assign"; "assign" ])
  in
  check "no tree" true (out.Driver.tree = None);
  check "errors reported" true (out.Driver.errors <> [])

let test_recovery_without_error_token () =
  (* Grammars without an error terminal degrade to plain parse. *)
  let tbl = lalr_tables (grammar_of "expr") in
  let g = grammar_of "expr" in
  let out =
    Driver.parse_with_recovery tbl (Token.of_names g [ "id"; "plus" ])
  in
  check "no tree" true (out.Driver.tree = None);
  check_int "one error" 1 (List.length out.Driver.errors);
  let ok = Driver.parse_with_recovery tbl (Token.of_names g [ "id" ]) in
  check "clean" true (ok.Driver.tree <> None && ok.Driver.errors = [])

let test_recovery_eof_only_input () =
  (* Empty input: the panic starts at position 0 and must abandon
     (eof is never discarded), not loop or crash. *)
  let out = Driver.parse_with_recovery (Lazy.force recovery_tables) [] in
  check "no tree" true (out.Driver.tree = None);
  check_int "one error" 1 (List.length out.Driver.errors);
  match out.Driver.errors with
  | [ e ] -> check_int "error at position 0" 0 e.Driver.position
  | _ -> Alcotest.fail "expected exactly one error"

let test_recovery_stack_runs_dry () =
  (* The error terminal exists but no state on the stack can shift it
     when the panic hits: recovery must give up cleanly. *)
  let g =
    Reader.of_string ~name:"dry"
      {|
%token a b error
%start s
%%
s : a e b ;
e : error ;
|}
  in
  let tbl = lalr_tables g in
  let out = Driver.parse_with_recovery tbl (Token.of_names g [ "b" ]) in
  check "no tree" true (out.Driver.tree = None);
  check_int "one error" 1 (List.length out.Driver.errors)

let test_recovery_same_position_double_panic () =
  (* SLR look-aheads are sloppy enough that after shifting [error] the
     offending token triggers a reduce whose goto target then errors on
     the very same token: a second panic at the same input position.
     The [last_panic] guard must force-discard the token instead of
     looping forever. *)
  let g =
    Reader.of_string ~name:"loop"
      {|
%token a b c error
%start s
%%
s : a x b | x c ;
x : error ;
|}
  in
  let a = Lr0.build g in
  let tbl =
    Tables.build
      ~lookahead:(Lalr_baselines.Slr.lookahead (Lalr_baselines.Slr.compute a))
      a
  in
  let out = Driver.parse_with_recovery tbl (Token.of_names g [ "b"; "c" ]) in
  (* Both panics happen at position 0; the forced discard of [b] then
     lets [error c] complete the parse. *)
  check "tree recovered" true (out.Driver.tree <> None);
  check "at least two errors" true (List.length out.Driver.errors >= 2);
  List.iter
    (fun e -> check_int "panic position" 0 e.Driver.position)
    out.Driver.errors

(* ------------------------------------------------------------------ *)
(* Menhir reader                                                      *)
(* ------------------------------------------------------------------ *)

let menhir_expr =
  {|
%token <int> INT
%token PLUS TIMES LPAREN RPAREN EOF
%left PLUS
%left TIMES
%start <unit> main
%%
main: e EOF {}
e: e PLUS e { $1 + $3 }
 | e TIMES e { $1 * $3 }
 | LPAREN e RPAREN { $2 }
 | INT { $1 }
|}

let test_menhir_basic () =
  let g = Menhir_reader.of_string ~name:"menhir-expr" menhir_expr in
  (* EOF stripped; INT/PLUS/TIMES/LPAREN/RPAREN + $ remain. *)
  check "EOF stripped" true (G.find_terminal g "EOF" = None);
  check_int "terminals" 6 (G.n_terminals g);
  check "start is main" true (G.nonterminal_name g g.start = "main");
  check "prec on TIMES" true
    (g.G.terminal_prec.(Option.get (G.find_terminal g "TIMES"))
    = Some (2, G.Left));
  (* Precedence must silence all conflicts on e-productions. *)
  let tbl = lalr_tables g in
  check "no unresolved conflicts" true (Tables.unresolved_conflicts tbl = [])

let test_menhir_features () =
  let g =
    Menhir_reader.of_string
      {|
%{ let helper x = x %}
%token A B
%left A
%type <unit> s
%start s
%%
s: x = A B { helper x }   (* binding and (* nested *) comment *)
 | /* c-style */ B %prec A {}
 | {}
;
t: A {}
|}
  in
  check_int "productions: 3 for s, 1 for t, 1 augmented" 5
    (G.n_productions g);
  let s = Option.get (G.find_nonterminal g "s") in
  check "ε production present" true
    (Array.exists
       (fun pid -> G.rhs_length g pid = 0)
       (G.productions_of g s))

let test_menhir_no_eof_strip_when_used_elsewhere () =
  let g =
    Menhir_reader.of_string
      {| %token A EOF %start s %% s: A EOF {} | EOF {} ; |}
  in
  (* EOF ends all start productions AND occurs only there — stripped
     from both. *)
  check "stripped" true (G.find_terminal g "EOF" = None);
  let g2 =
    Menhir_reader.of_string
      {| %token A EOF %start s %% s: t EOF {} ; t: A EOF A {} ; |}
  in
  (* EOF also occurs inside t: kept. *)
  check "kept" true (G.find_terminal g2 "EOF" <> None)

let test_menhir_rejects_unsupported () =
  let fails src =
    match Menhir_reader.of_string src with
    | exception Reader.Error _ -> ()
    | _ -> Alcotest.fail "expected rejection"
  in
  fails "%token A %% s: list(A) {} ;";
  fails "%token A %% s: A* {} ;";
  fails "%inline %token A %% s: A {} ;";
  fails "%token A %% s(X): A {} ;"

let test_menhir_analysis_pipeline () =
  (* A menhir-read grammar flows through the whole pipeline. *)
  let g = Menhir_reader.of_string ~name:"m" menhir_expr in
  let a = Lr0.build g in
  let t = Lalr.compute a in
  check "analysable" true (Lalr.n_reductions t > 0)

(* ------------------------------------------------------------------ *)
(* Counterexamples                                                    *)
(* ------------------------------------------------------------------ *)

let test_counterexample_dangling_else () =
  let tbl = lalr_tables (grammar_of "dangling-else") in
  match Tables.unresolved_conflicts tbl with
  | [ c ] ->
      let e = Counterexample.conflict tbl c in
      check_strs "prefix" [ "if"; "expr"; "then"; "other" ] e.Counterexample.prefix;
      Alcotest.(check string) "at" "else" e.Counterexample.at
  | _ -> Alcotest.fail "expected one conflict"

let test_min_yield () =
  let g = grammar_of "expr" in
  let nt n = Option.get (G.find_nonterminal g n) in
  check_strs "f" [ "id" ] (Counterexample.min_yield g (nt "f"));
  check_strs "e" [ "id" ] (Counterexample.min_yield g (nt "e"))

let test_shortest_prefix_properties () =
  let g = grammar_of "json" in
  let a = Lr0.build g in
  for s = 0 to Lr0.n_states a - 1 do
    let path = Counterexample.shortest_prefix a s in
    (* Walking the path from 0 must land on s. *)
    let reached =
      List.fold_left (fun st sym -> Lr0.goto_exn a st sym) 0 path
    in
    check_int "path reaches state" s reached
  done

let test_counterexample_prefix_is_parseable () =
  (* The prefix must be a viable parse prefix: feeding it to the parser
     errors only at or after its end (never before). *)
  let g = grammar_of "mini-c" in
  let tbl = lalr_tables g in
  List.iter
    (fun c ->
      let e = Counterexample.conflict tbl c in
      let toks = Token.of_names g (e.Counterexample.prefix @ [ e.Counterexample.at ]) in
      match Driver.parse tbl toks with
      | Ok _ -> ()
      | Error err ->
          check "fails only past the prefix" true
            (err.Driver.position >= List.length e.Counterexample.prefix))
    (Tables.unresolved_conflicts tbl)

(* ------------------------------------------------------------------ *)
(* Code generation                                                    *)
(* ------------------------------------------------------------------ *)

module Codegen = Lalr_report.Codegen

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_codegen_source_shape () =
  let src = Codegen.emit_to_string (lalr_tables (grammar_of "expr")) in
  List.iter
    (fun needle -> check ("contains " ^ needle) true (contains src needle))
    [
      "let parse tokens"; "let actions"; "let goto"; "let productions";
      "type tree"; "let accepts"; "let id = 5"; "Generated by lalrgen";
    ]

let test_codegen_conflicts_commented () =
  let src = Codegen.emit_to_string (lalr_tables (grammar_of "dangling-else")) in
  check "conflict noted in header" true (contains src "shift/reduce")

(* The definitive test: compile the generated module with the system
   compiler and run assertions against it. Skipped cleanly when no
   OCaml compiler is on PATH. *)
let test_codegen_compiles_and_runs () =
  if Sys.command "command -v ocamlfind >/dev/null 2>&1" <> 0 then ()
  else begin
    let dir = Filename.temp_file "lalrgen" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    let write name contents =
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          Out_channel.output_string oc contents)
    in
    write "genparser.ml"
      (Codegen.emit_to_string (lalr_tables (grammar_of "expr")));
    write "main.ml"
      {|let () =
  assert (Genparser.accepts [ Genparser.id; Genparser.plus; Genparser.id ]);
  assert (Genparser.accepts
            [ Genparser.lparen; Genparser.id; Genparser.rparen;
              Genparser.star; Genparser.id ]);
  assert (not (Genparser.accepts [ Genparser.id; Genparser.id ]));
  assert (not (Genparser.accepts []));
  (match Genparser.parse [ Genparser.id; Genparser.star ] with
   | Error e -> assert (e.Genparser.position = 2)
   | Ok _ -> assert false);
  print_string "ok"
|};
    let cmd =
      Printf.sprintf
        "cd %s && ocamlfind ocamlopt genparser.ml main.ml -o t >/dev/null 2>&1 && ./t"
        (Filename.quote dir)
    in
    let ic = Unix.open_process_in cmd in
    let out = In_channel.input_all ic in
    ignore (Unix.close_process_in ic);
    Alcotest.(check string) "generated parser runs" "ok" out
  end

(* Behavioural agreement without a compiler: re-execute the emitted
   packed encoding directly against the dense tables. *)
let test_codegen_encoding_agrees () =
  let g = grammar_of "json" in
  let tbl = lalr_tables g in
  let a = Tables.automaton tbl in
  let n_term = G.n_terminals g in
  (* Reproduce the encoder's packing rules. *)
  let encode = function
    | Tables.Error -> 0
    | Tables.Accept -> max_int
    | Tables.Shift q -> q + 1
    | Tables.Reduce p -> -(p + 1)
  in
  for s = 0 to Lr0.n_states a - 1 do
    for t = 0 to n_term - 1 do
      let e = encode (Tables.action tbl ~state:s ~terminal:t) in
      let decoded =
        if e = 0 then Tables.Error
        else if e = max_int then Tables.Accept
        else if e > 0 then Tables.Shift (e - 1)
        else Tables.Reduce (-e - 1)
      in
      check "roundtrip" true (decoded = Tables.action tbl ~state:s ~terminal:t)
    done
  done

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "extensions"
    [
      ( "kstring",
        [
          Alcotest.test_case "operations" `Quick test_kstring_ops;
          Alcotest.test_case "epsilon unit" `Quick test_kstring_unit;
        ] );
      ( "firstk",
        [
          Alcotest.test_case "k=1 matches Analysis.first" `Quick
            test_firstk_matches_first1;
          Alcotest.test_case "FIRST2 of expr" `Quick test_firstk2_expr;
          Alcotest.test_case "k=0" `Quick test_firstk0;
        ] );
      ( "lalr-k",
        [
          Alcotest.test_case "= canonical LR(k) merge on suite" `Slow
            test_lalrk_vs_canonical_suite;
          Alcotest.test_case "k=1 = bitset implementation" `Quick
            test_lalrk1_matches_bitset;
          Alcotest.test_case "LALR(2) witness" `Quick test_lalr2_witness;
          Alcotest.test_case "smallest_k" `Quick test_smallest_k_bounds;
          Alcotest.test_case "short strings at end of input" `Quick
            test_lalrk_la_shorter_strings_at_end;
        ] );
      qsuite "lalr-k-props" [ prop_lalrk_vs_canonical_random ];
      ( "compact",
        [
          Alcotest.test_case "exact on the whole suite" `Slow
            test_compact_exact_suite;
          Alcotest.test_case "actually compresses" `Quick
            test_compact_compresses;
          Alcotest.test_case "yacc mode behavioural equivalence" `Quick
            test_compact_yacc_behavioural;
          Alcotest.test_case "goto passthrough" `Quick
            test_compact_goto_passthrough;
        ] );
      qsuite "compact-props" [ prop_compact_exact_random ];
      ( "recovery",
        [
          Alcotest.test_case "clean parse" `Quick test_recovery_clean_parse;
          Alcotest.test_case "resumes after error" `Quick
            test_recovery_resumes;
          Alcotest.test_case "multiple errors" `Quick
            test_recovery_multiple_errors;
          Alcotest.test_case "abandons at eof" `Quick
            test_recovery_abandons_at_eof;
          Alcotest.test_case "no error token ⇒ plain parse" `Quick
            test_recovery_without_error_token;
          Alcotest.test_case "eof-only input abandons" `Quick
            test_recovery_eof_only_input;
          Alcotest.test_case "stack runs dry" `Quick
            test_recovery_stack_runs_dry;
          Alcotest.test_case "same-position double panic" `Quick
            test_recovery_same_position_double_panic;
        ] );
      ( "menhir-reader",
        [
          Alcotest.test_case "expression grammar" `Quick test_menhir_basic;
          Alcotest.test_case "headers, bindings, comments, ε" `Quick
            test_menhir_features;
          Alcotest.test_case "EOF stripping rules" `Quick
            test_menhir_no_eof_strip_when_used_elsewhere;
          Alcotest.test_case "rejects unsupported syntax" `Quick
            test_menhir_rejects_unsupported;
          Alcotest.test_case "feeds the pipeline" `Quick
            test_menhir_analysis_pipeline;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "source shape" `Quick test_codegen_source_shape;
          Alcotest.test_case "conflicts in header" `Quick
            test_codegen_conflicts_commented;
          Alcotest.test_case "packed encoding roundtrip" `Quick
            test_codegen_encoding_agrees;
          Alcotest.test_case "compiles and runs (needs ocamlfind)" `Slow
            test_codegen_compiles_and_runs;
        ] );
      ( "counterexample",
        [
          Alcotest.test_case "dangling else" `Quick
            test_counterexample_dangling_else;
          Alcotest.test_case "min yields" `Quick test_min_yield;
          Alcotest.test_case "shortest prefixes reach their states" `Quick
            test_shortest_prefix_properties;
          Alcotest.test_case "prefixes are viable" `Quick
            test_counterexample_prefix_is_parseable;
        ] );
    ]
