(* Tests for lib/automaton: Item numbering and the LR(0) construction. *)

module G = Lalr_grammar.Grammar
module Symbol = Lalr_grammar.Symbol
module Item = Lalr_automaton.Item
module Lr0 = Lalr_automaton.Lr0
module Randgen = Lalr_suite.Randgen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let expr_grammar () =
  G.make ~name:"expr"
    ~terminals:[ "+"; "*"; "("; ")"; "id" ]
    ~start:"E"
    ~rules:
      [
        ("E", [ "E"; "+"; "T" ], None);
        ("E", [ "T" ], None);
        ("T", [ "T"; "*"; "F" ], None);
        ("T", [ "F" ], None);
        ("F", [ "("; "E"; ")" ], None);
        ("F", [ "id" ], None);
      ]
    ()

(* ------------------------------------------------------------------ *)
(* Item table                                                         *)
(* ------------------------------------------------------------------ *)

let test_item_roundtrip () =
  let g = expr_grammar () in
  let tbl = Item.make g in
  check_int "n_items = |G|" (G.symbols_count g) (Item.n_items tbl);
  for p = 0 to G.n_productions g - 1 do
    for d = 0 to G.rhs_length g p do
      let item = Item.encode tbl ~prod:p ~dot:d in
      check_int "prod" p (Item.prod tbl item);
      check_int "dot" d (Item.dot tbl item)
    done
  done

let test_item_navigation () =
  let g = expr_grammar () in
  let tbl = Item.make g in
  (* production 1: E → E + T *)
  let i0 = Item.initial tbl ~prod:1 in
  check "next is E" true
    (Item.next_symbol tbl i0 = Some (Symbol.N (Option.get (G.find_nonterminal g "E"))));
  let i1 = Item.advance tbl i0 in
  check "next is +" true
    (Item.next_symbol tbl i1 = Some (Symbol.T (Option.get (G.find_terminal g "+"))));
  let i3 = Item.advance tbl (Item.advance tbl i1) in
  check "final" true (Item.is_final tbl i3);
  check "no next" true (Item.next_symbol tbl i3 = None);
  Alcotest.check_raises "advance final" (Invalid_argument "Item.advance: final item")
    (fun () -> ignore (Item.advance tbl i3));
  Alcotest.check_raises "encode bad dot" (Invalid_argument "Item.encode: dot out of range")
    (fun () -> ignore (Item.encode tbl ~prod:1 ~dot:4))

(* ------------------------------------------------------------------ *)
(* LR(0) automaton                                                    *)
(* ------------------------------------------------------------------ *)

let test_expr_states () =
  (* The dragon-book expr grammar has 12 LR(0) states; with our S' → E $
     convention the accept-dead state adds one: 13. *)
  let a = Lr0.build (expr_grammar ()) in
  check_int "states" 13 (Lr0.n_states a)

let test_initial_state () =
  let g = expr_grammar () in
  let a = Lr0.build g in
  let s0 = Lr0.state a 0 in
  check "state 0 has no accessing symbol" true (s0.accessing = None);
  check_int "kernel is the initial item" 1 (Array.length s0.kernel);
  (* closure of state 0: S'→.E$, E→.E+T, E→.T, T→.T*F, T→.F, F→.(E), F→.id *)
  check_int "closure size" 7 (Array.length s0.items)

let test_goto_consistency () =
  let g = expr_grammar () in
  let a = Lr0.build g in
  for s = 0 to Lr0.n_states a - 1 do
    List.iter
      (fun (sym, target) ->
        check "goto matches transitions" true (Lr0.goto a s sym = Some target);
        check "accessing symbol" true
          ((Lr0.state a target).accessing = Some sym))
      (Lr0.transitions a s)
  done

let test_goto_exn () =
  let g = expr_grammar () in
  let a = Lr0.build g in
  match Lr0.goto_exn a 0 (Symbol.T 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "state 0 must not shift $"

let test_traverse () =
  let g = expr_grammar () in
  let a = Lr0.build g in
  (* Walking E + T from state 0 must land in a state reducing E → E + T. *)
  let e = Symbol.N (Option.get (G.find_nonterminal g "E")) in
  let plus = Symbol.T (Option.get (G.find_terminal g "+")) in
  let t = Symbol.N (Option.get (G.find_nonterminal g "T")) in
  let q = Lr0.traverse a 0 [| e; plus; t |] ~from:0 in
  check "reduces E → E + T" true (List.mem 1 (Lr0.reductions a q));
  check_int "traverse from:1 skips E" q
    (Lr0.traverse a (Lr0.goto_exn a 0 e) [| e; plus; t |] ~from:1)

let test_reductions_exclude_augmented () =
  let g = expr_grammar () in
  let a = Lr0.build g in
  for s = 0 to Lr0.n_states a - 1 do
    check "no production-0 reduction" false (List.mem 0 (Lr0.reductions a s))
  done

let test_accept_state () =
  let g = expr_grammar () in
  let a = Lr0.build g in
  let acc = Lr0.accept_state a in
  check "accept shifts $" true (Lr0.goto a acc Symbol.eof <> None)

let test_nt_transitions_dense () =
  let g = expr_grammar () in
  let a = Lr0.build g in
  let n = Lr0.n_nt_transitions a in
  check "some transitions" true (n > 0);
  for x = 0 to n - 1 do
    let p, nt = Lr0.nt_transition a x in
    check_int "index roundtrip" x (Lr0.find_nt_transition a p nt);
    check_int "target consistent"
      (Lr0.goto_exn a p (Symbol.N nt))
      (Lr0.nt_transition_target a x)
  done;
  (* State 0 has transitions on E, T, F. *)
  let count0 =
    List.length
      (List.filter
         (fun (sym, _) -> Symbol.is_nonterminal sym)
         (Lr0.transitions a 0))
  in
  check_int "state 0 nonterminal transitions" 3 count0

let test_lr0_detection () =
  check "expr not LR(0)" false (Lr0.n_conflict_free_lr0 (Lr0.build (expr_grammar ())));
  let g0 =
    G.make ~terminals:[ "a"; "b"; ";" ] ~start:"S"
      ~rules:[ ("S", [ "X"; ";" ], None); ("X", [ "a"; "X" ], None); ("X", [ "b" ], None) ]
      ()
  in
  check "list grammar is LR(0)" true (Lr0.n_conflict_free_lr0 (Lr0.build g0))

let test_size_report () =
  let a = Lr0.build (expr_grammar ()) in
  let states, kernel_items, transitions = Lr0.size_report a in
  check_int "states" (Lr0.n_states a) states;
  check "kernel items >= states - 1 + 1" true (kernel_items >= states);
  check "transitions positive" true (transitions > 0)

(* Structural invariants on random grammars. *)
let arb = Randgen.arbitrary ()

let prop_kernels_sorted_unique =
  QCheck.Test.make ~name:"kernels and closures sorted, kernel ⊆ closure"
    ~count:100 arb (fun g ->
      let a = Lr0.build g in
      let sorted arr =
        let ok = ref true in
        for i = 1 to Array.length arr - 1 do
          if arr.(i - 1) >= arr.(i) then ok := false
        done;
        !ok
      in
      let all_ok = ref true in
      for s = 0 to Lr0.n_states a - 1 do
        let st = Lr0.state a s in
        if not (sorted st.kernel && sorted st.items) then all_ok := false;
        let closure_list = Array.to_list st.items in
        if not (Array.for_all (fun i -> List.mem i closure_list) st.kernel)
        then all_ok := false
      done;
      !all_ok)

let prop_all_states_reachable =
  QCheck.Test.make ~name:"every state reachable from 0 via transitions"
    ~count:100 arb (fun g ->
      let a = Lr0.build g in
      let n = Lr0.n_states a in
      let seen = Array.make n false in
      let rec visit s =
        if not seen.(s) then begin
          seen.(s) <- true;
          List.iter (fun (_, t) -> visit t) (Lr0.transitions a s)
        end
      in
      visit 0;
      Array.for_all (fun b -> b) seen)

let prop_kernel_dots_positive =
  QCheck.Test.make
    ~name:"kernel items have dot > 0 (except the initial item)" ~count:100
    arb (fun g ->
      let a = Lr0.build g in
      let tbl = Lr0.items a in
      let ok = ref true in
      for s = 1 to Lr0.n_states a - 1 do
        Array.iter
          (fun item -> if Item.dot tbl item = 0 then ok := false)
          (Lr0.state a s).kernel
      done;
      !ok)

let prop_deterministic =
  QCheck.Test.make ~name:"construction is deterministic" ~count:50 arb
    (fun g ->
      let a1 = Lr0.build g and a2 = Lr0.build g in
      Lr0.n_states a1 = Lr0.n_states a2
      && List.for_all
           (fun s ->
             (Lr0.state a1 s).kernel = (Lr0.state a2 s).kernel
             && Lr0.transitions a1 s = Lr0.transitions a2 s)
           (List.init (Lr0.n_states a1) Fun.id))

(* The construction's every decision, pinned: each state's kernel and
   closure in order, both transition row families and the reductions,
   digested, on every registry grammar and on Scaled at 1x and 5x.
   Goldens, cached automata and the relations' numbering all rest on
   them; the literals predate the int-item builder. *)
let automaton_digest a =
  let b = Buffer.create 4096 in
  let ints tag arr =
    Buffer.add_char b tag;
    Array.iter (fun i -> Printf.bprintf b "%d," i) arr
  in
  for s = 0 to Lr0.n_states a - 1 do
    let st = Lr0.state a s in
    ints 'k' st.Lr0.kernel;
    ints 'c' st.Lr0.items;
    Buffer.add_char b 't';
    Lr0.iter_t_transitions a s (fun t q -> Printf.bprintf b "%d>%d," t q);
    Buffer.add_char b 'n';
    Lr0.iter_n_transitions a s (fun n q -> Printf.bprintf b "%d>%d," n q);
    ints 'r' (Array.of_list (Lr0.reductions a s))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_digests =
  [
    ("lr0", "ec021ef07e10476e77643bc2b1e7ef66");
    ("expr", "db8e6dcde90b49174ef2b725d26960a8");
    ("expr-prec", "566bddac22601168a5392297d254f064");
    ("expr-ll", "67c8bfd02cfc4dfa61c11bc4e4b059b5");
    ("assign", "1cfeb22b1a02e114605a5bd10de0a949");
    ("lr1-not-lalr", "d9527bb366412ad78426962856b62d7d");
    ("not-lr-k", "81c4d5d854913d9e56b448ea965e43dc");
    ("dangling-else", "dcb83cd7bb37e27a144418e0fbe36870");
    ("ambiguous", "b47932dec8af73c5629f0606dd01cb92");
    ("nqlalr-gap", "176c75003df576b05fab5b2cf1cdcf10");
    ("lalr2", "9db969bd9ca7a78305aa90e018824c7c");
    ("right-nullable", "726830651d1d260d1a672f11fe68c524");
    ("json", "9f38ece75d721ad38c2ac70318fd7940");
    ("mini-pascal", "068913de1fba6f2772542569941d2278");
    ("mini-c", "32d68af5cadf228d7853c50045bf3137");
    ("modula2", "90878ddecf2209fcade9743e0c95e30b");
    ("ada-subset", "eb9ee8b5d55b1fa69e11333f516b47c4");
    ("algol60", "8b9a7518be1d057225da06a1a0d4c72a");
    ("scaled-1x", "02279535a3a8a66596d1c94670d92971");
    ("scaled-5x", "d6b72ddb0b95d8673ec1050944e0b224");
  ]

let test_pinned_digests () =
  let got =
    List.map
      (fun (e : Lalr_suite.Registry.entry) ->
        (e.name, Lr0.build (Lazy.force e.grammar)))
      Lalr_suite.Registry.all
    @ List.map
        (fun (name, units) ->
          (name, Lr0.build (Lalr_suite.Scaled.grammar ~units ())))
        [ ("scaled-1x", 18); ("scaled-5x", 90) ]
  in
  Alcotest.(check (list string))
    "pinned grammars" (List.map fst pinned_digests) (List.map fst got);
  List.iter2
    (fun (name, want) (_, a) ->
      Alcotest.(check string) name want (automaton_digest a))
    pinned_digests got

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "automaton"
    [
      ( "item",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick
            test_item_roundtrip;
          Alcotest.test_case "navigation" `Quick test_item_navigation;
        ] );
      ( "lr0",
        [
          Alcotest.test_case "expr state count" `Quick test_expr_states;
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "goto/transitions consistency" `Quick
            test_goto_consistency;
          Alcotest.test_case "goto_exn on missing" `Quick test_goto_exn;
          Alcotest.test_case "traverse" `Quick test_traverse;
          Alcotest.test_case "production 0 never reduces" `Quick
            test_reductions_exclude_augmented;
          Alcotest.test_case "accept state" `Quick test_accept_state;
          Alcotest.test_case "nonterminal transition numbering" `Quick
            test_nt_transitions_dense;
          Alcotest.test_case "LR(0) detection" `Quick test_lr0_detection;
          Alcotest.test_case "size report" `Quick test_size_report;
          Alcotest.test_case "pinned automaton digests" `Quick
            test_pinned_digests;
        ] );
      qsuite "lr0-props"
        [
          prop_kernels_sorted_unique;
          prop_all_states_reachable;
          prop_kernel_dots_positive;
          prop_deterministic;
        ];
    ]
