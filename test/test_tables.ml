(* Tests for lib/tables: table construction, conflict detection and
   resolution, default reductions, classification. *)

module Bitset = Lalr_sets.Bitset
module G = Lalr_grammar.Grammar
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Slr = Lalr_baselines.Slr
module Nqlalr = Lalr_baselines.Nqlalr
module Tables = Lalr_tables.Tables
module Classify = Lalr_tables.Classify
module Engine = Lalr_engine.Engine
module Registry = Lalr_suite.Registry
module Randgen = Lalr_suite.Randgen
module Scaled = Lalr_suite.Scaled
module Symbol = Lalr_grammar.Symbol

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let grammar_of name = Lazy.force (Registry.find name).grammar

let lalr_tables g =
  let a = Lr0.build g in
  let t = Lalr.compute a in
  Tables.build ~lookahead:(Lalr.lookahead t) a

(* ------------------------------------------------------------------ *)
(* Basic table shape                                                  *)
(* ------------------------------------------------------------------ *)

let test_expr_table () =
  let g = grammar_of "expr" in
  let tbl = lalr_tables g in
  let a = Tables.automaton tbl in
  check "no conflicts" true (Tables.conflicts tbl = []);
  (* Accept: state goto(0, e) on $. *)
  let acc = Lr0.accept_state a in
  check "accept action" true (Tables.action tbl ~state:acc ~terminal:0 = Tables.Accept);
  (* State 0 shifts ( and id, errors on + and $. *)
  let term name = Option.get (G.find_terminal g name) in
  (match Tables.action tbl ~state:0 ~terminal:(term "lparen") with
  | Tables.Shift _ -> ()
  | _ -> Alcotest.fail "state 0 must shift (");
  check "error on + in state 0" true
    (Tables.action tbl ~state:0 ~terminal:(term "plus") = Tables.Error);
  check "error on $ in state 0" true
    (Tables.action tbl ~state:0 ~terminal:0 = Tables.Error);
  (* goto mirrors the automaton. *)
  let e = Option.get (G.find_nonterminal g "e") in
  check "goto" true
    (Tables.goto tbl ~state:0 ~nonterminal:e = Lr0.goto a 0 (Lalr_grammar.Symbol.N e))

let test_every_state_has_some_action () =
  let tbl = lalr_tables (grammar_of "json") in
  let a = Tables.automaton tbl in
  let g = Lr0.grammar a in
  for s = 0 to Lr0.n_states a - 1 do
    let any = ref false in
    for t = 0 to G.n_terminals g - 1 do
      if Tables.action tbl ~state:s ~terminal:t <> Tables.Error then any := true
    done;
    (* The dead state after shifting $ has no actions; every other
       state must. *)
    let is_dead =
      Lr0.transitions a s = [] && Lr0.reductions a s = []
    in
    check "live state has actions" true (!any || is_dead)
  done

(* ------------------------------------------------------------------ *)
(* Conflicts and resolution                                           *)
(* ------------------------------------------------------------------ *)

let test_dangling_else_defaults_to_shift () =
  let tbl = lalr_tables (grammar_of "dangling-else") in
  match Tables.unresolved_conflicts tbl with
  | [ c ] -> (
      check_int "s/r count" 1 (Tables.n_shift_reduce tbl);
      check_int "r/r count" 0 (Tables.n_reduce_reduce tbl);
      match (c.kind, c.chosen) with
      | Tables.Shift_reduce _, Tables.Shift _ -> ()
      | _ -> Alcotest.fail "dangling else must default to shift")
  | l -> Alcotest.failf "expected exactly one conflict, got %d" (List.length l)

let test_precedence_resolution () =
  let g = grammar_of "expr-prec" in
  let tbl = lalr_tables g in
  check "no unresolved" true (Tables.unresolved_conflicts tbl = []);
  check "but conflicts were seen" true (Tables.conflicts tbl <> []);
  check "all resolved by precedence" true
    (List.for_all
       (fun (c : Tables.conflict) -> c.resolution = Tables.By_precedence)
       (Tables.conflicts tbl))

(* e PLUS e . PLUS → %left ⇒ reduce; e POW e . POW → %right ⇒ shift;
   e CMP e . CMP → %nonassoc ⇒ error. *)
let directions_grammar () =
  G.make
    ~prec:[ (G.Nonassoc, [ "cmp" ]); (G.Left, [ "plus" ]); (G.Right, [ "pow" ]) ]
    ~terminals:[ "plus"; "pow"; "cmp"; "id" ]
    ~start:"e"
    ~rules:
      [
        ("e", [ "e"; "plus"; "e" ], None);
        ("e", [ "e"; "pow"; "e" ], None);
        ("e", [ "e"; "cmp"; "e" ], None);
        ("e", [ "id" ], None);
      ]
    ()

let test_precedence_directions () =
  let g = directions_grammar () in
  let tbl = lalr_tables g in
  check "no unresolved" true (Tables.unresolved_conflicts tbl = []);
  let term name = Option.get (G.find_terminal g name) in
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun (c : Tables.conflict) ->
      match c.kind with
      | Tables.Shift_reduce { reduce; _ } ->
          Hashtbl.replace kinds (c.terminal, reduce) c.chosen
      | Tables.Reduce_reduce _ -> Alcotest.fail "no r/r expected")
    (Tables.conflicts tbl);
  (* plus-after-plus reduces (left assoc). *)
  check "left ⇒ reduce" true
    (Hashtbl.find kinds (term "plus", 1) = Tables.Reduce 1);
  (* pow-after-pow shifts (right assoc). *)
  (match Hashtbl.find kinds (term "pow", 2) with
  | Tables.Shift _ -> ()
  | _ -> Alcotest.fail "right ⇒ shift");
  (* cmp-after-cmp errors (nonassoc). *)
  check "nonassoc ⇒ error" true
    (Hashtbl.find kinds (term "cmp", 3) = Tables.Error)

let test_mixed_precedence_levels () =
  (* Higher production precedence beats lower terminal precedence and
     vice versa: id * id . + reduces, id + id . * shifts. *)
  let g = grammar_of "expr-prec" in
  let tbl = lalr_tables g in
  let sr_choice terminal_name reduce_rhs_op =
    let term = Option.get (G.find_terminal g terminal_name) in
    List.find_map
      (fun (c : Tables.conflict) ->
        match c.kind with
        | Tables.Shift_reduce { reduce; _ }
          when c.terminal = term
               && Array.exists
                    (fun s -> G.symbol_name g s = reduce_rhs_op)
                    (G.production g reduce).rhs ->
            Some c.chosen
        | _ -> None)
      (Tables.conflicts tbl)
  in
  (match sr_choice "plus" "star" with
  | Some (Tables.Reduce _) -> ()
  | _ -> Alcotest.fail "star-production . plus must reduce");
  match sr_choice "star" "plus" with
  | Some (Tables.Shift _) -> ()
  | _ -> Alcotest.fail "plus-production . star must shift"

let test_rr_keeps_earlier_production () =
  let tbl = lalr_tables (grammar_of "lr1-not-lalr") in
  check_int "two r/r" 2 (Tables.n_reduce_reduce tbl);
  List.iter
    (fun (c : Tables.conflict) ->
      match (c.kind, c.chosen) with
      | Tables.Reduce_reduce { kept; dropped }, Tables.Reduce chosen ->
          check "kept < dropped" true (kept < dropped);
          check_int "chose kept" kept chosen
      | _ -> Alcotest.fail "expected r/r")
    (Tables.unresolved_conflicts tbl)

let test_slr_tables_conflict_where_lalr_clean () =
  let g = grammar_of "assign" in
  let a = Lr0.build g in
  let lalr_tbl = Tables.build ~lookahead:(Lalr.lookahead (Lalr.compute a)) a in
  let slr_tbl = Tables.build ~lookahead:(Slr.lookahead (Slr.compute a)) a in
  check_int "LALR clean" 0 (List.length (Tables.unresolved_conflicts lalr_tbl));
  check_int "SLR has 1 s/r" 1 (Tables.n_shift_reduce slr_tbl)

(* ------------------------------------------------------------------ *)
(* Default reductions                                                 *)
(* ------------------------------------------------------------------ *)

let test_default_reductions () =
  let g = grammar_of "expr" in
  let tbl = lalr_tables g in
  let a = Tables.automaton tbl in
  let defaults = Tables.default_reductions tbl in
  check_int "one entry per state" (Lr0.n_states a) (Array.length defaults);
  Array.iteri
    (fun s d ->
      if d >= 0 then begin
        (* The state's every non-error action is Reduce d. *)
        for t = 0 to G.n_terminals g - 1 do
          match Tables.action tbl ~state:s ~terminal:t with
          | Tables.Error | Tables.Reduce _ -> ()
          | _ -> Alcotest.fail "default-reduction state with shift/accept"
        done;
        check "d is a reduction of s" true (List.mem d (Lr0.reductions a s))
      end)
    defaults;
  (* expr grammar: the pure-reduce states (e.g. after id) have defaults. *)
  check "some defaults exist" true (Array.exists (fun d -> d >= 0) defaults)

(* ------------------------------------------------------------------ *)
(* Sparse lookups                                                     *)
(* ------------------------------------------------------------------ *)

(* The dense |states| × |terminals| ACTION matrix and conflict list the
   packed rows replaced, rebuilt as the reference: every shift, accept
   on $, then each state's reductions in order, with yacc's
   resolution. *)
let dense_reference ~lookahead a =
  let g = Lr0.grammar a in
  let n_term = G.n_terminals g in
  let actions = Array.make (Lr0.n_states a * n_term) Tables.Error in
  let conflicts = ref [] in
  let conflict state terminal kind chosen resolution =
    conflicts := { Tables.state; terminal; kind; chosen; resolution } :: !conflicts
  in
  for s = 0 to Lr0.n_states a - 1 do
    List.iter
      (function
        | Symbol.T t, q -> actions.((s * n_term) + t) <- Tables.Shift q
        | Symbol.N _, _ -> ())
      (Lr0.transitions a s)
  done;
  actions.(Lr0.accept_state a * n_term) <- Tables.Accept;
  for s = 0 to Lr0.n_states a - 1 do
    List.iter
      (fun pid ->
        Bitset.iter
          (fun t ->
            let cell = (s * n_term) + t in
            match actions.(cell) with
            | Tables.Error -> actions.(cell) <- Tables.Reduce pid
            | Tables.Shift q ->
                let chosen, resolution =
                  match
                    (g.G.terminal_prec.(t), (G.production g pid).prec)
                  with
                  | Some (tl, _), Some (pl, _) when pl > tl ->
                      (Tables.Reduce pid, Tables.By_precedence)
                  | Some (tl, _), Some (pl, _) when pl < tl ->
                      (Tables.Shift q, Tables.By_precedence)
                  | Some (_, G.Left), Some _ ->
                      (Tables.Reduce pid, Tables.By_precedence)
                  | Some (_, G.Right), Some _ ->
                      (Tables.Shift q, Tables.By_precedence)
                  | Some (_, G.Nonassoc), Some _ ->
                      (Tables.Error, Tables.By_precedence)
                  | _ -> (Tables.Shift q, Tables.By_default)
                in
                actions.(cell) <- chosen;
                conflict s t
                  (Tables.Shift_reduce { shift_to = q; reduce = pid })
                  chosen resolution
            | Tables.Reduce other ->
                let kept = min other pid and dropped = max other pid in
                actions.(cell) <- Tables.Reduce kept;
                conflict s t
                  (Tables.Reduce_reduce { kept; dropped })
                  (Tables.Reduce kept) Tables.By_default
            | Tables.Accept ->
                conflict s t
                  (Tables.Shift_reduce { shift_to = s; reduce = pid })
                  Tables.Accept Tables.By_default)
          (lookahead ~state:s ~prod:pid))
      (Lr0.reductions a s)
  done;
  (actions, List.rev !conflicts)

(* Every (state, symbol) point lookup — hits and misses — agrees with
   the transition lists; nonterminal transitions are numbered row-major
   in (state, nonterminal); every ACTION cell, row and conflict of the
   LALR, SLR and NQLALR tables agrees with the dense reference; and
   each method's conflict count agrees with its table, and its clash
   class with the raw overlap scan. Returns the first disagreement. *)
let sparse_lookup_mismatch g =
  let a = Lr0.build g in
  let n_t = G.n_terminals g and n_n = G.n_nonterminals g in
  let fail = ref None in
  let expect what ok = if (not ok) && !fail = None then fail := Some what in
  let next_x = ref 0 in
  for s = 0 to Lr0.n_states a - 1 do
    let edges = Lr0.transitions a s in
    for t = 0 to n_t - 1 do
      expect "goto on a terminal"
        (Lr0.goto a s (Symbol.T t) = List.assoc_opt (Symbol.T t) edges)
    done;
    for m = 0 to n_n - 1 do
      let target = List.assoc_opt (Symbol.N m) edges in
      expect "goto on a nonterminal" (Lr0.goto a s (Symbol.N m) = target);
      match (target, Lr0.find_nt_transition a s m) with
      | Some q, x ->
          expect "row-major transition number" (x = !next_x);
          expect "nt_transition" (Lr0.nt_transition a x = (s, m));
          expect "nt_transition_target" (Lr0.nt_transition_target a x = q);
          incr next_x
      | None, _ -> expect "find_nt_transition hit on a missing edge" false
      | exception Not_found ->
          expect "find_nt_transition miss on an edge" (target = None)
    done
  done;
  expect "n_nt_transitions" (Lr0.n_nt_transitions a = !next_x);
  let methods =
    [
      ("lalr", Lalr.lookahead (Lalr.compute a));
      ("slr", Slr.lookahead (Slr.compute a));
      ("nqlalr", Nqlalr.lookahead (Nqlalr.compute (Lalr.relations a)));
    ]
  in
  List.iter
    (fun (name, lookahead) ->
      let tbl = Tables.build ~lookahead a in
      let dense, conflicts = dense_reference ~lookahead a in
      for s = 0 to Lr0.n_states a - 1 do
        for t = 0 to n_t - 1 do
          expect (name ^ ": action")
            (Tables.action tbl ~state:s ~terminal:t = dense.((s * n_t) + t))
        done;
        let row = ref [] in
        Tables.iter_actions tbl s (fun t act -> row := (t, act) :: !row);
        let dense_row =
          List.filter
            (fun (_, act) -> act <> Tables.Error)
            (List.init n_t (fun t -> (t, dense.((s * n_t) + t))))
        in
        expect (name ^ ": iter_actions row") (List.rev !row = dense_row)
      done;
      expect (name ^ ": conflicts") (Tables.conflicts tbl = conflicts);
      let counts = Tables.count_conflicts ~lookahead a in
      expect (name ^ ": count_conflicts")
        ((counts.n_sr, counts.n_rr)
        = (Tables.n_shift_reduce tbl, Tables.n_reduce_reduce tbl));
      expect (name ^ ": clash class")
        (counts.clash
        =
        match Lr0.overlaps a ~lookahead with
        | false, false -> Tables.Clean
        | true, _ -> Tables.Some_shift_reduce
        | false, true -> Tables.Reduce_reduce_only))
    methods;
  !fail

(* Nonassoc turns state 9's cell on EQ (e → e EQ e against shift EQ)
   into Error; f → e EQ e then takes that cell with no conflict. *)
let nonassoc_grammar () =
  Lalr_grammar.Reader.of_string
    "%token ID EQ %nonassoc EQ %start s %% s : e | f EQ ID ; e : e EQ e | \
     ID ; f : e EQ e ;"

let test_sparse_lookups_suite () =
  List.iter
    (fun (name, g) ->
      match sparse_lookup_mismatch g with
      | None -> ()
      | Some what -> Alcotest.failf "%s: %s" name what)
    (("directions", directions_grammar ())
    :: ("nonassoc", nonassoc_grammar ())
    :: List.map
         (fun (e : Registry.entry) -> (e.name, Lazy.force e.grammar))
         Registry.all)

let prop_sparse_lookups =
  QCheck.Test.make ~name:"sparse goto/action = dense reference (random)"
    ~count:150 (Randgen.arbitrary ()) (fun g ->
      match sparse_lookup_mismatch g with
      | None -> true
      | Some what -> QCheck.Test.fail_report what)

(* A Randgen grammar re-read with 1–5 %left/%right/%nonassoc lines over
   distinct terminals, one or two a line, so that precedence settles
   some clashes and nonassoc leaves Error cells. *)
let with_random_precedence rand g =
  let names =
    List.init (G.n_terminals g - 1) (fun t -> G.terminal_name g (t + 1))
    |> List.map (fun t -> (Random.State.bits rand, t))
    |> List.sort compare |> List.map snd
  in
  let assoc () =
    [| "%left"; "%right"; "%nonassoc" |].(Random.State.int rand 3)
  in
  let rec lines k = function
    | t :: rest when k > 0 ->
        let line, rest =
          match rest with
          | u :: rest when Random.State.bool rand -> ([ t; u ], rest)
          | _ -> ([ t ], rest)
        in
        String.concat " " (assoc () :: line) :: lines (k - 1) rest
    | _ -> []
  in
  let text = Lalr_grammar.Reader.to_string g in
  let tokens = String.index text '\n' + 1 in
  Lalr_grammar.Reader.of_string ~name:"randprec"
    (String.sub text 0 tokens
    ^ String.concat "\n" (lines (1 + Random.State.int rand 5) names)
    ^ "\n"
    ^ String.sub text tokens (String.length text - tokens))

(* The verdict's booleans ignore precedence and its counts honour it;
   only declarations can make them disagree, so the random grammars
   above must reach a precedence-settled clash and a nonassoc Error
   cell. The fixed seed keeps the counts reproducible. *)
let test_sparse_lookups_precedence () =
  let settled = ref 0 and nonassoc = ref 0 in
  let prop =
    QCheck.Test.make
      ~name:"sparse action = dense reference (random, precedence)"
      ~count:300
      (QCheck.make ~print:Lalr_grammar.Reader.to_string (fun rand ->
           with_random_precedence rand (Randgen.generate Randgen.default rand)))
      (fun g ->
        let conflicts = Tables.conflicts (lalr_tables g) in
        let has f = List.exists f conflicts in
        if has (fun c -> c.Tables.resolution = Tables.By_precedence) then
          incr settled;
        if has (fun c -> c.Tables.chosen = Tables.Error) then incr nonassoc;
        match sparse_lookup_mismatch g with
        | None -> true
        | Some what -> QCheck.Test.fail_report what)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 17 |]) prop;
  Printf.printf
    "random grammars with precedence: %d with a clash settled by \
     precedence, %d with a nonassoc Error cell\n"
    !settled !nonassoc;
  if !settled = 0 then Alcotest.fail "no clash was settled by precedence";
  if !nonassoc = 0 then Alcotest.fail "no nonassoc Error cell"

(* Words a call allocates in the major heap: directly (large arrays) or
   by promotion of what it keeps from the minor heap. *)
let major_words f =
  let _, _, m0 = Gc.counters () in
  let v = f () in
  let _, _, m1 = Gc.counters () in
  (v, m1 -. m0)

(* Memory grows with the automaton's transitions and the tables'
   non-error cells, not with |states| × |symbols|: on the 10× Scaled
   grammar (7557 states, 1804 terminals, 1981 nonterminals) a dense
   goto or ACTION array alone is 13.6M+ words, some 500 per transition
   and 190 per cell. The construction's garbage grows with the closure
   items: consing each item, bucket entry and reduction onto a list
   took 72 minor words an item. *)
let test_scaled_allocation_bound () =
  let g = Scaled.grammar () in
  let e = Engine.create g in
  ignore (Engine.analysis e);
  let minor0 = Gc.minor_words () in
  let a, lr0_words = major_words (fun () -> Engine.lr0 e) in
  let lr0_minor = Gc.minor_words () -. minor0 in
  let states, _, transitions = Lr0.size_report a in
  check_int "10x states" 7557 states;
  if lr0_words > 64. *. float_of_int transitions then
    Alcotest.failf "Lr0.build: %.0f major words > 64 x %d transitions"
      lr0_words transitions;
  let items = ref 0 in
  for s = 0 to states - 1 do
    items := !items + Array.length (Lr0.state a s).items
  done;
  if lr0_minor > 24. *. float_of_int !items then
    Alcotest.failf "Lr0.build: %.0f minor words > 24 x %d closure items"
      lr0_minor !items;
  ignore (Engine.lalr e);
  ignore (Engine.slr e);
  ignore (Engine.nqlalr e);
  List.iter
    (fun (name, build) ->
      let tbl, words = major_words (fun () -> build e) in
      let cells = ref 0 in
      for s = 0 to states - 1 do
        Tables.iter_actions tbl s (fun _ _ -> incr cells)
      done;
      if words > 32. *. float_of_int !cells then
        Alcotest.failf "%s: %.0f major words > 32 x %d non-error cells" name
          words !cells)
    [
      ("tables", Engine.tables);
      ("slr_tables", Engine.slr_tables);
      ("nqlalr_tables", Engine.nqlalr_tables);
    ];
  let v = Engine.classification e in
  check "LALR(1)" true v.Classify.lalr1;
  check_int "no LALR conflicts" 0
    (v.Classify.lalr_sr_conflicts + v.Classify.lalr_rr_conflicts)

(* Reading is linear in the text: the 10× Scaled grammar is 109 kB
   with 1981 nonterminals, and numbering each new nonterminal by the
   length of, and appending it to, a list took 64 minor words a byte;
   peeking each character as an option took 10.5. *)
let test_reader_allocation_bound () =
  let text = Lalr_grammar.Reader.to_string (Scaled.grammar ()) in
  let w0 = Gc.minor_words () in
  ignore (Lalr_grammar.Reader.of_string text);
  let words = Gc.minor_words () -. w0 in
  let bytes = String.length text in
  if words > 8. *. float_of_int bytes then
    Alcotest.failf "Reader.of_string: %.0f minor words > 8 x %d bytes" words
      bytes

(* ------------------------------------------------------------------ *)
(* Classification                                                     *)
(* ------------------------------------------------------------------ *)

let test_classify_matches_registry () =
  List.iter
    (fun (e : Registry.entry) ->
      let g = Lazy.force e.grammar in
      let v =
        Engine.classification
          ~with_lr1:(G.n_productions g <= 60)
          (Engine.create g)
      in
      let exp = e.expected in
      check (e.name ^ ": lr0") true (v.lr0 = exp.lr0);
      check (e.name ^ ": slr1") true (v.slr1 = exp.slr1);
      check (e.name ^ ": lalr1") true (v.lalr1 = exp.lalr1);
      if G.n_productions g <= 60 then
        check (e.name ^ ": lr1") true (v.lr1 = exp.lr1);
      check_int (e.name ^ ": lalr s/r") exp.lalr_sr v.lalr_sr_conflicts;
      check_int (e.name ^ ": lalr r/r") exp.lalr_rr v.lalr_rr_conflicts;
      check (e.name ^ ": not-lr-k") true (v.not_lr_k = exp.not_lr_k);
      (* Hierarchy sanity: lr0 ⇒ slr1 ⇒ lalr1 ⇒ lr1. *)
      check (e.name ^ ": hierarchy") true
        ((not v.lr0 || v.slr1) && (not v.slr1 || v.lalr1)
        && ((not v.lalr1) || v.lr1 || G.n_productions g > 60)))
    Registry.all

let () =
  Alcotest.run "tables"
    [
      ( "shape",
        [
          Alcotest.test_case "expr table" `Quick test_expr_table;
          Alcotest.test_case "live states have actions" `Quick
            test_every_state_has_some_action;
        ] );
      ( "conflicts",
        [
          Alcotest.test_case "dangling else ⇒ shift" `Quick
            test_dangling_else_defaults_to_shift;
          Alcotest.test_case "precedence resolves everything" `Quick
            test_precedence_resolution;
          Alcotest.test_case "left/right/nonassoc directions" `Quick
            test_precedence_directions;
          Alcotest.test_case "mixed levels" `Quick test_mixed_precedence_levels;
          Alcotest.test_case "r/r keeps earlier production" `Quick
            test_rr_keeps_earlier_production;
          Alcotest.test_case "SLR conflicts where LALR clean" `Quick
            test_slr_tables_conflict_where_lalr_clean;
        ] );
      ( "compaction",
        [ Alcotest.test_case "default reductions" `Quick test_default_reductions ] );
      ( "sparse",
        [
          Alcotest.test_case "goto/action = dense reference (suite)" `Quick
            test_sparse_lookups_suite;
          QCheck_alcotest.to_alcotest prop_sparse_lookups;
          Alcotest.test_case "action = dense reference (random, precedence)"
            `Quick test_sparse_lookups_precedence;
          Alcotest.test_case "10x Scaled allocation bound" `Quick
            test_scaled_allocation_bound;
          Alcotest.test_case "10x Scaled reader allocation bound" `Quick
            test_reader_allocation_bound;
        ] );
      ( "classify",
        [
          Alcotest.test_case "whole registry" `Slow
            test_classify_matches_registry;
        ] );
    ]
