(* Tests for lib/core: the DeRemer–Pennello computation itself. *)

module Bitset = Lalr_sets.Bitset
module G = Lalr_grammar.Grammar
module Analysis = Lalr_grammar.Analysis
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Boxed = Lalr_baselines.Boxed
module Registry = Lalr_suite.Registry
module Classics = Lalr_suite.Classics
module Randgen = Lalr_suite.Randgen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_strs = Alcotest.(check (list string))

let la_names t ~state ~prod =
  let g = Lalr.grammar t in
  Bitset.elements (Lalr.lookahead t ~state ~prod)
  |> List.map (G.terminal_name g)
  |> List.sort compare

let compute_of name = Lalr.compute (Lr0.build (Lazy.force (Registry.find name).grammar))

(* ------------------------------------------------------------------ *)
(* The dragon 4.34 grammar, end to end by hand                        *)
(* ------------------------------------------------------------------ *)

let assign_t = lazy (compute_of "assign")

(* In the state with kernel { s → l . eq r ; r → l . }, the exact
   look-ahead of r → l is {$}: SLR's FOLLOW(r) = {$, eq} would conflict
   with the shift on eq, LALR(1) does not. The dragon book works this
   exact example. *)
let test_assign_conflict_state () =
  let t = Lazy.force assign_t in
  let a = Lalr.automaton t in
  let g = Lalr.grammar t in
  let l = Option.get (G.find_nonterminal g "l") in
  let q = Lr0.goto_exn a 0 (Lalr_grammar.Symbol.N l) in
  (* q is the critical state: it shifts eq and reduces r → l. *)
  let r_to_l =
    List.find
      (fun pid -> G.nonterminal_name g (G.production g pid).lhs = "r")
      (Lr0.reductions a q)
  in
  check_strs "LA(q, r → l) = {$}" [ "$" ] (la_names t ~state:q ~prod:r_to_l);
  check "lalr1" true (Lalr.is_lalr1 t)

let test_assign_all_las () =
  (* Every reduction's look-ahead, cross-checked against the dragon
     book's LALR table for this grammar. *)
  let t = Lazy.force assign_t in
  let g = Lalr.grammar t in
  let by_prod =
    List.init (Lalr.n_reductions t) (fun r ->
        let state, prod = Lalr.reduction t r in
        let p = G.production g prod in
        ( G.nonterminal_name g p.lhs,
          Array.to_list (Array.map (G.symbol_name g) p.rhs),
          la_names t ~state ~prod ))
  in
  (* l → id occurs in two states; the one reached after eq sees only $. *)
  let las_of lhs rhs =
    List.filter_map
      (fun (l, r, la) -> if l = lhs && r = rhs then Some la else None)
      by_prod
    |> List.sort_uniq compare
  in
  check "l → id has both {$} and {$,eq} instances" true
    (las_of "l" [ "id" ] = [ [ "$" ]; [ "$"; "eq" ] ]
    || las_of "l" [ "id" ] = [ [ "$"; "eq" ] ]);
  check "s → r on $" true (las_of "s" [ "r" ] = [ [ "$" ] ]);
  check "s → l eq r on $" true (las_of "s" [ "l"; "eq"; "r" ] = [ [ "$" ] ])

(* ------------------------------------------------------------------ *)
(* Relations on the expr grammar                                      *)
(* ------------------------------------------------------------------ *)

let expr_t = lazy (compute_of "expr")

let test_expr_dr () =
  (* DR(0, e) = {plus, $}: after shifting e from state 0 we can read +
     or the end marker (which our S' → e $ convention makes an ordinary
     transition — exactly the paper's trick). *)
  let t = Lazy.force expr_t in
  let a = Lalr.automaton t in
  let g = Lalr.grammar t in
  let e = Option.get (G.find_nonterminal g "e") in
  let x = Lr0.find_nt_transition a 0 e in
  let dr_names =
    Bitset.elements (Lalr.dr t x) |> List.map (G.terminal_name g) |> List.sort compare
  in
  check_strs "DR(0,e)" [ "$"; "plus" ] dr_names

let test_expr_follow_chain () =
  (* Follow(0, f) must pick up star (via t), plus and $ (via e):
     includes chains f ← t ← e. *)
  let t = Lazy.force expr_t in
  let a = Lalr.automaton t in
  let g = Lalr.grammar t in
  let f = Option.get (G.find_nonterminal g "f") in
  let x = Lr0.find_nt_transition a 0 f in
  let names =
    Bitset.elements (Lalr.follow t x)
    |> List.map (G.terminal_name g)
    |> List.sort compare
  in
  check_strs "Follow(0,f)" [ "$"; "plus"; "star" ] names

let test_expr_no_reads () =
  (* No nullable nonterminals → reads is empty, Read = DR. *)
  let t = Lazy.force expr_t in
  let st = Lalr.stats t in
  check_int "no reads edges" 0 st.Lalr.reads_edges;
  for x = 0 to st.Lalr.n_nt_transitions - 1 do
    check "Read = DR" true (Bitset.equal (Lalr.read t x) (Lalr.dr t x))
  done

let test_expr_diagnostics_empty () =
  check "no diagnostics" true (Lalr.diagnostics (Lazy.force expr_t) = [])

(* ------------------------------------------------------------------ *)
(* reads: nontrivial on the ε-grammar, cyclic on not-lr-k             *)
(* ------------------------------------------------------------------ *)

let test_eps_grammar_reads () =
  let t = compute_of "expr-ll" in
  let st = Lalr.stats t in
  check "has reads edges" true (st.Lalr.reads_edges > 0);
  check "acyclic reads" true (st.Lalr.reads_sccs = []);
  check "lalr1" true (Lalr.is_lalr1 t)

let test_reads_cycle_detected () =
  let t = compute_of "not-lr-k" in
  check "cycle reported" true
    (List.exists
       (function Lalr.Reads_cycle _ -> true | _ -> false)
       (Lalr.diagnostics t));
  check "not lalr1" false (Lalr.is_lalr1 t)

let test_reduction_index () =
  let t = Lazy.force expr_t in
  for r = 0 to Lalr.n_reductions t - 1 do
    let state, prod = Lalr.reduction t r in
    check_int "find_reduction roundtrip" r
      (Lalr.find_reduction t ~state ~prod)
  done;
  match Lalr.find_reduction t ~state:0 ~prod:1 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "state 0 reduces nothing"

let test_lookback_nonempty () =
  (* Every reduction of a reduced grammar has at least one lookback. *)
  List.iter
    (fun (e : Registry.entry) ->
      let t = Lalr.compute (Lr0.build (Lazy.force e.grammar)) in
      for r = 0 to Lalr.n_reductions t - 1 do
        check "lookback nonempty" true (Lalr.lookback t r <> [])
      done)
    Registry.all

(* ------------------------------------------------------------------ *)
(* Set-inclusion invariants (exact on suite, property on random)      *)
(* ------------------------------------------------------------------ *)

let dr_read_follow_chain t =
  let st = Lalr.stats t in
  let ok = ref true in
  for x = 0 to st.Lalr.n_nt_transitions - 1 do
    if not (Bitset.subset (Lalr.dr t x) (Lalr.read t x)) then ok := false;
    if not (Bitset.subset (Lalr.read t x) (Lalr.follow t x)) then ok := false
  done;
  !ok

let la_subset_follow t =
  let g = Lalr.grammar t in
  let analysis = Lalr.analysis t in
  let ok = ref true in
  for r = 0 to Lalr.n_reductions t - 1 do
    let _, prod = Lalr.reduction t r in
    let lhs = (G.production g prod).lhs in
    if not (Bitset.subset (Lalr.la t r) (Analysis.follow analysis lhs)) then
      ok := false
  done;
  !ok

(* The two FOLLOWs agree on a reduced grammar: FOLLOW(A) = ⋃ₚ
   Follow(p, A). Unreachable or unproductive productions can feed
   FOLLOW and no transition, so the equality needs reduction. The
   augmented start has no transition and is skipped. *)
let follow_is_union_of_follows t =
  let g = Lalr.grammar t and a = Lalr.automaton t in
  let union =
    Array.init (G.n_nonterminals g) (fun _ -> Bitset.create (G.n_terminals g))
  in
  for x = 0 to Lr0.n_nt_transitions a - 1 do
    let _, nt = Lr0.nt_transition a x in
    ignore (Bitset.union_into ~into:union.(nt) (Lalr.follow t x))
  done;
  let ok = ref true in
  for nt = 1 to G.n_nonterminals g - 1 do
    if not (Bitset.equal union.(nt) (Analysis.follow (Lalr.analysis t) nt))
    then ok := false
  done;
  !ok

let test_suite_inclusions () =
  List.iter
    (fun (e : Registry.entry) ->
      let t = Lalr.compute (Lr0.build (Lazy.force e.grammar)) in
      check (e.name ^ ": DR ⊆ Read ⊆ Follow") true (dr_read_follow_chain t);
      check (e.name ^ ": LA ⊆ FOLLOW(lhs)") true (la_subset_follow t);
      check (e.name ^ ": FOLLOW = ⋃ Follow") true
        (follow_is_union_of_follows t))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Byte-identity against the frozen boxed baseline                    *)
(* ------------------------------------------------------------------ *)

(* The data-layout refactor (DESIGN.md §14) is observational-equivalence
   work: CSR relations, the arena Digraph and the packed transition rows
   must produce exactly the sets the boxed implementation did — same
   elements, same edge orders, same reduction numbering. Pin every
   observable against Lalr_baselines.Boxed over the whole suite. *)
let test_boxed_identity () =
  List.iter
    (fun (e : Registry.entry) ->
      let a = Lr0.build (Lazy.force e.grammar) in
      let t = Lalr.compute a in
      let b = Boxed.compute a in
      let nx = Lalr.stats t in
      let nx = nx.Lalr.n_nt_transitions in
      check_int (e.name ^ ": nt transitions") (Boxed.n_nt_transitions b) nx;
      for x = 0 to nx - 1 do
        check (e.name ^ ": DR") true (Bitset.equal (Lalr.dr t x) (Boxed.dr b x));
        check (e.name ^ ": Read") true
          (Bitset.equal (Lalr.read t x) (Boxed.read b x));
        check (e.name ^ ": Follow") true
          (Bitset.equal (Lalr.follow t x) (Boxed.follow b x));
        Alcotest.(check (list int))
          (e.name ^ ": reads row") (Boxed.reads b x) (Lalr.reads t x);
        Alcotest.(check (list int))
          (e.name ^ ": includes row")
          (Boxed.includes b x) (Lalr.includes t x)
      done;
      check_int (e.name ^ ": reductions") (Boxed.n_reductions b)
        (Lalr.n_reductions t);
      for r = 0 to Lalr.n_reductions t - 1 do
        let q, p = Lalr.reduction t r and q', p' = Boxed.reduction b r in
        check_int (e.name ^ ": reduction state") q' q;
        check_int (e.name ^ ": reduction prod") p' p;
        Alcotest.(check (list int))
          (e.name ^ ": lookback row")
          (Boxed.lookback b r) (Lalr.lookback t r);
        check (e.name ^ ": LA") true (Bitset.equal (Lalr.la t r) (Boxed.la b r))
      done)
    Registry.all

let test_mem_stats_shape () =
  (* The packed arrays' reported footprint is fully determined by the
     relation sizes: offsets = rows + 1, cols = edges. *)
  List.iter
    (fun (e : Registry.entry) ->
      let t = Lalr.compute (Lr0.build (Lazy.force e.grammar)) in
      let st = Lalr.stats t in
      let m = st.Lalr.mem in
      check_int (e.name ^ ": reads offsets") (st.Lalr.n_nt_transitions + 1)
        m.Lalr.reads_offsets_words;
      check_int (e.name ^ ": reads cols") st.Lalr.reads_edges
        m.Lalr.reads_cols_words;
      check_int (e.name ^ ": includes offsets") (st.Lalr.n_nt_transitions + 1)
        m.Lalr.includes_offsets_words;
      check_int (e.name ^ ": includes cols") st.Lalr.includes_edges
        m.Lalr.includes_cols_words;
      check_int (e.name ^ ": lookback offsets") (st.Lalr.n_reductions + 1)
        m.Lalr.lookback_offsets_words;
      check_int (e.name ^ ": lookback cols") st.Lalr.lookback_edges
        m.Lalr.lookback_cols_words)
    Registry.all

let prop_boxed_identity_random =
  QCheck.Test.make ~name:"CSR layout ≡ boxed baseline (random)" ~count:60
    (Randgen.arbitrary ()) (fun g ->
      let a = Lr0.build g in
      let t = Lalr.compute a in
      let b = Boxed.compute a in
      let st = Lalr.stats t in
      let nx = st.Lalr.n_nt_transitions in
      let ok = ref (Boxed.n_nt_transitions b = nx) in
      for x = 0 to nx - 1 do
        if
          not
            (Bitset.equal (Lalr.follow t x) (Boxed.follow b x)
            && Lalr.reads t x = Boxed.reads b x
            && Lalr.includes t x = Boxed.includes b x)
        then ok := false
      done;
      if Lalr.n_reductions t <> Boxed.n_reductions b then ok := false
      else
        for r = 0 to Lalr.n_reductions t - 1 do
          if
            not
              (Lalr.reduction t r = Boxed.reduction b r
              && Lalr.lookback t r = Boxed.lookback b r
              && Bitset.equal (Lalr.la t r) (Boxed.la b r))
          then ok := false
        done;
      !ok)

(* Randgen's start symbol is [n0]: the splice makes a grammar
   non-reduced ([zu] derives no sentence), with a reads cycle through
   the nullable [zc]. The SLR-first verdict needs LA ⊆ FOLLOW on such
   grammars too. *)
let with_reads_cycle g =
  Lalr_grammar.Reader.of_string ~name:"spliced"
    (Lalr_grammar.Reader.to_string g ^ "\nn0 : zu ;\nzu : zc zu ;\nzc : ;\n")

let prop_inclusions_random =
  QCheck.Test.make ~name:"DR ⊆ Read ⊆ Follow and LA ⊆ FOLLOW (random)"
    ~count:150 (Randgen.arbitrary ()) (fun g ->
      List.for_all
        (fun g ->
          let t = Lalr.compute (Lr0.build g) in
          dr_read_follow_chain t && la_subset_follow t)
        [ g; with_reads_cycle g ])

let prop_follow_union_random =
  QCheck.Test.make ~name:"FOLLOW(A) = ⋃ Follow(p, A) (reduced grammars)"
    ~count:150 (Randgen.arbitrary ()) (fun g ->
      follow_is_union_of_follows (Lalr.compute (Lr0.build g)))

let prop_la_nonempty_random =
  QCheck.Test.make
    ~name:"every reduction look-ahead is nonempty (reduced grammars)"
    ~count:150 (Randgen.arbitrary ()) (fun g ->
      (* A reduced grammar embeds every production in a sentential form,
         and every sentential form can be extended to end in $. *)
      let t = Lalr.compute (Lr0.build g) in
      let ok = ref true in
      for r = 0 to Lalr.n_reductions t - 1 do
        if Bitset.is_empty (Lalr.la t r) then ok := false
      done;
      !ok)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "core"
    [
      ( "known-grammars",
        [
          Alcotest.test_case "dragon 4.34 conflict state" `Quick
            test_assign_conflict_state;
          Alcotest.test_case "dragon 4.34 all look-aheads" `Quick
            test_assign_all_las;
          Alcotest.test_case "expr DR(0,e)" `Quick test_expr_dr;
          Alcotest.test_case "expr Follow chain" `Quick
            test_expr_follow_chain;
          Alcotest.test_case "expr has no reads edges" `Quick
            test_expr_no_reads;
          Alcotest.test_case "expr has no diagnostics" `Quick
            test_expr_diagnostics_empty;
          Alcotest.test_case "ε-grammar reads edges, acyclic" `Quick
            test_eps_grammar_reads;
          Alcotest.test_case "reads cycle ⇒ not LR(k)" `Quick
            test_reads_cycle_detected;
        ] );
      ( "structure",
        [
          Alcotest.test_case "reduction index roundtrip" `Quick
            test_reduction_index;
          Alcotest.test_case "lookback never empty" `Quick
            test_lookback_nonempty;
          Alcotest.test_case "inclusions on the whole suite" `Quick
            test_suite_inclusions;
        ] );
      ( "layout",
        [
          Alcotest.test_case "byte-identical to the boxed baseline" `Quick
            test_boxed_identity;
          Alcotest.test_case "mem stats match relation shapes" `Quick
            test_mem_stats_shape;
        ] );
      qsuite "props"
        [
          prop_inclusions_random;
          prop_follow_union_random;
          prop_la_nonempty_random;
          prop_boxed_identity_random;
        ];
    ]
