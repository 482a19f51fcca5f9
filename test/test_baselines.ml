(* Cross-validation of every look-ahead method — the central correctness
   argument of this reproduction. For every grammar (curated suite and
   random):

     DeRemer–Pennello  =  canonical-LR(1)-merge  =  yacc propagation
                       ⊆  NQLALR  ⊆-in-practice  SLR FOLLOW

   The first line is the paper's Theorem (its sets ARE the LALR(1)
   sets); the second is its §7 story. *)

module Bitset = Lalr_sets.Bitset
module Digraph = Lalr_sets.Digraph
module G = Lalr_grammar.Grammar
module Analysis = Lalr_grammar.Analysis
module Symbol = Lalr_grammar.Symbol
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Slr = Lalr_baselines.Slr
module Lr1 = Lalr_baselines.Lr1
module Propagation = Lalr_baselines.Propagation
module Nqlalr = Lalr_baselines.Nqlalr
module Registry = Lalr_suite.Registry
module Randgen = Lalr_suite.Randgen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Compare all methods on one grammar; returns an error description or
   None. Skips canonical LR(1) when [with_lr1] is false. *)
let cross_validate ?(with_lr1 = true) g =
  let a = Lr0.build g in
  let t = Lalr.compute a in
  let prop = Propagation.compute a in
  let nq = Nqlalr.compute (Lalr.relations a) in
  let slr = Slr.compute a in
  let merged =
    if with_lr1 then Some (Lr1.merged_lookaheads (Lr1.build g) a) else None
  in
  let err = ref None in
  let fail state prod what =
    if !err = None then
      err := Some (Printf.sprintf "(%d, %d): %s" state prod what)
  in
  for r = 0 to Lalr.n_reductions t - 1 do
    let state, prod = Lalr.reduction t r in
    let dp = Lalr.la t r in
    (match merged with
    | Some m -> (
        match Hashtbl.find_opt m (state, prod) with
        | Some set ->
            if not (Bitset.equal dp set) then fail state prod "dp ≠ lr1-merge"
        | None -> fail state prod "reduction missing from lr1-merge")
    | None -> ());
    let p = Propagation.lookahead prop ~state ~prod in
    if not (Bitset.equal dp p) then fail state prod "dp ≠ propagation";
    let n = Nqlalr.lookahead nq ~state ~prod in
    if not (Bitset.subset dp n) then fail state prod "dp ⊄ nqlalr";
    let s = Slr.lookahead slr ~state ~prod in
    if not (Bitset.subset dp s) then fail state prod "dp ⊄ slr"
  done;
  (* The merged table must not contain extra reductions either. *)
  (match merged with
  | Some m ->
      if Hashtbl.length m <> Lalr.n_reductions t then
        fail (-1) (-1) "lr1-merge has a different reduction count"
  | None -> ());
  !err

let test_cross_validate_suite () =
  List.iter
    (fun (e : Registry.entry) ->
      let g = Lazy.force e.grammar in
      let with_lr1 = G.n_productions g <= 200 in
      match cross_validate ~with_lr1 g with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" e.name msg)
    Registry.all

let prop_cross_validate_random =
  QCheck.Test.make ~name:"dp = lr1-merge = propagation (random grammars)"
    ~count:200 (Randgen.arbitrary ()) (fun g -> cross_validate g = None)

let prop_cross_validate_random_larger =
  let config =
    { Randgen.default with n_terminals = 6; n_nonterminals = 8; max_rhs = 5 }
  in
  QCheck.Test.make ~name:"dp = lr1-merge = propagation (larger random)"
    ~count:60
    (Randgen.arbitrary ~config ())
    (fun g -> cross_validate g = None)

(* ------------------------------------------------------------------ *)
(* SLR                                                                *)
(* ------------------------------------------------------------------ *)

let grammar_of name = Lazy.force (Registry.find name).grammar

(* Conflict-free under [lookahead], precedence ignored. *)
let clean a lookahead = Lr0.overlaps a ~lookahead = (false, false)

let test_slr_classification () =
  List.iter
    (fun (e : Registry.entry) ->
      let a = Lr0.build (Lazy.force e.grammar) in
      let slr = Slr.compute a in
      check_int
        (e.name ^ ": SLR verdict")
        (if e.expected.slr1 then 1 else 0)
        (if clean a (Slr.lookahead slr) then 1 else 0))
    Registry.all

let test_slr_state_independent () =
  let g = grammar_of "expr" in
  let a = Lr0.build g in
  let slr = Slr.compute a in
  (* Find a production reduced in two states: its SLR set is identical. *)
  let t = Lalr.compute a in
  let by_prod = Hashtbl.create 8 in
  for r = 0 to Lalr.n_reductions t - 1 do
    let state, prod = Lalr.reduction t r in
    Hashtbl.replace by_prod prod
      (state :: Option.value (Hashtbl.find_opt by_prod prod) ~default:[])
  done;
  Hashtbl.iter
    (fun prod states ->
      match states with
      | s1 :: s2 :: _ ->
          check "same FOLLOW set" true
            (Bitset.equal
               (Slr.lookahead slr ~state:s1 ~prod)
               (Slr.lookahead slr ~state:s2 ~prod))
      | _ -> ())
    by_prod

(* ------------------------------------------------------------------ *)
(* Canonical LR(1)                                                    *)
(* ------------------------------------------------------------------ *)

let test_lr1_classification () =
  List.iter
    (fun (e : Registry.entry) ->
      let g = Lazy.force e.grammar in
      if G.n_productions g <= 200 then
        let c = Lr1.build g in
        check_int
          (e.name ^ ": LR(1) verdict")
          (if e.expected.lr1 then 1 else 0)
          (if Lr1.is_lr1 c then 1 else 0))
    Registry.all

let test_lr1_at_least_lr0_states () =
  List.iter
    (fun name ->
      let g = grammar_of name in
      let c = Lr1.build g and a = Lr0.build g in
      check (name ^ ": LR(1) ≥ LR(0) states") true
        (Lr1.n_states c >= Lr0.n_states a))
    [ "expr"; "assign"; "lr1-not-lalr"; "json"; "expr-ll" ]

let test_lr1_cores_are_lr0_states () =
  (* Each LR(1) core equals some LR(0) state's kernel, and all LR(0)
     states are covered. *)
  let g = grammar_of "assign" in
  let c = Lr1.build g and a = Lr0.build g in
  let kernels = Hashtbl.create 32 in
  for s = 0 to Lr0.n_states a - 1 do
    Hashtbl.replace kernels (Lr0.state a s).kernel ()
  done;
  let covered = Hashtbl.create 32 in
  for s = 0 to Lr1.n_states c - 1 do
    let core = Lr1.state_core c s in
    check "core is an LR(0) kernel" true (Hashtbl.mem kernels core);
    Hashtbl.replace covered core ()
  done;
  check_int "all LR(0) states covered" (Lr0.n_states a)
    (Hashtbl.length covered)

let test_lr1_not_lalr_grammar () =
  let g = grammar_of "lr1-not-lalr" in
  let c = Lr1.build g in
  check "canonical is conflict-free" true (Lr1.is_lr1 c);
  let t = Lalr.compute (Lr0.build g) in
  check "LALR is not" false (Lalr.is_lalr1 t);
  check "canonical has more states" true
    (Lr1.n_states c > Lr0.n_states (Lalr.automaton t))

(* ------------------------------------------------------------------ *)
(* Propagation internals                                              *)
(* ------------------------------------------------------------------ *)

let test_propagation_stats () =
  let a = Lr0.build (grammar_of "expr") in
  let p = Propagation.compute a in
  let st = Propagation.stats p in
  check "kernel items counted" true (st.Propagation.n_kernel_items > 0);
  check "some spontaneous" true (st.Propagation.spontaneous > 0);
  check "some propagation edges" true (st.Propagation.propagate_edges > 0);
  check "at least two passes (one changes, one confirms)" true
    (st.Propagation.passes >= 2)

let test_propagation_epsilon_reductions () =
  (* ε-productions reduce with non-kernel final items; the in-state
     closure path must agree with DP. Exercised heavily by
     cross-validation, pinned here on the ε-grammar. *)
  let g = grammar_of "expr-ll" in
  let a = Lr0.build g in
  let t = Lalr.compute a in
  let p = Propagation.compute a in
  let eps_prods =
    List.filter
      (fun pid -> G.rhs_length g pid = 0)
      (List.init (G.n_productions g) Fun.id)
  in
  check "grammar has ε-productions" true (eps_prods <> []);
  let checked = ref 0 in
  for r = 0 to Lalr.n_reductions t - 1 do
    let state, prod = Lalr.reduction t r in
    if List.mem prod eps_prods then begin
      incr checked;
      check "ε-reduction look-ahead agrees" true
        (Bitset.equal (Lalr.la t r) (Propagation.lookahead p ~state ~prod))
    end
  done;
  check "ε-reductions exercised" true (!checked > 0)

let test_propagation_kernel_lookahead_not_found () =
  let a = Lr0.build (grammar_of "expr") in
  let p = Propagation.compute a in
  match Propagation.kernel_lookahead p ~state:0 ~item:999999 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

(* ------------------------------------------------------------------ *)
(* NQLALR                                                             *)
(* ------------------------------------------------------------------ *)

(* NQLALR straight from the grammar, as the generators the paper
   criticises computed it: DR and reads edges per goto target, includes
   edges found by walking every production from every nonterminal
   transition and merged by target, the fixpoint by repeated passes,
   and each reduction's set gathered by walking its production again.
   [Nqlalr] derives the same sets from the exact relations instead.
   Returns LA_NQ keyed by (state, production). *)
let reference_nqlalr a =
  let g = Lr0.grammar a in
  let analysis = Analysis.compute g in
  let n_term = G.n_terminals g in
  let n_states = Lr0.n_states a in
  let nx = Lr0.n_nt_transitions a in
  let dr = Array.init n_states (fun _ -> Bitset.create n_term) in
  let succ = Array.make n_states [] in
  let add_edge src dst = succ.(src) <- dst :: succ.(src) in
  for x = 0 to nx - 1 do
    let r = Lr0.nt_transition_target a x in
    Lr0.iter_t_transitions a r (fun t _ -> Bitset.add dr.(r) t);
    Lr0.iter_n_transitions a r (fun c target ->
        if Analysis.nullable analysis c then add_edge r target)
  done;
  for x' = 0 to nx - 1 do
    let p', b = Lr0.nt_transition a x' in
    let r' = Lr0.nt_transition_target a x' in
    Array.iter
      (fun pid ->
        let rhs = (G.production g pid).rhs in
        let len = Array.length rhs in
        let state = ref p' in
        for i = 0 to len - 1 do
          (match rhs.(i) with
          | Symbol.N c
            when Analysis.nullable_sentence analysis rhs ~from:(i + 1)
                   ~upto:len ->
              add_edge (Lr0.goto_exn a !state (Symbol.N c)) r'
          | Symbol.N _ | Symbol.T _ -> ());
          state := Lr0.goto_exn a !state rhs.(i)
        done)
      (G.productions_of g b)
  done;
  let follow_nq =
    Digraph.naive_fixpoint ~n:n_states
      ~successors:(fun s -> succ.(s))
      ~init:(fun s -> dr.(s))
  in
  let la = Hashtbl.create 64 in
  for x = 0 to nx - 1 do
    let p, aa = Lr0.nt_transition a x in
    let r = Lr0.nt_transition_target a x in
    Array.iter
      (fun pid ->
        if pid <> 0 then begin
          let q = Lr0.traverse a p (G.production g pid).rhs ~from:0 in
          let acc =
            match Hashtbl.find_opt la (q, pid) with
            | Some acc -> acc
            | None ->
                let acc = Bitset.create n_term in
                Hashtbl.add la (q, pid) acc;
                acc
          in
          ignore (Bitset.union_into ~into:acc follow_nq.(r))
        end)
      (G.productions_of g aa)
  done;
  la

(* [Nqlalr.lookahead] against [reference_nqlalr] on every reduction;
   returns the first disagreement. *)
let nqlalr_mismatch g =
  let a = Lr0.build g in
  let nq = Nqlalr.compute (Lalr.relations a) in
  let reference = reference_nqlalr a in
  let err = ref None in
  let n_red = ref 0 in
  for state = 0 to Lr0.n_states a - 1 do
    List.iter
      (fun prod ->
        incr n_red;
        let ok =
          match Hashtbl.find_opt reference (state, prod) with
          | Some set -> Bitset.equal set (Nqlalr.lookahead nq ~state ~prod)
          | None -> false
        in
        if (not ok) && !err = None then
          err := Some (Printf.sprintf "LA_NQ(%d, %d) differs" state prod))
      (Lr0.reductions a state)
  done;
  if !err = None && Hashtbl.length reference <> !n_red then
    err := Some "the reference has a different reduction count";
  !err

let test_nqlalr_reference_suite () =
  List.iter
    (fun (e : Registry.entry) ->
      match nqlalr_mismatch (Lazy.force e.grammar) with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" e.name msg)
    Registry.all

let prop_nqlalr_reference =
  QCheck.Test.make ~name:"nqlalr = production-walk reference (random)"
    ~count:200 (Randgen.arbitrary ()) (fun g ->
      match nqlalr_mismatch g with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let test_nqlalr_gap_witness () =
  let g = grammar_of "nqlalr-gap" in
  let a = Lr0.build g in
  let t = Lalr.compute a in
  let nq = Nqlalr.compute (Lalr.relations a) in
  check "grammar is LALR(1)" true (Lalr.is_lalr1 t);
  check "NQLALR disagrees" false (clean a (Nqlalr.lookahead nq));
  (* The polluted reduction: some LA_NQ strictly contains LA. *)
  let strictly_larger = ref 0 in
  for r = 0 to Lalr.n_reductions t - 1 do
    let state, prod = Lalr.reduction t r in
    let exact = Lalr.la t r in
    let approx = Nqlalr.lookahead nq ~state ~prod in
    check "containment" true (Bitset.subset exact approx);
    if not (Bitset.equal exact approx) then incr strictly_larger
  done;
  check "at least one strictly larger set" true (!strictly_larger > 0)

let test_nqlalr_agrees_on_simple () =
  (* On grammars without shared goto targets NQLALR is exact. *)
  List.iter
    (fun name ->
      let a = Lr0.build (grammar_of name) in
      let t = Lalr.compute a in
      let nq = Nqlalr.compute (Lalr.relations a) in
      for r = 0 to Lalr.n_reductions t - 1 do
        let state, prod = Lalr.reduction t r in
        check (name ^ ": nq exact") true
          (Bitset.equal (Lalr.la t r) (Nqlalr.lookahead nq ~state ~prod))
      done)
    [ "expr"; "lr0"; "json" ]

let test_nqlalr_ada_spurious () =
  (* The paper's practical complaint, reproduced on the Ada subset. *)
  let g = grammar_of "ada-subset" in
  let a = Lr0.build g in
  check "ada is LALR(1)" true (Lalr.is_lalr1 (Lalr.compute a));
  check "ada is not NQLALR-clean" false
    (clean a (Nqlalr.lookahead (Nqlalr.compute (Lalr.relations a))))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "baselines"
    [
      ( "cross-validation",
        [
          Alcotest.test_case "all methods agree on the whole suite" `Slow
            test_cross_validate_suite;
        ] );
      qsuite "cross-validation-props"
        [ prop_cross_validate_random; prop_cross_validate_random_larger ];
      ( "slr",
        [
          Alcotest.test_case "classification matches registry" `Quick
            test_slr_classification;
          Alcotest.test_case "FOLLOW is state-independent" `Quick
            test_slr_state_independent;
        ] );
      ( "lr1",
        [
          Alcotest.test_case "classification matches registry" `Slow
            test_lr1_classification;
          Alcotest.test_case "state count ≥ LR(0)" `Quick
            test_lr1_at_least_lr0_states;
          Alcotest.test_case "cores bijective with LR(0) states" `Quick
            test_lr1_cores_are_lr0_states;
          Alcotest.test_case "lr1-not-lalr behaves" `Quick
            test_lr1_not_lalr_grammar;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "stats sanity" `Quick test_propagation_stats;
          Alcotest.test_case "ε-reduction look-aheads" `Quick
            test_propagation_epsilon_reductions;
          Alcotest.test_case "kernel_lookahead Not_found" `Quick
            test_propagation_kernel_lookahead_not_found;
        ] );
      ( "nqlalr",
        [
          Alcotest.test_case "gap witness grammar" `Quick
            test_nqlalr_gap_witness;
          Alcotest.test_case "exact on simple grammars" `Quick
            test_nqlalr_agrees_on_simple;
          Alcotest.test_case "spurious conflicts on ada-subset" `Slow
            test_nqlalr_ada_spurious;
          Alcotest.test_case "= production-walk reference (suite)" `Quick
            test_nqlalr_reference_suite;
          QCheck_alcotest.to_alcotest prop_nqlalr_reference;
        ] );
    ]
