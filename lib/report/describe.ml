module Bitset = Lalr_sets.Bitset
module Lr0 = Lalr_automaton.Lr0
module Item = Lalr_automaton.Item
module Lalr = Lalr_core.Lalr
module Tables = Lalr_tables.Tables
module Classify = Lalr_tables.Classify

let grammar_summary ppf g =
  Format.fprintf ppf "@[<v>%a@," Grammar.pp g;
  Format.fprintf ppf
    "%d terminals (incl. $), %d nonterminals (incl. start'), %d productions \
     (incl. augmented), grammar size |G| = %d@]@."
    (Grammar.n_terminals g)
    (Grammar.n_nonterminals g)
    (Grammar.n_productions g)
    (Grammar.symbols_count g)

let pp_term_set g ppf set =
  Bitset.pp
    ~pp_elt:(fun ppf t -> Format.pp_print_string ppf (Grammar.terminal_name g t))
    ppf set

let automaton ?lookaheads ppf (a : Lr0.t) =
  let g = Lr0.grammar a in
  let tbl = Lr0.items a in
  Format.fprintf ppf "@[<v>";
  for s = 0 to Lr0.n_states a - 1 do
    let st = Lr0.state a s in
    Format.fprintf ppf "state %d" s;
    (match st.accessing with
    | Some sym -> Format.fprintf ppf "  (accessed on %s)" (Grammar.symbol_name g sym)
    | None -> ());
    Format.fprintf ppf "@,";
    let kernel = Array.to_list st.kernel in
    Array.iter
      (fun item ->
        Format.fprintf ppf "    %s%a@,"
          (if List.mem item kernel then "" else ". ")
          (Item.pp tbl) item)
      st.items;
    List.iter
      (fun (sym, target) ->
        Format.fprintf ppf "    %s → shift to state %d@,"
          (Grammar.symbol_name g sym)
          target)
      (Lr0.transitions a s);
    List.iter
      (fun pid ->
        Format.fprintf ppf "    reduce by %a"
          (Grammar.pp_production g)
          (Grammar.production g pid);
        (match lookaheads with
        | Some la ->
            Format.fprintf ppf "  on %a" (pp_term_set g)
              (Lalr.lookahead la ~state:s ~prod:pid)
        | None -> ());
        Format.fprintf ppf "@,")
      (Lr0.reductions a s);
    Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

let relations ppf t =
  Format.fprintf ppf "%a" Lalr.pp t;
  let reduced = Analysis.is_reduced (Lalr.analysis t) in
  let st = Lalr.stats t in
  Format.fprintf ppf
    "@.%d nonterminal transitions; |DR| = %d, reads edges = %d, includes \
     edges = %d, lookback edges = %d; %d reductions, Σ|LA| = %d@."
    st.Lalr.n_nt_transitions st.Lalr.dr_total st.Lalr.reads_edges
    st.Lalr.includes_edges st.Lalr.lookback_edges st.Lalr.n_reductions
    st.Lalr.la_total;
  List.iter
    (fun d ->
      match d with
      | Lalr.Reads_cycle members when reduced ->
          Format.fprintf ppf
            "reads cycle through %d transitions: the grammar is not LR(k) \
             for any k@."
            (List.length members)
      | Lalr.Reads_cycle members ->
          Format.fprintf ppf
            "reads cycle through %d transitions: the grammar is not \
             reduced, so this does not show that it is not LR(k)@."
            (List.length members)
      | Lalr.Includes_cycle members ->
          Format.fprintf ppf
            "includes cycle through %d transitions (Follow sets shared)@."
            (List.length members))
    (Lalr.diagnostics t)

let conflicts ppf tables =
  let g = Lr0.grammar (Tables.automaton tables) in
  match Tables.unresolved_conflicts tables with
  | [] ->
      let resolved =
        List.length (Tables.conflicts tables)
      in
      if resolved = 0 then Format.fprintf ppf "no conflicts@."
      else
        Format.fprintf ppf "no unresolved conflicts (%d settled by precedence)@."
          resolved
  | l ->
      Format.fprintf ppf "%d shift/reduce, %d reduce/reduce:@."
        (Tables.n_shift_reduce tables)
        (Tables.n_reduce_reduce tables);
      List.iter
        (fun c ->
          Format.fprintf ppf "  %a@." (Tables.pp_conflict g) c;
          Format.fprintf ppf "    reached on: %a@." Counterexample.pp
            (Counterexample.conflict tables c))
        l

let classification ppf (v : Classify.verdict) =
  Format.fprintf ppf "@[<v>%a@," Classify.pp v;
  Format.fprintf ppf "LR(0):    %b@," v.lr0;
  Format.fprintf ppf "SLR(1):   %b (%d s/r, %d r/r conflicts)@," v.slr1
    v.slr_sr_conflicts v.slr_rr_conflicts;
  Format.fprintf ppf "LALR(1):  %b (%d s/r, %d r/r conflicts)@," v.lalr1
    v.lalr_sr_conflicts v.lalr_rr_conflicts;
  Format.fprintf ppf "NQLALR:   %b (%d s/r, %d r/r conflicts)@," v.nqlalr1
    v.nq_sr_conflicts v.nq_rr_conflicts;
  if v.lr1_states > 0 then
    Format.fprintf ppf "LR(1):    %b (%d states vs %d LALR states)@," v.lr1
      v.lr1_states v.lr0_states;
  if v.not_lr_k then
    Format.fprintf ppf "not LR(k) for any k (reads relation is cyclic)@,";
  Format.fprintf ppf "@]"

(* The full `lalrgen report` body, engine-mediated: every artifact is a
   memoized slot, so a front end that also classifies or lints the same
   engine pays for the automaton and relations once. *)
let report ?(dump_states = false) ppf eng =
  let module Eng = Lalr_engine.Engine in
  grammar_summary ppf (Eng.grammar eng);
  let a = Eng.lr0 eng in
  let t = Eng.lalr eng in
  relations ppf t;
  conflicts ppf (Eng.tables eng);
  if dump_states || Lr0.n_states a <= 60 then automaton ~lookaheads:t ppf a
  else
    Format.fprintf ppf
      "(%d states: pass --dump-states for the full automaton)@."
      (Lr0.n_states a)
