module Bitset = Lalr_sets.Bitset
module Lr0 = Lalr_automaton.Lr0

type t = { automaton : Lr0.t; analysis : Analysis.t }

let compute ?analysis a =
  let analysis =
    match analysis with
    | Some an -> an
    | None -> Analysis.compute (Lr0.grammar a)
  in
  { automaton = a; analysis }

let automaton t = t.automaton

let lookahead t ~state:_ ~prod =
  let g = Lr0.grammar t.automaton in
  Analysis.follow t.analysis (Grammar.production g prod).lhs

let is_slr1 t =
  let a = t.automaton in
  let g = Lr0.grammar a in
  let n_term = Grammar.n_terminals g in
  let ok = ref true in
  for q = 0 to Lr0.n_states a - 1 do
    let reds = Lr0.reductions a q in
    if reds <> [] then begin
      let seen = Bitset.create n_term in
      Lr0.iter_t_transitions a q (fun tt _ -> Bitset.add seen tt);
      List.iter
        (fun pid ->
          let set = lookahead t ~state:q ~prod:pid in
          if not (Bitset.disjoint set seen) then ok := false;
          ignore (Bitset.union_into ~into:seen set))
        reds
    end
  done;
  !ok
