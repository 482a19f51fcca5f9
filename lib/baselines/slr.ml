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
