(* Conflict analysis walkthrough: what each look-ahead method says about
   three instructive grammars.

   Run with:  dune exec examples/dangling_else.exe *)

module G = Lalr_grammar.Grammar
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Slr = Lalr_baselines.Slr
module Nqlalr = Lalr_baselines.Nqlalr
module Tables = Lalr_tables.Tables
module Engine = Lalr_engine.Engine
module Describe = Lalr_report.Describe
module Registry = Lalr_suite.Registry

let section title = Format.printf "@.=== %s ===@.@." title

let show name =
  let e = Registry.find name in
  let g = Lazy.force e.grammar in
  Format.printf "%s — %s@." name e.description;
  let eng = Engine.create g in
  Format.printf "%a@." Describe.classification
    (Engine.classification ~with_lr1:true eng);
  Describe.conflicts Format.std_formatter (Engine.tables eng)

let () =
  section "The dangling else";
  show "dangling-else";
  Format.printf
    "@.The shift default gives the conventional binding: an else pairs@.\
     with the nearest unmatched then. No look-ahead refinement fixes@.\
     this grammar — the ambiguity is real.@.";

  section "SLR's loss: dragon-book 4.34";
  show "assign";
  Format.printf
    "@.FOLLOW(r) contains '=' because '=' follows r somewhere in the@.\
     grammar; the exact LA(q, r → l) does not, because no = can follow@.\
     in THAT state's contexts. The paper's Follow(p,A) sets are per@.\
     nonterminal transition, not per nonterminal.@.";

  section "NQLALR's loss: the §7 witness";
  show "nqlalr-gap";
  let g = Lazy.force (Registry.find "nqlalr-gap").grammar in
  let a = Lr0.build g in
  let nq_tbl =
    Tables.build
      ~lookahead:(Nqlalr.lookahead (Nqlalr.compute (Lalr.relations a)))
      a
  in
  Format.printf "Under NQLALR's state-merged Follow sets instead:@.";
  Describe.conflicts Format.std_formatter nq_tbl;
  Format.printf
    "@.NQLALR attaches one Follow set to each goto TARGET; the two@.\
     contexts reaching the shared target pollute each other and a@.\
     spurious reduce/reduce appears. The exact sets keep them apart.@.";

  section "SLR vs LALR on the language suite";
  List.iter
    (fun (e : Registry.entry) ->
      let g = Lazy.force e.grammar in
      let a = Lr0.build g in
      let r = Lalr.relations a in
      let t = Lalr.of_stages r (Lalr.solve_follow r) in
      let lalr_tbl = Tables.build ~lookahead:(Lalr.lookahead t) a in
      let slr_tbl = Tables.build ~lookahead:(Slr.lookahead (Slr.compute a)) a in
      let nq_tbl =
        Tables.build ~lookahead:(Nqlalr.lookahead (Nqlalr.compute r)) a
      in
      Format.printf
        "%-12s LALR %d s/r %d r/r   SLR %d s/r %d r/r   NQLALR %d s/r %d r/r@."
        e.name
        (Tables.n_shift_reduce lalr_tbl)
        (Tables.n_reduce_reduce lalr_tbl)
        (Tables.n_shift_reduce slr_tbl)
        (Tables.n_reduce_reduce slr_tbl)
        (Tables.n_shift_reduce nq_tbl)
        (Tables.n_reduce_reduce nq_tbl))
    Registry.languages
