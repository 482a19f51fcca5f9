(* Full analysis report for a grammar — the library as a yacc -v / menhir
   --explain replacement.

   Run with:  dune exec examples/grammar_report.exe                 (demo grammar)
          or  dune exec examples/grammar_report.exe -- FILE.cfg     (your grammar)
          or  dune exec examples/grammar_report.exe -- --suite NAME (suite grammar) *)

module Reader = Lalr_grammar.Reader
module Lr0 = Lalr_automaton.Lr0
module Engine = Lalr_engine.Engine
module Describe = Lalr_report.Describe
module Registry = Lalr_suite.Registry

let demo =
  {|
%token eq star id
%start s
%%
s : l eq r | r ;
l : star r | id ;
r : l ;
|}

let load () =
  match Sys.argv with
  | [| _ |] -> Reader.of_string ~name:"demo (dragon 4.34)" demo
  | [| _; "--suite"; name |] -> Lazy.force (Registry.find name).grammar
  | [| _; path |] -> Reader.of_file path
  | _ ->
      prerr_endline "usage: grammar_report [FILE.cfg | --suite NAME]";
      exit 2

let () =
  let g =
    match load () with
    | g -> g
    | exception Reader.Error e ->
        Format.eprintf "parse error: %a@." Reader.pp_error e;
        exit 1
    | exception Not_found ->
        Format.eprintf "unknown suite grammar; known:@.";
        List.iter
          (fun (e : Registry.entry) -> Format.eprintf "  %s@." e.name)
          Registry.all;
        exit 1
  in
  Format.printf "── Grammar ──────────────────────────────────────────@.";
  Describe.grammar_summary Format.std_formatter g;

  let e = Engine.create g in
  let a = Engine.lr0 e in
  let t = Engine.lalr e in

  Format.printf "@.── Classification ──────────────────────────────────@.";
  Describe.classification Format.std_formatter (Engine.classification e);

  Format.printf "@.── Look-ahead relations (DeRemer–Pennello) ─────────@.";
  Describe.relations Format.std_formatter t;

  Format.printf "@.── Conflicts ───────────────────────────────────────@.";
  Describe.conflicts Format.std_formatter (Engine.tables e);

  if Lr0.n_states a <= 40 then begin
    Format.printf "@.── Automaton ───────────────────────────────────────@.";
    Describe.automaton ~lookaheads:t Format.std_formatter a
  end
  else
    Format.printf
      "@.(automaton dump suppressed: %d states; use the lalrgen CLI with \
       --dump-states to force)@."
      (Lr0.n_states a)
