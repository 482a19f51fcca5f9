module Bitset = Lalr_sets.Bitset
module Csr = Lalr_sets.Csr
module Digraph = Lalr_sets.Digraph
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Budget = Lalr_guard.Budget

type t = {
  relations : Lalr.relations;
  la : Bitset.t array;  (* LA_NQ, in the relations' reduction numbering *)
}

let automaton t = t.relations.Lalr.r_automaton

let compute (r : Lalr.relations) =
  Budget.with_stage "nqlalr" @@ fun () ->
  let a = r.Lalr.r_automaton in
  let n_term = Grammar.n_terminals (Lr0.grammar a) in
  let n_states = Lr0.n_states a in
  let nx = Lr0.n_nt_transitions a in
  let target = Lr0.nt_transition_target a in
  (* The nonterminal transitions into each state, and its seed: DR(p,A)
     is the terminals goto(p,A) shifts, so every transition into a state
     carries the same DR. *)
  let into_b = Csr.create_builder ~edges_hint:nx ~n_cols:(max nx 1) n_states in
  let seed = Array.make n_states (Bitset.create n_term) in
  for x = 0 to nx - 1 do
    Csr.add into_b ~src:(target x) ~dst:x;
    seed.(target x) <- r.r_dr.(x)
  done;
  let into = Csr.build into_b in
  (* The quotient of reads ∪ includes by target state: (p,A) → (p',B)
     becomes goto(p,A) → goto(p',B). [mark] drops duplicate edges and
     self-loops, which add nothing to the fixpoint. *)
  let graph_b =
    Csr.create_builder
      ~edges_hint:(Csr.n_edges r.r_reads + Csr.n_edges r.r_includes)
      n_states
  in
  let mark = Array.make n_states (-1) in
  for q = 0 to n_states - 1 do
    mark.(q) <- q;
    let edge y =
      let q' = target y in
      if mark.(q') <> q then begin
        mark.(q') <- q;
        Csr.add graph_b ~src:q ~dst:q'
      end
    in
    Csr.iter_row into q (fun x ->
        Budget.burn ();
        Csr.iter_row r.r_reads x edge;
        Csr.iter_row r.r_includes x edge)
  done;
  let follow_nq, _ =
    Digraph.ForBitset.run_csr ~graph:(Csr.build graph_b) ~init:(Array.get seed)
  in
  (* LA_NQ(q, A→ω) = ⋃ FollowNQ(goto(p,A)) over the exact lookback. *)
  let la =
    Array.init (Csr.n_rows r.r_lookback) (fun i ->
        Budget.burn ();
        let acc = Bitset.create n_term in
        Csr.iter_row r.r_lookback i (fun x ->
            ignore (Bitset.union_into ~into:acc follow_nq.(target x)));
        acc)
  in
  { relations = r; la }

let lookahead t ~state ~prod =
  t.la.(Lalr.reduction_index t.relations ~state ~prod)
