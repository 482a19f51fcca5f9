module Bitset = Lalr_sets.Bitset
module Digraph = Lalr_sets.Digraph
module Lr0 = Lalr_automaton.Lr0
module Budget = Lalr_guard.Budget

type t = {
  automaton : Lr0.t;
  (* FollowNQ per state (meaningful for targets of nonterminal
     transitions; empty elsewhere). *)
  follow_nq : Bitset.t array;
  (* Reductions numbered per state: state q's are the productions
     red_prods.(i), with LA set la.(i), for i in
     [red_offsets.(q) .. red_offsets.(q+1) - 1]. *)
  red_offsets : int array;
  red_prods : int array;
  la : Bitset.t array;
}

let automaton t = t.automaton

(* The reduction number of (state, prod), or -1: a state reduces a
   handful of productions at most, so this is a short scan. *)
let find_reduction ~red_offsets ~red_prods ~state ~prod =
  let found = ref (-1) in
  for i = red_offsets.(state) to red_offsets.(state + 1) - 1 do
    if red_prods.(i) = prod then found := i
  done;
  !found

let compute ?analysis (a : Lr0.t) =
  Budget.with_stage "nqlalr" @@ fun () ->
  let g = Lr0.grammar a in
  let analysis =
    match analysis with Some an -> an | None -> Analysis.compute g
  in
  let n_term = Grammar.n_terminals g in
  let n_states = Lr0.n_states a in
  let nx = Lr0.n_nt_transitions a in
  (* Per-state direct reads (shiftable terminals) and state-level reads
     edges; identical to the exact DR/reads because those depend only on
     the transition target. *)
  let dr = Array.init n_states (fun _ -> Bitset.create n_term) in
  let succ = Array.make n_states [] in
  let add_edge src dst = succ.(src) <- dst :: succ.(src) in
  for x = 0 to nx - 1 do
    Budget.burn ();
    let r = Lr0.nt_transition_target a x in
    Lr0.iter_t_transitions a r (fun t _ -> Bitset.add dr.(r) t);
    Lr0.iter_n_transitions a r (fun c target ->
        if Analysis.nullable analysis c then add_edge r target)
  done;
  (* State-merged includes: exact edge (p,A) includes (p',B) becomes
     goto(p,A) -> goto(p',B). *)
  for x' = 0 to nx - 1 do
    Budget.burn ();
    let p', b = Lr0.nt_transition a x' in
    let r' = Lr0.nt_transition_target a x' in
    Array.iter
      (fun pid ->
        Budget.burn ();
        let prod = Grammar.production g pid in
        let len = Array.length prod.rhs in
        let state = ref p' in
        for i = 0 to len - 1 do
          (match prod.rhs.(i) with
          | Symbol.N c
            when Analysis.nullable_sentence analysis prod.rhs ~from:(i + 1)
                   ~upto:len ->
              let r = Lr0.goto_exn a !state (Symbol.N c) in
              add_edge r r'
          | Symbol.N _ | Symbol.T _ -> ());
          state := Lr0.goto_exn a !state prod.rhs.(i)
        done)
      (Grammar.productions_of g b)
  done;
  let succ = Array.map (fun l -> List.sort_uniq Int.compare l) succ in
  let follow_nq, _ =
    Digraph.ForBitset.run ~n:n_states
      ~successors:(fun s -> succ.(s))
      ~init:(fun s -> dr.(s))
  in
  (* LA_NQ(q, A→ω) = ⋃ FollowNQ(goto(p,A)) over lookback pairs. *)
  let red_offsets = Array.make (n_states + 1) 0 in
  for q = 0 to n_states - 1 do
    red_offsets.(q + 1) <- red_offsets.(q) + List.length (Lr0.reductions a q)
  done;
  let red_prods = Array.make red_offsets.(n_states) 0 in
  for q = 0 to n_states - 1 do
    List.iteri
      (fun i pid -> red_prods.(red_offsets.(q) + i) <- pid)
      (Lr0.reductions a q)
  done;
  let la =
    Array.init (Array.length red_prods) (fun _ -> Bitset.create n_term)
  in
  for x = 0 to nx - 1 do
    Budget.burn ();
    let p, aa = Lr0.nt_transition a x in
    let r = Lr0.nt_transition_target a x in
    Array.iter
      (fun pid ->
        if pid <> 0 then begin
          let prod = Grammar.production g pid in
          let q = Lr0.traverse a p prod.rhs ~from:0 in
          let i = find_reduction ~red_offsets ~red_prods ~state:q ~prod:pid in
          if i >= 0 then ignore (Bitset.union_into ~into:la.(i) follow_nq.(r))
          else
            Budget.broken_invariant ~stage:"nqlalr"
              (Printf.sprintf
                 "state %d reached by walking production %d lacks the \
                  corresponding reduction"
                 q pid)
        end)
      (Grammar.productions_of g aa)
  done;
  { automaton = a; follow_nq; red_offsets; red_prods; la }

let lookahead t ~state ~prod =
  if state < 0 || state >= Lr0.n_states t.automaton then raise Not_found;
  let i =
    find_reduction ~red_offsets:t.red_offsets ~red_prods:t.red_prods ~state
      ~prod
  in
  if i < 0 then raise Not_found else t.la.(i)

let is_nqlalr1 t =
  Lr0.overlaps t.automaton ~lookahead:(lookahead t) = (false, false)
