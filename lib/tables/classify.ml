module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Lr1 = Lalr_baselines.Lr1
module Nqlalr = Lalr_baselines.Nqlalr
module Budget = Lalr_guard.Budget

type verdict = {
  lr0 : bool;
  slr1 : bool;
  lalr1 : bool;
  lr1 : bool;
  lr1_decided : bool;
  nqlalr1 : bool;
  not_lr_k : bool;
  lr0_states : int;
  lr1_states : int;
  lalr_sr_conflicts : int;
  lalr_rr_conflicts : int;
  slr_sr_conflicts : int;
  slr_rr_conflicts : int;
  nq_sr_conflicts : int;
  nq_rr_conflicts : int;
}

let assemble ?lalr ~(slr : Tables.conflict_counts) ~nqlalr
    (r : Lalr.relations) =
  let a = r.r_automaton in
  let count lookahead = Tables.count_conflicts ~lookahead a in
  (* LA(q, A→ω) ⊆ FOLLOW(A), so a grammar with no SLR(1) clash has no
     LALR(1) clash either: SLR's zero counts are LALR's. *)
  let la =
    match (lalr, slr.clash) with
    | Some t, _ -> count (Lalr.lookahead t)
    | None, Tables.Clean -> slr
    | None, (Tables.Reduce_reduce_only | Tables.Some_shift_reduce) ->
        Budget.broken_invariant ~stage:"classification"
          "a grammar with an SLR(1) clash needs its LALR(1) sets"
  in
  let nq = count (Nqlalr.lookahead nqlalr) in
  let lalr1 = la.clash = Tables.Clean in
  {
    lr0 = Lr0.n_conflict_free_lr0 a;
    slr1 = slr.clash = Tables.Clean;
    lalr1;
    (* LALR(1) implies LR(1), and a shift/reduce clash survives the
       core merge, so only reduce/reduce clashes leave LR(1) open. *)
    lr1 = lalr1;
    lr1_decided = la.clash <> Tables.Reduce_reduce_only;
    nqlalr1 = nq.clash = Tables.Clean;
    (* The reads-cycle theorem needs a reduced grammar: an unproductive
       nullable loop makes a reads cycle in a grammar that is SLR(1). *)
    not_lr_k = Lalr.reads_cyclic r && Analysis.is_reduced r.r_analysis;
    lr0_states = Lr0.n_states a;
    lr1_states = 0;
    lalr_sr_conflicts = la.n_sr;
    lalr_rr_conflicts = la.n_rr;
    slr_sr_conflicts = slr.n_sr;
    slr_rr_conflicts = slr.n_rr;
    nq_sr_conflicts = nq.n_sr;
    nq_rr_conflicts = nq.n_rr;
  }

let with_lr1 v c = { v with lr1 = Lr1.is_lr1 c; lr1_states = Lr1.n_states c }

let pp ppf v =
  let cls =
    if v.lr0 then "LR(0)"
    else if v.slr1 then "SLR(1) (not LR(0))"
    else if v.lalr1 then "LALR(1) (not SLR(1))"
    else if v.lr1 then "LR(1) (not LALR(1))"
    else if v.not_lr_k then "not LR(k) for any k (reads cycle)"
    else "not LR(1)"
  in
  Format.fprintf ppf "%s; LR(0) states %d" cls v.lr0_states;
  if v.lr1_states > 0 then Format.fprintf ppf ", LR(1) states %d" v.lr1_states;
  if v.lalr1 && not v.nqlalr1 then
    Format.fprintf ppf "; NQLALR reports spurious conflicts (%d s/r, %d r/r)"
      v.nq_sr_conflicts v.nq_rr_conflicts
