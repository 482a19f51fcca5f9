module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Slr = Lalr_baselines.Slr
module Lr1 = Lalr_baselines.Lr1
module Nqlalr = Lalr_baselines.Nqlalr

type verdict = {
  lr0 : bool;
  slr1 : bool;
  lalr1 : bool;
  lr1 : bool;
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

let assemble ~lalr ~slr ~nqlalr ~lr1 a =
  let lalr1 = Lalr.is_lalr1 lalr in
  let not_lr_k =
    List.exists
      (function Lalr.Reads_cycle _ -> true | Lalr.Includes_cycle _ -> false)
      (Lalr.diagnostics lalr)
  in
  let lr1, lr1_states =
    match lr1 with
    | Some c -> (Lr1.is_lr1 c, Lr1.n_states c)
    | None -> (lalr1, 0)
  in
  let count lookahead = Tables.count_conflicts ~lookahead a in
  let lalr_sr_conflicts, lalr_rr_conflicts = count (Lalr.lookahead lalr) in
  let slr_sr_conflicts, slr_rr_conflicts = count (Slr.lookahead slr) in
  let nq_sr_conflicts, nq_rr_conflicts = count (Nqlalr.lookahead nqlalr) in
  {
    lr0 = Lr0.n_conflict_free_lr0 a;
    slr1 = Slr.is_slr1 slr;
    lalr1;
    lr1;
    nqlalr1 = Nqlalr.is_nqlalr1 nqlalr;
    not_lr_k;
    lr0_states = Lr0.n_states a;
    lr1_states;
    lalr_sr_conflicts;
    lalr_rr_conflicts;
    slr_sr_conflicts;
    slr_rr_conflicts;
    nq_sr_conflicts;
    nq_rr_conflicts;
  }

let classify_common ~with_lr1 g =
  let a = Lr0.build g in
  let r = Lalr.relations a in
  let lalr = Lalr.of_stages r (Lalr.solve_follow r) in
  let lr1 = if with_lr1 then Some (Lr1.build g) else None in
  assemble ~lalr ~slr:(Slr.compute a) ~nqlalr:(Nqlalr.compute r) ~lr1 a

let classify g = classify_common ~with_lr1:true g
let classify_no_lr1 g = classify_common ~with_lr1:false g

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
