module Bitset = Lalr_sets.Bitset
module Csr = Lalr_sets.Csr
module Digraph = Lalr_sets.Digraph
module Lr0 = Lalr_automaton.Lr0
module Budget = Lalr_guard.Budget
module Trace = Lalr_trace.Trace

type diagnostic = Reads_cycle of int list | Includes_cycle of int list

type mem = {
  reads_offsets_words : int;
  reads_cols_words : int;
  includes_offsets_words : int;
  includes_cols_words : int;
  lookback_offsets_words : int;
  lookback_cols_words : int;
  reduction_index_words : int;
}

type stats = {
  n_nt_transitions : int;
  dr_total : int;
  reads_edges : int;
  includes_edges : int;
  lookback_edges : int;
  n_reductions : int;
  la_total : int;
  reads_sccs : int list list;
  includes_sccs : int list list;
  reads_unions : int;
  includes_unions : int;
  reads_max_depth : int;
  includes_max_depth : int;
  mem : mem;
}

type t = {
  automaton : Lr0.t;
  analysis : Analysis.t;
  dr : Bitset.t array;
  reads : Csr.t;
  read : Bitset.t array;
  includes : Csr.t;
  follow : Bitset.t array;
  (* Reductions: dense numbering of (state, production) pairs, grouped
     by state — reduction_offsets.(q) .. reduction_offsets.(q+1) - 1
     index state q's rows of reduction_pairs. *)
  reduction_pairs : (int * int) array;
  reduction_offsets : int array;
  lookback : Csr.t;  (* reduction index -> nt transition indices *)
  la : Bitset.t array;
  diagnostics : diagnostic list;
  stats : stats;
}

let automaton t = t.automaton
let grammar t = Lr0.grammar t.automaton
let analysis t = t.analysis

(* ------------------------------------------------------------------ *)
(* Stage 1 — relation construction                                    *)
(* ------------------------------------------------------------------ *)

type relations = {
  r_automaton : Lr0.t;
  r_analysis : Analysis.t;
  r_dr : Bitset.t array;
  r_reads : Csr.t;
  r_includes : Csr.t;
  r_lookback : Csr.t;
  r_reduction_pairs : (int * int) array;
  r_reduction_offsets : int array;
}

(* The dense reduction index: state q's reductions are the contiguous
   rows offsets.(q) .. offsets.(q+1) - 1 of [pairs]; a state reduces a
   handful of productions at most, so the probe is a short scan. *)
let find_reduction_opt ~offsets ~pairs ~state ~prod =
  if state < 0 || state + 1 >= Array.length offsets then None
  else begin
    let found = ref (-1) in
    let stop = offsets.(state + 1) - 1 in
    let i = ref offsets.(state) in
    while !found < 0 && !i <= stop do
      if snd pairs.(!i) = prod then found := !i;
      incr i
    done;
    if !found < 0 then None else Some !found
  end

let reduction_index r ~state ~prod =
  match
    find_reduction_opt ~offsets:r.r_reduction_offsets
      ~pairs:r.r_reduction_pairs ~state ~prod
  with
  | Some i -> i
  | None -> raise Not_found

let relations ?analysis (a : Lr0.t) =
  Budget.with_stage "relations" @@ fun () ->
  let g = Lr0.grammar a in
  let analysis =
    match analysis with Some an -> an | None -> Analysis.compute g
  in
  let n_term = Grammar.n_terminals g in
  let nx = Lr0.n_nt_transitions a in

  (* DR(p,A) = { t | goto(goto(p,A), t) defined }, and
     reads(p,A) = { (r,C) | r = goto(p,A), goto(r,C) defined, C nullable }.
     Each relation is accumulated as an edge stream and laid out as
     two-pass counted CSR; [~rev] picks the per-row order the replaced
     cons-accumulated lists had, keeping every downstream walk
     byte-compatible. *)
  let dr = Array.init nx (fun _ -> Bitset.create n_term) in
  let reads_b = Csr.create_builder ~edges_hint:nx nx in
  for x = 0 to nx - 1 do
    Budget.burn ();
    let r = Lr0.nt_transition_target a x in
    let drx = dr.(x) in
    Lr0.iter_t_transitions a r (fun t _ -> Bitset.add drx t);
    Lr0.iter_n_transitions a r (fun c _ ->
        if Analysis.nullable analysis c then
          Csr.add reads_b ~src:x ~dst:(Lr0.find_nt_transition a r c))
  done;
  let reads = Csr.build ~rev:true reads_b in

  (* Reductions: a reduction is a (state q, production A → ω) with the
     final item in q; production 0 is excluded (accept). *)
  let n_states = Lr0.n_states a in
  let reduction_offsets = Array.make (n_states + 1) 0 in
  let n_red = ref 0 in
  for q = 0 to n_states - 1 do
    reduction_offsets.(q) <- !n_red;
    n_red := !n_red + List.length (Lr0.reductions a q)
  done;
  reduction_offsets.(n_states) <- !n_red;
  let reduction_pairs = Array.make !n_red (0, 0) in
  for q = 0 to n_states - 1 do
    List.iteri
      (fun i pid -> reduction_pairs.(reduction_offsets.(q) + i) <- (q, pid))
      (Lr0.reductions a q)
  done;

  (* includes and lookback, off one walk of ω from p' for each
     nonterminal transition (p',B) and production B → ω: at each
     nonterminal position i with a nullable suffix ω_(i+1..),
     (state_before_ω_i, ω_i) includes (p',B); where the walk ends, in
     q, (p',B) is in lookback(q, B→ω). [nullable_from.(pid)] is where
     the production's longest nullable suffix starts. *)
  let nullable_from =
    Array.init (Grammar.n_productions g) (fun pid ->
        let rhs = (Grammar.production g pid).rhs in
        let i = ref (Array.length rhs) in
        while !i > 0 && Analysis.nullable_symbol analysis rhs.(!i - 1) do
          decr i
        done;
        !i)
  in
  let includes_b = Csr.create_builder ~edges_hint:(2 * nx) nx in
  let lookback_b =
    Csr.create_builder ~edges_hint:(2 * !n_red) ~n_cols:(max nx 1) !n_red
  in
  for x' = 0 to nx - 1 do
    Budget.burn ();
    Budget.burn ();
    let p', b = Lr0.nt_transition a x' in
    Array.iter
      (fun pid ->
        Budget.burn ();
        let rhs = (Grammar.production g pid).rhs in
        let state = ref p' in
        for i = 0 to Array.length rhs - 1 do
          match rhs.(i) with
          | Symbol.N c ->
              let x = Lr0.find_nt_transition a !state c in
              if i + 1 >= nullable_from.(pid) then
                Csr.add includes_b ~src:x ~dst:x';
              state := Lr0.nt_transition_target a x
          | Symbol.T _ -> state := Lr0.goto_exn a !state rhs.(i)
        done;
        if pid <> 0 then
          match
            find_reduction_opt ~offsets:reduction_offsets
              ~pairs:reduction_pairs ~state:!state ~prod:pid
          with
          | Some r -> Csr.add lookback_b ~src:r ~dst:x'
          | None ->
              (* The state reached must contain the final item of pid. *)
              Budget.broken_invariant ~stage:"relations"
                (Printf.sprintf
                   "lookback: state %d reached by walking production %d from \
                    nonterminal transition %d lacks the final item"
                   !state pid x'))
      (Grammar.productions_of g b)
  done;
  let includes = Csr.build includes_b in
  let lookback = Csr.build ~rev:true lookback_b in
  {
    r_automaton = a;
    r_analysis = analysis;
    r_dr = dr;
    r_reads = reads;
    r_includes = includes;
    r_lookback = lookback;
    r_reduction_pairs = reduction_pairs;
    r_reduction_offsets = reduction_offsets;
  }

(* Kahn's peel: a transition leaves once all its reads-predecessors
   have, so some stay exactly when [reads] has a cycle, a self-loop
   included: the nontrivial SCCs [solve_follow] reports. *)
let reads_cyclic r =
  let n = Csr.n_rows r.r_reads in
  let indeg = Array.make n 0 and stack = Array.make n 0 in
  Csr.edges r.r_reads (fun ~src:_ ~dst -> indeg.(dst) <- indeg.(dst) + 1);
  let top = ref 0 and left = ref n in
  let push x = stack.(!top) <- x; incr top in
  Array.iteri (fun x d -> if d = 0 then push x) indeg;
  while !top > 0 do
    decr top;
    decr left;
    Csr.iter_row r.r_reads stack.(!top) (fun y ->
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then push y)
  done;
  !left > 0

(* ------------------------------------------------------------------ *)
(* Stage 2 — the two Digraph fixpoints                                *)
(* ------------------------------------------------------------------ *)

type follow_sets = {
  f_read : Bitset.t array;
  f_follow : Bitset.t array;
  f_reads_sccs : int list list;
  f_includes_sccs : int list list;
  f_reads_digraph : Digraph.stats;
  f_includes_digraph : Digraph.stats;
}

let solve_follow r =
  let read, read_stats =
    Trace.with_span "lalr.solve.read" (fun () ->
        Digraph.ForBitset.run_csr ~graph:r.r_reads
          ~init:(fun x -> r.r_dr.(x)))
  in
  let follow, follow_stats =
    Trace.with_span "lalr.solve.follow" (fun () ->
        Digraph.ForBitset.run_csr ~graph:r.r_includes
          ~init:(fun x -> read.(x)))
  in
  {
    f_read = read;
    f_follow = follow;
    f_reads_sccs = read_stats.Digraph.nontrivial_sccs;
    f_includes_sccs = follow_stats.Digraph.nontrivial_sccs;
    f_reads_digraph = read_stats;
    f_includes_digraph = follow_stats;
  }

(* ------------------------------------------------------------------ *)
(* Stage 3 — look-ahead union, diagnostics, assembly                  *)
(* ------------------------------------------------------------------ *)

let of_stages r f =
  let g = Lr0.grammar r.r_automaton in
  let n_term = Grammar.n_terminals g in
  let n_red = Array.length r.r_reduction_pairs in
  (* LA(q, A→ω) = ⋃ Follow over lookback. *)
  let la =
    Array.init n_red (fun i ->
        let acc = Bitset.create n_term in
        Csr.iter_row r.r_lookback i (fun x ->
            ignore (Bitset.union_into ~into:acc f.f_follow.(x)));
        acc)
  in
  let diagnostics =
    List.map (fun c -> Reads_cycle c) f.f_reads_sccs
    @ List.map (fun c -> Includes_cycle c) f.f_includes_sccs
  in
  let stats =
    {
      n_nt_transitions = Array.length r.r_dr;
      dr_total =
        Array.fold_left (fun acc s -> acc + Bitset.cardinal s) 0 r.r_dr;
      reads_edges = Csr.n_edges r.r_reads;
      includes_edges = Csr.n_edges r.r_includes;
      lookback_edges = Csr.n_edges r.r_lookback;
      n_reductions = n_red;
      la_total = Array.fold_left (fun acc s -> acc + Bitset.cardinal s) 0 la;
      reads_sccs = f.f_reads_sccs;
      includes_sccs = f.f_includes_sccs;
      reads_unions = f.f_reads_digraph.Digraph.unions;
      includes_unions = f.f_includes_digraph.Digraph.unions;
      reads_max_depth = f.f_reads_digraph.Digraph.max_stack_depth;
      includes_max_depth = f.f_includes_digraph.Digraph.max_stack_depth;
      mem =
        {
          reads_offsets_words = Csr.offsets_words r.r_reads;
          reads_cols_words = Csr.cols_words r.r_reads;
          includes_offsets_words = Csr.offsets_words r.r_includes;
          includes_cols_words = Csr.cols_words r.r_includes;
          lookback_offsets_words = Csr.offsets_words r.r_lookback;
          lookback_cols_words = Csr.cols_words r.r_lookback;
          reduction_index_words = Array.length r.r_reduction_offsets;
        };
    }
  in
  {
    automaton = r.r_automaton;
    analysis = r.r_analysis;
    dr = r.r_dr;
    reads = r.r_reads;
    read = f.f_read;
    includes = r.r_includes;
    follow = f.f_follow;
    reduction_pairs = r.r_reduction_pairs;
    reduction_offsets = r.r_reduction_offsets;
    lookback = r.r_lookback;
    la;
    diagnostics;
    stats;
  }

let compute (a : Lr0.t) =
  let r = relations a in
  of_stages r (solve_follow r)

let dr t x = t.dr.(x)
let read t x = t.read.(x)
let follow t x = t.follow.(x)
let reads t x = Csr.row_list t.reads x
let includes t x = Csr.row_list t.includes x
let reads_csr t = t.reads
let includes_csr t = t.includes
let lookback_csr t = t.lookback
let n_reductions t = Array.length t.reduction_pairs
let reduction t r = t.reduction_pairs.(r)

let find_reduction t ~state ~prod =
  match
    find_reduction_opt ~offsets:t.reduction_offsets ~pairs:t.reduction_pairs
      ~state ~prod
  with
  | Some r -> r
  | None -> raise Not_found

let lookback t r = Csr.row_list t.lookback r
let la t r = t.la.(r)
let lookahead t ~state ~prod = t.la.(find_reduction t ~state ~prod)
let diagnostics t = t.diagnostics
let stats t = t.stats

let is_lalr1 t =
  Lr0.overlaps t.automaton ~lookahead:(lookahead t) = (false, false)

(* ------------------------------------------------------------------ *)
(* Provenance: why is a terminal in LA(q, A→ω)?                       *)
(* ------------------------------------------------------------------ *)

type trace = {
  t_terminal : int;
  t_reduction : int;
  t_lookback : int;
  t_includes_path : int list;
  t_reads_path : int list;
  t_dr : int;
}

(* Last element in O(n) — the provenance paths below need their final
   node, and [List.nth l (length l - 1)] walks the spine twice per
   lookup (quadratic when a caller chains these on long paths). *)
let rec last = function
  | [] -> invalid_arg "Lalr.last: empty path"
  | [ x ] -> x
  | _ :: tl -> last tl

(* Shortest path (BFS) from [start] to a node satisfying [hit];
   returns the node list including both endpoints. Successor scans
   walk the relation's CSR row directly. *)
let bfs_path ~graph ~start ~hit =
  if hit start then Some [ start ]
  else begin
    let n = Csr.n_rows graph in
    let prev = Array.make n (-2) in
    prev.(start) <- -1;
    let q = Queue.create () in
    Queue.add start q;
    let found = ref None in
    while !found = None && not (Queue.is_empty q) do
      let u = Queue.pop q in
      Csr.iter_row graph u (fun v ->
          if !found = None && prev.(v) = -2 then begin
            prev.(v) <- u;
            if hit v then found := Some v else Queue.add v q
          end)
    done;
    match !found with
    | None -> None
    | Some v ->
        let rec walk v acc =
          if prev.(v) = -1 then v :: acc else walk prev.(v) (v :: acc)
        in
        Some (walk v [])
  end

let trace t ~state ~prod ~terminal =
  match
    find_reduction_opt ~offsets:t.reduction_offsets ~pairs:t.reduction_pairs
      ~state ~prod
  with
  | None -> None
  | Some r ->
      let rec try_lookbacks = function
        | [] -> None
        | x :: rest ->
            if not (Bitset.mem t.follow.(x) terminal) then try_lookbacks rest
            else begin
              (* Follow(x) = ⋃ Read over includes*-successors, and
                 Read(y) = ⋃ DR over reads*-successors, so both BFS
                 searches must succeed once the membership test above
                 passes. *)
              match
                bfs_path ~graph:t.includes ~start:x
                  ~hit:(fun y -> Bitset.mem t.read.(y) terminal)
              with
              | None -> try_lookbacks rest
              | Some inc_path -> (
                  let y = last inc_path in
                  match
                    bfs_path ~graph:t.reads ~start:y
                      ~hit:(fun z -> Bitset.mem t.dr.(z) terminal)
                  with
                  | None -> try_lookbacks rest
                  | Some reads_path ->
                      Some
                        {
                          t_terminal = terminal;
                          t_reduction = r;
                          t_lookback = x;
                          t_includes_path = List.tl inc_path;
                          t_reads_path = List.tl reads_path;
                          t_dr = last reads_path;
                        })
            end
      in
      try_lookbacks (Csr.row_list t.lookback r)

let pp_nt_transition t ppf x =
  let p, a = Lr0.nt_transition t.automaton x in
  Format.fprintf ppf "(%d, %s)" p (Grammar.nonterminal_name (grammar t) a)

let pp_trace t ppf tr =
  let g = grammar t in
  let q, pid = t.reduction_pairs.(tr.t_reduction) in
  let term = Grammar.terminal_name g tr.t_terminal in
  Format.fprintf ppf "@[<v>'%s' ∈ LA(%d, %a):@," term q
    (Grammar.pp_production g) (Grammar.production g pid);
  Format.fprintf ppf "  lookback  (%d, %a) ⇝ %a@," q
    (Grammar.pp_production g) (Grammar.production g pid)
    (pp_nt_transition t) tr.t_lookback;
  (match tr.t_includes_path with
  | [] -> ()
  | path ->
      Format.fprintf ppf "  includes  %a" (pp_nt_transition t) tr.t_lookback;
      List.iter
        (fun x -> Format.fprintf ppf " → %a" (pp_nt_transition t) x)
        path;
      Format.fprintf ppf "@,");
  (match tr.t_reads_path with
  | [] -> ()
  | path ->
      let first =
        match tr.t_includes_path with
        | [] -> tr.t_lookback
        | l -> last l
      in
      Format.fprintf ppf "  reads     %a" (pp_nt_transition t) first;
      List.iter
        (fun x -> Format.fprintf ppf " → %a" (pp_nt_transition t) x)
        path;
      Format.fprintf ppf "@,");
  let p, a = Lr0.nt_transition t.automaton tr.t_dr in
  Format.fprintf ppf "  DR        '%s' ∈ DR%a — shiftable in state %d@]" term
    (pp_nt_transition t) tr.t_dr
    (Lr0.goto_exn t.automaton p (Symbol.N a))

let pp ppf t =
  let g = grammar t in
  let pp_term ppf tt = Format.pp_print_string ppf (Grammar.terminal_name g tt) in
  let pp_set = Bitset.pp ~pp_elt:pp_term in
  Format.fprintf ppf "@[<v>";
  for x = 0 to Lr0.n_nt_transitions t.automaton - 1 do
    Format.fprintf ppf "%a: DR=%a Read=%a Follow=%a" (pp_nt_transition t) x
      pp_set t.dr.(x) pp_set t.read.(x) pp_set t.follow.(x);
    if Csr.degree t.reads x > 0 then begin
      Format.fprintf ppf " reads:";
      Csr.iter_row t.reads x (fun y ->
          Format.fprintf ppf " %a" (pp_nt_transition t) y)
    end;
    if Csr.degree t.includes x > 0 then begin
      Format.fprintf ppf " includes:";
      Csr.iter_row t.includes x (fun y ->
          Format.fprintf ppf " %a" (pp_nt_transition t) y)
    end;
    Format.fprintf ppf "@,"
  done;
  Array.iteri
    (fun r (q, pid) ->
      Format.fprintf ppf "LA(%d, %a) = %a@," q
        (Grammar.pp_production g)
        (Grammar.production g pid)
        pp_set t.la.(r))
    t.reduction_pairs;
  Format.fprintf ppf "@]"
