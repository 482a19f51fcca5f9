module Bitset = Lalr_sets.Bitset
module Item = Lalr_automaton.Item
module Lr0 = Lalr_automaton.Lr0
module Budget = Lalr_guard.Budget

type stats = {
  n_kernel_items : int;
  spontaneous : int;
  propagate_edges : int;
  passes : int;
}

type t = {
  automaton : Lr0.t;
  analysis : Analysis.t;
  (* Dense numbering of kernel items: state s's kernel occupies
     [offset.(s) .. offset.(s) + |kernel| - 1] in kernel order. *)
  offset : int array;
  lookaheads : Bitset.t array;
  stats : stats;
}

let automaton t = t.automaton

let kernel_slot t ~state ~item =
  let kernel = (Lr0.state t.automaton state).kernel in
  let rec find i =
    if i = Array.length kernel then raise Not_found
    else if kernel.(i) = item then t.offset.(state) + i
    else find (i + 1)
  in
  find 0

let kernel_lookahead t ~state ~item = t.lookaheads.(kernel_slot t ~state ~item)

let compute (a : Lr0.t) =
  Budget.with_stage "propagation" @@ fun () ->
  let g = Lr0.grammar a in
  let tbl = Lr0.items a in
  let analysis = Analysis.compute g in
  let n_term = Grammar.n_terminals g in
  let n_states = Lr0.n_states a in
  (* Kernel slot numbering. *)
  let offset = Array.make n_states 0 in
  let total = ref 0 in
  for s = 0 to n_states - 1 do
    offset.(s) <- !total;
    total := !total + Array.length (Lr0.state a s).kernel
  done;
  let lookaheads = Array.init !total (fun _ -> Bitset.create n_term) in
  let slot state item =
    let kernel = (Lr0.state a state).kernel in
    let rec find i =
      if i = Array.length kernel then
        Budget.broken_invariant ~stage:"propagation"
          (Printf.sprintf
             "advanced item %d missing from the kernel of goto target %d"
             item state)
      else if kernel.(i) = item then offset.(state) + i
      else find (i + 1)
    in
    find 0
  in
  (* Pass 1: spontaneous look-aheads and propagation edges. The LR(1)
     closure runs over n_term + 1 look-aheads, n_term standing for #. *)
  let n_la = n_term + 1 in
  let closure = Lr1.closure g tbl analysis ~n_la in
  let edges = Array.make !total [] in
  let spontaneous = ref 0 in
  let propagate_edges = ref 0 in
  for p = 0 to n_states - 1 do
    Budget.burn ();
    Array.iter
      (fun kitem ->
        Budget.burn ();
        let src = slot p kitem in
        Array.iter
          (fun packed ->
            let lr0 = packed / n_la and la = packed mod n_la in
            match Item.next_symbol tbl lr0 with
            | None -> ()
            | Some sym ->
                let q = Lr0.goto_exn a p sym in
                let dst = slot q (Item.advance tbl lr0) in
                if la = n_term then begin
                  (* # : propagation from src to dst. *)
                  edges.(src) <- dst :: edges.(src);
                  incr propagate_edges
                end
                else begin
                  Bitset.add lookaheads.(dst) la;
                  incr spontaneous
                end)
          (closure [| (kitem * n_la) + n_term |]))
      (Lr0.state a p).kernel
  done;
  (* Pass 2: round-based propagation to fixpoint, as in yacc. *)
  let passes = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr passes;
    for src = 0 to !total - 1 do
      Budget.burn ();
      List.iter
        (fun dst ->
          if Bitset.union_into ~into:lookaheads.(dst) lookaheads.(src) then
            changed := true)
        edges.(src)
    done
  done;
  {
    automaton = a;
    analysis;
    offset;
    lookaheads;
    stats =
      {
        n_kernel_items = !total;
        spontaneous = !spontaneous;
        propagate_edges = !propagate_edges;
        passes = !passes;
      };
  }

(* In-state LALR closure: extend kernel look-aheads to all closure items
   of [state]; needed for reductions by ε-productions whose final item is
   not in the kernel. *)
let state_closure_lookaheads t state =
  let a = t.automaton in
  let g = Lr0.grammar a in
  let tbl = Lr0.items a in
  let n_term = Grammar.n_terminals g in
  let st = Lr0.state a state in
  let las = Hashtbl.create 16 in
  Array.iter
    (fun item -> Hashtbl.replace las item (Bitset.create n_term))
    st.items;
  Array.iteri
    (fun i item ->
      ignore
        (Bitset.union_into ~into:(Hashtbl.find las item)
           t.lookaheads.(t.offset.(state) + i)))
    st.kernel;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun item ->
        match Item.next_symbol tbl item with
        | Some (Symbol.N b) ->
            let prod = Grammar.production g (Item.prod tbl item) in
            let dot = Item.dot tbl item in
            let first, nullable =
              Analysis.first_sentence t.analysis prod.rhs ~from:(dot + 1)
            in
            if nullable then
              ignore
                (Bitset.union_into ~into:first (Hashtbl.find las item));
            Array.iter
              (fun pid ->
                let init = Item.initial tbl ~prod:pid in
                if Bitset.union_into ~into:(Hashtbl.find las init) first
                then changed := true)
              (Grammar.productions_of g b)
        | Some (Symbol.T _) | None -> ())
      st.items
  done;
  las

let lookahead t ~state ~prod =
  let a = t.automaton in
  if not (List.mem prod (Lr0.reductions a state)) then raise Not_found;
  let tbl = Lr0.items a in
  let final = Item.encode tbl ~prod ~dot:(Grammar.rhs_length (Lr0.grammar a) prod) in
  match kernel_slot t ~state ~item:final with
  | s -> t.lookaheads.(s)
  | exception Not_found ->
      (* ε-production: final item lives in the closure only. *)
      Hashtbl.find (state_closure_lookaheads t state) final

let stats t = t.stats
