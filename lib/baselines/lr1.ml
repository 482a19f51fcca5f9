module Bitset = Lalr_sets.Bitset
module Item = Lalr_automaton.Item
module Lr0 = Lalr_automaton.Lr0
module Collection = Lalr_automaton.Collection
module Budget = Lalr_guard.Budget

(* An LR(1) item is an LR(0) item paired with one look-ahead terminal,
   packed as [lr0_item * n_terminals + la]; advancing the dot adds
   [n_terminals]. *)

type t = {
  grammar : Grammar.t;
  items : Item.table;
  n_term : int;
  c : Collection.t;
}

let n_states t = Collection.n_states t.c

(* LR(1) closure: for [A → α . B β, a], add [B → . γ, b] for every
   production B → γ and b ∈ FIRST(β a). Look-aheads range over
   [0 .. n_la-1]; those past the grammar's terminals are never in a
   FIRST set, only passed on through nullable β. *)
let closure g tbl analysis ~n_la kernel =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec add packed =
    if not (Hashtbl.mem seen packed) then begin
      Hashtbl.replace seen packed ();
      acc := packed :: !acc;
      let lr0 = packed / n_la in
      match Item.next_symbol tbl lr0 with
      | Some (Symbol.N b) ->
          let prod = Grammar.production g (Item.prod tbl lr0) in
          let first, nullable =
            Analysis.first_sentence analysis prod.rhs
              ~from:(Item.dot tbl lr0 + 1)
          in
          Array.iter
            (fun pid ->
              let init = Item.initial tbl ~prod:pid * n_la in
              Bitset.iter (fun b_la -> add (init + b_la)) first;
              if nullable then add (init + (packed mod n_la)))
            (Grammar.productions_of g b)
      | Some (Symbol.T _) | None -> ()
    end
  in
  Array.iter add kernel;
  Array.of_list !acc

let build g =
  Budget.with_stage "lr1" @@ fun () ->
  let tbl = Item.make g in
  let analysis = Analysis.compute g in
  let n_term = Grammar.n_terminals g in
  (* Initial kernel: [S' → . start $, $]. The la of this item is never
     consulted ($ cannot follow the augmented start); $ is conventional. *)
  let c =
    Collection.build g tbl ~name:"canonical LR(1)"
      ~core:(fun packed -> packed / n_term)
      ~advance:(fun packed -> packed + n_term)
      ~closure:(closure g tbl analysis ~n_la:n_term)
      (Item.initial tbl ~prod:0 * n_term)
  in
  { grammar = g; items = tbl; n_term; c }

let state_core t i =
  Array.to_list t.c.kernels.(i)
  |> List.map (fun packed -> packed / t.n_term)
  |> List.sort_uniq Int.compare |> Array.of_list

(* [(production, look-ahead set)] for each reduction of state [s],
   production 0 (accept) excluded. The closure is sorted, so a
   production's final items are adjacent and productions ascend. *)
let reduce_actions t s =
  let acc = ref [] in
  Array.iter
    (fun packed ->
      let lr0 = packed / t.n_term in
      let pid = Item.prod t.items lr0 in
      if Item.is_final t.items lr0 && pid <> 0 then begin
        let set =
          match !acc with
          | (p, set) :: _ when p = pid -> set
          | _ ->
              let set = Bitset.create t.n_term in
              acc := (pid, set) :: !acc;
              set
        in
        Bitset.add set (packed mod t.n_term)
      end)
    t.c.closures.(s);
  List.rev !acc

let is_lr1 t =
  Collection.overlaps t.c ~n_term:t.n_term ~lookaheads:(fun s ->
      List.map snd (reduce_actions t s))
  = (false, false)

let merged_lookaheads t (lr0 : Lr0.t) =
  if not (Grammar.equal_structure t.grammar (Lr0.grammar lr0)) then
    invalid_arg "Lr1.merged_lookaheads: different grammars";
  (* Identify each LR(1) state's LR(0) core with an LR(0) state id via
     kernels. The Item.table numbering coincides because both are built
     from the same grammar deterministically. *)
  let core_index = Hashtbl.create 256 in
  for s = 0 to Lr0.n_states lr0 - 1 do
    Hashtbl.replace core_index (Lr0.state lr0 s).kernel s
  done;
  let result : (int * int, Bitset.t) Hashtbl.t = Hashtbl.create 256 in
  for s = 0 to n_states t - 1 do
    match Hashtbl.find_opt core_index (state_core t s) with
    | None ->
        invalid_arg "Lr1.merged_lookaheads: LR(1) core not an LR(0) state"
    | Some q ->
        List.iter
          (fun (pid, set) ->
            match Hashtbl.find_opt result (q, pid) with
            | Some acc -> ignore (Bitset.union_into ~into:acc set)
            | None -> Hashtbl.replace result (q, pid) (Bitset.copy set))
          (reduce_actions t s)
  done;
  result
