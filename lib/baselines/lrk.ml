module Kstring = Lalr_sets.Kstring
module KSet = Kstring.Set
module Item = Lalr_automaton.Item
module Lr0 = Lalr_automaton.Lr0
module Collection = Lalr_automaton.Collection
module Budget = Lalr_guard.Budget

(* An LR(k) item is an LR(0) item with one ≤k-string. *)

type item = int * int list

type t = { grammar : Grammar.t; items : Item.table; c : item Collection.t }

let n_states t = Collection.n_states t.c

let closure g tbl firstk kk kernel =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec add ((lr0, w) as item) =
    if not (Hashtbl.mem seen item) then begin
      Hashtbl.replace seen item ();
      acc := item :: !acc;
      match Item.next_symbol tbl lr0 with
      | Some (Symbol.N b) ->
          let prod = Grammar.production g (Item.prod tbl lr0) in
          let suffix_first =
            Firstk.sentence firstk prod.rhs ~from:(Item.dot tbl lr0 + 1)
          in
          let contexts =
            Kstring.concat_sets kk suffix_first (KSet.singleton w)
          in
          Array.iter
            (fun pid ->
              let init = Item.initial tbl ~prod:pid in
              KSet.iter (fun u -> add (init, u)) contexts)
            (Grammar.productions_of g b)
      | Some (Symbol.T _) | None -> ()
    end
  in
  Array.iter add kernel;
  Array.of_list !acc

let build ~k:kk g =
  if kk < 1 then invalid_arg "Lrk.build: k must be >= 1";
  Budget.with_stage "lr(k)" @@ fun () ->
  let tbl = Item.make g in
  let firstk = Firstk.compute ~k:kk g in
  let c =
    Collection.build g tbl ~name:(Printf.sprintf "LR(%d)" kk) ~compare
      ~core:fst
      ~advance:(fun (lr0, w) -> (lr0 + 1, w))
      ~closure:(closure g tbl firstk kk)
      (Item.initial tbl ~prod:0, [])
  in
  { grammar = g; items = tbl; c }

let build_opt ~k g = if k < 1 then None else Some (build ~k g)

let merged_lookaheads t (lr0 : Lr0.t) =
  if not (Grammar.equal_structure t.grammar (Lr0.grammar lr0)) then
    invalid_arg "Lrk.merged_lookaheads: different grammars";
  let core_index = Hashtbl.create 256 in
  for s = 0 to Lr0.n_states lr0 - 1 do
    Hashtbl.replace core_index (Lr0.state lr0 s).kernel s
  done;
  let result : (int * int, KSet.t) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun s kernel ->
      let core =
        Array.to_list kernel |> List.map fst |> List.sort_uniq Int.compare
      in
      match Hashtbl.find_opt core_index (Array.of_list core) with
      | None -> invalid_arg "Lrk.merged_lookaheads: core not an LR(0) state"
      | Some q ->
          Array.iter
            (fun (lr0_item, w) ->
              if Item.is_final t.items lr0_item then begin
                let pid = Item.prod t.items lr0_item in
                if pid <> 0 then
                  let prev =
                    Option.value
                      (Hashtbl.find_opt result (q, pid))
                      ~default:KSet.empty
                  in
                  Hashtbl.replace result (q, pid) (KSet.add w prev)
              end)
            t.c.closures.(s))
    t.c.kernels;
  result
