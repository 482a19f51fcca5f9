module Kstring = Lalr_sets.Kstring
module KSet = Kstring.Set
module Item = Lalr_automaton.Item
module Lr0 = Lalr_automaton.Lr0
module Collection = Lalr_automaton.Collection
module Vec = Lalr_sets.Vec
module Budget = Lalr_guard.Budget

(* An LR(k) item is an LR(0) item with one ≤k-string, packed as
   [lr0 lsl shift lor id], [id] numbering strings in first-use order.
   Items sharing an LR(0) core stay adjacent when sorted, so states are
   numbered by LR(0) item order, whatever the strings' numbers. *)
let shift = Sys.int_size / 2
let string_of strings packed = Vec.get strings (packed land ((1 lsl shift) - 1))

type t = {
  grammar : Grammar.t;
  items : Item.table;
  strings : int list Vec.t;  (* id -> ≤k-string *)
  c : Collection.t;
}

let n_states t = Collection.n_states t.c

let closure g tbl firstk kk ~number strings kernel =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec add packed =
    if not (Hashtbl.mem seen packed) then begin
      Hashtbl.replace seen packed ();
      acc := packed :: !acc;
      let lr0 = packed lsr shift in
      match Item.next_symbol tbl lr0 with
      | Some (Symbol.N b) ->
          let prod = Grammar.production g (Item.prod tbl lr0) in
          let suffix_first =
            Firstk.sentence firstk prod.rhs ~from:(Item.dot tbl lr0 + 1)
          in
          let contexts =
            Kstring.concat_sets kk suffix_first
              (KSet.singleton (string_of strings packed))
          in
          Array.iter
            (fun pid ->
              let init = Item.initial tbl ~prod:pid lsl shift in
              KSet.iter (fun u -> add (init lor number u)) contexts)
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
  let strings = Vec.create () and ids = Hashtbl.create 64 in
  let number u =
    match Hashtbl.find_opt ids u with
    | Some id -> id
    | None ->
        let id = Vec.push strings u in
        Hashtbl.add ids u id;
        id
  in
  let c =
    Collection.build g tbl ~name:(Printf.sprintf "LR(%d)" kk)
      ~core:(fun packed -> packed lsr shift)
      ~advance:(fun packed -> packed + (1 lsl shift))
      ~closure:(closure g tbl firstk kk ~number strings)
      ((Item.initial tbl ~prod:0 lsl shift) lor number [])
  in
  { grammar = g; items = tbl; strings; c }

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
        Array.to_list kernel
        |> List.map (fun packed -> packed lsr shift)
        |> List.sort_uniq Int.compare
      in
      match Hashtbl.find_opt core_index (Array.of_list core) with
      | None -> invalid_arg "Lrk.merged_lookaheads: core not an LR(0) state"
      | Some q ->
          Array.iter
            (fun packed ->
              let lr0_item = packed lsr shift in
              let w = string_of t.strings packed in
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
