module Vec = Lalr_sets.Vec
module Cell_index = Lalr_sets.Cell_index
module Budget = Lalr_guard.Budget

type state = {
  id : int;
  kernel : int array;
  items : int array;
  accessing : Symbol.t option;
}

type t = {
  grammar : Grammar.t;
  items_tbl : Item.table;
  states : state array;
  (* Packed per-state transition rows (DESIGN.md §14): state [s]'s
     outgoing terminal edges are (tr_t_syms.(i), tr_t_tgts.(i)) for
     i in [tr_t_offsets.(s) .. tr_t_offsets.(s+1) - 1], symbols
     ascending; likewise tr_n_* for nonterminals. A nonterminal
     transition's number is its position i in the tr_n_* rows, so
     the numbering is row-major (state, nonterminal). *)
  tr_t_offsets : int array;
  tr_t_syms : int array;
  tr_t_tgts : int array;
  tr_n_offsets : int array;
  tr_n_syms : int array;
  tr_n_tgts : int array;
  tr_n_srcs : int array;  (* source state of each nonterminal transition *)
  (* (state, symbol) -> position in the rows above, for point lookups. *)
  t_index : Cell_index.t;
  n_index : Cell_index.t;
  reductions : int list array;
}

let grammar a = a.grammar
let items a = a.items_tbl
let n_states a = Array.length a.states
let state a i = a.states.(i)

(* Closure of a kernel: add initial items of every production of every
   nonterminal appearing after a dot, to fixpoint. Returns sorted. *)
let closure g tbl kernel =
  let added = Hashtbl.create 16 in
  let acc = ref [] in
  let rec add item =
    if not (Hashtbl.mem added item) then begin
      Hashtbl.replace added item ();
      acc := item :: !acc;
      match Item.next_symbol tbl item with
      | Some (Symbol.N n) ->
          Array.iter
            (fun pid -> add (Item.initial tbl ~prod:pid))
            (Grammar.productions_of g n)
      | Some (Symbol.T _) | None -> ()
    end
  in
  Array.iter add kernel;
  let arr = Array.of_list !acc in
  Array.sort Int.compare arr;
  arr

module Kernel_key = struct
  type t = int array

  let equal = ( = )
  let hash (k : int array) = Hashtbl.hash k
end

module Kernel_tbl = Hashtbl.Make (Kernel_key)

let build g =
  Budget.with_stage "lr0" @@ fun () ->
  let tbl = Item.make g in
  let states : state Vec.t = Vec.create () in
  let index = Kernel_tbl.create 256 in
  let trans : (Symbol.t * int) list Vec.t = Vec.create () in
  let partial () =
    Printf.sprintf "%d LR(0) states constructed" (Vec.length states)
  in
  (* Interns a kernel, returns its state id. *)
  let intern accessing kernel =
    match Kernel_tbl.find_opt index kernel with
    | Some id -> id
    | None ->
        Budget.count_state ~partial ();
        let id =
          Vec.push states
            { id = Vec.length states; kernel; items = [||]; accessing }
        in
        ignore (Vec.push trans []);
        Kernel_tbl.replace index kernel id;
        id
  in
  let initial_kernel = [| Item.initial tbl ~prod:0 |] in
  ignore (intern None initial_kernel);
  (* Worklist: states are processed in id order; new states append. *)
  let cursor = ref 0 in
  while !cursor < Vec.length states do
    Budget.burn ();
    let s = Vec.get states !cursor in
    let items = closure g tbl s.kernel in
    Budget.count_items ~partial (Array.length items);
    Vec.set states !cursor { s with items };
    (* Group non-final items by the symbol after the dot. *)
    let groups : (Symbol.t, int list) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    Array.iter
      (fun item ->
        match Item.next_symbol tbl item with
        | None -> ()
        | Some sym ->
            (match Hashtbl.find_opt groups sym with
            | None ->
                order := sym :: !order;
                Hashtbl.replace groups sym [ Item.advance tbl item ]
            | Some l -> Hashtbl.replace groups sym (Item.advance tbl item :: l)))
      items;
    let edges =
      List.rev_map
        (fun sym ->
          let kernel = Array.of_list (List.rev (Hashtbl.find groups sym)) in
          Array.sort Int.compare kernel;
          (sym, intern (Some sym) kernel))
        !order
    in
    (* Terminals first, ascending, then nonterminals ascending. *)
    let edges =
      List.sort (fun (a, _) (b, _) -> Symbol.compare a b) edges
    in
    Vec.set trans !cursor edges;
    incr cursor
  done;
  let states = Vec.to_array states in
  let n = Array.length states in
  (* The packed rows, straight from the already-sorted edge lists
     (terminals ascending, then nonterminals ascending per state). *)
  let tr_t_offsets = Array.make (n + 1) 0 in
  let tr_n_offsets = Array.make (n + 1) 0 in
  Vec.iteri
    (fun s edges ->
      List.iter
        (fun (sym, _) ->
          match sym with
          | Symbol.T _ -> tr_t_offsets.(s + 1) <- tr_t_offsets.(s + 1) + 1
          | Symbol.N _ -> tr_n_offsets.(s + 1) <- tr_n_offsets.(s + 1) + 1)
        edges)
    trans;
  for s = 1 to n do
    tr_t_offsets.(s) <- tr_t_offsets.(s) + tr_t_offsets.(s - 1);
    tr_n_offsets.(s) <- tr_n_offsets.(s) + tr_n_offsets.(s - 1)
  done;
  let tr_t_syms = Array.make tr_t_offsets.(n) 0 in
  let tr_t_tgts = Array.make tr_t_offsets.(n) 0 in
  let tr_n_syms = Array.make tr_n_offsets.(n) 0 in
  let tr_n_tgts = Array.make tr_n_offsets.(n) 0 in
  let tr_n_srcs = Array.make tr_n_offsets.(n) 0 in
  Vec.iteri
    (fun s edges ->
      let i_t = ref tr_t_offsets.(s) and i_n = ref tr_n_offsets.(s) in
      List.iter
        (fun (sym, target) ->
          match sym with
          | Symbol.T t ->
              tr_t_syms.(!i_t) <- t;
              tr_t_tgts.(!i_t) <- target;
              incr i_t
          | Symbol.N m ->
              tr_n_syms.(!i_n) <- m;
              tr_n_tgts.(!i_n) <- target;
              tr_n_srcs.(!i_n) <- s;
              incr i_n)
        edges)
    trans;
  let reductions =
    Array.map
      (fun st ->
        Array.to_list st.items
        |> List.filter_map (fun item ->
               if Item.is_final tbl item then
                 let p = Item.prod tbl item in
                 if p = 0 then None else Some p
               else None)
        |> List.sort_uniq Int.compare)
      states
  in
  {
    grammar = g;
    items_tbl = tbl;
    states;
    tr_t_offsets;
    tr_t_syms;
    tr_t_tgts;
    tr_n_offsets;
    tr_n_syms;
    tr_n_tgts;
    tr_n_srcs;
    t_index =
      Cell_index.of_rows ~n_cols:(Grammar.n_terminals g) ~offsets:tr_t_offsets
        ~cols:tr_t_syms;
    n_index =
      Cell_index.of_rows ~n_cols:(Grammar.n_nonterminals g)
        ~offsets:tr_n_offsets ~cols:tr_n_syms;
    reductions;
  }

(* δ(s, sym), or -1 — the allocation-free core of [goto]/[goto_exn]. *)
let target a s sym =
  match sym with
  | Symbol.T t ->
      let i = Cell_index.find a.t_index ~row:s ~col:t in
      if i < 0 then -1 else a.tr_t_tgts.(i)
  | Symbol.N m ->
      let i = Cell_index.find a.n_index ~row:s ~col:m in
      if i < 0 then -1 else a.tr_n_tgts.(i)

let goto a s sym =
  let v = target a s sym in
  if v < 0 then None else Some v

let goto_exn a s sym =
  let v = target a s sym in
  if v < 0 then
    invalid_arg
      (Printf.sprintf "Lr0.goto_exn: no transition from %d on %s" s
         (Grammar.symbol_name a.grammar sym))
  else v

let transitions a s =
  (* Terminals ascending, then nonterminals ascending. *)
  let acc = ref [] in
  for i = a.tr_n_offsets.(s + 1) - 1 downto a.tr_n_offsets.(s) do
    acc := (Symbol.N a.tr_n_syms.(i), a.tr_n_tgts.(i)) :: !acc
  done;
  for i = a.tr_t_offsets.(s + 1) - 1 downto a.tr_t_offsets.(s) do
    acc := (Symbol.T a.tr_t_syms.(i), a.tr_t_tgts.(i)) :: !acc
  done;
  !acc

let iter_t_transitions a s f =
  for i = a.tr_t_offsets.(s) to a.tr_t_offsets.(s + 1) - 1 do
    f a.tr_t_syms.(i) a.tr_t_tgts.(i)
  done

let iter_n_transitions a s f =
  for i = a.tr_n_offsets.(s) to a.tr_n_offsets.(s + 1) - 1 do
    f a.tr_n_syms.(i) a.tr_n_tgts.(i)
  done

let reductions a s = a.reductions.(s)

let traverse a p rhs ~from =
  let s = ref p in
  for i = from to Array.length rhs - 1 do
    s := goto_exn a !s rhs.(i)
  done;
  !s

let n_nt_transitions a = Array.length a.tr_n_syms
let nt_transition a x = (a.tr_n_srcs.(x), a.tr_n_syms.(x))
let nt_transition_target a x = a.tr_n_tgts.(x)

let find_nt_transition a p nt =
  let x = Cell_index.find a.n_index ~row:p ~col:nt in
  if x < 0 then raise Not_found else x

let accept_state a = goto_exn a 0 (Symbol.N a.grammar.start)

let n_conflict_free_lr0 a =
  let ok = ref true in
  Array.iteri
    (fun s reds ->
      match reds with
      | [] -> ()
      | [ _ ] ->
          (* any shift on a terminal conflicts *)
          if a.tr_t_offsets.(s + 1) > a.tr_t_offsets.(s) then ok := false
      | _ :: _ :: _ -> ok := false)
    a.reductions;
  (* The accept state reduces nothing (production 0 excluded) but shifts $;
     that is fine by construction. *)
  !ok

let size_report a =
  let kernel_items =
    Array.fold_left (fun acc s -> acc + Array.length s.kernel) 0 a.states
  in
  ( Array.length a.states,
    kernel_items,
    Array.length a.tr_t_syms + Array.length a.tr_n_syms )

let pp_state a ppf s =
  let st = a.states.(s) in
  Format.fprintf ppf "@[<v>state %d" s;
  (match st.accessing with
  | Some sym ->
      Format.fprintf ppf " (on %s)" (Grammar.symbol_name a.grammar sym)
  | None -> ());
  Format.fprintf ppf "@,";
  let kernel_set = Array.to_list st.kernel in
  Array.iter
    (fun item ->
      let mark = if List.mem item kernel_set then "*" else " " in
      Format.fprintf ppf "  %s %a@," mark (Item.pp a.items_tbl) item)
    st.items;
  List.iter
    (fun (sym, target) ->
      Format.fprintf ppf "  %s -> state %d@,"
        (Grammar.symbol_name a.grammar sym)
        target)
    (transitions a s);
  List.iter
    (fun p ->
      Format.fprintf ppf "  reduce %a@,"
        (Grammar.pp_production a.grammar)
        (Grammar.production a.grammar p))
    a.reductions.(s);
  Format.fprintf ppf "@]"
