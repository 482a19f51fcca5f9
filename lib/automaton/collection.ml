module Vec = Lalr_sets.Vec
module Bitset = Lalr_sets.Bitset
module Budget = Lalr_guard.Budget

type 'i t = {
  kernels : 'i array array;
  closures : 'i array array;
  t_offsets : int array;
  t_syms : int array;
  t_tgts : int array;
  n_offsets : int array;
  n_syms : int array;
  n_tgts : int array;
}

let n_states c = Array.length c.kernels

let build g tbl ~name ~compare ~core ~advance ~closure initial =
  let n_term = Grammar.n_terminals g in
  (* Symbols as int codes: terminal t is t, nonterminal n is n_term + n,
     so ascending codes are the row order. [code] maps an LR(0) item to
     the code of the symbol after its dot, -1 for a final item. *)
  let code =
    Array.init (Item.n_items tbl) (fun item ->
        match Item.next_symbol tbl item with
        | Some (Symbol.T t) -> t
        | Some (Symbol.N n) -> n_term + n
        | None -> -1)
  in
  let kernels = Vec.create () and closures = Vec.create () in
  let index = Hashtbl.create 1024 in
  let partial () =
    Printf.sprintf "%d %s states constructed" (Vec.length kernels) name
  in
  let intern kernel =
    match Hashtbl.find_opt index kernel with
    | Some id -> id
    | None ->
        Budget.count_state ~partial ();
        Hashtbl.add index kernel (Vec.length kernels);
        Vec.push kernels kernel
  in
  ignore (intern [| initial |]);
  (* One bucket per symbol code, emptied after each state: the advanced
     items of the closure items with that symbol after the dot. *)
  let n_codes = n_term + Grammar.n_nonterminals g in
  let buckets = Array.make n_codes [] and targets = Array.make n_codes 0 in
  let t_offsets = Vec.create () and t_syms = Vec.create () in
  let t_tgts = Vec.create () and n_offsets = Vec.create () in
  let n_syms = Vec.create () and n_tgts = Vec.create () in
  let push v x = ignore (Vec.push v x) in
  let cursor = ref 0 in
  while !cursor < Vec.length kernels do
    Budget.burn ();
    let items = closure (Vec.get kernels !cursor) in
    Array.sort compare items;
    Budget.count_items ~partial (Array.length items);
    push closures items;
    (* [order] lists the codes present, latest first appearance first;
       interning successors in that order fixes the state numbering. *)
    let order = ref [] in
    Array.iter
      (fun item ->
        let c = code.(core item) in
        if c >= 0 then begin
          (match buckets.(c) with [] -> order := c :: !order | _ :: _ -> ());
          buckets.(c) <- advance item :: buckets.(c)
        end)
      items;
    List.iter
      (fun c ->
        let kernel = Array.of_list buckets.(c) in
        buckets.(c) <- [];
        Array.sort compare kernel;
        targets.(c) <- intern kernel)
      !order;
    push t_offsets (Vec.length t_syms);
    push n_offsets (Vec.length n_syms);
    List.iter
      (fun c ->
        if c < n_term then (push t_syms c; push t_tgts targets.(c))
        else (push n_syms (c - n_term); push n_tgts targets.(c)))
      (List.sort Int.compare !order);
    incr cursor
  done;
  push t_offsets (Vec.length t_syms);
  push n_offsets (Vec.length n_syms);
  {
    kernels = Vec.to_array kernels;
    closures = Vec.to_array closures;
    t_offsets = Vec.to_array t_offsets;
    t_syms = Vec.to_array t_syms;
    t_tgts = Vec.to_array t_tgts;
    n_offsets = Vec.to_array n_offsets;
    n_syms = Vec.to_array n_syms;
    n_tgts = Vec.to_array n_tgts;
  }

let overlaps c ~n_term ~lookaheads =
  let sr = ref false and rr = ref false in
  for s = 0 to n_states c - 1 do
    match lookaheads s with
    | [] -> ()
    | sets ->
        let shiftable = Bitset.create n_term in
        for i = c.t_offsets.(s) to c.t_offsets.(s + 1) - 1 do
          Bitset.add shiftable c.t_syms.(i)
        done;
        let reduced = Bitset.create n_term in
        List.iter
          (fun set ->
            if not (Bitset.disjoint set shiftable) then sr := true;
            if not (Bitset.disjoint set reduced) then rr := true;
            ignore (Bitset.union_into ~into:reduced set))
          sets
  done;
  (!sr, !rr)
