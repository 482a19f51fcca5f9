module Vec = Lalr_sets.Vec
module Bitset = Lalr_sets.Bitset
module Budget = Lalr_guard.Budget

type t = {
  kernels : int array array;
  closures : int array array;
  t_offsets : int array;
  t_syms : int array;
  t_tgts : int array;
  n_offsets : int array;
  n_syms : int array;
  n_tgts : int array;
}

let n_states c = Array.length c.kernels

(* Sorts [a.(lo .. hi-1)]: a merge sort specialised to ints, with
   [tmp] (as long as [a]) for scratch. *)
let rec sort_range a tmp lo hi =
  if hi - lo > 8 then begin
    let mid = (lo + hi) / 2 in
    sort_range a tmp lo mid;
    sort_range a tmp mid hi;
    Array.blit a lo tmp lo (mid - lo);
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !i < mid && (!j >= hi || tmp.(!i) <= a.(!j)) then (
        a.(k) <- tmp.(!i);
        incr i)
      else (
        a.(k) <- a.(!j);
        incr j)
    done
  end
  else
    for i = lo + 1 to hi - 1 do
      let x = a.(i) and j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

let build g tbl ~name ~core ~advance ~closure initial =
  let n_term = Grammar.n_terminals g in
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
  (* Per symbol code (terminal t is t, nonterminal n is n_term + n, so
     ascending codes are the row order): how many closure items of the
     current state it labels, then how many are left to fill into its
     successor kernel. [order] lists the codes present in order of
     first appearance. *)
  let n_codes = n_term + Grammar.n_nonterminals g in
  let count = Array.make n_codes 0 and succ = Array.make n_codes [||] in
  let targets = Array.make n_codes 0 and order = Array.make n_codes 0 in
  let tmp = ref [||] in
  let t_offsets = Vec.create () and t_syms = Vec.create () in
  let t_tgts = Vec.create () and n_offsets = Vec.create () in
  let n_syms = Vec.create () and n_tgts = Vec.create () in
  let push v x = ignore (Vec.push v x) in
  let cursor = ref 0 in
  while !cursor < Vec.length kernels do
    Budget.burn ();
    let items = closure (Vec.get kernels !cursor) in
    let n = Array.length items in
    if Array.length !tmp < n then tmp := Array.make (2 * n) 0;
    sort_range items !tmp 0 n;
    Budget.count_items ~partial n;
    push closures items;
    let m = ref 0 in
    for i = 0 to n - 1 do
      let c = Item.next_code tbl (core items.(i)) in
      if c >= 0 then begin
        if count.(c) = 0 then (order.(!m) <- c; incr m);
        count.(c) <- count.(c) + 1
      end
    done;
    for j = 0 to !m - 1 do
      succ.(order.(j)) <- Array.make count.(order.(j)) 0
    done;
    (* [advance] is strictly increasing and [items] sorted, so each
       successor kernel fills in sorted order. *)
    for i = 0 to n - 1 do
      let c = Item.next_code tbl (core items.(i)) in
      if c >= 0 then begin
        let k = succ.(c) in
        k.(Array.length k - count.(c)) <- advance items.(i);
        count.(c) <- count.(c) - 1
      end
    done;
    (* Interning the latest first appearance first fixes the numbering. *)
    for j = !m - 1 downto 0 do
      targets.(order.(j)) <- intern succ.(order.(j))
    done;
    sort_range order !tmp 0 !m;
    push t_offsets (Vec.length t_syms);
    push n_offsets (Vec.length n_syms);
    for j = 0 to !m - 1 do
      let c = order.(j) in
      if c < n_term then (push t_syms c; push t_tgts targets.(c))
      else (push n_syms (c - n_term); push n_tgts targets.(c))
    done;
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
