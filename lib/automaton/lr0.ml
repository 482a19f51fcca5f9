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
  (* Kernels, closures and the packed transition rows (DESIGN.md §14).
     A nonterminal transition's number is its position in the n_* rows,
     so the numbering is row-major (state, nonterminal). *)
  c : Collection.t;
  tr_n_srcs : int array;  (* source state of each nonterminal transition *)
  (* (state, symbol) -> position in the rows above, for point lookups. *)
  t_index : Cell_index.t;
  n_index : Cell_index.t;
  reductions : int list array;
}

let grammar a = a.grammar
let items a = a.items_tbl
let n_states a = Collection.n_states a.c

let state a id =
  let kernel = a.c.kernels.(id) in
  (* Every kernel item of a state past 0 has the accessing symbol just
     before its dot. *)
  let accessing =
    if id = 0 then None else Item.next_symbol a.items_tbl (kernel.(0) - 1)
  in
  { id; kernel; items = a.c.closures.(id); accessing }

(* Closure of a kernel: the kernel plus, for each nonterminal after a
   dot in it, that nonterminal's closure — the initial items of every
   production reachable through leftmost nonterminals — memoized on
   first use, so the memo holds only what some state's closure holds.
   [mark] stamps the items already in [buf]. *)
let closure g tbl =
  let n_term = Grammar.n_terminals g in
  let mark = Array.make (Item.n_items tbl) (-1) and stamp = ref (-1) in
  let buf = Array.make (Item.n_items tbl) 0 and len = ref 0 in
  let add item =
    let fresh = mark.(item) <> !stamp in
    if fresh then begin
      mark.(item) <- !stamp;
      buf.(!len) <- item;
      incr len
    end;
    fresh
  in
  let nt_after item = Item.next_code tbl item - n_term in
  let rec add_nt n =
    Array.iter
      (fun pid ->
        let item = Item.initial tbl ~prod:pid in
        if add item && nt_after item >= 0 then add_nt (nt_after item))
      (Grammar.productions_of g n)
  in
  (* An empty entry is not computed yet (or has nothing to compute). *)
  let memo = Array.make (Grammar.n_nonterminals g) [||] in
  fun kernel ->
    (* Memoize first: a nonterminal's closure is built in [buf] too. *)
    Array.iter
      (fun item ->
        let n = nt_after item in
        if n >= 0 && Array.length memo.(n) = 0 then begin
          incr stamp;
          len := 0;
          add_nt n;
          memo.(n) <- Array.sub buf 0 !len
        end)
      kernel;
    incr stamp;
    len := 0;
    Array.iter (fun item -> ignore (add item)) kernel;
    Array.iter
      (fun item ->
        let n = nt_after item in
        if n >= 0 then Array.iter (fun i -> ignore (add i)) memo.(n))
      kernel;
    Array.sub buf 0 !len

let build g =
  Budget.with_stage "lr0" @@ fun () ->
  let tbl = Item.make g in
  let c =
    Collection.build g tbl ~name:"LR(0)" ~core:Fun.id
      ~advance:(Item.advance tbl) ~closure:(closure g tbl)
      (Item.initial tbl ~prod:0)
  in
  let tr_n_srcs = Array.make (Array.length c.n_syms) 0 in
  for s = 0 to Collection.n_states c - 1 do
    let lo = c.n_offsets.(s) in
    Array.fill tr_n_srcs lo (c.n_offsets.(s + 1) - lo) s
  done;
  (* A production has one final item, and item numbers ascend with
     production ids, so a sorted closure lists its reductions in order. *)
  let reductions =
    Array.map
      (fun items ->
        Array.fold_right
          (fun item acc ->
            let p = Item.prod tbl item in
            if Item.is_final tbl item && p <> 0 then p :: acc else acc)
          items [])
      c.closures
  in
  {
    grammar = g;
    items_tbl = tbl;
    c;
    tr_n_srcs;
    t_index =
      Cell_index.of_rows ~n_cols:(Grammar.n_terminals g) ~offsets:c.t_offsets
        ~cols:c.t_syms;
    n_index =
      Cell_index.of_rows ~n_cols:(Grammar.n_nonterminals g)
        ~offsets:c.n_offsets ~cols:c.n_syms;
    reductions;
  }

(* δ(s, sym), or -1 — the allocation-free core of [goto]/[goto_exn]. *)
let target a s sym =
  match sym with
  | Symbol.T t ->
      let i = Cell_index.find a.t_index ~row:s ~col:t in
      if i < 0 then -1 else a.c.t_tgts.(i)
  | Symbol.N m ->
      let i = Cell_index.find a.n_index ~row:s ~col:m in
      if i < 0 then -1 else a.c.n_tgts.(i)

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
  for i = a.c.n_offsets.(s + 1) - 1 downto a.c.n_offsets.(s) do
    acc := (Symbol.N a.c.n_syms.(i), a.c.n_tgts.(i)) :: !acc
  done;
  for i = a.c.t_offsets.(s + 1) - 1 downto a.c.t_offsets.(s) do
    acc := (Symbol.T a.c.t_syms.(i), a.c.t_tgts.(i)) :: !acc
  done;
  !acc

let iter_t_transitions a s f =
  for i = a.c.t_offsets.(s) to a.c.t_offsets.(s + 1) - 1 do
    f a.c.t_syms.(i) a.c.t_tgts.(i)
  done

let iter_n_transitions a s f =
  for i = a.c.n_offsets.(s) to a.c.n_offsets.(s + 1) - 1 do
    f a.c.n_syms.(i) a.c.n_tgts.(i)
  done

let reductions a s = a.reductions.(s)

let traverse a p rhs ~from =
  let s = ref p in
  for i = from to Array.length rhs - 1 do
    s := goto_exn a !s rhs.(i)
  done;
  !s

let n_nt_transitions a = Array.length a.c.n_syms
let nt_transition a x = (a.tr_n_srcs.(x), a.c.n_syms.(x))
let nt_transition_target a x = a.c.n_tgts.(x)

let find_nt_transition a p nt =
  let x = Cell_index.find a.n_index ~row:p ~col:nt in
  if x < 0 then raise Not_found else x

let accept_state a = goto_exn a 0 (Symbol.N a.grammar.start)

let overlaps a ~lookahead =
  Collection.overlaps a.c ~n_term:(Grammar.n_terminals a.grammar)
    ~lookaheads:(fun s ->
      List.map (fun prod -> lookahead ~state:s ~prod) a.reductions.(s))

(* LR(0) reduces on every terminal, so a reducing state may neither
   shift nor reduce twice. The accept state reduces nothing (production
   0 excluded) but shifts $; that is fine by construction. *)
let n_conflict_free_lr0 a =
  Seq.for_all
    (fun s ->
      match a.reductions.(s) with
      | [] -> true
      | [ _ ] -> a.c.t_offsets.(s) = a.c.t_offsets.(s + 1)
      | _ -> false)
    (Seq.init (n_states a) Fun.id)

let size_report a =
  let kernel_items =
    Array.fold_left (fun acc k -> acc + Array.length k) 0 a.c.kernels
  in
  ( n_states a,
    kernel_items,
    Array.length a.c.t_syms + Array.length a.c.n_syms )

let pp_state a ppf s =
  let st = state a s in
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
