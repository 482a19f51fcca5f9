module Bitset = Lalr_sets.Bitset
module Lr0 = Lalr_automaton.Lr0

(* ------------------------------------------------------------------ *)
(* The list-walking Digraph traversal the arena solver replaced        *)
(* ------------------------------------------------------------------ *)

let infinity = max_int

let solve_digraph ~n ~successors ~init =
  let numbering = Array.make n 0 in
  let value = Array.make n None in
  let stack = ref [] in
  let depth = ref 0 in
  let self_loop = Array.make n false in
  let get_value x =
    match value.(x) with Some v -> v | None -> assert false
  in
  let start x =
    incr depth;
    stack := x :: !stack;
    numbering.(x) <- !depth;
    value.(x) <- Some (Bitset.copy (init x))
  in
  let finish x d =
    if numbering.(x) = d then begin
      let vx = get_value x in
      let continue = ref true in
      while !continue do
        match !stack with
        | [] -> assert false
        | top :: tl ->
            stack := tl;
            decr depth;
            numbering.(top) <- infinity;
            if top <> x then value.(top) <- Some vx;
            if top = x then continue := false
      done
    end
  in
  let visit x0 =
    start x0;
    let work = ref [ (x0, !depth, ref (successors x0)) ] in
    while !work <> [] do
      match !work with
      | [] -> ()
      | (x, d, succs) :: rest -> (
          match !succs with
          | y :: tl ->
              succs := tl;
              if y = x then self_loop.(x) <- true;
              if numbering.(y) = 0 then begin
                start y;
                work := (y, !depth, ref (successors y)) :: !work
              end
              else begin
                if numbering.(y) < numbering.(x) then
                  numbering.(x) <- numbering.(y);
                ignore (Bitset.union_into ~into:(get_value x) (get_value y))
              end
          | [] ->
              finish x d;
              work := rest;
              (match rest with
              | (parent, _, _) :: _ ->
                  if numbering.(x) < numbering.(parent) then
                    numbering.(parent) <- numbering.(x);
                  ignore
                    (Bitset.union_into ~into:(get_value parent) (get_value x))
              | [] -> ()))
    done
  in
  for x = 0 to n - 1 do
    if numbering.(x) = 0 then visit x
  done;
  Array.init n get_value

(* ------------------------------------------------------------------ *)
(* Stage 1 — boxed relation construction                               *)
(* ------------------------------------------------------------------ *)

type relations = {
  r_automaton : Lr0.t;
  r_dr : Bitset.t array;
  r_reads : int list array;
  r_includes : int list array;
  r_lookback : int list array;
  r_reduction_pairs : (int * int) array;
  r_reduction_index : (int * int, int) Hashtbl.t;
}

let relations ?analysis (a : Lr0.t) =
  let g = Lr0.grammar a in
  let analysis =
    match analysis with Some an -> an | None -> Analysis.compute g
  in
  let n_term = Grammar.n_terminals g in
  let nx = Lr0.n_nt_transitions a in
  let dr = Array.init nx (fun _ -> Bitset.create n_term) in
  let reads = Array.make nx [] in
  for x = 0 to nx - 1 do
    let r = Lr0.nt_transition_target a x in
    List.iter
      (fun (sym, _) ->
        match sym with
        | Symbol.T t -> Bitset.add dr.(x) t
        | Symbol.N c ->
            if Analysis.nullable analysis c then
              reads.(x) <- Lr0.find_nt_transition a r c :: reads.(x))
      (Lr0.transitions a r)
  done;
  let includes_rev = Array.make nx [] in
  for x' = 0 to nx - 1 do
    let p', b = Lr0.nt_transition a x' in
    Array.iter
      (fun pid ->
        let prod = Grammar.production g pid in
        let len = Array.length prod.rhs in
        let state = ref p' in
        for i = 0 to len - 1 do
          (match prod.rhs.(i) with
          | Symbol.N c
            when Analysis.nullable_sentence analysis prod.rhs ~from:(i + 1)
                   ~upto:len ->
              let x = Lr0.find_nt_transition a !state c in
              includes_rev.(x) <- x' :: includes_rev.(x)
          | Symbol.N _ | Symbol.T _ -> ());
          state := Lr0.goto_exn a !state prod.rhs.(i)
        done)
      (Grammar.productions_of g b)
  done;
  let includes = Array.map (fun l -> List.rev l) includes_rev in
  let reduction_pairs = ref [] in
  let reduction_index = Hashtbl.create 256 in
  let n_red = ref 0 in
  for q = 0 to Lr0.n_states a - 1 do
    List.iter
      (fun pid ->
        Hashtbl.replace reduction_index (q, pid) !n_red;
        reduction_pairs := (q, pid) :: !reduction_pairs;
        incr n_red)
      (Lr0.reductions a q)
  done;
  let reduction_pairs = Array.of_list (List.rev !reduction_pairs) in
  let lookback = Array.make !n_red [] in
  for x = 0 to nx - 1 do
    let p, aa = Lr0.nt_transition a x in
    Array.iter
      (fun pid ->
        if pid <> 0 then begin
          let prod = Grammar.production g pid in
          let q = Lr0.traverse a p prod.rhs ~from:0 in
          match Hashtbl.find_opt reduction_index (q, pid) with
          | Some r -> lookback.(r) <- x :: lookback.(r)
          | None -> assert false
        end)
      (Grammar.productions_of g aa)
  done;
  {
    r_automaton = a;
    r_dr = dr;
    r_reads = reads;
    r_includes = includes;
    r_lookback = lookback;
    r_reduction_pairs = reduction_pairs;
    r_reduction_index = reduction_index;
  }

(* ------------------------------------------------------------------ *)
(* Stage 2 — the two fixpoints                                         *)
(* ------------------------------------------------------------------ *)

type follow_sets = { f_read : Bitset.t array; f_follow : Bitset.t array }

let solve_follow r =
  let nx = Array.length r.r_dr in
  let read =
    solve_digraph ~n:nx
      ~successors:(fun x -> r.r_reads.(x))
      ~init:(fun x -> r.r_dr.(x))
  in
  let follow =
    solve_digraph ~n:nx
      ~successors:(fun x -> r.r_includes.(x))
      ~init:(fun x -> read.(x))
  in
  { f_read = read; f_follow = follow }

(* ------------------------------------------------------------------ *)
(* Stage 3 — the look-ahead union                                      *)
(* ------------------------------------------------------------------ *)

type t = {
  relations : relations;
  follow_sets : follow_sets;
  la : Bitset.t array;
}

let of_stages r f =
  let g = Lr0.grammar r.r_automaton in
  let n_term = Grammar.n_terminals g in
  let la =
    Array.init
      (Array.length r.r_reduction_pairs)
      (fun i ->
        let acc = Bitset.create n_term in
        List.iter
          (fun x -> ignore (Bitset.union_into ~into:acc f.f_follow.(x)))
          r.r_lookback.(i);
        acc)
  in
  { relations = r; follow_sets = f; la }

let compute a =
  let r = relations a in
  of_stages r (solve_follow r)

let automaton t = t.relations.r_automaton
let n_nt_transitions t = Array.length t.relations.r_dr
let dr t x = t.relations.r_dr.(x)
let read t x = t.follow_sets.f_read.(x)
let follow t x = t.follow_sets.f_follow.(x)
let reads t x = t.relations.r_reads.(x)
let includes t x = t.relations.r_includes.(x)
let n_reductions t = Array.length t.relations.r_reduction_pairs
let reduction t i = t.relations.r_reduction_pairs.(i)
let lookback t i = t.relations.r_lookback.(i)
let la t i = t.la.(i)
