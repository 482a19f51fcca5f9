module Bitset = Lalr_sets.Bitset
module Cell_index = Lalr_sets.Cell_index
module Lr0 = Lalr_automaton.Lr0

type action = Shift of int | Reduce of int | Accept | Error

type conflict_kind =
  | Shift_reduce of { shift_to : int; reduce : int }
  | Reduce_reduce of { kept : int; dropped : int }

type resolution = By_precedence | By_default

type conflict = {
  state : int;
  terminal : int;
  kind : conflict_kind;
  chosen : action;
  resolution : resolution;
}

type t = {
  automaton : Lr0.t;
  (* Packed ACTION rows: state [s]'s non-error cells are
     (cell_terminals.(i), cell_actions.(i)) for i in
     [offsets.(s) .. offsets.(s+1) - 1], terminals ascending. Error is
     the absence of a cell. The arrays may run past the last row's
     end. *)
  offsets : int array;
  cell_terminals : int array;
  cell_actions : action array;
  index : Cell_index.t;  (* (state, terminal) -> cell position *)
  conflicts : conflict list;
}

let automaton t = t.automaton

let action t ~state ~terminal =
  let i = Cell_index.find t.index ~row:state ~col:terminal in
  if i < 0 then Error else t.cell_actions.(i)

let iter_actions t state f =
  for i = t.offsets.(state) to t.offsets.(state + 1) - 1 do
    f t.cell_terminals.(i) t.cell_actions.(i)
  done

let goto t ~state ~nonterminal =
  Lr0.goto t.automaton state (Symbol.N nonterminal)

(* Decide a shift/reduce conflict by precedence. Returns the action and
   whether declarations settled it. *)
let resolve_sr g ~shift_to ~terminal ~reduce =
  let tprec = g.Grammar.terminal_prec.(terminal) in
  let pprec = (Grammar.production g reduce).prec in
  match (tprec, pprec) with
  | Some (tl, _), Some (pl, _) when pl > tl -> (Reduce reduce, By_precedence)
  | Some (tl, _), Some (pl, _) when pl < tl -> (Shift shift_to, By_precedence)
  | Some (_, Grammar.Left), Some _ -> (Reduce reduce, By_precedence)
  | Some (_, Grammar.Right), Some _ -> (Shift shift_to, By_precedence)
  | Some (_, Grammar.Nonassoc), Some _ -> (Error, By_precedence)
  | _ -> (Shift shift_to, By_default)

(* The yacc rule for one state's ACTION row. [row_resolver a ~conflict
   ~cell] returns [resolve s las], which fills a scratch row reused
   across states: shifts, then accept on $ out of the accept state,
   then each reduction's look-ahead ([las], ascending production
   order), passing every clash to [conflict]. A cell that nonassoc
   turned into Error takes a later reduction on the same terminal with
   no conflict. It then calls [cell terminal action] on the written
   cells in terminal order, Error ones included, and resets the row. *)
let row_resolver a ~conflict ~cell =
  let g = Lr0.grammar a in
  let n_term = Grammar.n_terminals g in
  let accept = Lr0.accept_state a in
  let row = Array.make n_term Error and touched = Bitset.create n_term in
  (* Cells share one Shift/Reduce value per target/production instead
     of allocating one per cell. *)
  let shift_to = Array.init (Lr0.n_states a) (fun q -> Shift q) in
  let reduce_by = Array.init (Grammar.n_productions g) (fun p -> Reduce p) in
  let clash state terminal kind chosen resolution =
    conflict { state; terminal; kind; chosen; resolution }
  in
  fun s las ->
    Lr0.iter_t_transitions a s (fun tt target ->
        row.(tt) <- shift_to.(target);
        Bitset.add touched tt);
    if s = accept then begin
      row.(0) <- Accept;
      Bitset.add touched 0
    end;
    List.iter
      (fun (pid, la) ->
        ignore (Bitset.union_into ~into:touched la);
        Bitset.iter
          (fun terminal ->
            match row.(terminal) with
            | Error -> row.(terminal) <- reduce_by.(pid)
            | Shift shift_to ->
                let chosen, resolution =
                  resolve_sr g ~shift_to ~terminal ~reduce:pid
                in
                row.(terminal) <- chosen;
                clash s terminal (Shift_reduce { shift_to; reduce = pid })
                  chosen resolution
            | Reduce other ->
                (* reductions are visited in ascending pid order *)
                let kept = min other pid and dropped = max other pid in
                row.(terminal) <- reduce_by.(kept);
                clash s terminal (Reduce_reduce { kept; dropped })
                  reduce_by.(kept) By_default
            | Accept ->
                (* A reduction whose look-ahead contains $ in the accept
                   state (possible when the start symbol is nullable or
                   right-recursive under ambiguity). Keep the accept and
                   report it like an unresolved shift/reduce. *)
                clash s terminal (Shift_reduce { shift_to = s; reduce = pid })
                  Accept By_default)
          la)
      las;
    Bitset.iter
      (fun tt ->
        cell tt row.(tt);
        row.(tt) <- Error)
      touched;
    Bitset.clear touched

let lookaheads ~lookahead a s =
  List.map (fun pid -> (pid, lookahead ~state:s ~prod:pid)) (Lr0.reductions a s)

let build ~lookahead (a : Lr0.t) =
  let n_states = Lr0.n_states a in
  (* Each reduction's look-ahead, fetched once. Shifts plus look-ahead
     sizes bound the row lengths, so the packed rows are allocated once
     (conflicting cells are counted twice and leave a little slack). *)
  let las = Array.init n_states (lookaheads ~lookahead a) in
  let bound = ref 1 in
  for s = 0 to n_states - 1 do
    Lr0.iter_t_transitions a s (fun _ _ -> incr bound);
    List.iter (fun (_, la) -> bound := !bound + Bitset.cardinal la) las.(s)
  done;
  let offsets = Array.make (n_states + 1) 0 in
  let cell_terminals = Array.make !bound 0 in
  let cell_actions = Array.make !bound Error in
  let n_cells = ref 0 in
  let conflicts = ref [] in
  let conflict c = conflicts := c :: !conflicts in
  let cell tt = function
    | Error -> ()
    | v ->
        cell_terminals.(!n_cells) <- tt;
        cell_actions.(!n_cells) <- v;
        incr n_cells
  in
  let resolve = row_resolver a ~conflict ~cell in
  for s = 0 to n_states - 1 do
    resolve s las.(s);
    offsets.(s + 1) <- !n_cells
  done;
  {
    automaton = a;
    offsets;
    cell_terminals;
    cell_actions;
    index =
      Cell_index.of_rows
        ~n_cols:(Grammar.n_terminals (Lr0.grammar a))
        ~offsets ~cols:cell_terminals;
    conflicts = List.rev !conflicts;
  }

type clash_class = Clean | Reduce_reduce_only | Some_shift_reduce
type conflict_counts = { n_sr : int; n_rr : int; clash : clash_class }

let no_conflicts = { n_sr = 0; n_rr = 0; clash = Clean }

(* The counts, plus one conflict: the unresolved ones are counted, and
   every one raises the clash class (declared from clean to worst). *)
let tally { n_sr; n_rr; clash } c =
  let unresolved = Bool.to_int (c.resolution = By_default) in
  match c.kind with
  | Shift_reduce _ ->
      { n_sr = n_sr + unresolved; n_rr; clash = Some_shift_reduce }
  | Reduce_reduce _ ->
      { n_sr; n_rr = n_rr + unresolved; clash = max clash Reduce_reduce_only }

let count_conflicts ~lookahead a =
  let counts = ref no_conflicts in
  let resolve =
    row_resolver a
      ~conflict:(fun c -> counts := tally !counts c)
      ~cell:(fun _ _ -> ())
  in
  (* Only a reducing state can hold a conflict. *)
  for s = 0 to Lr0.n_states a - 1 do
    if Lr0.reductions a s <> [] then resolve s (lookaheads ~lookahead a s)
  done;
  !counts

let conflicts t = t.conflicts

let unresolved_conflicts t =
  List.filter (fun c -> c.resolution = By_default) t.conflicts

let n_shift_reduce t = (List.fold_left tally no_conflicts t.conflicts).n_sr
let n_reduce_reduce t = (List.fold_left tally no_conflicts t.conflicts).n_rr

let default_reductions t =
  Array.init (Lr0.n_states t.automaton) (fun s ->
      let result = ref (-2) in
      (* -2: unset, -1: disqualified *)
      iter_actions t s (fun _ -> function
        | Reduce p ->
            if !result = -2 then result := p
            else if !result <> p then result := -1
        | Shift _ | Accept | Error -> result := -1);
      if !result >= 0 then !result else -1)

let pp_conflict g ppf c =
  let tname = Grammar.terminal_name g c.terminal in
  (match c.kind with
  | Shift_reduce { shift_to; reduce } ->
      Format.fprintf ppf
        "state %d, on %s: shift/reduce (shift to %d vs reduce %a)" c.state
        tname shift_to
        (Grammar.pp_production g)
        (Grammar.production g reduce)
  | Reduce_reduce { kept; dropped } ->
      Format.fprintf ppf
        "state %d, on %s: reduce/reduce (%a vs %a)" c.state tname
        (Grammar.pp_production g)
        (Grammar.production g kept)
        (Grammar.pp_production g)
        (Grammar.production g dropped));
  Format.fprintf ppf " — %s"
    (match (c.resolution, c.chosen) with
    | By_precedence, Shift _ -> "resolved to shift by precedence"
    | By_precedence, Reduce _ -> "resolved to reduce by precedence"
    | By_precedence, Error -> "resolved to error (nonassoc)"
    | By_precedence, Accept -> assert false
    | By_default, Shift _ -> "defaulted to shift"
    | By_default, Reduce _ -> "defaulted to earlier rule"
    | By_default, Accept -> "kept accept"
    | By_default, Error -> assert false)

let pp ppf t =
  let a = t.automaton in
  let g = Lr0.grammar a in
  let n_term = Grammar.n_terminals g in
  let n_nt = Grammar.n_nonterminals g in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "state |";
  for tt = 0 to n_term - 1 do
    Format.fprintf ppf " %6s" (Grammar.terminal_name g tt)
  done;
  Format.fprintf ppf " |";
  for n = 1 to n_nt - 1 do
    Format.fprintf ppf " %6s" (Grammar.nonterminal_name g n)
  done;
  Format.fprintf ppf "@,";
  for s = 0 to Lr0.n_states a - 1 do
    Format.fprintf ppf "%5d |" s;
    for tt = 0 to n_term - 1 do
      match action t ~state:s ~terminal:tt with
      | Error -> Format.fprintf ppf " %6s" "."
      | Shift q -> Format.fprintf ppf " %6s" (Printf.sprintf "s%d" q)
      | Reduce p -> Format.fprintf ppf " %6s" (Printf.sprintf "r%d" p)
      | Accept -> Format.fprintf ppf " %6s" "acc"
    done;
    Format.fprintf ppf " |";
    for n = 1 to n_nt - 1 do
      match Lr0.goto a s (Symbol.N n) with
      | Some q -> Format.fprintf ppf " %6d" q
      | None -> Format.fprintf ppf " %6s" "."
    done;
    Format.fprintf ppf "@,"
  done;
  List.iter
    (fun c -> Format.fprintf ppf "%a@," (pp_conflict g) c)
    t.conflicts;
  Format.fprintf ppf "@]"
