module Lr0 = Lalr_automaton.Lr0

type mode = Exact | Yacc

type t = {
  tables : Tables.t;  (* kept for goto and as the source of truth *)
  mode : mode;
  n_terminals : int;
  n_states : int;
  default : int array;  (* production id, or -1 *)
  base : int array;  (* row displacement per state *)
  packed : Tables.action array;  (* value vector *)
  checkv : int array;  (* owner state per packed slot, -1 = free *)
  default_states : int;
}

let mode t = t.mode

(* Yacc-style default choice: the most frequent Reduce of the state
   (ties to the smallest production id), or -1 when the state reduces
   nothing. *)
let yacc_default tables ~state =
  let counts = Hashtbl.create 4 in
  Tables.iter_actions tables state (fun _ -> function
    | Tables.Reduce p ->
        Hashtbl.replace counts p
          (1 + Option.value (Hashtbl.find_opt counts p) ~default:0)
    | _ -> ());
  Hashtbl.fold
    (fun p c (best_p, best_c) ->
      if c > best_c || (c = best_c && p < best_p) then (p, c)
      else (best_p, best_c))
    counts (-1, 0)
  |> fst

(* Entries that remain in a row once the default is factored out: the
   row's cells other than the default reduction. In Exact mode the
   Error cells of a defaulting state stay too, as explicit entries, so
   that a lookup miss never falls back to the default; in Yacc mode
   they are dropped. *)
let residual_row tables ~mode ~n_terminals ~state ~default =
  let keep a = a <> Tables.Reduce default in
  let row = ref [] in
  (* descending terminal order *)
  Tables.iter_actions tables state (fun terminal a ->
      row := (terminal, a) :: !row);
  if mode = Exact && default >= 0 then begin
    let cells = ref [] in
    for terminal = n_terminals - 1 downto 0 do
      let a =
        match !row with
        | (t, a) :: rest when t = terminal ->
            row := rest;
            a
        | _ -> Tables.Error
      in
      if keep a then cells := (terminal, a) :: !cells
    done;
    !cells
  end
  else
    List.fold_left
      (fun cells (terminal, a) -> if keep a then (terminal, a) :: cells else cells)
      [] !row

let compress ?(mode = Exact) tables =
  let a = Tables.automaton tables in
  let g = Lr0.grammar a in
  let n_terminals = Grammar.n_terminals g in
  let n_states = Lr0.n_states a in
  let default =
    match mode with
    | Exact -> Tables.default_reductions tables
    | Yacc ->
        Array.init n_states (fun state -> yacc_default tables ~state)
  in
  let rows =
    Array.init n_states (fun state ->
        residual_row tables ~mode ~n_terminals ~state ~default:default.(state))
  in
  (* First-fit decreasing: placing dense rows first packs better. *)
  let order = Array.init n_states Fun.id in
  Array.sort
    (fun s1 s2 -> compare (List.length rows.(s2)) (List.length rows.(s1)))
    order;
  let capacity = ref (max n_terminals 64) in
  let packed = ref (Array.make !capacity Tables.Error) in
  let checkv = ref (Array.make !capacity (-1)) in
  let ensure need =
    if need > !capacity then begin
      let cap = max need (2 * !capacity) in
      let p = Array.make cap Tables.Error and c = Array.make cap (-1) in
      Array.blit !packed 0 p 0 !capacity;
      Array.blit !checkv 0 c 0 !capacity;
      capacity := cap;
      packed := p;
      checkv := c
    end
  in
  let base = Array.make n_states 0 in
  let high_water = ref 0 in
  Array.iter
    (fun state ->
      match rows.(state) with
      | [] -> base.(state) <- 0
      | cells ->
          let fits offset =
            List.for_all
              (fun (terminal, _) ->
                let slot = offset + terminal in
                slot >= !capacity || !checkv.(slot) = -1)
              cells
          in
          let offset = ref 0 in
          while not (fits !offset) do
            incr offset
          done;
          base.(state) <- !offset;
          List.iter
            (fun (terminal, action) ->
              let slot = !offset + terminal in
              ensure (slot + 1);
              !packed.(slot) <- action;
              !checkv.(slot) <- state;
              if slot + 1 > !high_water then high_water := slot + 1)
            cells)
    order;
  let default_states =
    Array.fold_left (fun acc d -> if d >= 0 then acc + 1 else acc) 0 default
  in
  {
    tables;
    mode;
    n_terminals;
    n_states;
    default;
    base;
    packed = Array.sub !packed 0 !high_water;
    checkv = Array.sub !checkv 0 !high_water;
    default_states;
  }

let action t ~state ~terminal =
  let slot = t.base.(state) + terminal in
  if slot < Array.length t.packed && t.checkv.(slot) = state then
    t.packed.(slot)
  else if t.default.(state) >= 0 then Tables.Reduce t.default.(state)
  else Tables.Error

let goto t ~state ~nonterminal = Tables.goto t.tables ~state ~nonterminal

type stats = {
  n_states : int;
  n_terminals : int;
  dense_entries : int;
  packed_entries : int;
  default_states : int;
  compression_ratio : float;
}

let stats (t : t) =
  let dense = t.n_states * t.n_terminals in
  let packed = Array.length t.packed in
  (* Per-state overhead: base + default, i.e. 2 words each; the packed
     vector costs 2 words per slot (value + check). *)
  let compressed_words = (2 * packed) + (2 * t.n_states) in
  {
    n_states = t.n_states;
    n_terminals = t.n_terminals;
    dense_entries = dense;
    packed_entries = packed;
    default_states = t.default_states;
    compression_ratio = float_of_int dense /. float_of_int compressed_words;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d states x %d terminals = %d dense entries; packed to %d slots (+%d \
     state words), %d default-reduce states, %.1fx smaller"
    s.n_states s.n_terminals s.dense_entries s.packed_entries
    (2 * s.n_states) s.default_states s.compression_ratio
