type assoc = Left | Right | Nonassoc

type loc = { file : string; line : int }

let synthetic_loc name = { file = "<" ^ name ^ ">"; line = 0 }
let is_synthetic l = l.line = 0

let pp_loc ppf l =
  if is_synthetic l then Format.fprintf ppf "%s" l.file
  else Format.fprintf ppf "%s:%d" l.file l.line

type locinfo = {
  li_source : string;
  li_rules : int list;
  li_tokens : (string * int) list;
  li_prec : int list;
}

type locations = {
  source : string;
  prod_locs : loc array;  (* per production id; index 0 synthetic *)
  term_locs : loc array;  (* per terminal id; index 0 synthetic *)
  prec_locs : loc array;  (* per precedence level, index level-1 *)
}

type production = {
  id : int;
  lhs : int;
  rhs : Symbol.t array;
  prec : (int * assoc) option;
}

type t = {
  name : string;
  terminal_names : string array;
  nonterminal_names : string array;
  productions : production array;
  by_lhs : int array array;
  start : int;
  terminal_prec : (int * assoc) option array;
  locs : locations;
}

let eof_name = "$"

let make ?(name = "grammar") ?(prec = []) ?locs ~terminals ~start ~rules () =
  if rules = [] then invalid_arg "Grammar.make: no rules";
  (* Terminal table: $ first, then declarations in order. *)
  List.iter
    (fun t ->
      if t = eof_name then
        invalid_arg "Grammar.make: \"$\" is reserved for end-of-input")
    terminals;
  let terminal_names = Array.of_list (eof_name :: terminals) in
  let tmap = Hashtbl.create 64 in
  Array.iteri
    (fun i n ->
      if Hashtbl.mem tmap n then
        invalid_arg (Printf.sprintf "Grammar.make: duplicate terminal %S" n);
      Hashtbl.add tmap n i)
    terminal_names;
  (* Nonterminal table: augmented start first, then lhs in order of first
     appearance ([nt_order] holds them newest first). *)
  let nt_order = ref [] in
  let ntmap = Hashtbl.create 64 in
  (* The augmented start needs a name not already taken by a terminal or
     by any rule's left-hand side. *)
  let lhs_names = List.map (fun (l, _, _) -> l) rules in
  let augmented =
    let rec fresh candidate =
      if Hashtbl.mem tmap candidate || List.mem candidate lhs_names then
        fresh (candidate ^ "'")
      else candidate
    in
    fresh (start ^ "'")
  in
  Hashtbl.add ntmap augmented 0;
  nt_order := [ augmented ];
  let declare_nt n =
    if Hashtbl.mem tmap n then
      invalid_arg
        (Printf.sprintf "Grammar.make: %S is both a terminal and an lhs" n);
    if not (Hashtbl.mem ntmap n) then begin
      Hashtbl.add ntmap n (Hashtbl.length ntmap);
      nt_order := n :: !nt_order
    end
  in
  List.iter (fun (lhs, _, _) -> declare_nt lhs) rules;
  let nonterminal_names = Array.of_list (List.rev !nt_order) in
  let start_id =
    match Hashtbl.find_opt ntmap start with
    | Some i -> i
    | None ->
        invalid_arg
          (Printf.sprintf "Grammar.make: start symbol %S has no rule" start)
  in
  (* Precedence levels, lowest first, as in yacc. *)
  let terminal_prec = Array.make (Array.length terminal_names) None in
  List.iteri
    (fun level (a, names) ->
      List.iter
        (fun n ->
          match Hashtbl.find_opt tmap n with
          | Some i ->
              if terminal_prec.(i) <> None then
                invalid_arg
                  (Printf.sprintf
                     "Grammar.make: terminal %S declared in two precedence \
                      levels"
                     n);
              terminal_prec.(i) <- Some (level + 1, a)
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Grammar.make: precedence declaration for unknown \
                    terminal %S"
                   n))
        names)
    prec;
  let resolve n =
    match Hashtbl.find_opt tmap n with
    | Some i -> Symbol.T i
    | None -> (
        match Hashtbl.find_opt ntmap n with
        | Some i -> Symbol.N i
        | None ->
            invalid_arg (Printf.sprintf "Grammar.make: unknown symbol %S" n))
  in
  let default_prec rhs =
    (* Rightmost terminal with a declared precedence. *)
    let p = ref None in
    Array.iter
      (function
        | Symbol.T i -> ( match terminal_prec.(i) with Some _ as s -> p := s | None -> ())
        | Symbol.N _ -> ())
      rhs;
    !p
  in
  let user_productions =
    List.mapi
      (fun i (lhs, rhs_names, prec_override) ->
        let rhs = Array.of_list (List.map resolve rhs_names) in
        let prec =
          match prec_override with
          | None -> default_prec rhs
          | Some n -> (
              match Hashtbl.find_opt tmap n with
              | Some ti -> (
                  match terminal_prec.(ti) with
                  | Some _ as s -> s
                  | None ->
                      invalid_arg
                        (Printf.sprintf
                           "Grammar.make: %%prec terminal %S has no declared \
                            precedence"
                           n))
              | None ->
                  invalid_arg
                    (Printf.sprintf "Grammar.make: unknown %%prec terminal %S"
                       n))
        in
        { id = i + 1; lhs = Hashtbl.find ntmap lhs; rhs; prec })
      rules
  in
  let p0 =
    { id = 0; lhs = 0; rhs = [| Symbol.N start_id; Symbol.eof |]; prec = None }
  in
  let productions = Array.of_list (p0 :: user_productions) in
  let by_lhs_lists = Array.make (Array.length nonterminal_names) [] in
  Array.iter
    (fun p -> by_lhs_lists.(p.lhs) <- p.id :: by_lhs_lists.(p.lhs))
    productions;
  let by_lhs =
    Array.map (fun l -> Array.of_list (List.rev l)) by_lhs_lists
  in
  (* Locations: synthetic everywhere by default; a reader supplies real
     lines through [?locs], aligned positionally with [rules] and
     [prec] and by name for tokens. *)
  let locs =
    let synth = synthetic_loc name in
    let source =
      match locs with Some l -> l.li_source | None -> synth.file
    in
    let at line = if line <= 0 then synth else { file = source; line } in
    let prod_locs = Array.make (Array.length productions) synth in
    (match locs with
    | Some { li_rules; _ } ->
        List.iteri
          (fun i line ->
            if i + 1 < Array.length prod_locs then
              prod_locs.(i + 1) <- at line)
          li_rules
    | None -> ());
    let term_locs = Array.make (Array.length terminal_names) synth in
    (match locs with
    | Some { li_tokens; _ } ->
        List.iter
          (fun (tname, line) ->
            match Hashtbl.find_opt tmap tname with
            | Some i -> term_locs.(i) <- at line
            | None -> ())
          li_tokens
    | None -> ());
    let prec_locs = Array.make (List.length prec) synth in
    (match locs with
    | Some { li_prec; _ } ->
        List.iteri
          (fun i line ->
            if i < Array.length prec_locs then prec_locs.(i) <- at line)
          li_prec
    | None -> ());
    { source; prod_locs; term_locs; prec_locs }
  in
  {
    name;
    terminal_names;
    nonterminal_names;
    productions;
    by_lhs;
    start = start_id;
    terminal_prec;
    locs;
  }

let n_terminals g = Array.length g.terminal_names
let n_nonterminals g = Array.length g.nonterminal_names
let n_productions g = Array.length g.productions
let terminal_name g i = g.terminal_names.(i)
let nonterminal_name g i = g.nonterminal_names.(i)

let symbol_name g = function
  | Symbol.T i -> terminal_name g i
  | Symbol.N i -> nonterminal_name g i

let production g i = g.productions.(i)
let productions_of g a = g.by_lhs.(a)

let find_terminal g n =
  let rec go i =
    if i = Array.length g.terminal_names then None
    else if g.terminal_names.(i) = n then Some i
    else go (i + 1)
  in
  go 0

let find_nonterminal g n =
  let rec go i =
    if i = Array.length g.nonterminal_names then None
    else if g.nonterminal_names.(i) = n then Some i
    else go (i + 1)
  in
  go 0

let find_symbol g n =
  match find_terminal g n with
  | Some i -> Some (Symbol.T i)
  | None -> (
      match find_nonterminal g n with
      | Some i -> Some (Symbol.N i)
      | None -> None)

let rhs_length g i = Array.length g.productions.(i).rhs
let source g = g.locs.source
let production_loc g i = g.locs.prod_locs.(i)
let terminal_loc g i = g.locs.term_locs.(i)

let prec_level_loc g level =
  let a = g.locs.prec_locs in
  if level >= 1 && level <= Array.length a then a.(level - 1)
  else synthetic_loc g.name

let nonterminal_loc g n =
  (* First production of the nonterminal, skipping the augmented one. *)
  let prods = g.by_lhs.(n) in
  let best = ref (synthetic_loc g.name) in
  (try
     Array.iter
       (fun pid ->
         if pid <> 0 then begin
           best := g.locs.prod_locs.(pid);
           raise Exit
         end)
       prods
   with Exit -> ());
  !best

let symbols_count g =
  Array.fold_left
    (fun acc p -> acc + 1 + Array.length p.rhs)
    0 g.productions

let pp_production g ppf p =
  Format.fprintf ppf "%s →" (nonterminal_name g p.lhs);
  if Array.length p.rhs = 0 then Format.fprintf ppf " ε"
  else Array.iter (fun s -> Format.fprintf ppf " %s" (symbol_name g s)) p.rhs

let pp_item g ppf prod dot =
  let p = g.productions.(prod) in
  Format.fprintf ppf "%s →" (nonterminal_name g p.lhs);
  Array.iteri
    (fun i s ->
      if i = dot then Format.fprintf ppf " .";
      Format.fprintf ppf " %s" (symbol_name g s))
    p.rhs;
  if dot = Array.length p.rhs then Format.fprintf ppf " ."

let pp ppf g =
  Format.fprintf ppf "@[<v>grammar %s@," g.name;
  Format.fprintf ppf "terminals:";
  Array.iteri
    (fun i n -> if i > 0 then Format.fprintf ppf " %s" n)
    g.terminal_names;
  Format.fprintf ppf "@,start: %s@," (nonterminal_name g g.start);
  Array.iter
    (fun p -> Format.fprintf ppf "%3d: %a@," p.id (pp_production g) p)
    g.productions;
  Format.fprintf ppf "@]"

let equal_structure a b =
  a.terminal_names = b.terminal_names
  && a.nonterminal_names = b.nonterminal_names
  && a.start = b.start
  && Array.length a.productions = Array.length b.productions
  && Array.for_all2
       (fun (p : production) (q : production) ->
         p.lhs = q.lhs
         && Array.length p.rhs = Array.length q.rhs
         && Array.for_all2 Symbol.equal p.rhs q.rhs)
       a.productions b.productions

(* Content digest over everything that determines analysis results:
   symbol tables, productions, and both precedence channels. [name] and
   source locations are deliberately excluded so the same grammar text
   read twice — or rehydrated from the artifact store — digests
   identically. The encoding is binary and injective: every int is 4
   bytes (ids, lengths, levels and lines all stay below 2^31), every
   string and array carries its length, a symbol is its packed code,
   and a precedence has a tag byte. The leading tag versions it. *)
let add_int buf n = Buffer.add_int32_le buf (Int32.of_int n)

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_structure buf g =
  Buffer.add_string buf "lalr-grammar-digest-v2";
  let names a =
    add_int buf (Array.length a);
    Array.iter (add_string buf) a
  in
  let prec = function
    | None -> Buffer.add_char buf '.'
    | Some (level, assoc) ->
        Buffer.add_char buf
          (match assoc with Left -> 'l' | Right -> 'r' | Nonassoc -> 'n');
        add_int buf level
  in
  names g.terminal_names;
  names g.nonterminal_names;
  add_int buf g.start;
  add_int buf (Array.length g.productions);
  Array.iter
    (fun (p : production) ->
      add_int buf p.lhs;
      add_int buf (Array.length p.rhs);
      Array.iter (fun x -> add_int buf (Symbol.pack x)) p.rhs;
      prec p.prec)
    g.productions;
  add_int buf (Array.length g.terminal_prec);
  Array.iter prec g.terminal_prec

let digest g =
  let buf = Buffer.create 1024 in
  add_structure buf g;
  Digest.to_hex (Digest.string (Buffer.contents buf))
