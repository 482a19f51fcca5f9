module Tables = Lalr_tables.Tables
module Lr0 = Lalr_automaton.Lr0
module Budget = Lalr_guard.Budget

type error = {
  position : int;
  state : int;
  found : Token.t;
  expected : int list;
}

let pp_error g ppf e =
  Format.fprintf ppf "syntax error at token %d: found %a, expected one of:"
    e.position (Token.pp g) e.found;
  List.iter
    (fun t -> Format.fprintf ppf " %s" (Grammar.terminal_name g t))
    e.expected

(* The terminals with a non-error action, ascending: the state's
   ACTION row. *)
let expected_in tables state =
  let acc = ref [] in
  Tables.iter_actions tables state (fun t _ -> acc := t :: !acc);
  List.rev !acc

(* Ensure terminated input. Tokens after an interior eof can never be
   consumed by the machine; [trailing] reports the position and first
   token of any such tail so callers surface a syntax error instead of
   silently dropping input. *)
let terminate tokens =
  let rec go i = function
    | [] -> ([ Token.eof ], None)
    | tok :: rest when tok.Token.terminal = 0 ->
        let trailing =
          match rest with [] -> None | t :: _ -> Some (i + 1, t)
        in
        ([ tok ], trailing)
    | tok :: rest ->
        let kept, trailing = go (i + 1) rest in
        (tok :: kept, trailing)
  in
  go 0 tokens

let broken = Budget.broken_invariant ~stage:"driver"

(* The engine. Stack entries pair a state with the tree built for the
   symbol that entered it; the bottom entry has no tree. *)
let run tables tokens =
  let g = Lr0.grammar (Tables.automaton tables) in
  let reductions = ref [] in
  let input, trailing = terminate tokens in
  let stack = ref [ (0, None) ] in
  let top_state () =
    match !stack with
    | (s, _) :: _ -> s
    | [] -> broken "parse stack is empty"
  in
  let rec step pos input =
    Budget.burn ();
    match input with
    | [] -> broken "token stream lost its eof terminator"
    | tok :: rest -> (
        let state = top_state () in
        match Tables.action tables ~state ~terminal:tok.Token.terminal with
        | Tables.Shift q ->
            stack := (q, Some (Tree.Leaf tok)) :: !stack;
            step (pos + 1) rest
        | Tables.Reduce prod ->
            let p = Grammar.production g prod in
            let n = Array.length p.rhs in
            let children = ref [] in
            for _ = 1 to n do
              match !stack with
              | (_, Some tree) :: tl ->
                  children := tree :: !children;
                  stack := tl
              | _ -> broken "reduce pops past the bottom of the stack"
            done;
            reductions := prod :: !reductions;
            let tree = Tree.Node { prod; children = !children } in
            let state = top_state () in
            (match Tables.goto tables ~state ~nonterminal:p.lhs with
            | Some q -> stack := (q, Some tree) :: !stack
            | None -> broken "missing goto entry after a reduce");
            step pos input
        | Tables.Accept -> (
            match trailing with
            | Some (tpos, ttok) ->
                (* The machine accepted, but unconsumable tokens follow
                   the interior eof: that is a syntax error at the first
                   of them, where only end of input was legal. *)
                Error
                  { position = tpos; state; found = ttok; expected = [ 0 ] }
            | None -> (
                (* Stack: [accept_state, tree(start); state0]. *)
                match !stack with
                | (_, Some tree) :: _ -> Ok tree
                | _ -> broken "accept with no tree on the stack"))
        | Tables.Error ->
            Error
              {
                position = pos;
                state;
                found = tok;
                expected = expected_in tables state;
              })
  in
  match step 0 input with
  | Ok tree -> Ok (tree, List.rev !reductions)
  | Error e -> Error e

let parse tables tokens = Result.map fst (run tables tokens)
let right_parse tables tokens = Result.map snd (run tables tokens)
let accepts tables tokens = Result.is_ok (parse tables tokens)

let parse_names tables names =
  let g = Lr0.grammar (Tables.automaton (tables : Tables.t)) in
  parse tables (Token.of_names g names)

(* ------------------------------------------------------------------ *)
(* Panic-mode recovery                                                *)
(* ------------------------------------------------------------------ *)

type recovery_outcome = { tree : Tree.t option; errors : error list }

let parse_with_recovery tables tokens =
  let g = Lr0.grammar (Tables.automaton tables) in
  match Grammar.find_terminal g "error" with
  | None -> (
      match parse tables tokens with
      | Ok tree -> { tree = Some tree; errors = [] }
      | Error e -> { tree = None; errors = [ e ] })
  | Some error_term ->
      let input, trailing = terminate tokens in
      let errors = ref [] in
      let stack = ref [ (0, None) ] in
      let top_state () =
        match !stack with
        | (s, _) :: _ -> s
        | [] -> broken "parse stack is empty"
      in
      (* Pop until a state can shift [error]; None if the stack runs
         dry. *)
      let rec pop_to_error_state () =
        let state = top_state () in
        match Tables.action tables ~state ~terminal:error_term with
        | Tables.Shift q ->
            stack :=
              (q, Some (Tree.Leaf (Token.make ~lexeme:"<error>" error_term)))
              :: !stack;
            true
        | _ -> (
            match !stack with
            | _ :: (_ :: _ as rest) ->
                stack := rest;
                pop_to_error_state ()
            | _ -> false)
      in
      (* Discard tokens until one has a non-error action, keeping the
         input position honest for later error reports. *)
      let rec synchronise pos input =
        match input with
        | [] -> None
        | tok :: rest ->
            let state = top_state () in
            if
              Tables.action tables ~state ~terminal:tok.Token.terminal
              <> Tables.Error
            then Some (pos, input)
            else if tok.Token.terminal = 0 then None (* never discard eof *)
            else synchronise (pos + 1) rest
      in
      let last_panic = ref (-1) in
      let rec step pos input =
        Budget.burn ();
        match input with
        | [] -> None
        | tok :: rest -> (
            let state = top_state () in
            match Tables.action tables ~state ~terminal:tok.Token.terminal with
            | Tables.Shift q ->
                stack := (q, Some (Tree.Leaf tok)) :: !stack;
                step (pos + 1) rest
            | Tables.Reduce prod ->
                let p = Grammar.production g prod in
                let children = ref [] in
                for _ = 1 to Array.length p.rhs do
                  match !stack with
                  | (_, Some tree) :: tl ->
                      children := tree :: !children;
                      stack := tl
                  | _ -> broken "reduce pops past the bottom of the stack"
                done;
                let tree = Tree.Node { prod; children = !children } in
                let state = top_state () in
                (match Tables.goto tables ~state ~nonterminal:p.lhs with
                | Some q -> stack := (q, Some tree) :: !stack
                | None -> broken "missing goto entry after a reduce");
                step pos input
            | Tables.Accept -> (
                (match trailing with
                | Some (tpos, ttok) ->
                    errors :=
                      {
                        position = tpos;
                        state;
                        found = ttok;
                        expected = [ 0 ];
                      }
                      :: !errors
                | None -> ());
                match !stack with
                | (_, Some tree) :: _ -> Some tree
                | _ -> broken "accept with no tree on the stack")
            | Tables.Error ->
                errors :=
                  {
                    position = pos;
                    state;
                    found = tok;
                    expected = expected_in tables state;
                  }
                  :: !errors;
                if pop_to_error_state () then begin
                  (* Guard against panic loops: if a previous recovery
                     already happened at this position without consuming
                     anything, force-discard the offending token. *)
                  let pos, input =
                    if !last_panic = pos && tok.Token.terminal <> 0 then
                      (pos + 1, rest)
                    else (pos, input)
                  in
                  last_panic := pos;
                  match synchronise pos input with
                  | None -> None
                  | Some (pos, input) -> step pos input
                end
                else None)
      in
      let tree = step 0 input in
      { tree; errors = List.rev !errors }
