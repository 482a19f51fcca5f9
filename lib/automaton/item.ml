type table = {
  grammar : Grammar.t;
  first_item : int array;  (* production id -> item id of [A → . ω] *)
  item_prod : int array;  (* item id -> production id *)
  codes : int array;  (* item id -> code of the symbol after the dot *)
  n_items : int;
}

let make g =
  let n_prods = Grammar.n_productions g in
  let n_term = Grammar.n_terminals g in
  let first_item = Array.make n_prods 0 in
  let n_items = ref 0 in
  for p = 0 to n_prods - 1 do
    first_item.(p) <- !n_items;
    n_items := !n_items + Grammar.rhs_length g p + 1
  done;
  let item_prod = Array.make !n_items 0 and codes = Array.make !n_items (-1) in
  for p = 0 to n_prods - 1 do
    let rhs = (Grammar.production g p).rhs in
    Array.iteri
      (fun dot sym ->
        codes.(first_item.(p) + dot) <-
          (match sym with Symbol.T t -> t | Symbol.N n -> n_term + n))
      rhs;
    Array.fill item_prod first_item.(p) (Array.length rhs + 1) p
  done;
  { grammar = g; first_item; item_prod; codes; n_items = !n_items }

let n_items t = t.n_items

let encode t ~prod ~dot =
  if dot < 0 || dot > Grammar.rhs_length t.grammar prod then
    invalid_arg "Item.encode: dot out of range";
  t.first_item.(prod) + dot

let prod t item = t.item_prod.(item)
let dot t item = item - t.first_item.(t.item_prod.(item))
let next_code t item = t.codes.(item)

let next_symbol t item =
  let c = t.codes.(item) and n_term = Grammar.n_terminals t.grammar in
  if c < 0 then None
  else if c < n_term then Some (Symbol.T c)
  else Some (Symbol.N (c - n_term))

let is_final t item = t.codes.(item) < 0

let advance t item =
  if is_final t item then invalid_arg "Item.advance: final item";
  item + 1

let initial t ~prod = t.first_item.(prod)

let pp t ppf item = Grammar.pp_item t.grammar ppf (prod t item) (dot t item)
