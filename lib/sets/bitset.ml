(* Bitsets over a fixed universe [0..n-1], stored as an int array of
   62-bit words (we use Sys.int_size - 1 = 62 on 64-bit, but any width
   works as long as it is consistent). *)

let word_bits = Sys.int_size - 1 (* 62 on 64-bit: keep shifts well-defined *)

type t = { n : int; words : int array }

let words_for n = if n = 0 then 0 else (n + word_bits - 1) / word_bits

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative universe";
  { n; words = Array.make (words_for n) 0 }

let universe t = t.n

let copy t = { n = t.n; words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Bitset: element %d outside universe %d" i t.n)

let add t i =
  check t i;
  let w = i / word_bits and b = i mod word_bits in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check t i;
  let w = i / word_bits and b = i mod word_bits in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / word_bits and b = i mod word_bits in
  t.words.(w) land (1 lsl b) <> 0

let singleton n i =
  let t = create n in
  add t i;
  t

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let popcount =
  (* Kernighan loop is fine: words are sparse in practice. *)
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  fun w -> go 0 w

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let same_universe a b =
  if a.n <> b.n then invalid_arg "Bitset: universe mismatch"

let equal a b =
  same_universe a b;
  Array.for_all2 ( = ) a.words b.words

let compare a b =
  same_universe a b;
  let rec go i =
    if i = Array.length a.words then 0
    else
      let c = Int.compare a.words.(i) b.words.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let subset a b =
  same_universe a b;
  let rec go i =
    i = Array.length a.words
    || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1))
  in
  go 0

let disjoint a b =
  same_universe a b;
  let rec go i =
    i = Array.length a.words || (a.words.(i) land b.words.(i) = 0 && go (i + 1))
  in
  go 0

let union_into ~into src =
  same_universe into src;
  let changed = ref false in
  for i = 0 to Array.length into.words - 1 do
    let w = into.words.(i) lor src.words.(i) in
    if w <> into.words.(i) then begin
      into.words.(i) <- w;
      changed := true
    end
  done;
  !changed

let union a b =
  let t = copy a in
  ignore (union_into ~into:t b);
  t

let inter a b =
  same_universe a b;
  { n = a.n; words = Array.map2 ( land ) a.words b.words }

let diff a b =
  same_universe a b;
  { n = a.n; words = Array.map2 (fun x y -> x land lnot y) a.words b.words }

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* The position of the lowest set bit of a nonzero word, by halving. *)
let lowest_bit w =
  let w = w land -w and n = ref 0 in
  let w = if w land 0xFFFFFFFF = 0 then (n := 32; w lsr 32) else w in
  let w = if w land 0xFFFF = 0 then (n := !n + 16; w lsr 16) else w in
  let w = if w land 0xFF = 0 then (n := !n + 8; w lsr 8) else w in
  let w = if w land 0xF = 0 then (n := !n + 4; w lsr 4) else w in
  let w = if w land 0x3 = 0 then (n := !n + 2; w lsr 2) else w in
  if w land 0x1 = 0 then !n + 1 else !n

(* Visits members only, lowest first: a set's members are few and
   spread over many words. *)
let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    while !word <> 0 do
      f ((w * word_bits) + lowest_bit !word);
      word := !word land (!word - 1)
    done
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i l -> i :: l) t [])

exception Found

let exists p t =
  try
    iter (fun i -> if p i then raise Found) t;
    false
  with Found -> true

let for_all p t = not (exists (fun i -> not (p i)) t)

let choose t =
  let r = ref None in
  (try iter (fun i -> r := Some i; raise Found) t with Found -> ());
  !r

let pp ?(pp_elt = Format.pp_print_int) ppf t =
  Format.fprintf ppf "{";
  let first = ref true in
  iter
    (fun i ->
      if !first then first := false else Format.fprintf ppf ",@ ";
      pp_elt ppf i)
    t;
  Format.fprintf ppf "}"

let hash t =
  Array.fold_left (fun acc w -> (acc * 1000003) lxor w) t.n t.words
