type t = {
  n_cols : int;
  shift : int;  (* 63 - log2 capacity: keeps the top bits of the product *)
  mask : int;
  (* slots.(2j) is a key (-1 when free), slots.(2j+1) its position. *)
  slots : int array;
}

(* Fibonacci hashing: an odd multiplier near 2^62 / golden ratio, top
   bits of the 63-bit product. *)
let slot t key = (key * 0x278DDE6E5FD29F05) lsr t.shift

let of_rows ~n_cols ~offsets ~cols =
  let n_rows = Array.length offsets - 1 in
  let n = if n_rows < 0 then 0 else offsets.(n_rows) in
  (* Load factor at most 3/4. *)
  let bits = ref 3 in
  while 3 lsl !bits < 4 * n do
    incr bits
  done;
  let cap = 1 lsl !bits in
  let t =
    {
      n_cols;
      shift = 63 - !bits;
      mask = cap - 1;
      slots = Array.make (2 * cap) (-1);
    }
  in
  for r = 0 to n_rows - 1 do
    for i = offsets.(r) to offsets.(r + 1) - 1 do
      let c = cols.(i) in
      if c < 0 || c >= n_cols then
        invalid_arg "Cell_index.of_rows: column out of range";
      let key = (r * n_cols) + c in
      let j = ref (slot t key) in
      while t.slots.(2 * !j) >= 0 do
        if t.slots.(2 * !j) = key then
          invalid_arg "Cell_index.of_rows: duplicate cell";
        j := (!j + 1) land t.mask
      done;
      t.slots.(2 * !j) <- key;
      t.slots.((2 * !j) + 1) <- i
    done
  done;
  t

(* Linear probing from slot [j]. A top-level function rather than a
   local closure, so a lookup allocates nothing; [j] stays in
   [0 .. mask], so the unchecked reads are in bounds. *)
let rec probe slots mask key j =
  let k = Array.unsafe_get slots (2 * j) in
  if k = key then Array.unsafe_get slots ((2 * j) + 1)
  else if k < 0 then -1
  else probe slots mask key ((j + 1) land mask)

let find t ~row ~col =
  if row < 0 || col < 0 || col >= t.n_cols then -1
  else begin
    let key = (row * t.n_cols) + col in
    let j = slot t key in
    (* The first probe inline: at load <= 3/4 it usually decides. *)
    let k = Array.unsafe_get t.slots (2 * j) in
    if k = key then Array.unsafe_get t.slots ((2 * j) + 1)
    else if k < 0 then -1
    else probe t.slots t.mask key ((j + 1) land t.mask)
  end
