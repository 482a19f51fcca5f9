(* Tests for lib/sets: Bitset, Tarjan, Digraph, Csr, Cell_index, Vec. *)

module Bitset = Lalr_sets.Bitset
module Tarjan = Lalr_sets.Tarjan
module Digraph = Lalr_sets.Digraph
module Csr = Lalr_sets.Csr
module Cell_index = Lalr_sets.Cell_index
module Vec = Lalr_sets.Vec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ints = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Bitset units                                                       *)
(* ------------------------------------------------------------------ *)

let test_bitset_empty () =
  let s = Bitset.create 100 in
  check "empty" true (Bitset.is_empty s);
  check_int "cardinal" 0 (Bitset.cardinal s);
  check_ints "elements" [] (Bitset.elements s);
  check "choose" true (Bitset.choose s = None)

let test_bitset_add_mem () =
  let s = Bitset.create 100 in
  Bitset.add s 0;
  Bitset.add s 61;
  Bitset.add s 62;
  Bitset.add s 99;
  check "mem 0" true (Bitset.mem s 0);
  check "mem 61" true (Bitset.mem s 61);
  check "mem 62" true (Bitset.mem s 62);
  check "mem 99" true (Bitset.mem s 99);
  check "not mem 1" false (Bitset.mem s 1);
  check "not mem 63" false (Bitset.mem s 63);
  check_int "cardinal" 4 (Bitset.cardinal s);
  check_ints "elements sorted" [ 0; 61; 62; 99 ] (Bitset.elements s)

let test_bitset_remove () =
  let s = Bitset.of_list 10 [ 1; 5; 9 ] in
  Bitset.remove s 5;
  check "removed" false (Bitset.mem s 5);
  check_ints "rest" [ 1; 9 ] (Bitset.elements s);
  Bitset.remove s 5 (* removing twice is a no-op *);
  check_int "cardinal" 2 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add -1" (Invalid_argument "Bitset: element -1 outside universe 10")
    (fun () -> Bitset.add s (-1));
  Alcotest.check_raises "add 10" (Invalid_argument "Bitset: element 10 outside universe 10")
    (fun () -> Bitset.add s 10);
  let t = Bitset.create 11 in
  Alcotest.check_raises "universe mismatch" (Invalid_argument "Bitset: universe mismatch")
    (fun () -> ignore (Bitset.union s t))

let test_bitset_zero_universe () =
  let s = Bitset.create 0 in
  check "empty" true (Bitset.is_empty s);
  check "equal self" true (Bitset.equal s (Bitset.copy s));
  check "subset self" true (Bitset.subset s s)

let test_bitset_union_into () =
  let a = Bitset.of_list 70 [ 1; 2; 65 ] in
  let b = Bitset.of_list 70 [ 2; 3 ] in
  let changed = Bitset.union_into ~into:a b in
  check "changed" true changed;
  check_ints "union" [ 1; 2; 3; 65 ] (Bitset.elements a);
  let changed2 = Bitset.union_into ~into:a b in
  check "unchanged on repeat" false changed2

let test_bitset_setops () =
  let a = Bitset.of_list 200 [ 0; 50; 100; 150 ] in
  let b = Bitset.of_list 200 [ 50; 150; 199 ] in
  check_ints "inter" [ 50; 150 ] (Bitset.elements (Bitset.inter a b));
  check_ints "diff" [ 0; 100 ] (Bitset.elements (Bitset.diff a b));
  check_ints "union" [ 0; 50; 100; 150; 199 ]
    (Bitset.elements (Bitset.union a b));
  check "subset no" false (Bitset.subset a b);
  check "subset yes" true (Bitset.subset (Bitset.inter a b) a);
  check "disjoint no" false (Bitset.disjoint a b);
  check "disjoint yes" true (Bitset.disjoint (Bitset.diff a b) b)

let test_bitset_copy_independent () =
  let a = Bitset.of_list 10 [ 3 ] in
  let b = Bitset.copy a in
  Bitset.add b 4;
  check "original unchanged" false (Bitset.mem a 4);
  check "copy has it" true (Bitset.mem b 4)

(* Bitset properties against a sorted-int-list model. *)
let gen_universe = QCheck.Gen.int_range 1 300

let gen_set =
  QCheck.Gen.(
    gen_universe >>= fun n ->
    list_size (int_bound 40) (int_bound (n - 1)) >|= fun xs -> (n, xs))

let arb_set =
  QCheck.make gen_set ~print:(fun (n, xs) ->
      Printf.sprintf "universe %d: [%s]" n
        (String.concat ";" (List.map string_of_int xs)))

let arb_two_sets =
  QCheck.make
    QCheck.Gen.(
      gen_universe >>= fun n ->
      pair
        (list_size (int_bound 40) (int_bound (n - 1)))
        (list_size (int_bound 40) (int_bound (n - 1)))
      >|= fun (a, b) -> (n, a, b))
    ~print:(fun (n, a, b) ->
      Printf.sprintf "universe %d: [%s] [%s]" n
        (String.concat ";" (List.map string_of_int a))
        (String.concat ";" (List.map string_of_int b)))

let model xs = List.sort_uniq Int.compare xs

let prop_elements_model =
  QCheck.Test.make ~name:"bitset elements = sorted dedup" ~count:500 arb_set
    (fun (n, xs) -> Bitset.elements (Bitset.of_list n xs) = model xs)

let prop_union_model =
  QCheck.Test.make ~name:"bitset union models list union" ~count:500
    arb_two_sets (fun (n, a, b) ->
      Bitset.elements (Bitset.union (Bitset.of_list n a) (Bitset.of_list n b))
      = model (a @ b))

let prop_inter_model =
  QCheck.Test.make ~name:"bitset inter models list inter" ~count:500
    arb_two_sets (fun (n, a, b) ->
      Bitset.elements (Bitset.inter (Bitset.of_list n a) (Bitset.of_list n b))
      = List.filter (fun x -> List.mem x b) (model a))

let prop_diff_model =
  QCheck.Test.make ~name:"bitset diff models list diff" ~count:500
    arb_two_sets (fun (n, a, b) ->
      Bitset.elements (Bitset.diff (Bitset.of_list n a) (Bitset.of_list n b))
      = List.filter (fun x -> not (List.mem x b)) (model a))

let prop_cardinal =
  QCheck.Test.make ~name:"bitset cardinal = |model|" ~count:500 arb_set
    (fun (n, xs) ->
      Bitset.cardinal (Bitset.of_list n xs) = List.length (model xs))

let prop_subset_union =
  QCheck.Test.make ~name:"a ⊆ a ∪ b and b ⊆ a ∪ b" ~count:500 arb_two_sets
    (fun (n, a, b) ->
      let sa = Bitset.of_list n a and sb = Bitset.of_list n b in
      let u = Bitset.union sa sb in
      Bitset.subset sa u && Bitset.subset sb u)

let prop_compare_equal =
  QCheck.Test.make ~name:"compare = 0 iff equal" ~count:500 arb_two_sets
    (fun (n, a, b) ->
      let sa = Bitset.of_list n a and sb = Bitset.of_list n b in
      Bitset.equal sa sb = (Bitset.compare sa sb = 0)
      && Bitset.equal sa sb = (model a = model b))

(* ------------------------------------------------------------------ *)
(* Tarjan                                                             *)
(* ------------------------------------------------------------------ *)

let graph_of_edges _n edges v =
  List.filter_map (fun (a, b) -> if a = v then Some b else None) edges

let test_tarjan_dag () =
  (* 0 -> 1 -> 2, 0 -> 2: all singleton SCCs, acyclic. *)
  let succ = graph_of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let r = Tarjan.scc ~n:3 ~successors:succ in
  check_int "three components" 3 (Array.length r.components);
  check_ints "no nontrivial" []
    (List.concat (Tarjan.nontrivial ~n:3 ~successors:succ));
  (* Reverse topological numbering: edge a->b implies comp(a) > comp(b). *)
  check "topo 0>1" true (r.component.(0) > r.component.(1));
  check "topo 1>2" true (r.component.(1) > r.component.(2))

let test_tarjan_cycle () =
  let succ = graph_of_edges 4 [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  let r = Tarjan.scc ~n:4 ~successors:succ in
  check_int "two components" 2 (Array.length r.components);
  check "0,1,2 together" true
    (r.component.(0) = r.component.(1) && r.component.(1) = r.component.(2));
  check "3 apart" true (r.component.(3) <> r.component.(0));
  match Tarjan.nontrivial ~n:4 ~successors:succ with
  | [ c ] -> check_ints "cycle members" [ 0; 1; 2 ] (List.sort compare c)
  | l -> Alcotest.failf "expected one nontrivial SCC, got %d" (List.length l)

let test_tarjan_self_loop () =
  let succ = graph_of_edges 2 [ (0, 0) ] in
  match Tarjan.nontrivial ~n:2 ~successors:succ with
  | [ [ 0 ] ] -> ()
  | _ -> Alcotest.fail "self-loop must be a nontrivial SCC"

let test_tarjan_empty_graph () =
  let r = Tarjan.scc ~n:0 ~successors:(fun _ -> []) in
  check_int "no components" 0 (Array.length r.components)

let test_tarjan_long_chain () =
  (* Deep graph: must not overflow the stack (iterative implementation). *)
  let n = 200_000 in
  let succ v = if v + 1 < n then [ v + 1 ] else [] in
  let r = Tarjan.scc ~n ~successors:succ in
  check_int "all singletons" n (Array.length r.components)

(* ------------------------------------------------------------------ *)
(* Digraph                                                            *)
(* ------------------------------------------------------------------ *)

let run_digraph n edges init_l =
  let successors = graph_of_edges n edges in
  let init x = Bitset.of_list 64 (init_l x) in
  Digraph.ForBitset.run ~n ~successors ~init

let test_digraph_dag () =
  (* F(0) must pick up F'(1) and F'(2). *)
  let values, stats =
    run_digraph 3 [ (0, 1); (1, 2) ] (fun x -> [ x * 10 ])
  in
  check_ints "F(0)" [ 0; 10; 20 ] (Bitset.elements values.(0));
  check_ints "F(1)" [ 10; 20 ] (Bitset.elements values.(1));
  check_ints "F(2)" [ 20 ] (Bitset.elements values.(2));
  check_ints "acyclic" [] (List.concat stats.nontrivial_sccs)

let test_digraph_cycle_shares () =
  (* 0 <-> 1 plus 1 -> 2: both cycle members end with the same set. *)
  let values, stats =
    run_digraph 3 [ (0, 1); (1, 0); (1, 2) ] (fun x -> [ x + 1 ])
  in
  check_ints "F(0)" [ 1; 2; 3 ] (Bitset.elements values.(0));
  check "F(0) == F(1)" true (Bitset.equal values.(0) values.(1));
  check_ints "F(2) untouched" [ 3 ] (Bitset.elements values.(2));
  check_int "one nontrivial scc" 1 (List.length stats.nontrivial_sccs)

let test_digraph_self_loop () =
  let values, stats = run_digraph 1 [ (0, 0) ] (fun _ -> [ 7 ]) in
  check_ints "F(0)" [ 7 ] (Bitset.elements values.(0));
  check_int "self loop reported" 1 (List.length stats.nontrivial_sccs)

let test_digraph_no_edges () =
  let values, stats = run_digraph 3 [] (fun x -> [ x ]) in
  check_ints "F(1)" [ 1 ] (Bitset.elements values.(1));
  check_int "edges" 0 stats.edges_examined

let test_digraph_does_not_mutate_init () =
  let inits = Array.init 2 (fun x -> Bitset.of_list 8 [ x ]) in
  let values, _ =
    Digraph.ForBitset.run ~n:2
      ~successors:(graph_of_edges 2 [ (0, 1) ])
      ~init:(fun x -> inits.(x))
  in
  check_ints "init 0 untouched" [ 0 ] (Bitset.elements inits.(0));
  check_ints "result" [ 0; 1 ] (Bitset.elements values.(0))

(* Property: Digraph result equals the naive fixpoint on random graphs. *)
let arb_graph =
  let gen =
    QCheck.Gen.(
      int_range 1 40 >>= fun n ->
      list_size (int_bound 120) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >|= fun edges -> (n, edges))
  in
  QCheck.make gen ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges)))

let prop_digraph_vs_naive =
  QCheck.Test.make ~name:"digraph = naive fixpoint (random graphs)"
    ~count:300 arb_graph (fun (n, edges) ->
      let successors = graph_of_edges n edges in
      let init x = Bitset.of_list 64 [ x; (x + 13) mod 64 ] in
      let fast, _ = Digraph.ForBitset.run ~n ~successors ~init in
      let slow = Digraph.naive_fixpoint ~n ~successors ~init in
      Array.for_all2 Bitset.equal fast slow)

let prop_digraph_sccs_match_tarjan =
  QCheck.Test.make ~name:"digraph nontrivial SCCs = Tarjan's" ~count:300
    arb_graph (fun (n, edges) ->
      let successors = graph_of_edges n edges in
      let init _ = Bitset.create 1 in
      let _, stats = Digraph.ForBitset.run ~n ~successors ~init in
      let norm l = List.sort compare (List.map (List.sort Int.compare) l) in
      norm stats.nontrivial_sccs = norm (Tarjan.nontrivial ~n ~successors))

(* ------------------------------------------------------------------ *)
(* Csr                                                                *)
(* ------------------------------------------------------------------ *)

let csr_of_edges ?rev ?n_cols n edges =
  let b = Csr.create_builder ?n_cols n in
  List.iter (fun (src, dst) -> Csr.add b ~src ~dst) edges;
  Csr.build ?rev b

let test_csr_stream_order () =
  let t = csr_of_edges 3 [ (0, 2); (1, 0); (0, 1); (2, 2); (0, 0) ] in
  check_int "rows" 3 (Csr.n_rows t);
  check_int "edges" 5 (Csr.n_edges t);
  check_ints "row 0 keeps stream order" [ 2; 1; 0 ] (Csr.row_list t 0);
  check_ints "row 1" [ 0 ] (Csr.row_list t 1);
  check_ints "row 2" [ 2 ] (Csr.row_list t 2);
  check_int "degree 0" 3 (Csr.degree t 0)

let test_csr_rev_order () =
  (* ~rev:true must yield exactly what cons-accumulated lists held:
     the reverse of the insertion order, per row. *)
  let t = csr_of_edges ~rev:true 3 [ (0, 2); (1, 0); (0, 1); (0, 0) ] in
  check_ints "row 0 reversed" [ 0; 1; 2 ] (Csr.row_list t 0);
  check_ints "row 1 reversed" [ 0 ] (Csr.row_list t 1);
  check_ints "row 2 empty" [] (Csr.row_list t 2)

let test_csr_of_rows_roundtrip () =
  let rows = [| [ 3; 1; 1 ]; []; [ 0 ]; [ 3; 2 ] |] in
  let t = Csr.of_rows rows in
  Array.iteri
    (fun x row -> check_ints (Printf.sprintf "row %d" x) row (Csr.row_list t x))
    rows;
  let acc = ref [] in
  Csr.iter_row t 0 (fun y -> acc := y :: !acc);
  check_ints "iter_row order" [ 3; 1; 1 ] (List.rev !acc);
  check_int "fold_row" 5 (Csr.fold_row t 0 (fun a y -> a + y) 0);
  let all = ref [] in
  Csr.edges t (fun ~src ~dst -> all := (src, dst) :: !all);
  check_int "edges enumerated" 6 (List.length !all)

let test_csr_bipartite () =
  (* Destination universe wider than the row count (lookback's shape:
     reduction rows, transition columns). *)
  let t = csr_of_edges ~n_cols:10 2 [ (0, 9); (1, 7) ] in
  check_ints "row 0" [ 9 ] (Csr.row_list t 0);
  check_int "offsets words" 3 (Csr.offsets_words t);
  check_int "cols words" 2 (Csr.cols_words t)

let test_csr_bounds () =
  let b = Csr.create_builder 2 in
  Alcotest.check_raises "src out of range"
    (Invalid_argument "Csr.add: src out of range") (fun () ->
      Csr.add b ~src:2 ~dst:0);
  Alcotest.check_raises "dst out of range"
    (Invalid_argument "Csr.add: dst out of range") (fun () ->
      Csr.add b ~src:0 ~dst:2);
  Alcotest.check_raises "negative rows"
    (Invalid_argument "Csr.create_builder: negative row count") (fun () ->
      ignore (Csr.create_builder (-1)))

let test_csr_empty () =
  let t = Csr.of_rows [||] in
  check_int "no rows" 0 (Csr.n_rows t);
  check_int "no edges" 0 (Csr.n_edges t);
  let t = Csr.of_rows [| []; [] |] in
  check_int "rows" 2 (Csr.n_rows t);
  check_ints "row 1" [] (Csr.row_list t 1)

(* Property: the arena traversal over a CSR graph is indistinguishable
   from the list-walking entry point — same values, same stats, and
   both agree with the naive iterate-to-fixpoint oracle. The generator
   mixes three shapes: plain random edges, a self-loop sprinkle, and
   nested SCCs (a big ring with an inner ring chorded into it). *)
let arb_scc_graph =
  let gen =
    QCheck.Gen.(
      int_range 2 30 >>= fun n ->
      list_size (int_bound 60) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun random_edges ->
      list_size (int_bound 4) (int_bound (n - 1)) >>= fun loops ->
      int_range 0 (n - 1) >>= fun ring_hi ->
      let ring = List.init ring_hi (fun i -> (i, i + 1)) in
      let outer = if ring_hi > 0 then (ring_hi, 0) :: ring else [] in
      let inner =
        if ring_hi >= 2 then [ (ring_hi / 2, 0); (0, ring_hi / 2) ] else []
      in
      return
        (n, random_edges @ List.map (fun v -> (v, v)) loops @ outer @ inner))
  in
  QCheck.make gen ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat ";"
           (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges)))

let prop_run_csr_equals_run =
  QCheck.Test.make ~name:"run_csr = run = naive (SCC-shaped graphs)"
    ~count:300 arb_scc_graph (fun (n, edges) ->
      let successors = graph_of_edges n edges in
      let init x = Bitset.of_list 64 [ x; (x + 7) mod 64 ] in
      let graph = Csr.of_rows (Array.init n successors) in
      let v_csr, st_csr = Digraph.ForBitset.run_csr ~graph ~init in
      let v_run, st_run = Digraph.ForBitset.run ~n ~successors ~init in
      let slow = Digraph.naive_fixpoint ~n ~successors ~init in
      Array.for_all2 Bitset.equal v_csr v_run
      && Array.for_all2 Bitset.equal v_csr slow
      && st_csr = st_run)

let prop_run_csr_scc_partition =
  QCheck.Test.make
    ~name:"run_csr nontrivial SCC partition = Tarjan's (SCC-shaped graphs)"
    ~count:300 arb_scc_graph (fun (n, edges) ->
      let successors = graph_of_edges n edges in
      let graph = Csr.of_rows (Array.init n successors) in
      let _, stats =
        Digraph.ForBitset.run_csr ~graph ~init:(fun _ -> Bitset.create 1)
      in
      let norm l = List.sort compare (List.map (List.sort Int.compare) l) in
      norm stats.Digraph.nontrivial_sccs
      = norm (Tarjan.nontrivial ~n ~successors))

(* ------------------------------------------------------------------ *)
(* Cell_index                                                         *)
(* ------------------------------------------------------------------ *)

(* Packed rows from per-row column lists (ascending, distinct). *)
let packed rows =
  let offsets = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun r l -> offsets.(r + 1) <- offsets.(r) + List.length l) rows;
  (offsets, Array.of_list (List.concat (Array.to_list rows)))

let test_cell_index_units () =
  let offsets, cols = packed [| [ 0; 3 ]; []; [ 1; 2; 3 ] |] in
  let idx = Cell_index.of_rows ~n_cols:4 ~offsets ~cols in
  check_int "(0,3)" 1 (Cell_index.find idx ~row:0 ~col:3);
  check_int "(2,1)" 2 (Cell_index.find idx ~row:2 ~col:1);
  check_int "miss" (-1) (Cell_index.find idx ~row:1 ~col:0);
  check_int "column past the end" (-1) (Cell_index.find idx ~row:0 ~col:4);
  check_int "negative column" (-1) (Cell_index.find idx ~row:1 ~col:(-1));
  check_int "row past the end" (-1) (Cell_index.find idx ~row:3 ~col:0);
  (* A column array longer than the rows: the tail is not indexed. *)
  let idx = Cell_index.of_rows ~n_cols:4 ~offsets:[| 0; 1 |] ~cols:[| 2; 3 |] in
  check_int "tail ignored" (-1) (Cell_index.find idx ~row:1 ~col:3);
  let empty = Cell_index.of_rows ~n_cols:1 ~offsets:[||] ~cols:[||] in
  check_int "empty" (-1) (Cell_index.find empty ~row:0 ~col:0);
  Alcotest.check_raises "duplicate cell"
    (Invalid_argument "Cell_index.of_rows: duplicate cell") (fun () ->
      ignore (Cell_index.of_rows ~n_cols:4 ~offsets:[| 0; 2 |] ~cols:[| 1; 1 |]));
  Alcotest.check_raises "column out of range"
    (Invalid_argument "Cell_index.of_rows: column out of range") (fun () ->
      ignore (Cell_index.of_rows ~n_cols:4 ~offsets:[| 0; 1 |] ~cols:[| 4 |]))

let arb_sparse_rows =
  QCheck.make
    QCheck.Gen.(
      int_range 1 40 >>= fun n_cols ->
      int_range 0 60 >>= fun n_rows ->
      array_repeat n_rows
        (list_size (int_range 0 8) (int_range 0 (n_cols - 1)))
      >|= fun rows ->
      (n_cols, Array.map (List.sort_uniq Int.compare) rows))
    ~print:(fun (n_cols, rows) ->
      Printf.sprintf "n_cols=%d rows=[%s]" n_cols
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun l -> String.concat "," (List.map string_of_int l))
                 rows))))

let prop_cell_index_model =
  QCheck.Test.make ~name:"cell index = position model, hits and misses"
    ~count:300 arb_sparse_rows (fun (n_cols, rows) ->
      let offsets, cols = packed rows in
      let idx = Cell_index.of_rows ~n_cols ~offsets ~cols in
      let ok = ref true in
      Array.iteri
        (fun r _ ->
          for c = -1 to n_cols do
            let expected =
              let pos = ref (-1) in
              for i = offsets.(r) to offsets.(r + 1) - 1 do
                if cols.(i) = c then pos := i
              done;
              !pos
            in
            if Cell_index.find idx ~row:r ~col:c <> expected then ok := false
          done)
        rows;
      !ok)

(* ------------------------------------------------------------------ *)
(* Vec                                                                *)
(* ------------------------------------------------------------------ *)

let test_vec_basic () =
  let v = Vec.create () in
  check_int "empty" 0 (Vec.length v);
  check_int "push 0" 0 (Vec.push v "a");
  check_int "push 1" 1 (Vec.push v "b");
  Alcotest.(check string) "get" "b" (Vec.get v 1);
  Vec.set v 0 "z";
  Alcotest.(check string) "set" "z" (Vec.get v 0);
  Alcotest.(check (array string)) "to_array" [| "z"; "b" |] (Vec.to_array v)

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    ignore (Vec.push v i)
  done;
  check_int "length" 1000 (Vec.length v);
  check_int "sum" (999 * 1000 / 2) (Vec.fold ( + ) 0 v);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 1000))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sets"
    [
      ( "bitset",
        [
          Alcotest.test_case "empty" `Quick test_bitset_empty;
          Alcotest.test_case "add/mem across word boundaries" `Quick
            test_bitset_add_mem;
          Alcotest.test_case "remove" `Quick test_bitset_remove;
          Alcotest.test_case "bounds checking" `Quick test_bitset_bounds;
          Alcotest.test_case "zero universe" `Quick test_bitset_zero_universe;
          Alcotest.test_case "union_into change flag" `Quick
            test_bitset_union_into;
          Alcotest.test_case "inter/diff/union/subset/disjoint" `Quick
            test_bitset_setops;
          Alcotest.test_case "copy independence" `Quick
            test_bitset_copy_independent;
        ] );
      qsuite "bitset-props"
        [
          prop_elements_model;
          prop_union_model;
          prop_inter_model;
          prop_diff_model;
          prop_cardinal;
          prop_subset_union;
          prop_compare_equal;
        ];
      ( "cell_index",
        [
          Alcotest.test_case "units" `Quick test_cell_index_units;
          QCheck_alcotest.to_alcotest prop_cell_index_model;
        ] );
      ( "tarjan",
        [
          Alcotest.test_case "dag" `Quick test_tarjan_dag;
          Alcotest.test_case "cycle" `Quick test_tarjan_cycle;
          Alcotest.test_case "self loop" `Quick test_tarjan_self_loop;
          Alcotest.test_case "empty graph" `Quick test_tarjan_empty_graph;
          Alcotest.test_case "200k-node chain (no stack overflow)" `Quick
            test_tarjan_long_chain;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "dag propagation" `Quick test_digraph_dag;
          Alcotest.test_case "cycle members share sets" `Quick
            test_digraph_cycle_shares;
          Alcotest.test_case "self loop" `Quick test_digraph_self_loop;
          Alcotest.test_case "no edges" `Quick test_digraph_no_edges;
          Alcotest.test_case "init values not mutated" `Quick
            test_digraph_does_not_mutate_init;
        ] );
      qsuite "digraph-props"
        [ prop_digraph_vs_naive; prop_digraph_sccs_match_tarjan ];
      ( "csr",
        [
          Alcotest.test_case "stream order" `Quick test_csr_stream_order;
          Alcotest.test_case "rev = cons-list order" `Quick
            test_csr_rev_order;
          Alcotest.test_case "of_rows round trip" `Quick
            test_csr_of_rows_roundtrip;
          Alcotest.test_case "bipartite columns" `Quick test_csr_bipartite;
          Alcotest.test_case "bounds checking" `Quick test_csr_bounds;
          Alcotest.test_case "empty shapes" `Quick test_csr_empty;
        ] );
      qsuite "csr-props"
        [ prop_run_csr_equals_run; prop_run_csr_scc_partition ];
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "growth" `Quick test_vec_growth;
        ] );
    ]
