(* The benchmark's inputs are a pure function of the workload seed.
   The pinned digest turns any change to what the workloads feed the
   program (Scaled, Sentence, a registry grammar, Reader.to_string or
   Protocol.encode_request output) into a failing test instead of a
   silently different benchmark. Update it only in a change that means
   to redefine the benchmark. *)

let pinned_default_digest = "aa188a0b4aebf20a702f7d61732247a0"

let test_same_seed () =
  let a = Inputs.dump ~seed:Inputs.default_seed in
  let b = Inputs.dump ~seed:Inputs.default_seed in
  Alcotest.(check bool) "byte-identical" true (String.equal a b)

let test_other_seed () =
  let a = Inputs.dump ~seed:Inputs.default_seed in
  let b = Inputs.dump ~seed:(Inputs.default_seed + 1) in
  Alcotest.(check bool) "different" false (String.equal a b)

let test_pinned () =
  Alcotest.(check string)
    "digest of the default-seed inputs" pinned_default_digest
    (Inputs.digest ~seed:Inputs.default_seed)

(* Every inline grammar is new to the daemon's store, and each unit
   count gets the same share of them. *)
let test_unique_inline () =
  let inline =
    List.filter_map
      (function Inputs.Inline { units; text } -> Some (units, text) | _ -> None)
      (Inputs.serve_ops ~seed:Inputs.default_seed ~count:2000)
  in
  let texts = List.map snd inline in
  Alcotest.(check int)
    "no inline grammar repeats" (List.length texts)
    (List.length (List.sort_uniq String.compare texts));
  Array.iter
    (fun u ->
      Alcotest.(check int)
        (Printf.sprintf "%d-unit share" u)
        (List.length inline / Array.length Inputs.inline_units)
        (List.length (List.filter (fun (v, _) -> v = u) inline)))
    Inputs.inline_units

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_same_seed;
          Alcotest.test_case "other seed, other bytes" `Quick test_other_seed;
          Alcotest.test_case "default-seed digest pinned" `Quick test_pinned;
          Alcotest.test_case "inline serve grammars unique" `Quick test_unique_inline;
        ] );
    ]
