(* The persistent artifact store, exercised against its contract:
   never a silently wrong answer (every damage mode is detected and
   quarantined), never a failure (every store mishap is an ordinary
   miss), and a warm entry seeds the engine with zero recomputation.
   Plus the fault-injection spec machinery and the digest-keyed
   counterexample cache that store-rehydrated grammars rely on. *)

module G = Lalr_grammar.Grammar
module Reader = Lalr_grammar.Reader
module Engine = Lalr_engine.Engine
module Store = Lalr_store.Store
module Budget = Lalr_guard.Budget
module Faultpoint = Lalr_guard.Faultpoint
module Counterexample = Lalr_report.Counterexample
module Classify = Lalr_tables.Classify

let expr_src =
  {|
%token plus times lparen rparen id
%start e
%%
e : e plus t | t ;
t : t times f | f ;
f : lparen e rparen | id ;
|}

let expr () = Reader.of_string ~name:"store-test" expr_src

let dangling_src =
  {|
%token if_ then_ else_ expr other
%start stmt
%%
stmt : if_ expr then_ stmt
     | if_ expr then_ stmt else_ stmt
     | other ;
|}

let dangling () = Reader.of_string ~name:"store-test2" dangling_src

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lalr_store_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  (* a fresh name per test; the store creates it *)
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let force_all e =
  ignore (Engine.tables e);
  ignore (Engine.classification e)

(* Populate a fresh store with the grammar's artifacts and return it
   with the entry path. *)
let populated g =
  let st = Store.create ~dir:(fresh_dir ()) in
  let e = Engine.create ~store:st g in
  force_all e;
  Engine.persist ~force:true e;
  let path = Store.entry_path st g in
  Alcotest.(check bool) "entry written" true (Sys.file_exists path);
  (st, path)

(* ------------------------------------------------------------------ *)
(* Round trip                                                          *)
(* ------------------------------------------------------------------ *)

let test_round_trip () =
  let g = expr () in
  let st, _ = populated g in
  match Store.load st g with
  | None -> Alcotest.fail "freshly written entry did not load"
  | Some b ->
      Alcotest.(check bool)
        "rehydrated grammar is structurally equal" true
        (G.equal_structure b.Store.b_grammar g);
      Alcotest.(check bool)
        "classification travelled" true
        (b.Store.b_classification <> None);
      let v = Option.get b.Store.b_classification in
      Alcotest.(check bool) "verdict preserved" true v.Classify.lalr1;
      let s = Store.stats st in
      Alcotest.(check int) "one hit" 1 s.Store.hits;
      Alcotest.(check int) "one write" 1 s.Store.writes;
      Alcotest.(check int) "no corruption" 0 s.Store.corrupt

let test_warm_engine_recomputes_nothing () =
  let g = expr () in
  let st, _ = populated g in
  let e = Engine.create ~store:st g in
  force_all e;
  List.iter
    (fun (stage : Engine.stage) ->
      if stage.forced then
        Alcotest.(check int)
          (Printf.sprintf "stage %s not recomputed" stage.stage)
          0 stage.misses)
    (Engine.stats e);
  Alcotest.(check int) "store hit" 1 (Store.stats st).Store.hits

(* ------------------------------------------------------------------ *)
(* Damage modes: each one is a counted quarantine + miss, then a clean
   recompute — never a crash, never a served lie.                      *)
(* ------------------------------------------------------------------ *)

let check_damage name damage =
  let g = expr () in
  let st, path = populated g in
  damage path;
  let before = Store.stats st in
  (match Store.load st g with
  | Some _ -> Alcotest.failf "%s: damaged entry was served" name
  | None -> ());
  let s = Store.stats st in
  Alcotest.(check int)
    (name ^ ": quarantined") (before.Store.corrupt + 1) s.Store.corrupt;
  Alcotest.(check int)
    (name ^ ": counted as miss") (before.Store.misses + 1) s.Store.misses;
  Alcotest.(check bool)
    (name ^ ": quarantine file kept") true
    (Sys.file_exists (path ^ ".corrupt"));
  Alcotest.(check bool)
    (name ^ ": entry gone") false (Sys.file_exists path);
  (* the miss recomputes and repopulates *)
  let e = Engine.create ~store:st g in
  force_all e;
  Engine.persist ~force:true e;
  match Store.load st g with
  | None -> Alcotest.failf "%s: recompute did not repopulate" name
  | Some _ -> ()

let test_truncation () =
  check_damage "truncation" (fun path ->
      let raw = read_file path in
      write_file path (String.sub raw 0 (String.length raw / 3)))

let test_bit_flip () =
  check_damage "bit flip" (fun path ->
      let raw = read_file path in
      let b = Bytes.of_string raw in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      write_file path (Bytes.to_string b))

let test_version_skew () =
  check_damage "version skew" (fun path ->
      (* the stamp starts right after the 8-byte magic and its 2-byte
         length; damaging it simulates an entry from another build *)
      let raw = read_file path in
      let b = Bytes.of_string raw in
      Bytes.set b 11 (Char.chr (Char.code (Bytes.get b 11) lxor 0x01));
      write_file path (Bytes.to_string b))

let test_wrong_key () =
  (* A structurally valid entry for grammar A sitting at grammar B's
     path passes magic, stamp and checksum — only the rehydrated-key
     check can reject it. *)
  let ga = expr () and gb = dangling () in
  let st = Store.create ~dir:(fresh_dir ()) in
  let ea = Engine.create ~store:st ga in
  force_all ea;
  Engine.persist ~force:true ea;
  let a_path = Store.entry_path st ga in
  let b_path = Store.entry_path st gb in
  write_file b_path (read_file a_path);
  (match Store.load st gb with
  | Some _ -> Alcotest.fail "foreign entry served under the wrong key"
  | None -> ());
  Alcotest.(check int) "quarantined" 1 (Store.stats st).Store.corrupt

let test_store_never_fails () =
  (* Pull the directory out from under a live store: every operation
     must degrade to counted errors and misses, no exception. *)
  let g = expr () in
  let st, path = populated g in
  Sys.remove path;
  let dir = Store.dir st in
  (* leave quarantine leftovers out of the way, then remove the dir *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  Alcotest.(check (option reject)) "load is a miss" None
    (Option.map ignore (Store.load st g));
  let e = Engine.create ~store:st g in
  force_all e;
  Engine.persist ~force:true e;
  let s = Store.stats st in
  Alcotest.(check bool) "save failure counted" true (s.Store.errors >= 1)

let test_skip_small () =
  (* A grammar this tiny computes in well under Store.small_threshold:
     an unforced persist must decline to write, count the skip, and
     leave no entry on disk; ~force:true must write anyway. *)
  let g = expr () in
  let st = Store.create ~dir:(fresh_dir ()) in
  let e = Engine.create ~store:st g in
  force_all e;
  Engine.persist e;
  let path = Store.entry_path st g in
  Alcotest.(check bool) "no entry written" false (Sys.file_exists path);
  let s = Store.stats st in
  Alcotest.(check int) "skip counted" 1 s.Store.skipped_small;
  Alcotest.(check int) "no write" 0 s.Store.writes;
  Alcotest.(check bool)
    "pp_stats reports it" true
    (let rendered = Format.asprintf "%a" Store.pp_stats st in
     let sub = "1 skipped-small" in
     let n = String.length rendered and m = String.length sub in
     let rec has i = i + m <= n && (String.sub rendered i m = sub || has (i + 1)) in
     has 0);
  Engine.persist ~force:true e;
  Alcotest.(check bool) "forced persist writes" true (Sys.file_exists path);
  Alcotest.(check int) "write counted" 1 (Store.stats st).Store.writes

let test_distinct_sources_distinct_entries () =
  (* Same structure read from two source names: diagnostics cite
     different positions, so they must not share an entry. *)
  let g1 = Reader.of_string ~name:"left.cfg" expr_src in
  let g2 = Reader.of_string ~name:"right.cfg" expr_src in
  Alcotest.(check bool)
    "digest equal" true
    (String.equal (G.digest g1) (G.digest g2));
  Alcotest.(check bool)
    "store keys differ" false
    (String.equal (Store.key g1) (Store.key g2))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let test_spec_errors () =
  let bad spec =
    match Faultpoint.arm spec with
    | Ok () ->
        Faultpoint.disarm ();
        Alcotest.failf "spec %S was accepted" spec
    | Error _ -> ()
  in
  bad "nosuch:raise";
  bad "lr0:corrupt";
  bad "reader:banana";
  bad "lr0:raise@0";
  bad "lr0:raise@x";
  bad "lr0";
  bad "";
  Alcotest.(check bool) "nothing armed after errors" false (Faultpoint.armed ())

let test_fire_once_at_nth_hit () =
  (match Faultpoint.arm "lr0:raise@2" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Faultpoint.check "lr0";
  (* first hit: silent *)
  (match Faultpoint.check "lr0" with
  | () -> Alcotest.fail "second hit did not fire"
  | exception Budget.Internal_error { stage; _ } ->
      Alcotest.(check string) "stage names the site" "lr0" stage);
  Faultpoint.check "lr0";
  (* fired once; third hit silent *)
  Faultpoint.disarm ();
  Alcotest.(check bool) "disarmed" false (Faultpoint.armed ())

let test_store_alias_arms_both () =
  (match Faultpoint.arm "store:corrupt" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "read side" true (Faultpoint.take_corrupt "store-read");
  Alcotest.(check bool)
    "write side" true
    (Faultpoint.take_corrupt "store-write");
  Alcotest.(check bool)
    "consumed once" false
    (Faultpoint.take_corrupt "store-read");
  Faultpoint.disarm ()

let test_injected_write_corruption_detected () =
  let g = expr () in
  let st = Store.create ~dir:(fresh_dir ()) in
  (match Faultpoint.arm "store-write:corrupt" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let e = Engine.create ~store:st g in
  force_all e;
  Engine.persist ~force:true e;
  Faultpoint.disarm ();
  (* the corrupted write must be caught by the next read *)
  (match Store.load st g with
  | Some _ -> Alcotest.fail "corrupted payload served"
  | None -> ());
  Alcotest.(check int) "quarantined" 1 (Store.stats st).Store.corrupt

let test_registry_covers_engine_slots () =
  (* Every engine stage is an injection site with compute semantics —
     the registry cannot silently fall out of sync. *)
  let e = Engine.create (expr ()) in
  List.iter
    (fun (s : Engine.stage) ->
      match Faultpoint.find_site s.stage with
      | Some info ->
          Alcotest.(check bool)
            (s.stage ^ " is a compute site") true
            (info.Faultpoint.si_class = Faultpoint.Compute)
      | None -> Alcotest.failf "engine stage %s is not a fault site" s.stage)
    (Engine.stats e)

(* ------------------------------------------------------------------ *)
(* run_partial                                                         *)
(* ------------------------------------------------------------------ *)

let test_run_partial_marks_incomplete () =
  (match Faultpoint.arm "follow:wall" with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let e = Engine.create (expr ()) in
  let p = Engine.run_partial e (fun e -> Engine.classification e) in
  Faultpoint.disarm ();
  (match p.Engine.pr_completeness with
  | Engine.Incomplete (Engine.Budget_exceeded ex) ->
      Alcotest.(check string) "stage" "follow" ex.Budget.ex_stage
  | _ -> Alcotest.fail "expected an incomplete budget failure");
  Alcotest.(check bool) "no value" true (p.Engine.pr_value = None);
  Alcotest.(check (list string))
    "completed prefix" [ "analysis"; "lr0"; "relations" ]
    p.Engine.pr_completed

let test_run_partial_complete () =
  let e = Engine.create (expr ()) in
  let p = Engine.run_partial e (fun e -> Engine.classification e) in
  (match p.Engine.pr_completeness with
  | Engine.Complete -> ()
  | Engine.Incomplete _ -> Alcotest.fail "clean run marked incomplete");
  Alcotest.(check bool) "has value" true (p.Engine.pr_value <> None)

(* ------------------------------------------------------------------ *)
(* The digest-keyed counterexample cache                                *)
(* ------------------------------------------------------------------ *)

let test_yield_cache_shared_by_content () =
  (* Two parses of the same text: physically distinct, structurally
     equal — exactly the shape of a store-rehydrated grammar. The
     memoised yield function must be the same closure for both. *)
  let g1 = Reader.of_string ~name:"one" dangling_src in
  let g2 = Reader.of_string ~name:"two" dangling_src in
  Alcotest.(check bool) "distinct values" false (g1 == g2);
  let f1 = Counterexample.min_yields g1 in
  let f2 = Counterexample.min_yields g2 in
  Alcotest.(check bool) "one cache entry serves both" true (f1 == f2);
  (* and it still answers correctly *)
  Alcotest.(check (list string))
    "yield of stmt" [ "other" ]
    (f2 (Option.get (G.find_nonterminal g2 "stmt")))

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "warm engine recomputes nothing" `Quick
            test_warm_engine_recomputes_nothing;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "bit flip" `Quick test_bit_flip;
          Alcotest.test_case "version skew" `Quick test_version_skew;
          Alcotest.test_case "wrong key" `Quick test_wrong_key;
          Alcotest.test_case "store never fails" `Quick test_store_never_fails;
          Alcotest.test_case "sub-threshold persist is skipped" `Quick
            test_skip_small;
          Alcotest.test_case "distinct sources, distinct entries" `Quick
            test_distinct_sources_distinct_entries;
        ] );
      ( "faultpoint",
        [
          Alcotest.test_case "spec errors" `Quick test_spec_errors;
          Alcotest.test_case "fire once at nth hit" `Quick
            test_fire_once_at_nth_hit;
          Alcotest.test_case "store alias arms both sides" `Quick
            test_store_alias_arms_both;
          Alcotest.test_case "injected write corruption detected" `Quick
            test_injected_write_corruption_detected;
          Alcotest.test_case "registry covers engine slots" `Quick
            test_registry_covers_engine_slots;
        ] );
      ( "partial",
        [
          Alcotest.test_case "marks incomplete" `Quick
            test_run_partial_marks_incomplete;
          Alcotest.test_case "complete run" `Quick test_run_partial_complete;
        ] );
      ( "counterexample",
        [
          Alcotest.test_case "yield cache shared by content" `Quick
            test_yield_cache_shared_by_content;
        ] );
    ]
