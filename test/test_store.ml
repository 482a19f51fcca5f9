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

(* LALR(1) but not SLR(1), so its verdict forces [follow] and [la]. *)
let assign () =
  Reader.of_string ~name:"store-test3"
    {|
%token eq star id
%start s
%%
s : l eq r | r ;
l : star r | id ;
r : l ;
|}

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

(* Where the two frames sit in an entry's bytes (store.mli's layout):
   the offset of the verdict frame's payload and of the artifact
   frame. *)
let frames raw =
  let vlen_off = 10 + String.get_uint16_be raw 8 in
  let vlen = Int64.to_int (String.get_int64_be raw vlen_off) in
  let payload = vlen_off + 8 + 16 in
  (payload, payload + vlen)

let flip raw i =
  let b = Bytes.of_string raw in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  Bytes.to_string b

let misses e name = (Engine.find_stage e name).Engine.misses

(* The slots outside the verdict frame that [force_all] reads. *)
let artifact_slots e =
  List.filter_map
    (fun (s : Engine.stage) ->
      if s.forced && not (List.mem s.stage [ "classification"; "classification+lr1" ])
      then Some s.stage
      else None)
    (Engine.stats e)

(* ------------------------------------------------------------------ *)
(* Round trip                                                          *)
(* ------------------------------------------------------------------ *)

let test_round_trip () =
  let g = expr () in
  let st, _ = populated g in
  let e = Engine.create ~store:st g in
  force_all e;
  Alcotest.(check bool)
    "rehydrated grammar is structurally equal" true
    (G.equal_structure (Lalr_automaton.Lr0.grammar (Engine.lr0 e)) g);
  Alcotest.(check int) "classification travelled" 0 (misses e "classification");
  Alcotest.(check bool) "verdict preserved" true
    (Engine.classification e).Classify.lalr1;
  let s = Store.stats st in
  Alcotest.(check int) "one hit" 1 s.Store.hits;
  Alcotest.(check int) "one artifact read" 1 s.Store.artifact_reads;
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

(* A warm verdict is the verdict frame alone: the run reads no
   artifact, and its stage list names only the slot it read. *)
let test_hit_reads_verdict_frame () =
  let g = assign () in
  let st, _ = populated g in
  let e = Engine.create ~store:st g in
  let v = Engine.classification e in
  Alcotest.(check bool) "same verdict" true
    (v = Engine.classification (Engine.create g));
  Alcotest.(check (list string)) "stages read" [ "classification" ]
    (List.filter_map
       (fun (s : Engine.stage) -> if s.forced then Some s.stage else None)
       (Engine.stats e));
  Alcotest.(check int) "recomputed nothing" 0 (misses e "classification");
  Alcotest.(check (option int)) "lr0 states from the verdict"
    (Some v.Classify.lr0_states) (Engine.peek_lr0_states e);
  let s = Store.stats st in
  Alcotest.(check int) "one hit" 1 s.Store.hits;
  Alcotest.(check int) "no artifact read" 0 s.Store.artifact_reads

(* expr is SLR(1): its verdict reads no Follow or LA sets, so its entry
   holds none, and a warm engine answers from the entry alone. *)
let test_short_path_entry () =
  let g = expr () in
  let st = Store.create ~dir:(fresh_dir ()) in
  let e = Engine.create ~store:st g in
  let v = Engine.classification e in
  Engine.persist ~force:true e;
  let warm = Engine.create ~store:st g in
  Alcotest.(check bool) "same verdict" true (Engine.classification warm = v);
  List.iter
    (fun (stage : Engine.stage) ->
      Alcotest.(check int)
        (Printf.sprintf "stage %s not recomputed" stage.stage)
        0 stage.misses)
    (Engine.stats warm);
  (* the entry's artifacts hold the relations but no Follow or LA *)
  ignore (Engine.lalr warm);
  Alcotest.(check int) "relations stored" 0 (misses warm "relations");
  Alcotest.(check int) "no follow" 1 (misses warm "follow");
  Alcotest.(check int) "no la" 1 (misses warm "la")

(* ------------------------------------------------------------------ *)
(* Damage modes: each one is a counted quarantine, found where its
   frame is read (a probe miss for the header and verdict frame), then
   a clean recompute — never a crash, never a served lie.              *)
(* ------------------------------------------------------------------ *)

type found = Probe | Artifacts

let check_damage name ~found damage =
  let g = expr () in
  let st, path = populated g in
  let cold = Engine.classification (Engine.create g) in
  let raw = read_file path in
  write_file path (damage raw);
  let before = Store.stats st in
  let at_probe = if found = Probe then 1 else 0 in
  let e = Engine.create ~store:st g in
  let s = Store.stats st in
  Alcotest.(check int)
    (name ^ ": quarantined at create") (before.Store.corrupt + at_probe)
    s.Store.corrupt;
  Alcotest.(check int)
    (name ^ ": counted as miss") (before.Store.misses + at_probe) s.Store.misses;
  force_all e;
  List.iter
    (fun stage ->
      Alcotest.(check int) (name ^ ": " ^ stage ^ " not served") 1
        (misses e stage))
    (artifact_slots e);
  Alcotest.(check int)
    (name ^ ": verdict frame served iff intact") at_probe
    (misses e "classification");
  Alcotest.(check bool) (name ^ ": cold verdict") true
    (Engine.classification e = cold);
  let s = Store.stats st in
  Alcotest.(check int)
    (name ^ ": quarantined once") (before.Store.corrupt + 1) s.Store.corrupt;
  Alcotest.(check int)
    (name ^ ": no artifact frame served") before.Store.artifact_reads
    s.Store.artifact_reads;
  Alcotest.(check bool)
    (name ^ ": quarantine file kept") true
    (Sys.file_exists (path ^ ".corrupt"));
  Alcotest.(check bool)
    (name ^ ": entry gone") false (Sys.file_exists path);
  (* the recompute repopulates *)
  Engine.persist ~force:true e;
  let e = Engine.create ~store:st g in
  force_all e;
  if List.exists (fun (s : Engine.stage) -> s.misses > 0) (Engine.stats e) then
    Alcotest.failf "%s: recompute did not repopulate" name

let test_truncation () =
  check_damage "truncation" ~found:Artifacts (fun raw ->
      String.sub raw 0 (String.length raw / 3))

let test_bit_flip () =
  check_damage "bit flip" ~found:Artifacts (fun raw ->
      flip raw (String.length raw / 2))

let test_version_skew () =
  check_damage "version skew" ~found:Probe (fun raw ->
      (* the stamp starts right after the 8-byte magic and its 2-byte
         length; damaging it simulates an entry from another build *)
      flip raw 11)

let test_verdict_frame_damage () =
  check_damage "verdict frame bit flip" ~found:Probe (fun raw ->
      let payload, art = frames raw in
      flip raw ((payload + art) / 2));
  check_damage "verdict frame truncation" ~found:Probe (fun raw ->
      let payload, art = frames raw in
      String.sub raw 0 ((payload + art) / 2))

(* Damage confined to the artifact frame does not touch a verdict hit:
   the verdict frame is served with nothing quarantined. The first
   artifact slot then finds the damage, and everything recomputes to a
   cold run's answers. *)
let test_artifact_frame_damage () =
  let g = assign () in
  let st, path = populated g in
  let raw = read_file path in
  let _, art = frames raw in
  write_file path (flip raw (art + 40));
  let before = Store.stats st in
  let e = Engine.create ~store:st g in
  let cold = Engine.create g in
  Alcotest.(check bool) "verdict" true
    (Engine.classification e = Engine.classification cold);
  Alcotest.(check int) "served from the verdict frame" 0
    (misses e "classification");
  Alcotest.(check int) "nothing quarantined yet" 0 (Store.stats st).Store.corrupt;
  ignore (Engine.lr0 e);
  let s = Store.stats st in
  Alcotest.(check int) "quarantined by lr0" 1 s.Store.corrupt;
  Alcotest.(check bool) "quarantine file kept" true
    (Sys.file_exists (path ^ ".corrupt"));
  Alcotest.(check int) "lr0 recomputed" 1 (misses e "lr0");
  let pp_tables e = Format.asprintf "%a" Lalr_tables.Tables.pp (Engine.tables e) in
  Alcotest.(check string) "tables equal a cold run" (pp_tables cold)
    (pp_tables e);
  Alcotest.(check int) "one probe, a hit" (before.Store.hits + 1) s.Store.hits;
  Alcotest.(check int) "no miss" before.Store.misses s.Store.misses

(* A hit reads the header and the verdict frame and nothing after: an
   entry cut right behind its verdict frame still serves the verdict. *)
let test_hit_reads_no_artifact_bytes () =
  let g = assign () in
  let st, path = populated g in
  let raw = read_file path in
  let _, art = frames raw in
  write_file path (String.sub raw 0 art);
  let e = Engine.create ~store:st g in
  ignore (Engine.classification e);
  Alcotest.(check int) "served" 0 (misses e "classification");
  let s = Store.stats st in
  Alcotest.(check int) "a hit" 1 s.Store.hits;
  Alcotest.(check int) "nothing quarantined" 0 s.Store.corrupt;
  ignore (Engine.lr0 e);
  Alcotest.(check int) "the missing frame is found" 1
    (Store.stats st).Store.corrupt

let test_wrong_key () =
  (* A structurally valid entry for grammar A sitting at grammar B's
     path passes magic, stamp and checksum — only the key check can
     reject it. *)
  let ga = expr () and gb = dangling () in
  let st = Store.create ~dir:(fresh_dir ()) in
  let ea = Engine.create ~store:st ga in
  force_all ea;
  Engine.persist ~force:true ea;
  let a_path = Store.entry_path st ga in
  let b_path = Store.entry_path st gb in
  write_file b_path (read_file a_path);
  let eb = Engine.create ~store:st gb in
  ignore (Engine.classification eb);
  if misses eb "classification" = 0 then
    Alcotest.fail "foreign entry served under the wrong key";
  Alcotest.(check int) "quarantined" 1 (Store.stats st).Store.corrupt;
  (* B's own verdict frame in front of A's artifact frame: the verdict
     is B's and is served, and the re-keyed artifact grammar rejects
     the rest. *)
  Engine.persist ~force:true eb;
  let b_raw = read_file b_path and a_raw = read_file a_path in
  let _, b_art = frames b_raw and _, a_art = frames a_raw in
  write_file b_path
    (String.sub b_raw 0 b_art
    ^ String.sub a_raw a_art (String.length a_raw - a_art));
  let eb = Engine.create ~store:st gb in
  ignore (Engine.classification eb);
  Alcotest.(check int) "own verdict served" 0 (misses eb "classification");
  ignore (Engine.lr0 eb);
  if misses eb "lr0" = 0 then
    Alcotest.fail "foreign artifacts served under the wrong key";
  Alcotest.(check int) "quarantined again" 2 (Store.stats st).Store.corrupt

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
  let before = Store.stats st in
  let e = Engine.create ~store:st g in
  Alcotest.(check int) "load is a miss" (before.Store.misses + 1)
    (Store.stats st).Store.misses;
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

let test_pure_hit_is_not_skipped () =
  (* A warm run that answers from the store computes nothing: its
     persist neither writes nor counts a declined small write. *)
  let dir = fresh_dir () in
  let cold = Engine.create ~store:(Store.create ~dir) (expr ()) in
  ignore (Engine.classification cold);
  Engine.persist ~force:true cold;
  let st = Store.create ~dir in
  let e = Engine.create ~store:st (expr ()) in
  ignore (Engine.classification e);
  Alcotest.(check int) "no slot missed" 0
    (List.fold_left (fun n s -> n + s.Engine.misses) 0 (Engine.stats e));
  Engine.persist e;
  let s = Store.stats st in
  Alcotest.(check int) "warm hit" 1 s.Store.hits;
  Alcotest.(check int) "no skip counted" 0 s.Store.skipped_small;
  Alcotest.(check int) "no write" 0 s.Store.writes;
  let rendered = Format.asprintf "%a" Store.pp_stats st in
  let sub = "0 skipped-small" in
  let n = String.length rendered and m = String.length sub in
  let rec has i =
    i + m <= n && (String.sub rendered i m = sub || has (i + 1))
  in
  Alcotest.(check bool) ("pp_stats: " ^ rendered) true (has 0)

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

(* The key's binary encoding keeps every boundary: each pair differs
   in exactly one respect and must not share a key, while the same
   text read twice must. *)
let test_key_pairs () =
  let read src = Reader.of_string ~name:"pair.cfg" src in
  let pairs =
    [
      ( "symbol kind at the same index",
        (* x is terminal 1 and s nonterminal 1 *)
        "%token x y\n%start s\n%%\ns : x t ;\nt : y ;\n",
        "%token x y\n%start s\n%%\ns : s t ;\nt : y ;\n" );
      ( "where one right side ends",
        "%token a b c\n%start s\n%%\ns : a b | c ;\n",
        "%token a b c\n%start s\n%%\ns : a | b c ;\n" );
      ( "precedence level",
        "%token a b\n%left a\n%left b\n%start s\n%%\ns : s a s | s b s | a ;\n",
        "%token a b\n%left b\n%left a\n%start s\n%%\ns : s a s | s b s | a ;\n" );
      ( "associativity",
        "%token a\n%left a\n%start s\n%%\ns : s a s | a ;\n",
        "%token a\n%right a\n%start s\n%%\ns : s a s | a ;\n" );
      ( "one production's line",
        "%token a b\n%start s\n%%\ns : a t ;\nt : b ;\n",
        "%token a b\n%start s\n%%\ns : a t ;\n\nt : b ;\n" );
    ]
  in
  List.iter
    (fun (what, a, b) ->
      let ga = read a and gb = read b in
      Alcotest.(check string) (what ^ ": same text, same key")
        (Store.key ga) (Store.key (read a));
      Alcotest.(check bool) (what ^ ": keys differ") false
        (String.equal (Store.key ga) (Store.key gb)))
    pairs

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
  let e = Engine.create ~store:st g in
  force_all e;
  if List.exists (fun stage -> misses e stage = 0) (artifact_slots e) then
    Alcotest.fail "corrupted payload served";
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
  let e = Engine.create (assign ()) in
  let p = Engine.run_partial e (fun e -> Engine.classification e) in
  Faultpoint.disarm ();
  (match p.Engine.pr_completeness with
  | Engine.Incomplete (Engine.Budget_exceeded ex) ->
      Alcotest.(check string) "stage" "follow" ex.Budget.ex_stage
  | _ -> Alcotest.fail "expected an incomplete budget failure");
  Alcotest.(check bool) "no value" true (p.Engine.pr_value = None);
  Alcotest.(check (list string))
    "completed prefix" [ "analysis"; "lr0"; "relations"; "slr" ]
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
          Alcotest.test_case "a hit reads the verdict frame" `Quick
            test_hit_reads_verdict_frame;
          Alcotest.test_case "SLR(1)-clean entry has no LA sets" `Quick
            test_short_path_entry;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "bit flip" `Quick test_bit_flip;
          Alcotest.test_case "version skew" `Quick test_version_skew;
          Alcotest.test_case "verdict frame damage" `Quick
            test_verdict_frame_damage;
          Alcotest.test_case "artifact frame damage" `Quick
            test_artifact_frame_damage;
          Alcotest.test_case "a hit reads no artifact bytes" `Quick
            test_hit_reads_no_artifact_bytes;
          Alcotest.test_case "wrong key" `Quick test_wrong_key;
          Alcotest.test_case "store never fails" `Quick test_store_never_fails;
          Alcotest.test_case "sub-threshold persist is skipped" `Quick
            test_skip_small;
          Alcotest.test_case "a pure store hit is not a skipped write" `Quick
            test_pure_hit_is_not_skipped;
          Alcotest.test_case "distinct sources, distinct entries" `Quick
            test_distinct_sources_distinct_entries;
          Alcotest.test_case "keys of near-identical grammars" `Quick
            test_key_pairs;
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
