(* Deterministic fuzz harness: the crash-free guarantee, exercised.

   Every public entry point that accepts hostile input — the two
   grammar readers, the parse driver, the whole analysis engine under a
   budget — is hammered with seeded random input. The only permissible
   outcomes are a value, a diagnostic list, or a structured
   [Budget_exceeded]; any other exception escaping is a bug, and the
   failure message carries the seed so the run reproduces exactly.

   Iteration count and seed come from the environment so CI can crank
   the volume without recompiling:

     FUZZ_SEED=42 FUZZ_ITERATIONS=1000 dune exec test/test_fuzz.exe *)

module G = Lalr_grammar.Grammar
module Reader = Lalr_grammar.Reader
module Menhir_reader = Lalr_grammar.Menhir_reader
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Tables = Lalr_tables.Tables
module Token = Lalr_runtime.Token
module Driver = Lalr_runtime.Driver
module Engine = Lalr_engine.Engine
module Budget = Lalr_guard.Budget
module Store = Lalr_store.Store
module Registry = Lalr_suite.Registry
module Randgen = Lalr_suite.Randgen

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v when v > 0 -> v
  | _ -> default

let seed = env_int "FUZZ_SEED" 0xD5EED
let iterations = env_int "FUZZ_ITERATIONS" 250

(* One generator per test case, deterministically derived from the
   seed, so cases stay reproducible independently of execution order. *)
let rng salt = Random.State.make [| seed; salt |]

let guarded name i (f : unit -> unit) =
  try f ()
  with exn ->
    Alcotest.failf "%s: iteration %d of %d (FUZZ_SEED=%d): uncaught %s" name i
      iterations seed (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Readers on random bytes                                            *)
(* ------------------------------------------------------------------ *)

let random_bytes st =
  let len = Random.State.int st 400 in
  String.init len (fun _ -> Char.chr (Random.State.int st 256))

let test_readers_random_bytes () =
  let st = rng 1 in
  for i = 1 to iterations do
    let src = random_bytes st in
    guarded "reader/bytes" i (fun () ->
        ignore (Reader.of_string_tolerant ~name:"fuzz" src));
    guarded "menhir/bytes" i (fun () ->
        ignore (Menhir_reader.of_string_tolerant ~name:"fuzz" src))
  done

(* ------------------------------------------------------------------ *)
(* Readers on mutated real grammars                                   *)
(* ------------------------------------------------------------------ *)

(* The corpus is materialised next to the test binary by the dune
   [glob_files fuzz_corpus/*] dependency; [dune exec] from the project
   root sees it under test/. *)
let corpus =
  lazy
    (let dir =
       List.find Sys.file_exists
         [
           "fuzz_corpus";
           "test/fuzz_corpus";
           Filename.concat (Filename.dirname Sys.executable_name) "fuzz_corpus";
         ]
     in
     Sys.readdir dir |> Array.to_list |> List.sort String.compare
     |> List.map (fun f -> Reader.read_file (Filename.concat dir f)))

let mutate st src =
  let s = Bytes.of_string src in
  let n = Bytes.length s in
  if n = 0 then src
  else
    match Random.State.int st 5 with
    | 0 ->
        (* flip one byte to a random printable-or-not char *)
        Bytes.set s (Random.State.int st n)
          (Char.chr (Random.State.int st 256));
        Bytes.to_string s
    | 1 ->
        (* delete a span *)
        let a = Random.State.int st n in
        let len = min (n - a) (1 + Random.State.int st 40) in
        String.sub src 0 a ^ String.sub src (a + len) (n - a - len)
    | 2 ->
        (* duplicate a span *)
        let a = Random.State.int st n in
        let len = min (n - a) (1 + Random.State.int st 40) in
        String.sub src 0 (a + len) ^ String.sub src a (n - a)
    | 3 ->
        (* truncate *)
        String.sub src 0 (Random.State.int st n)
    | _ ->
        (* splice with another corpus entry *)
        let other = List.nth (Lazy.force corpus)
            (Random.State.int st (List.length (Lazy.force corpus)))
        in
        let a = Random.State.int st (n + 1) in
        let b = Random.State.int st (String.length other + 1) in
        String.sub src 0 a
        ^ String.sub other b (String.length other - b)

let test_readers_mutated_corpus () =
  let st = rng 2 in
  let files = Lazy.force corpus in
  for i = 1 to iterations do
    let base = List.nth files (Random.State.int st (List.length files)) in
    let rounds = 1 + Random.State.int st 4 in
    let src = ref base in
    for _ = 1 to rounds do
      src := mutate st !src
    done;
    (* Both readers must survive either format: feeding yacc-format
       text to the menhir reader (and vice versa) is exactly the
       hostile-input case. *)
    guarded "reader/mutated" i (fun () ->
        ignore (Reader.of_string_tolerant ~name:"fuzz" !src));
    guarded "menhir/mutated" i (fun () ->
        ignore (Menhir_reader.of_string_tolerant ~name:"fuzz" !src))
  done

(* ------------------------------------------------------------------ *)
(* Driver on random token streams                                     *)
(* ------------------------------------------------------------------ *)

let lalr_tables g =
  let a = Lr0.build g in
  let t = Lalr.compute a in
  Tables.build ~lookahead:(Lalr.lookahead t) a

let recovery_grammar =
  lazy
    (Reader.of_string ~name:"fuzz-recovery"
       {|
%token semi id assign num error
%start prog
%%
prog : stmts ;
stmts : stmt | stmts stmt ;
stmt : id assign num semi
     | error semi ;
|})

let test_driver_random_tokens () =
  let st = rng 3 in
  let subjects =
    [
      ("expr", lalr_tables (Lazy.force (Registry.find "expr").grammar));
      ("recovery", lalr_tables (Lazy.force recovery_grammar));
    ]
  in
  for i = 1 to iterations do
    let name, tbl = List.nth subjects (i mod List.length subjects) in
    let g = Lr0.grammar (Tables.automaton tbl) in
    let len = Random.State.int st 30 in
    (* Terminal 0 is eof: interior eofs are deliberately in range. *)
    let toks =
      List.init len (fun _ -> Token.make (Random.State.int st (G.n_terminals g)))
    in
    guarded (name ^ "/parse") i (fun () ->
        ignore (Driver.parse tbl toks));
    guarded (name ^ "/recovery") i (fun () ->
        let out = Driver.parse_with_recovery tbl toks in
        (* The outcome contract: a clean parse has a tree and no
           errors; anything else reports at least one error. *)
        if out.Driver.errors = [] && out.Driver.tree = None then
          Alcotest.failf "%s: no tree and no errors" name)
  done

(* ------------------------------------------------------------------ *)
(* Engine under tight budgets                                         *)
(* ------------------------------------------------------------------ *)

let full_pipeline e =
  ignore (Engine.tables e);
  ignore (Engine.classification e)

let test_engine_under_budget () =
  let st = rng 4 in
  (* The analysis is the expensive part; a tenth of the reader volume
     keeps the case fast while still covering hundreds of grammars in a
     CI run. *)
  for i = 1 to max 1 (iterations / 10) do
    let g = Randgen.generate Randgen.default st in
    let fuel = 10 + Random.State.int st 5000 in
    let budget = Budget.create ~fuel () in
    let e = Engine.create ~budget g in
    match Engine.run e full_pipeline with
    | Ok () -> ()
    | Error (Engine.Budget_exceeded ex) ->
        Alcotest.(check bool)
          "exceeded names a stage" true (ex.Budget.ex_stage <> "");
        if ex.Budget.ex_resource = Budget.Fuel then
          Alcotest.(check bool)
            "consumed reached the cap" true
            (ex.Budget.ex_consumed >= ex.Budget.ex_cap)
    | Error (Engine.Internal_error { stage; invariant }) ->
        Alcotest.failf
          "iteration %d (FUZZ_SEED=%d): internal error in %s: %s" i seed
          stage invariant
  done

let test_engine_unbudgeted_unchanged () =
  (* The same grammars with no budget installed must analyse cleanly:
     the guard instrumentation is inert when uninstalled. *)
  let st = rng 4 in
  for i = 1 to max 1 (iterations / 10) do
    let g = Randgen.generate Randgen.default st in
    ignore (Random.State.int st 5000);
    (* keep [st] in lockstep with the budgeted case *)
    let e = Engine.create g in
    match Engine.run e full_pipeline with
    | Ok () -> ()
    | Error f ->
        Alcotest.failf "iteration %d (FUZZ_SEED=%d): unbudgeted failure: %s" i
          seed
          (Format.asprintf "%a" Engine.pp_failure f)
  done

let test_budget_trips_on_explosion () =
  (* A grammar big enough that 200 fuel cannot possibly cover the LR(0)
     construction: the budget must trip, and trip early. *)
  let st = rng 5 in
  let big =
    {
      Randgen.n_terminals = 8;
      n_nonterminals = 30;
      max_rhs = 5;
      productions_per_nt = 4;
      epsilon_weight = 0.1;
    }
  in
  let g = Randgen.generate big st in
  let e = Engine.create ~budget:(Budget.create ~fuel:200 ()) g in
  match Engine.run e full_pipeline with
  | Ok () -> Alcotest.fail "200 fuel cannot analyse a 30-nonterminal grammar"
  | Error (Engine.Budget_exceeded ex) ->
      Alcotest.(check bool) "fuel tripped" true (ex.Budget.ex_resource = Budget.Fuel);
      Alcotest.(check bool)
        "stopped promptly" true
        (ex.Budget.ex_consumed <= 2. *. ex.Budget.ex_cap)
  | Error f ->
      Alcotest.failf "expected Budget_exceeded, got %s"
        (Format.asprintf "%a" Engine.pp_failure f)

let test_wall_clock_budget () =
  (* A wall cap must stop the analysis without crashing; either the
     analysis is faster than the cap (fine) or the trip is structured. *)
  let st = rng 6 in
  let big =
    {
      Randgen.n_terminals = 10;
      n_nonterminals = 40;
      max_rhs = 6;
      productions_per_nt = 4;
      epsilon_weight = 0.1;
    }
  in
  let g = Randgen.generate big st in
  let e = Engine.create ~budget:(Budget.create ~wall:0.002 ()) g in
  match Engine.run e full_pipeline with
  | Ok () -> ()
  | Error (Engine.Budget_exceeded ex) ->
      Alcotest.(check bool)
        "wall resource" true
        (ex.Budget.ex_resource = Budget.Wall_clock)
  | Error f ->
      Alcotest.failf "expected Ok or Budget_exceeded, got %s"
        (Format.asprintf "%a" Engine.pp_failure f)

(* ------------------------------------------------------------------ *)
(* The artifact store under random damage                              *)
(* ------------------------------------------------------------------ *)

let test_store_random_damage () =
  (* Write an entry, damage it at random (truncation, bit-flip,
     stamp/version skew), and assert the contract: the next engine run
     over it counts one quarantine, in whichever frame holds the
     damage — never a crash, never a served stale answer — and the
     recompute repopulates the entry. *)
  let st = rng 7 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lalr_fuzz_store_%d" (Unix.getpid ()))
  in
  let store = Store.create ~dir in
  for i = 1 to max 1 (iterations / 10) do
    let g = Randgen.generate Randgen.default st in
    guarded "store/damage" i (fun () ->
        let e = Engine.create ~store g in
        (match Engine.run e full_pipeline with
        | Ok () -> ()
        | Error f ->
            Alcotest.failf "unbudgeted failure: %s"
              (Format.asprintf "%a" Engine.pp_failure f));
        Engine.persist ~force:true e;
        let path = Store.entry_path store g in
        if not (Sys.file_exists path) then
          Alcotest.fail "persist wrote nothing";
        let raw = In_channel.with_open_bin path In_channel.input_all in
        let n = String.length raw in
        let damaged =
          match Random.State.int st 3 with
          | 0 -> String.sub raw 0 (Random.State.int st n)
          | 1 ->
              let b = Bytes.of_string raw in
              let j = Random.State.int st n in
              Bytes.set b j
                (Char.chr
                   (Char.code (Bytes.get b j)
                   lxor (1 lsl Random.State.int st 8)));
              Bytes.to_string b
          | _ ->
              (* flip inside the stamp region: a simulated build from
                 another library or compiler version *)
              let b = Bytes.of_string raw in
              let j = 10 + Random.State.int st 4 in
              Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor 0x01));
              Bytes.to_string b
        in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc damaged);
        let before = Store.stats store in
        (* The damaged entry through the engine: every slot
           [full_pipeline] forces either recomputes or comes from a
           frame that passed its checks, and the damage is found once,
           where its frame is read. *)
        let e2 = Engine.create ~store g in
        let probe_missed = (Store.stats store).Store.misses > before.Store.misses in
        (* The first byte the damage touched, and where the artifact
           frame starts (store.mli's layout): damage before it is the
           probe's miss, damage after it the artifact read's. *)
        let first =
          let m = String.length damaged in
          let rec go i = if i < m && raw.[i] = damaged.[i] then go (i + 1) else i in
          go 0
        in
        let art =
          let v = 10 + String.get_uint16_be raw 8 in
          v + 24 + Int64.to_int (String.get_int64_be raw v)
        in
        if probe_missed <> (first < art) then
          Alcotest.failf
            "damage at byte %d (artifact frame at %d): probe %s"
            first art (if probe_missed then "missed" else "hit");
        (match Engine.run e2 full_pipeline with
        | Ok () -> ()
        | Error f ->
            Alcotest.failf "recompute after quarantine failed: %s"
              (Format.asprintf "%a" Engine.pp_failure f));
        List.iter
          (fun (s : Engine.stage) ->
            let verdict =
              s.stage = "classification" || s.stage = "classification+lr1"
            in
            if s.forced && s.misses = 0 && not (verdict && not probe_missed)
            then
              Alcotest.failf
                "damaged entry served: %s (damage left %d of %d bytes)"
                s.stage (String.length damaged) n)
          (Engine.stats e2);
        if Engine.classification e2 <> Engine.classification e then
          Alcotest.fail "verdict differs from the cold run";
        let after = Store.stats store in
        if after.Store.corrupt <> before.Store.corrupt + 1 then
          Alcotest.fail "quarantine not counted";
        if after.Store.hits + after.Store.misses
           <> before.Store.hits + before.Store.misses + 1
        then Alcotest.fail "probe not counted once";
        if after.Store.artifact_reads <> before.Store.artifact_reads then
          Alcotest.fail "damaged artifact frame counted as read";
        (* miss-and-recompute: the recompute repopulates the entry, and
           a fresh engine is served all of it *)
        Engine.persist ~force:true e2;
        let e3 = Engine.create ~store g in
        (match Engine.run e3 full_pipeline with
        | Ok () -> ()
        | Error f ->
            Alcotest.failf "warm run failed: %s"
              (Format.asprintf "%a" Engine.pp_failure f));
        if List.exists (fun (s : Engine.stage) -> s.misses > 0) (Engine.stats e3)
        then Alcotest.fail "recompute did not repopulate the entry")
  done

(* ------------------------------------------------------------------ *)
(* Serve protocol decoder on hostile lines                             *)
(* ------------------------------------------------------------------ *)

module Protocol = Lalr_serve.Protocol

(* The daemon's outermost trust boundary: any byte sequence in, Ok or
   Error out — never an exception, never a hang. *)
let decode_total name i line =
  guarded name i (fun () ->
      match Protocol.decode_request line with Ok _ | Error _ -> ())

let test_protocol_random_bytes () =
  let st = rng 60 in
  for i = 1 to iterations do
    decode_total "protocol/bytes" i (random_bytes st)
  done

let valid_request_lines =
  [
    {|{"id":"r1","kind":"classify","file":"suite:expr"}|};
    {|{"id":7,"file":"g.cfg","budget":"fuel=10,wall=500ms"}|};
    {|{"id":"r2","grammar":"%token a\n%start s\n%%\ns : a ;","format":"cfg"}|};
    {|{"id":"h","kind":"health"}|};
  ]

let test_protocol_mutated_requests () =
  let st = rng 61 in
  for i = 1 to iterations do
    let base =
      List.nth valid_request_lines
        (Random.State.int st (List.length valid_request_lines))
    in
    let b = Bytes.of_string base in
    (* a handful of byte-level mutations: flips, deletions keep the
       line mostly-JSON so the deep paths of the decoder are hit *)
    for _ = 0 to Random.State.int st 4 do
      let i = Random.State.int st (Bytes.length b) in
      Bytes.set b i (Char.chr (Random.State.int st 256))
    done;
    let line = Bytes.to_string b in
    let line =
      if Random.State.bool st then
        String.sub line 0 (Random.State.int st (String.length line + 1))
      else line
    in
    decode_total "protocol/mutated" i line
  done

let test_protocol_nesting_and_size () =
  let st = rng 62 in
  for i = 1 to iterations do
    let depth = 1 + Random.State.int st 2000 in
    let opener = if Random.State.bool st then '[' else '{' in
    let line =
      (* sometimes balanced, sometimes truncated mid-bomb *)
      if Random.State.bool st then String.make depth opener
      else
        String.make depth '['
        ^ String.make (Random.State.int st (depth + 1)) ']'
    in
    decode_total "protocol/nesting" i line
  done;
  (* an oversized but well-formed line must also decode or reject
     cleanly (the byte cap itself lives in the connection reader) *)
  let big =
    Printf.sprintf {|{"id":"big","grammar":"%s","format":"cfg"}|}
      (String.concat "\\n" (List.init 5000 (fun i -> Printf.sprintf "x%d" i)))
  in
  decode_total "protocol/oversized" 0 big

let () =
  Alcotest.run "fuzz"
    [
      ( "readers",
        [
          Alcotest.test_case "random bytes" `Quick test_readers_random_bytes;
          Alcotest.test_case "mutated corpus" `Quick
            test_readers_mutated_corpus;
        ] );
      ( "driver",
        [
          Alcotest.test_case "random token streams" `Quick
            test_driver_random_tokens;
        ] );
      ( "engine",
        [
          Alcotest.test_case "random grammars under budget" `Quick
            test_engine_under_budget;
          Alcotest.test_case "unbudgeted runs unchanged" `Quick
            test_engine_unbudgeted_unchanged;
          Alcotest.test_case "explosion trips the budget" `Quick
            test_budget_trips_on_explosion;
          Alcotest.test_case "wall-clock cap" `Quick test_wall_clock_budget;
        ] );
      ( "store",
        [
          Alcotest.test_case "random damage is miss-and-recompute" `Quick
            test_store_random_damage;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "random bytes" `Quick test_protocol_random_bytes;
          Alcotest.test_case "mutated request lines" `Quick
            test_protocol_mutated_requests;
          Alcotest.test_case "nesting bombs and oversized lines" `Quick
            test_protocol_nesting_and_size;
        ] );
    ]
