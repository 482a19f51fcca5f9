module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Slr = Lalr_baselines.Slr
module Nqlalr = Lalr_baselines.Nqlalr
module Lr1 = Lalr_baselines.Lr1
module Propagation = Lalr_baselines.Propagation
module Tables = Lalr_tables.Tables
module Classify = Lalr_tables.Classify
module Budget = Lalr_guard.Budget
module Faultpoint = Lalr_guard.Faultpoint
module Store = Lalr_store.Store
module Trace = Lalr_trace.Trace

type 'a slot = {
  s_name : string;
  s_span : string;  (* "engine.<name>", precomputed so the disarmed
                       tracing probe allocates nothing *)
  mutable s_value : 'a option;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_wall : float;
}

let slot name =
  (* Every slot is a fault-injection site; creating one for a name the
     registry does not know would silently un-test that slot. *)
  assert (Faultpoint.find_site name <> None);
  { s_name = name; s_span = "engine." ^ name; s_value = None; s_hits = 0;
    s_misses = 0; s_wall = 0. }

let seeded name v =
  assert (Faultpoint.find_site name <> None);
  { s_name = name; s_span = "engine." ^ name; s_value = Some v; s_hits = 0;
    s_misses = 0; s_wall = 0. }

(* Force-once: the first access computes (a miss, timed); every later
   access is a hit. Dependencies are forced by the accessors BEFORE
   entering [force], so s_wall is exclusive per stage. *)
let force slot compute =
  match slot.s_value with
  | Some v ->
      slot.s_hits <- slot.s_hits + 1;
      v
  | None ->
      slot.s_misses <- slot.s_misses + 1;
      let t0 = Unix.gettimeofday () in
      let v = compute () in
      slot.s_wall <- slot.s_wall +. (Unix.gettimeofday () -. t0);
      slot.s_value <- Some v;
      v

type t = {
  grammar : Grammar.t;
  budget_opt : Budget.t option;
  store_opt : Store.t option;
  analysis_s : Analysis.t slot;
  lr0_s : Lr0.t slot;
  relations_s : Lalr.relations slot;
  follow_s : Lalr.follow_sets slot;
  la_s : Lalr.t slot;
  slr_s : Slr.t slot;
  nqlalr_s : Nqlalr.t slot;
  propagation_s : Propagation.t slot;
  lr1_s : Lr1.t slot;
  tables_s : Tables.t slot;
  slr_tables_s : Tables.t slot;
  nqlalr_tables_s : Tables.t slot;
  classification_s : Classify.verdict slot;
  classification_lr1_s : Classify.verdict slot;
}

let create ?budget ?analysis ?store grammar =
  (* A warm store seeds slots at creation: a seeded slot reports as
     forced with zero misses, exactly like the ?analysis seed, so the
     force-once counters still prove nothing is recomputed. All the
     bundle's artifacts were marshalled together, so their mutual
     aliasing (relations share the automaton arrays, la shares the
     relation arrays) is intact after rehydration. *)
  let bundle =
    match store with None -> None | Some st -> Store.load st grammar
  in
  let from_store name get =
    match Option.bind bundle get with
    | Some v -> seeded name v
    | None -> slot name
  in
  {
    grammar;
    budget_opt = budget;
    store_opt = store;
    analysis_s =
      (match analysis with
      | Some an -> seeded "analysis" an
      | None -> from_store "analysis" (fun b -> b.Store.b_analysis));
    lr0_s = from_store "lr0" (fun b -> b.Store.b_lr0);
    relations_s = from_store "relations" (fun b -> b.Store.b_relations);
    follow_s = from_store "follow" (fun b -> b.Store.b_follow);
    la_s = from_store "la" (fun b -> b.Store.b_la);
    slr_s = from_store "slr" (fun b -> b.Store.b_slr);
    nqlalr_s = from_store "nqlalr" (fun b -> b.Store.b_nqlalr);
    propagation_s = from_store "propagation" (fun b -> b.Store.b_propagation);
    lr1_s = from_store "lr1" (fun b -> b.Store.b_lr1);
    tables_s = from_store "tables" (fun b -> b.Store.b_tables);
    slr_tables_s = from_store "slr_tables" (fun b -> b.Store.b_slr_tables);
    nqlalr_tables_s =
      from_store "nqlalr_tables" (fun b -> b.Store.b_nqlalr_tables);
    classification_s =
      from_store "classification" (fun b -> b.Store.b_classification);
    classification_lr1_s =
      from_store "classification+lr1" (fun b -> b.Store.b_classification_lr1);
  }

(* Each slot miss runs inside a span named after the slot; the fuel a
   budgeted stage consumed is recorded as a [budget.fuel] instant on
   the way out. Both probes cost one DLS read when tracing is
   disarmed. *)
let forceb e slot compute =
  force slot (fun () ->
      Faultpoint.check slot.s_name;
      Trace.with_span slot.s_span (fun () ->
          match e.budget_opt with
          | None -> compute ()
          | Some b ->
              let fuel0 = Budget.consumed b Budget.Fuel in
              let record () =
                Trace.instant
                  ~attrs:(fun () ->
                    [ ("stage", Trace.Str slot.s_name);
                      ("fuel",
                       Trace.Float (Budget.consumed b Budget.Fuel -. fuel0)) ])
                  "budget.fuel"
              in
              Fun.protect
                ~finally:record
                (fun () -> Budget.with_budget b ~stage:slot.s_name compute)))

let grammar e = e.grammar
let budget e = e.budget_opt
let store e = e.store_opt

(* Non-forcing: used by batch to report the peak LR(0) state count
   without perturbing the force-once hit/miss counters. *)
let peek_lr0_states e = Option.map Lr0.n_states e.lr0_s.s_value

let total_wall_of slots = List.fold_left (fun acc w -> acc +. w) 0. slots

let persist ?(force = false) e =
  match e.store_opt with
  | None -> ()
  | Some st ->
      (* Whatever is forced — including the completed prefix of a run
         the budget interrupted — is worth keeping for the next
         process. Seeded slots round-trip unchanged.

         Exception: a grammar whose whole compute took under
         [Store.small_threshold] is cheaper to recompute than to load
         (BENCH_pr4: warm-cache 'json' ran at 0.75x of recompute), so
         persisting it would only slow the next run down. [~force]
         overrides, for tests and deliberate cache warming. *)
      let wall =
        total_wall_of
          [
            e.analysis_s.s_wall; e.lr0_s.s_wall; e.relations_s.s_wall;
            e.follow_s.s_wall; e.la_s.s_wall; e.slr_s.s_wall;
            e.nqlalr_s.s_wall; e.propagation_s.s_wall; e.lr1_s.s_wall;
            e.tables_s.s_wall; e.slr_tables_s.s_wall;
            e.nqlalr_tables_s.s_wall; e.classification_s.s_wall;
            e.classification_lr1_s.s_wall;
          ]
      in
      if (not force) && wall < Store.small_threshold then
        Store.skip_small st
      else
        Store.save st
        {
          Store.b_grammar = e.grammar;
          b_analysis = e.analysis_s.s_value;
          b_lr0 = e.lr0_s.s_value;
          b_relations = e.relations_s.s_value;
          b_follow = e.follow_s.s_value;
          b_la = e.la_s.s_value;
          b_slr = e.slr_s.s_value;
          b_nqlalr = e.nqlalr_s.s_value;
          b_propagation = e.propagation_s.s_value;
          b_lr1 = e.lr1_s.s_value;
          b_tables = e.tables_s.s_value;
          b_slr_tables = e.slr_tables_s.s_value;
          b_nqlalr_tables = e.nqlalr_tables_s.s_value;
          b_classification = e.classification_s.s_value;
          b_classification_lr1 = e.classification_lr1_s.s_value;
        }

(* ------------------------------------------------------------------ *)
(* The failure boundary                                               *)
(* ------------------------------------------------------------------ *)

type failure =
  | Budget_exceeded of Budget.exceeded
  | Internal_error of { stage : string; invariant : string }

let pp_failure ppf = function
  | Budget_exceeded ex -> Budget.pp_exceeded ppf ex
  | Internal_error { stage; invariant } ->
      Format.fprintf ppf "internal error in stage '%s': %s" stage invariant

let run e f =
  match f e with
  | v -> Ok v
  | exception Budget.Exceeded ex -> Error (Budget_exceeded ex)
  | exception Budget.Internal_error { stage; invariant } ->
      Error (Internal_error { stage; invariant })
  | exception Stack_overflow ->
      Error
        (Internal_error
           { stage = "engine"; invariant = "stack overflow during analysis" })
  | exception Assert_failure (file, line, _) ->
      (* Backstop for invariants not yet converted to
         [Budget.broken_invariant]: still a typed outcome, never an
         abort. *)
      Error
        (Internal_error
           {
             stage = Budget.current_stage ();
             invariant = Printf.sprintf "assertion failed at %s:%d" file line;
           })
  | exception ((Out_of_memory | Sys.Break) as e) ->
      (* Asynchronous by nature: turning OOM or ctrl-C into an analysis
         verdict would lie about the grammar. *)
      raise e
  | exception e ->
      Error
        (Internal_error
           {
             stage = Budget.current_stage ();
             invariant = "unexpected exception: " ^ Printexc.to_string e;
           })
[@@lalr.allow
  D004
    "the crash-free failure boundary: any exception escaping a stage \
     must become a typed Internal_error (exit 4), never an abort; \
     Budget exceptions are matched first above and asynchronous \
     Out_of_memory/Break are re-raised, so nothing typed is swallowed"]

let analysis e = forceb e e.analysis_s (fun () -> Analysis.compute e.grammar)

let lr0 e =
  forceb e e.lr0_s (fun () -> Lr0.build e.grammar)

let relations e =
  let an = analysis e in
  let a = lr0 e in
  forceb e e.relations_s (fun () -> Lalr.relations ~analysis:an a)

let follow e =
  let r = relations e in
  forceb e e.follow_s (fun () -> Lalr.solve_follow r)

let lalr e =
  let r = relations e in
  let f = follow e in
  forceb e e.la_s (fun () -> Lalr.of_stages r f)

let slr e =
  let an = analysis e in
  let a = lr0 e in
  forceb e e.slr_s (fun () -> Slr.compute ~analysis:an a)

let nqlalr e =
  let r = relations e in
  forceb e e.nqlalr_s (fun () -> Nqlalr.compute r)

let propagation e =
  let a = lr0 e in
  forceb e e.propagation_s (fun () -> Propagation.compute a)

let lr1 e = forceb e e.lr1_s (fun () -> Lr1.build e.grammar)

let tables e =
  let t = lalr e in
  let a = lr0 e in
  forceb e e.tables_s (fun () -> Tables.build ~lookahead:(Lalr.lookahead t) a)

let slr_tables e =
  let s = slr e in
  let a = lr0 e in
  forceb e e.slr_tables_s (fun () -> Tables.build ~lookahead:(Slr.lookahead s) a)

let nqlalr_tables e =
  let n = nqlalr e in
  let a = lr0 e in
  forceb e e.nqlalr_tables_s (fun () ->
      Tables.build ~lookahead:(Nqlalr.lookahead n) a)

type method_ = [ `Lalr | `Slr | `Nqlalr ]

let tables_for e = function
  | `Lalr -> tables e
  | `Slr -> slr_tables e
  | `Nqlalr -> nqlalr_tables e

let lr1_limit = 250

let classification ?(with_lr1 = false) e =
  let lalr_v = lalr e in
  let slr_v = slr e in
  let nqlalr_v = nqlalr e in
  let a = lr0 e in
  let v =
    forceb e e.classification_s (fun () ->
        Classify.assemble ~lalr:lalr_v ~slr:slr_v ~nqlalr:nqlalr_v a)
  in
  (* The LALR(1) clashes decide LR(1)-ness unless they are all
     reduce/reduce; only then is the canonical collection worth its
     cost, and only on grammars small enough to afford it. *)
  if
    with_lr1
    || (not v.lr1_decided) && Grammar.n_productions e.grammar <= lr1_limit
  then
    let c = lr1 e in
    forceb e e.classification_lr1_s (fun () -> Classify.with_lr1 v c)
  else v

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)
(* ------------------------------------------------------------------ *)

type stage = {
  stage : string;
  forced : bool;
  misses : int;
  hits : int;
  wall : float;
}

let stage_of (s : _ slot) =
  {
    stage = s.s_name;
    forced = s.s_value <> None;
    misses = s.s_misses;
    hits = s.s_hits;
    wall = s.s_wall;
  }

let stats e =
  [
    stage_of e.analysis_s;
    stage_of e.lr0_s;
    stage_of e.relations_s;
    stage_of e.follow_s;
    stage_of e.la_s;
    stage_of e.slr_s;
    stage_of e.nqlalr_s;
    stage_of e.propagation_s;
    stage_of e.lr1_s;
    stage_of e.tables_s;
    stage_of e.slr_tables_s;
    stage_of e.nqlalr_tables_s;
    stage_of e.classification_s;
    stage_of e.classification_lr1_s;
  ]

let find_stage e name =
  match List.find_opt (fun s -> s.stage = name) (stats e) with
  | Some s -> s
  | None -> raise Not_found

let total_wall e = List.fold_left (fun acc s -> acc +. s.wall) 0. (stats e)

let pp_stats ppf e =
  let forced = List.filter (fun s -> s.forced) (stats e) in
  Format.fprintf ppf "@[<v>engine timings for %s:@,"
    (Grammar.source e.grammar);
  Format.fprintf ppf "  %-20s %10s %6s %5s@," "stage" "wall" "miss" "hit";
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-20s %8.3f ms %6d %5d@," s.stage
        (s.wall *. 1e3) s.misses s.hits)
    forced;
  Format.fprintf ppf "  %-20s %8.3f ms@]" "total" (total_wall e *. 1e3)

(* ------------------------------------------------------------------ *)
(* Partial results                                                    *)
(* ------------------------------------------------------------------ *)

type completeness = Complete | Incomplete of failure

type 'a partial = {
  pr_value : 'a option;
  pr_completeness : completeness;
  pr_completed : string list;
}

let forced_stage_names e =
  List.filter_map
    (fun (s : stage) -> if s.forced then Some s.stage else None)
    (stats e)

let run_partial e f =
  match run e f with
  | Ok v ->
      {
        pr_value = Some v;
        pr_completeness = Complete;
        pr_completed = forced_stage_names e;
      }
  | Error failure ->
      (* The interrupted slot stayed unforced, so the completed list is
         exactly the prefix of artifacts that finished — the partial
         result the caller may still render. *)
      {
        pr_value = None;
        pr_completeness = Incomplete failure;
        pr_completed = forced_stage_names e;
      }

let pp_completeness ppf = function
  | Complete -> Format.fprintf ppf "complete"
  | Incomplete failure ->
      Format.fprintf ppf "INCOMPLETE (%a)" pp_failure failure
