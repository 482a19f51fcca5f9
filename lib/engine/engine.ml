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
  mutable s_stored : 'a option;  (* a store copy this run has not read *)
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_wall : float;
}

let slot ?stored ?value name =
  (* Every slot is a fault-injection site; creating one for a name the
     registry does not know would silently un-test that slot. *)
  assert (Faultpoint.find_site name <> None);
  { s_name = name; s_span = "engine." ^ name; s_value = value;
    s_stored = stored; s_hits = 0; s_misses = 0; s_wall = 0. }

type t = {
  grammar : Grammar.t;
  budget_opt : Budget.t option;
  store_opt : (Store.t * string) option;  (* the store and the key *)
  mutable unread : Store.entry option;  (* its artifact frame, unread *)
  analysis_s : Analysis.t slot;
  lr0_s : Lr0.t slot;
  relations_s : Lalr.relations slot;
  follow_s : Lalr.follow_sets slot;
  la_s : Lalr.t slot;
  slr_s : (Slr.t * Tables.conflict_counts) slot;
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
  (* A warm store seeds the two verdict slots from the entry's verdict
     frame; the artifact frame stays on disk until a run forces some
     other slot. A slot holding a store copy is still unforced: the
     first read takes the copy, as a hit with zero misses, so the
     force-once counters still prove nothing is recomputed, and the
     stage lists name only what the run read. The key is built here,
     once, and reused by [persist]. *)
  let store_opt, entry =
    match store with
    | None -> (None, None)
    | Some st ->
        let key = Store.key grammar in
        (Some (st, key), Store.probe st ~key)
  in
  let verdict get =
    Option.bind entry (fun en -> get (Store.verdicts en))
  in
  {
    grammar;
    budget_opt = budget;
    store_opt;
    unread = entry;
    analysis_s = slot ?value:analysis "analysis";
    lr0_s = slot "lr0";
    relations_s = slot "relations";
    follow_s = slot "follow";
    la_s = slot "la";
    slr_s = slot "slr";
    nqlalr_s = slot "nqlalr";
    propagation_s = slot "propagation";
    lr1_s = slot "lr1";
    tables_s = slot "tables";
    slr_tables_s = slot "slr_tables";
    nqlalr_tables_s = slot "nqlalr_tables";
    classification_s =
      slot ?stored:(verdict (fun v -> v.Store.v_classification))
        "classification";
    classification_lr1_s =
      slot ?stored:(verdict (fun v -> v.Store.v_classification_lr1))
        "classification+lr1";
  }

(* The first force of a slot with no copy of its own reads the entry's
   artifact frame, once, and seeds every empty slot from it. All the
   artifacts were marshalled together, so their mutual aliasing
   (relations share the automaton arrays, la shares the relation
   arrays) is intact after rehydration. A caller's [?analysis] seed
   keeps its slot. *)
let read_artifacts e =
  match e.unread with
  | None -> ()
  | Some entry -> (
      e.unread <- None;
      match Store.artifacts entry with
      | None -> ()
      | Some a ->
          let seed s v = if Option.is_none s.s_value then s.s_stored <- v in
          seed e.analysis_s a.Store.a_analysis;
          seed e.lr0_s a.Store.a_lr0;
          seed e.relations_s a.Store.a_relations;
          seed e.follow_s a.Store.a_follow;
          seed e.la_s a.Store.a_la;
          seed e.slr_s a.Store.a_slr;
          seed e.nqlalr_s a.Store.a_nqlalr;
          seed e.propagation_s a.Store.a_propagation;
          seed e.lr1_s a.Store.a_lr1;
          seed e.tables_s a.Store.a_tables;
          seed e.slr_tables_s a.Store.a_slr_tables;
          seed e.nqlalr_tables_s a.Store.a_nqlalr_tables)

(* What a slot holds without computing: its value, or a store copy. *)
let held s = match s.s_value with Some _ as v -> v | None -> s.s_stored

(* A read of what the slot holds, reading the artifact frame first if
   it holds nothing: a hit, or [None]. *)
let take e s =
  if Option.is_none (held s) then read_artifacts e;
  match held s with
  | Some _ as v ->
      s.s_value <- v;
      s.s_stored <- None;
      s.s_hits <- s.s_hits + 1;
      v
  | None -> None

(* Force-once: the first access computes (a miss, timed) unless the
   store holds a copy; every later access is a hit. Dependencies are
   forced by the accessors BEFORE entering [forceb], so s_wall is
   exclusive per stage. Each slot miss runs inside a span named after
   the slot; the fuel a budgeted stage consumed is recorded as a
   [budget.fuel] instant on the way out. Both probes cost one DLS read
   when tracing is disarmed. *)
let forceb e slot compute =
  match take e slot with
  | Some v -> v
  | None ->
      slot.s_misses <- slot.s_misses + 1;
      let t0 = Unix.gettimeofday () in
      let v =
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
                  (fun () -> Budget.with_budget b ~stage:slot.s_name compute))
      in
      slot.s_wall <- slot.s_wall +. (Unix.gettimeofday () -. t0);
      slot.s_value <- Some v;
      v

let grammar e = e.grammar
let budget e = e.budget_opt
let store e = Option.map fst e.store_opt

(* Non-forcing: used by batch and serve to report the peak LR(0) state
   count without perturbing the force-once hit/miss counters. A
   verdict read from the store left [lr0] unforced, and carries the
   count itself. *)
let peek_lr0_states e =
  match (e.lr0_s.s_value, e.classification_s.s_value) with
  | Some a, _ -> Some (Lr0.n_states a)
  | None, v -> Option.map (fun (v : Classify.verdict) -> v.lr0_states) v

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

(* The SLR(1) conflict count rides in the [slr] slot: the verdict
   reads it first, and its time is the slot's. *)
let slr_counted e =
  let an = analysis e in
  let a = lr0 e in
  forceb e e.slr_s (fun () ->
      let s = Slr.compute ~analysis:an a in
      (s, Tables.count_conflicts ~lookahead:(Slr.lookahead s) a))

let slr e = fst (slr_counted e)

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
  let v =
    match take e e.classification_s with
    | Some v -> v (* forced, or from a store entry that may hold no LA sets *)
    | None ->
        let sl = snd (slr_counted e) in
        let lalr_v = if sl.clash = Tables.Clean then None else Some (lalr e) in
        let nqlalr_v = nqlalr e in
        let r = relations e in
        forceb e e.classification_s (fun () ->
            Classify.assemble ?lalr:lalr_v ~slr:sl ~nqlalr:nqlalr_v r)
  in
  (* The LALR(1) clashes decide LR(1)-ness unless they are all
     reduce/reduce; only then is the canonical collection worth its
     cost, and only on grammars small enough to afford it. Like the
     first verdict, a refined one from the store needs no input. *)
  if
    with_lr1
    || (not v.lr1_decided) && Grammar.n_productions e.grammar <= lr1_limit
  then
    match take e e.classification_lr1_s with
    | Some v -> v
    | None ->
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

let persist ?(force = false) e =
  match e.store_opt with
  | None -> ()
  | Some (st, key) ->
      (* Whatever is forced — including the completed prefix of a run
         the budget interrupted — is worth keeping for the next
         process, and so is every store copy this run did not read.

         Exceptions: a run that missed no slot computed nothing new, so
         there is nothing to write or decline. A grammar whose whole
         compute took under [Store.small_threshold] is cheaper to
         recompute than to load (BENCH_pr4: warm-cache 'json' ran at
         0.75x of recompute), so persisting it would only slow the next
         run down. [~force] overrides both, for tests and deliberate
         cache warming. *)
      let missed = List.exists (fun s -> s.misses > 0) (stats e) in
      if (not force) && not missed then ()
      else if (not force) && total_wall e < Store.small_threshold then
        Store.skip_small st
      else begin
        (* A miss has already read the artifact frame; a forced write
           of a pure hit must not drop it. *)
        read_artifacts e;
        Store.save st ~key
          {
            Store.v_classification = held e.classification_s;
            v_classification_lr1 = held e.classification_lr1_s;
          }
          {
            Store.a_grammar = e.grammar;
            a_analysis = held e.analysis_s;
            a_lr0 = held e.lr0_s;
            a_relations = held e.relations_s;
            a_follow = held e.follow_s;
            a_la = held e.la_s;
            a_slr = held e.slr_s;
            a_nqlalr = held e.nqlalr_s;
            a_propagation = held e.propagation_s;
            a_lr1 = held e.lr1_s;
            a_tables = held e.tables_s;
            a_slr_tables = held e.slr_tables_s;
            a_nqlalr_tables = held e.nqlalr_tables_s;
          }
      end

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
