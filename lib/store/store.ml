module Faultpoint = Lalr_guard.Faultpoint
module Trace = Lalr_trace.Trace

(* The counters are Atomic so one store can be shared by a pool of
   worker domains (lalrgen serve) without losing increments; the file
   operations themselves were always safe to run concurrently (atomic
   temp+rename writes, paranoid reads). *)
type t = {
  dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  corrupt : int Atomic.t;
  writes : int Atomic.t;
  errors : int Atomic.t;
  skipped_small : int Atomic.t;
}

(* 2: Lalr.stats and Lalr.follow_sets grew Digraph-profile fields in
   the tracing PR; entries marshalled under v1 have a different shape.
   3: the data-layout PR — Lalr.relations went from boxed lists and a
   Hashtbl reduction index to packed CSR arrays and a dense per-state
   index, and Lalr.stats grew the memory-footprint member; every
   artifact embedding a relations or stats value changed shape.
   4: the sparse automaton — Lr0.t lost its dense goto arrays for a
   hashed cell index over the packed rows, and Tables.t its dense
   ACTION matrix for packed rows plus the same index; Nqlalr.t keys
   its look-aheads by reduction number.
   5: one canonical-collection builder — Lr0.t and Lr1.t each hold a
   Collection.t (kernels, closures, packed transition rows) in place
   of Lr0's state records and row arrays and Lr1's state records and
   per-state transition lists.
   6: Nqlalr.t is the look-ahead sets over the exact relations it was
   projected from, in their reduction numbering, in place of its own
   FollowNQ array and reduction index.
   7: Classify.verdict grew [lr1_decided]; the [classification+lr1]
   verdict refines the [classification] one instead of being assembled
   beside it.
   8: the [slr] slot holds the SLR(1) conflict counts beside its sets,
   and an SLR(1)-clean verdict's entry holds no [follow] or [la].
   9: a verdict claims [not_lr_k] only for a reduced grammar, and
   Item.table (inside Lr0.t) holds each item's next-symbol code. *)
let format_version = 9

let magic = "LALRART1"

(* Marshal output is not portable across compiler versions; stamping
   the OCaml version turns a compiler upgrade into a clean skew-miss
   instead of an unmarshal of foreign bytes. *)
let stamp =
  Printf.sprintf "lalr-store-v%d/ocaml-%s" format_version Sys.ocaml_version

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ~dir =
  (try mkdir_p dir
   with Unix.Unix_error (e, _, _) ->
     raise
       (Sys_error
          (Printf.sprintf "%s: cannot create store directory: %s" dir
             (Unix.error_message e))));
  if not (Sys.is_directory dir) then
    raise (Sys_error (Printf.sprintf "%s: not a directory" dir));
  { dir; hits = Atomic.make 0; misses = Atomic.make 0;
    corrupt = Atomic.make 0; writes = Atomic.make 0; errors = Atomic.make 0;
    skipped_small = Atomic.make 0 }

let create_opt ~dir = match create ~dir with
  | t -> Some t
  | exception Sys_error _ -> None

let dir t = t.dir

(* Below this much compute (seconds), loading an entry costs more than
   recomputing it (BENCH_pr4: the warm 'json' row ran at 0.75x). *)
let small_threshold = 1e-3

let skip_small t = Atomic.incr t.skipped_small

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let key (g : Grammar.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Grammar.digest g);
  Buffer.add_char buf '\x00';
  Buffer.add_string buf stamp;
  Buffer.add_char buf '\x00';
  (* Locations are part of the key, not the digest: artifacts embed the
     grammar, and diagnostics rendered from a cached entry must cite
     the caller's file and lines, not some structurally equal twin's. *)
  let locs = g.Grammar.locs in
  Buffer.add_string buf locs.Grammar.source;
  let loc (l : Grammar.loc) =
    Buffer.add_string buf l.Grammar.file;
    Buffer.add_char buf ':';
    Buffer.add_string buf (string_of_int l.Grammar.line);
    Buffer.add_char buf ';'
  in
  Array.iter loc locs.Grammar.prod_locs;
  Array.iter loc locs.Grammar.term_locs;
  Array.iter loc locs.Grammar.prec_locs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let entry_path t g = Filename.concat t.dir (key g ^ ".art")

(* ------------------------------------------------------------------ *)
(* The bundle                                                          *)
(* ------------------------------------------------------------------ *)

type bundle = {
  b_grammar : Grammar.t;
  b_analysis : Analysis.t option;
  b_lr0 : Lalr_automaton.Lr0.t option;
  b_relations : Lalr_core.Lalr.relations option;
  b_follow : Lalr_core.Lalr.follow_sets option;
  b_la : Lalr_core.Lalr.t option;
  b_slr : (Lalr_baselines.Slr.t * Lalr_tables.Tables.conflict_counts) option;
  b_nqlalr : Lalr_baselines.Nqlalr.t option;
  b_propagation : Lalr_baselines.Propagation.t option;
  b_lr1 : Lalr_baselines.Lr1.t option;
  b_tables : Lalr_tables.Tables.t option;
  b_slr_tables : Lalr_tables.Tables.t option;
  b_nqlalr_tables : Lalr_tables.Tables.t option;
  b_classification : Lalr_tables.Classify.verdict option;
  b_classification_lr1 : Lalr_tables.Classify.verdict option;
}

let empty_bundle g =
  {
    b_grammar = g;
    b_analysis = None;
    b_lr0 = None;
    b_relations = None;
    b_follow = None;
    b_la = None;
    b_slr = None;
    b_nqlalr = None;
    b_propagation = None;
    b_lr1 = None;
    b_tables = None;
    b_slr_tables = None;
    b_nqlalr_tables = None;
    b_classification = None;
    b_classification_lr1 = None;
  }

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let u16_be n = String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xFF))
let u64_be n = String.init 8 (fun i -> Char.chr ((n lsr (8 * (7 - i))) land 0xFF))

let read_u16_be s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

let read_u64_be s off =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

(* Why the load path never trusts a single check: truncation is caught
   by the length fields, bit-flips by the MD5 over the payload, version
   skew by the stamp, and a same-length same-checksum impostor (or an
   MD5 collision) by re-keying the rehydrated grammar. Only then is the
   unmarshalled value believed. *)
type verdict = Served of bundle | Absent | Bad of string

let read_entry path want_key =
  if not (Sys.file_exists path) then Absent
  else
    let raw =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (* A read-side corruption injection damages the bytes after they
       leave the disk — the checks below must catch it. *)
    let raw =
      if Faultpoint.take_corrupt "store-read" && String.length raw > 0 then begin
        let b = Bytes.of_string raw in
        let i = Bytes.length b - 1 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        Bytes.to_string b
      end
      else raw
    in
    let mlen = String.length magic in
    if String.length raw < mlen + 2 then Bad "truncated header"
    else if String.sub raw 0 mlen <> magic then Bad "bad magic"
    else
      let slen = read_u16_be raw mlen in
      let sum_off = mlen + 2 + slen in
      if String.length raw < sum_off then Bad "truncated stamp"
      else if String.sub raw (mlen + 2) slen <> stamp then
        Bad
          (Printf.sprintf "version skew (entry %S, expected %S)"
             (String.sub raw (mlen + 2) slen)
             stamp)
      else if String.length raw < sum_off + 16 + 8 then Bad "truncated frame"
      else
        let sum = String.sub raw sum_off 16 in
        let plen = read_u64_be raw (sum_off + 16) in
        let payload_off = sum_off + 16 + 8 in
        if String.length raw - payload_off <> plen then
          Bad
            (Printf.sprintf "payload length mismatch (%d of %d bytes)"
               (String.length raw - payload_off)
               plen)
        else
          let payload = String.sub raw payload_off plen in
          if Digest.string payload <> sum then Bad "payload checksum mismatch"
          else
            match (Marshal.from_string payload 0 : bundle) with
            | b ->
                if key b.b_grammar <> want_key then Bad "key mismatch"
                else Served b
            | exception Failure _ ->
                (* Marshal signals damaged input with [Failure]; anything
                   else coming out of here is a real bug that load's
                   absorption boundary turns into a counted error. *)
                Bad "unmarshal failure"

let quarantine t path reason =
  Atomic.incr t.corrupt;
  Trace.instant ~attrs:(fun () -> [ ("reason", Trace.Str reason) ])
    "store.quarantine";
  try Sys.rename path (path ^ ".corrupt")
  with Sys_error _ -> (
    ignore reason;
    (* Even deleting may fail (read-only media): the entry will simply
       fail the same checks next time. *)
    try Sys.remove path with Sys_error _ -> ())

let load t g =
  let path = entry_path t g in
  Trace.with_span "store.load" (fun () ->
      try
        Faultpoint.check "store-read";
        match read_entry path (key g) with
        | Served b ->
            Atomic.incr t.hits;
            Some b
        | Absent ->
            Atomic.incr t.misses;
            None
        | Bad reason ->
            quarantine t path reason;
            Atomic.incr t.misses;
            None
      with _ ->
        (* I/O failure (or an injected one) mid-read: a miss, never an
           escape — the store must not be able to fail the run. *)
        Atomic.incr t.errors;
        Atomic.incr t.misses;
        None)
[@@lalr.allow
  D004
    "absorption contract (DESIGN §11): the cache is an optional \
     acceleration and must never fail the run — every load failure, \
     including injected Budget exceptions at the store-read site, \
     becomes a counted miss (the CI fault matrix pins store:* to exit 0)"]

let save t bundle =
  Trace.with_span "store.save" @@ fun () ->
  try
    Faultpoint.check "store-write";
    let path = entry_path t bundle.b_grammar in
    let payload = Marshal.to_string bundle [] in
    let sum = Digest.string payload in
    (* A write-side corruption injection damages the payload AFTER the
       checksum is computed — exactly the detectable-on-read shape. *)
    let payload =
      if Faultpoint.take_corrupt "store-write" && String.length payload > 0
      then begin
        let b = Bytes.of_string payload in
        let i = Bytes.length b / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        Bytes.to_string b
      end
      else payload
    in
    let tmp =
      Filename.concat t.dir
        (Printf.sprintf ".tmp.%d.%s" (Unix.getpid ())
           (Filename.basename path))
    in
    let oc = open_out_bin tmp in
    (try
       output_string oc magic;
       output_string oc (u16_be (String.length stamp));
       output_string oc stamp;
       output_string oc sum;
       output_string oc (u64_be (String.length payload));
       output_string oc payload;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp path;
    Atomic.incr t.writes
  with _ -> Atomic.incr t.errors
[@@lalr.allow
  D004
    "absorption contract (DESIGN §11): a failed save, including an \
     injected one at the store-write site, is a counted error and \
     nothing else — the artifact will simply be recomputed next run"]

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

type stats = {
  hits : int;
  misses : int;
  corrupt : int;
  writes : int;
  errors : int;
  skipped_small : int;
}

let stats (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    corrupt = Atomic.get t.corrupt;
    writes = Atomic.get t.writes;
    errors = Atomic.get t.errors;
    skipped_small = Atomic.get t.skipped_small;
  }

let pp_stats ppf t =
  Format.fprintf ppf
    "store %s: %d hits, %d misses, %d corrupt, %d writes, %d errors, %d \
     skipped-small"
    t.dir (Atomic.get t.hits) (Atomic.get t.misses) (Atomic.get t.corrupt)
    (Atomic.get t.writes) (Atomic.get t.errors) (Atomic.get t.skipped_small)
