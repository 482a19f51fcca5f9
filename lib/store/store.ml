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
  artifact_reads : int Atomic.t;
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
   Item.table (inside Lr0.t) holds each item's next-symbol code.
   10: an entry is two frames, the verdicts with their key and then
   the artifacts, each with its own length and MD5; the key hashes
   one binary buffer. *)
let format_version = 10

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
    skipped_small = Atomic.make 0; artifact_reads = Atomic.make 0 }

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

(* Locations are part of the key, not the digest: artifacts embed the
   grammar, and diagnostics rendered from a cached entry must cite the
   caller's file and lines, not some structurally equal twin's. They
   are written in {!Grammar.add_structure}'s conventions (4-byte ints,
   length-prefixed strings and arrays); a location in the grammar's own
   source file, nearly all of them, is a tag byte and its line. *)
let add_locations buf (g : Grammar.t) =
  let int n = Buffer.add_int32_le buf (Int32.of_int n) in
  let str s =
    int (String.length s);
    Buffer.add_string buf s
  in
  let locs = g.Grammar.locs in
  str locs.Grammar.source;
  let loc (l : Grammar.loc) =
    if String.equal l.Grammar.file locs.Grammar.source then
      Buffer.add_char buf 's'
    else begin
      Buffer.add_char buf 'f';
      str l.Grammar.file
    end;
    int l.Grammar.line
  in
  let all a =
    int (Array.length a);
    Array.iter loc a
  in
  all locs.Grammar.prod_locs;
  all locs.Grammar.term_locs;
  all locs.Grammar.prec_locs

let key (g : Grammar.t) =
  let buf = Buffer.create 4096 in
  Grammar.add_structure buf g;
  add_locations buf g;
  (* Both encodings delimit themselves, so the stamp needs no length. *)
  Buffer.add_string buf stamp;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let path_of_key t key = Filename.concat t.dir (key ^ ".art")
let entry_path t g = path_of_key t (key g)

(* ------------------------------------------------------------------ *)
(* The two frames                                                      *)
(* ------------------------------------------------------------------ *)

type verdicts = {
  v_classification : Lalr_tables.Classify.verdict option;
  v_classification_lr1 : Lalr_tables.Classify.verdict option;
}

type artifacts = {
  a_grammar : Grammar.t;
  a_analysis : Analysis.t option;
  a_lr0 : Lalr_automaton.Lr0.t option;
  a_relations : Lalr_core.Lalr.relations option;
  a_follow : Lalr_core.Lalr.follow_sets option;
  a_la : Lalr_core.Lalr.t option;
  a_slr : (Lalr_baselines.Slr.t * Lalr_tables.Tables.conflict_counts) option;
  a_nqlalr : Lalr_baselines.Nqlalr.t option;
  a_propagation : Lalr_baselines.Propagation.t option;
  a_lr1 : Lalr_baselines.Lr1.t option;
  a_tables : Lalr_tables.Tables.t option;
  a_slr_tables : Lalr_tables.Tables.t option;
  a_nqlalr_tables : Lalr_tables.Tables.t option;
}

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let u16_be n = String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xFF))
let u64_be n = String.init 8 (fun i -> Char.chr ((n lsr (8 * (7 - i))) land 0xFF))

(* Why a read never trusts a single check: truncation is caught by the
   length fields (each checked against the bytes left in the file
   before anything is allocated), bit-flips by each frame's MD5,
   version skew by the stamp, and a same-length same-checksum impostor
   (or an MD5 collision) by the key: the verdict frame carries the key
   it was written under, and the artifact frame's grammar is re-keyed.
   Only then is an unmarshalled value believed. *)
type 'a found = Found of 'a | Absent | Bad of string

exception Damaged of string

let damaged fmt = Printf.ksprintf (fun s -> raise (Damaged s)) fmt

type reader = { fd : Unix.file_descr; size : int; mutable pos : int }

let take r n what =
  if n < 0 || n > r.size - r.pos then damaged "truncated %s" what;
  let b = Bytes.create n in
  let rec fill off =
    if off < n then
      match Unix.read r.fd b off (n - off) with
      | 0 -> damaged "truncated %s" what
      | k -> fill (off + k)
  in
  fill 0;
  r.pos <- r.pos + n;
  Bytes.unsafe_to_string b

let skip r n what =
  if n < 0 || n > r.size - r.pos then damaged "truncated %s" what;
  r.pos <- Unix.lseek r.fd n Unix.SEEK_CUR

let read_header r =
  let mlen = String.length magic in
  let h = take r (mlen + 2) "header" in
  if String.sub h 0 mlen <> magic then damaged "bad magic";
  let s = take r (String.get_uint16_be h mlen) "stamp" in
  if s <> stamp then damaged "version skew (entry %S, expected %S)" s stamp

(* One frame: u64 length, MD5, payload. A read-side corruption
   injection damages the payload after it leaves the disk, whichever
   frame is being read; the checksum must catch it. *)
let frame_length r what = Int64.to_int (String.get_int64_be (take r 8 what) 0)

let read_frame r what =
  let len = frame_length r what in
  let sum = take r 16 what in
  let payload = take r len what in
  let payload =
    if Faultpoint.take_corrupt "store-read" && len > 0 then begin
      let b = Bytes.of_string payload in
      Bytes.set b (len - 1) (Char.chr (Char.code (Bytes.get b (len - 1)) lxor 0x40));
      Bytes.to_string b
    end
    else payload
  in
  if Digest.string payload <> sum then damaged "%s checksum mismatch" what;
  payload

let skip_frame r what =
  let len = frame_length r what in
  skip r (16 + len) what

let unmarshal what payload =
  try Marshal.from_string payload 0
  with Failure _ ->
    (* Marshal signals damaged input with [Failure]; anything else
       coming out of here is a real bug that the read boundary turns
       into a counted error. *)
    damaged "%s unmarshal failure" what

let read_entry path read =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Absent
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let r = { fd; size = (Unix.fstat fd).Unix.st_size; pos = 0 } in
          try
            read_header r;
            Found (read r)
          with Damaged reason -> Bad reason)

let read_verdicts want_key r =
  let k, (v : verdicts) =
    unmarshal "verdict frame" (read_frame r "verdict frame")
  in
  if k <> want_key then damaged "key mismatch";
  v

let read_artifacts want_key r =
  skip_frame r "verdict frame";
  let payload = read_frame r "artifact frame" in
  if r.pos <> r.size then damaged "%d trailing bytes" (r.size - r.pos);
  let (a : artifacts) = unmarshal "artifact frame" payload in
  if key a.a_grammar <> want_key then damaged "artifact key mismatch";
  a

let quarantine t path reason =
  Atomic.incr t.corrupt;
  Trace.instant ~attrs:(fun () -> [ ("reason", Trace.Str reason) ])
    "store.quarantine";
  try Sys.rename path (path ^ ".corrupt")
  with Sys_error _ -> (
    (* Even deleting may fail (read-only media): the entry will simply
       fail the same checks next time. *)
    try Sys.remove path with Sys_error _ -> ())

(* The read boundary, shared by both frames: [Some] only for bytes that
   passed every check; damage is quarantined and counted once, where it
   is found; any exception is a counted error. *)
let absorb_read t path read =
  try
    Faultpoint.check "store-read";
    match read_entry path read with
    | Found v -> Some v
    | Absent -> None
    | Bad reason ->
        quarantine t path reason;
        None
  with _ ->
    (* I/O failure (or an injected one) mid-read: nothing served, never
       an escape — the store must not be able to fail the run. *)
    Atomic.incr t.errors;
    None
[@@lalr.allow
  D004
    "absorption contract (DESIGN §11): the cache is an optional \
     acceleration and must never fail the run — every read failure of \
     either frame, including injected Budget exceptions at the \
     store-read site, becomes a counted error and a recompute (the CI \
     fault matrix pins store:* to exit 0)"]

type entry = { e_store : t; e_key : string; e_verdicts : verdicts }

let probe t ~key =
  Trace.with_span "store.load" @@ fun () ->
  match absorb_read t (path_of_key t key) (read_verdicts key) with
  | Some v ->
      Atomic.incr t.hits;
      Some { e_store = t; e_key = key; e_verdicts = v }
  | None ->
      Atomic.incr t.misses;
      None

let verdicts en = en.e_verdicts

let artifacts en =
  Trace.with_span "store.artifacts" @@ fun () ->
  let t = en.e_store in
  let a = absorb_read t (path_of_key t en.e_key) (read_artifacts en.e_key) in
  if Option.is_some a then Atomic.incr t.artifact_reads;
  a

let save t ~key verdicts artifacts =
  Trace.with_span "store.save" @@ fun () ->
  try
    Faultpoint.check "store-write";
    let path = path_of_key t key in
    let vframe = Marshal.to_string (key, verdicts) [] in
    let aframe = Marshal.to_string artifacts [] in
    let vsum = Digest.string vframe and asum = Digest.string aframe in
    (* A write-side corruption injection damages the artifact frame
       AFTER both checksums are computed — exactly the
       detectable-on-read shape. *)
    let aframe =
      if Faultpoint.take_corrupt "store-write" && String.length aframe > 0
      then begin
        let b = Bytes.of_string aframe in
        let i = Bytes.length b / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        Bytes.to_string b
      end
      else aframe
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
       List.iter
         (fun (sum, payload) ->
           output_string oc (u64_be (String.length payload));
           output_string oc sum;
           output_string oc payload)
         [ (vsum, vframe); (asum, aframe) ];
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
  artifact_reads : int;
}

let stats (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    corrupt = Atomic.get t.corrupt;
    writes = Atomic.get t.writes;
    errors = Atomic.get t.errors;
    skipped_small = Atomic.get t.skipped_small;
    artifact_reads = Atomic.get t.artifact_reads;
  }

let pp_stats ppf t =
  Format.fprintf ppf
    "store %s: %d hits, %d misses, %d corrupt, %d writes, %d errors, %d \
     skipped-small, %d artifact-reads"
    t.dir (Atomic.get t.hits) (Atomic.get t.misses) (Atomic.get t.corrupt)
    (Atomic.get t.writes) (Atomic.get t.errors) (Atomic.get t.skipped_small)
    (Atomic.get t.artifact_reads)
