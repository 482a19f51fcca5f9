(* The benchmark's own span recorder. Spans stay in memory and are
   written once, at the end, as trace-event JSON. It is deliberately
   separate from the program's [Lalr_trace.Trace]: arming that module
   switches on the program's own probes, and it is the program's to
   rewrite. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  name : string;
  op : int;  (** the op this span belongs to; -1 for set-up work *)
  id : int;
  parent : int;  (** -1 at a root *)
  start_ns : int;
  mutable stop_ns : int;
  mutable alloc_words : float;  (** words allocated inside the span *)
  mutable major : int;  (** major collections inside the span *)
}

type t = {
  mutable spans : span list;  (** finished, newest first *)
  mutable next : int;
  mutable open_ : span list;
  origin : int;
}

let create () = { spans = []; next = 0; open_ = []; origin = now_ns () }

(* Words allocated so far and major collections. [Gc.minor_words] reads
   the allocation pointer; the [quick_stat] minor count only advances
   at each minor collection. *)
let gc_counters () =
  let s = Gc.quick_stat () in
  (Gc.minor_words () +. s.major_words -. s.promoted_words, s.major_collections)

let with_span t ~op name f =
  let parent = match t.open_ with p :: _ -> p.id | [] -> -1 in
  let words0, major0 = gc_counters () in
  let sp =
    {
      name;
      op;
      id = t.next;
      parent;
      start_ns = now_ns ();
      stop_ns = 0;
      alloc_words = 0.;
      major = 0;
    }
  in
  t.next <- t.next + 1;
  t.open_ <- sp :: t.open_;
  let finish () =
    sp.stop_ns <- now_ns ();
    let words1, major1 = gc_counters () in
    sp.alloc_words <- words1 -. words0;
    sp.major <- major1 - major0;
    t.open_ <- List.tl t.open_;
    t.spans <- sp :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let ms sp = float_of_int (sp.stop_ns - sp.start_ns) /. 1e6
let mb sp = sp.alloc_words *. float_of_int (Sys.word_size / 8) /. 1e6
let spans t = List.rev t.spans

(* Chrome trace-event format: complete ("X") events in microseconds,
   loadable in Perfetto or chrome://tracing. *)
let write_chrome t path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i sp ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc
            "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d,\"alloc_words\":%.0f,\"major_collections\":%d}}"
            sp.name
            (float_of_int (sp.start_ns - t.origin) /. 1e3)
            (float_of_int (sp.stop_ns - sp.start_ns) /. 1e3)
            sp.op sp.id sp.parent sp.alloc_words sp.major)
        (spans t);
      output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n")
