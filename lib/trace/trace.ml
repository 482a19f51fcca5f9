type value = Int of int | Float of float | Str of string | Bool of bool
type attr = string * value

type format = Chrome | Jsonl

let format_of_name = function
  | "chrome" -> Some Chrome
  | "jsonl" -> Some Jsonl
  | _ -> None

let format_name = function Chrome -> "chrome" | Jsonl -> "jsonl"

let infer_format file =
  if Filename.check_suffix file ".jsonl" then Jsonl else Chrome

(* Events keep the raw clock reading; sinks subtract t0 at write time
   so timestamps are microseconds since the session started. *)
type ev =
  | Begin of { name : string; ts : float; depth : int; attrs : attr list }
  | End of { name : string; ts : float; depth : int }
  | Inst of { name : string; ts : float; depth : int; attrs : attr list }

type session = {
  clock : unit -> float;
  t0 : float;
  mutable events : ev list;  (* newest first *)
  mutable n_events : int;
  mutable open_spans : string list;
}

(* The whole armed state behind one domain-local cell — the Faultpoint
   discipline: every probe is a single DLS read when tracing is off.
   Domain-local (not a shared ref, not an Atomic) because a session's
   interior (the event list) is single-writer by design: each domain
   arms and records its own session, which is exactly the per-worker
   model the serve daemon needs. *)
let current : session option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let get_current () = Domain.DLS.get current
let set_current v = Domain.DLS.set current v

let default_clock = Unix.gettimeofday

let start ?(clock = default_clock) () =
  let s = { clock; t0 = clock (); events = []; n_events = 0; open_spans = [] } in
  set_current (Some s);
  s

let active () = get_current ()
let enabled () = get_current () <> None

let push s ev =
  s.events <- ev :: s.events;
  s.n_events <- s.n_events + 1

let finish s =
  List.iter
    (fun name ->
      push s (End { name; ts = s.clock (); depth = List.length s.open_spans - 1 });
      s.open_spans <- List.tl s.open_spans)
    s.open_spans;
  s.open_spans <- [];
  match get_current () with
  | Some c when c == s -> set_current None
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Probes                                                             *)
(* ------------------------------------------------------------------ *)

let with_span ?attrs name f =
  match get_current () with
  | None -> f ()
  | Some s ->
      let at = match attrs with None -> [] | Some g -> g () in
      let depth = List.length s.open_spans in
      push s (Begin { name; ts = s.clock (); depth; attrs = at });
      s.open_spans <- name :: s.open_spans;
      Fun.protect f ~finally:(fun () ->
          (* After [finish] (e.g. an at_exit flush that ran inside this
             span) the session is sealed: the forced End was already
             emitted, so this unwind must not add another. *)
          match get_current () with
          | Some c when c == s ->
              (match s.open_spans with
              | top :: tl when top == name || top = name ->
                  s.open_spans <- tl
              | other -> s.open_spans <- List.filter (fun n -> n <> name) other);
              push s (End { name; ts = s.clock (); depth })
          | _ -> ())

let instant ?attrs name =
  match get_current () with
  | None -> ()
  | Some s ->
      let at = match attrs with None -> [] | Some g -> g () in
      push s
        (Inst { name; ts = s.clock (); depth = List.length s.open_spans;
                attrs = at })

let n_events s = s.n_events

(* ------------------------------------------------------------------ *)
(* Sinks                                                              *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* %.17g would be exact but ugly; %g loses nothing we care about (walls
   in seconds, integral fuel) and keeps the files small and stable. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let value_json = function
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Bool b -> string_of_bool b

(* [,"<member>":{k:v,...}], or nothing for an empty attribute list. *)
let attrs_member member attrs =
  if attrs = [] then ""
  else
    Printf.sprintf ",\"%s\":{%s}" member
      (String.concat ","
         (List.map
            (fun (k, v) ->
              Printf.sprintf "\"%s\":%s" (json_escape k) (value_json v))
            attrs))

let us s ts = (ts -. s.t0) *. 1e6

(* Chrome trace-event format: one JSON object per event in the
   traceEvents array. B/E pairs carry nesting; instants are i events. *)
let chrome_event s = function
  | Begin { name; ts; attrs; _ } ->
      Printf.sprintf
        "{\"name\":\"%s\",\"ph\":\"B\",\"ts\":%.3f,\"pid\":1,\"tid\":1%s}"
        (json_escape name) (us s ts) (attrs_member "args" attrs)
  | End { name; ts; _ } ->
      Printf.sprintf
        "{\"name\":\"%s\",\"ph\":\"E\",\"ts\":%.3f,\"pid\":1,\"tid\":1}"
        (json_escape name) (us s ts)
  | Inst { name; ts; attrs; _ } ->
      Printf.sprintf
        "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\
         \"tid\":1%s}"
        (json_escape name) (us s ts) (attrs_member "args" attrs)

let jsonl_event s = function
  | Begin { name; ts; depth; attrs } ->
      Printf.sprintf
        "{\"ev\":\"begin\",\"name\":\"%s\",\"ts_us\":%.3f,\"depth\":%d%s}"
        (json_escape name) (us s ts) depth (attrs_member "attrs" attrs)
  | End { name; ts; depth } ->
      Printf.sprintf
        "{\"ev\":\"end\",\"name\":\"%s\",\"ts_us\":%.3f,\"depth\":%d}"
        (json_escape name) (us s ts) depth
  | Inst { name; ts; depth; attrs } ->
      Printf.sprintf
        "{\"ev\":\"instant\",\"name\":\"%s\",\"ts_us\":%.3f,\"depth\":%d%s}"
        (json_escape name) (us s ts) depth (attrs_member "attrs" attrs)

let to_string s fmt =
  let evs = List.rev s.events in
  match fmt with
  | Chrome ->
      Printf.sprintf "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n"
        (String.concat ",\n" (List.map (chrome_event s) evs))
  | Jsonl -> String.concat "" (List.map (fun ev -> jsonl_event s ev ^ "\n") evs)

let write s fmt oc = output_string oc (to_string s fmt)
