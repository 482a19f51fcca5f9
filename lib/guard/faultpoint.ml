module Trace = Lalr_trace.Trace

type kind = Raise | Wall | Corrupt

let kind_name = function Raise -> "raise" | Wall -> "wall" | Corrupt -> "corrupt"

let kind_of_name = function
  | "raise" -> Some Raise
  | "wall" -> Some Wall
  | "corrupt" -> Some Corrupt
  | _ -> None

type site_class = Compute | Reader | Store_io | Serve

type site_info = {
  si_name : string;
  si_class : site_class;
  si_kinds : kind list;
}

let compute name = { si_name = name; si_class = Compute; si_kinds = [ Raise; Wall ] }

(* The engine slot names (lib/engine keeps them in sync: its slot
   constructor asserts membership in this list), the two tolerant
   reader entries, the store I/O boundaries, and the daemon loop
   stages of lalrgen serve (lib/serve). *)
let serve name kinds = { si_name = name; si_class = Serve; si_kinds = kinds }

let sites =
  List.map compute
    [
      "analysis"; "lr0"; "relations"; "follow"; "la"; "slr"; "nqlalr";
      "propagation"; "lr1"; "tables"; "slr_tables"; "nqlalr_tables";
      "classification"; "classification+lr1";
    ]
  @ [
      { si_name = "reader"; si_class = Reader; si_kinds = [ Raise; Wall; Corrupt ] };
      { si_name = "menhir"; si_class = Reader; si_kinds = [ Raise; Wall; Corrupt ] };
      { si_name = "store-read"; si_class = Store_io; si_kinds = [ Raise; Wall; Corrupt ] };
      { si_name = "store-write"; si_class = Store_io; si_kinds = [ Raise; Wall; Corrupt ] };
      (* serve-worker is the crash site: it sits OUTSIDE the per-job
         typed boundary, so a raise there kills the worker domain and
         exercises supervision (restart + typed internal response for
         the in-flight request). The other serve sites are absorbed
         into per-request typed responses by the daemon loop. *)
      serve "serve-accept" [ Raise; Wall ];
      serve "serve-decode" [ Raise; Wall; Corrupt ];
      serve "serve-dispatch" [ Raise; Wall ];
      serve "serve-respond" [ Raise; Wall ];
      serve "serve-worker" [ Raise ];
      (* serve-client fires on the CLIENT side of the wire, in
         Client.connect: a fire-once raise is absorbed by the client's
         Retry/reconnect path; repeated firings feed the circuit
         breaker. The serving process never sees it. *)
      serve "serve-client" [ Raise ];
    ]

let find_site name = List.find_opt (fun s -> s.si_name = name) sites

let expected_exit site kind =
  match (site.si_class, kind) with
  (* The store absorbs every failure of its own I/O: a cache is an
     optional acceleration. Corruption surfaces on the NEXT read as a
     quarantine + recompute — also exit 0, visible in the counters. *)
  | Store_io, _ -> 0
  (* The daemon absorbs every serve-site firing into a typed
     per-request response (or a supervised worker restart) and keeps
     serving; its own exit stays 0 through a clean drain. The serve
     chaos matrix asserts the per-request statuses instead. *)
  | Serve, _ -> 0
  | _, Raise -> 4
  | _, Wall -> 3
  | Reader, Corrupt -> 2
  | Compute, Corrupt -> 4 (* unreachable: not in si_kinds *)

(* ------------------------------------------------------------------ *)
(* Arming                                                             *)
(* ------------------------------------------------------------------ *)

type armed_point = {
  a_site : string;
  a_kind : kind;
  a_at : int;  (* fire on the a_at-th hit of the site *)
  a_hits : int Atomic.t;
  a_fired : bool Atomic.t;
}

(* The whole armed state behind one Atomic: [check]/[take_corrupt] are
   a single atomic read of this cell when nothing is armed (the Budget
   trick). The per-point hit counters are Atomic.t too, so an armed
   matrix run stays race-free even if sites are probed from several
   domains; arming itself (a whole-list replace) is test-harness
   single-writer. *)
let state : armed_point list Atomic.t = Atomic.make []

let armed () = Atomic.get state <> []
let disarm () = Atomic.set state []

let spec_doc =
  "comma-separated injections: site:kind or site:kind@N (fire on the N-th \
   hit, once; default 1). kind is raise, wall or corrupt; 'lalrgen \
   faultpoints' lists the sites and the documented exit code of each pair"

let parse_entry entry =
  match String.index_opt entry ':' with
  | None -> Error (Printf.sprintf "injection %S is not site:kind[@N]" entry)
  | Some i -> (
      let site = String.sub entry 0 i in
      let rest = String.sub entry (i + 1) (String.length entry - i - 1) in
      let kind_s, at =
        match String.index_opt rest '@' with
        | None -> (rest, Ok 1)
        | Some j ->
            let n = String.sub rest (j + 1) (String.length rest - j - 1) in
            ( String.sub rest 0 j,
              match int_of_string_opt n with
              | Some v when v >= 1 -> Ok v
              | _ -> Error (Printf.sprintf "bad hit count %S in %S" n entry) )
      in
      match at with
      | Error e -> Error e
      | Ok at -> (
          match kind_of_name kind_s with
          | None ->
              Error
                (Printf.sprintf
                   "unknown injection kind %S in %S (expected raise, wall or \
                    corrupt)"
                   kind_s entry)
          | Some kind ->
              let site_names =
                (* 'store' is a convenience alias for both boundaries. *)
                if site = "store" then [ "store-read"; "store-write" ]
                else [ site ]
              in
              let rec check_sites acc = function
                | [] -> Ok (List.rev acc)
                | name :: rest -> (
                    match find_site name with
                    | None ->
                        Error
                          (Printf.sprintf
                             "unknown fault-injection site %S (see 'lalrgen \
                              faultpoints')"
                             name)
                    | Some info when not (List.mem kind info.si_kinds) ->
                        Error
                          (Printf.sprintf
                             "kind %s is not meaningful at site %s (supported: \
                              %s)"
                             (kind_name kind) name
                             (String.concat ", "
                                (List.map kind_name info.si_kinds)))
                    | Some _ ->
                        check_sites
                          ({
                             a_site = name;
                             a_kind = kind;
                             a_at = at;
                             a_hits = Atomic.make 0;
                             a_fired = Atomic.make false;
                           }
                          :: acc)
                          rest)
              in
              check_sites [] site_names))

let arm spec =
  let entries =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if entries = [] then Error "empty injection spec"
  else
    let rec go acc = function
      | [] ->
          Atomic.set state (List.concat (List.rev acc));
          Ok ()
      | e :: rest -> (
          match parse_entry e with
          | Ok pts -> go (pts :: acc) rest
          | Error msg -> Error msg)
    in
    go [] entries

(* ------------------------------------------------------------------ *)
(* Check points                                                       *)
(* ------------------------------------------------------------------ *)

exception Injected of { site : string }

let fire site = function
  | Wall ->
      raise
        (Budget.Exceeded
           {
             Budget.ex_stage = site;
             ex_resource = Budget.Wall_clock;
             ex_consumed = 0.;
             ex_cap = 0.;
             ex_partial = Some "injected fault (wall)";
           })
  | Raise -> (
      match find_site site with
      | Some { si_class = Store_io; _ } ->
          (* Stand-in for an I/O error; the store's catch-all absorbs
             it. An Internal_error here would wrongly take the exit-4
             path for a failure the store is contracted to survive. *)
          raise (Injected { site })
      | _ ->
          raise
            (Budget.Internal_error
               { stage = site; invariant = "injected fault (raise)" }))
  | Corrupt ->
      (* Corrupt fires through [take_corrupt]; reaching here means a
         data site forgot to consume it — treat as a broken invariant
         rather than silently ignoring the armed injection. *)
      raise
        (Budget.Internal_error
           { stage = site; invariant = "injected corruption not consumed" })

let hit_slow site ~corrupt =
  let fired = ref false in
  List.iter
    (fun p ->
      if
        p.a_site = site
        && (not (Atomic.get p.a_fired))
        && (if corrupt then p.a_kind = Corrupt else p.a_kind <> Corrupt)
      then begin
        if Atomic.fetch_and_add p.a_hits 1 + 1 = p.a_at then begin
          Atomic.set p.a_fired true;
          (* Record before [fire]: it raises. *)
          Trace.instant
            ~attrs:(fun () ->
              [ ("site", Trace.Str site);
                ("kind", Trace.Str (kind_name p.a_kind)) ])
            "faultpoint.fired";
          if corrupt then fired := true else fire site p.a_kind
        end
      end)
    (Atomic.get state);
  !fired

let check site =
  match Atomic.get state with
  | [] -> ()
  | _ -> ignore (hit_slow site ~corrupt:false)

let take_corrupt site =
  match Atomic.get state with
  | [] -> false
  | _ -> hit_slow site ~corrupt:true
