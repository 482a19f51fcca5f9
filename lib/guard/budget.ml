type resource = Fuel | Wall_clock | States | Items

let resource_name = function
  | Fuel -> "fuel"
  | Wall_clock -> "wall-clock"
  | States -> "states"
  | Items -> "items"

type t = {
  fuel_cap : int option;
  wall_cap : float option;
  states_cap : int option;
  items_cap : int option;
  mutable started : float option;  (* set at outermost installation *)
  mutable fuel_used : int;
  mutable states_used : int;
  mutable items_used : int;
  mutable ticks : int;  (* burn calls, for amortised wall checks *)
}

let positive what = function
  | Some v when v <= 0 -> invalid_arg (Printf.sprintf "Budget.create: %s cap must be positive" what)
  | v -> v

let positive_f what = function
  | Some v when v <= 0. -> invalid_arg (Printf.sprintf "Budget.create: %s cap must be positive" what)
  | v -> v

let create ?fuel ?wall ?max_states ?max_items () =
  {
    fuel_cap = positive "fuel" fuel;
    wall_cap = positive_f "wall" wall;
    states_cap = positive "states" max_states;
    items_cap = positive "items" max_items;
    started = None;
    fuel_used = 0;
    states_used = 0;
    items_used = 0;
    ticks = 0;
  }

let unlimited () = create ()

(* Deadline intersection for the serve pool: the remaining request
   deadline becomes (part of) the wall cap, so in-flight work
   self-terminates when the client's deadline passes. The result is a
   fresh, unconsumed budget — the pool parses a fresh budget per
   attempt anyway, and sharing consumption with the input would make
   retries pay for each other. *)
let intersect_wall b ~remaining =
  if remaining <= 0. then
    invalid_arg "Budget.intersect_wall: remaining must be positive";
  let wall =
    match b.wall_cap with
    | Some w -> Float.min w remaining
    | None -> remaining
  in
  {
    b with
    wall_cap = Some wall;
    started = None;
    fuel_used = 0;
    states_used = 0;
    items_used = 0;
    ticks = 0;
  }

type exceeded = {
  ex_stage : string;
  ex_resource : resource;
  ex_consumed : float;
  ex_cap : float;
  ex_partial : string option;
}

exception Exceeded of exceeded
exception Internal_error of { stage : string; invariant : string }

let pp_exceeded ppf e =
  Format.fprintf ppf "budget exceeded in stage '%s': %s: consumed %s of cap %s"
    e.ex_stage
    (resource_name e.ex_resource)
    (match e.ex_resource with
    | Wall_clock -> Printf.sprintf "%.3fs" e.ex_consumed
    | Fuel | States | Items -> Printf.sprintf "%.0f" e.ex_consumed)
    (match e.ex_resource with
    | Wall_clock -> Printf.sprintf "%.3fs" e.ex_cap
    | Fuel | States | Items -> Printf.sprintf "%.0f" e.ex_cap);
  match e.ex_partial with
  | Some p -> Format.fprintf ppf "@,  partial: %s" p
  | None -> ()

let exceeded_to_json e =
  Printf.sprintf
    "{\"error\":\"budget_exceeded\",\"stage\":\"%s\",\"resource\":\"%s\",\
     \"consumed\":%g,\"cap\":%g,\"partial\":%s}"
    (Lalr_trace.Trace.json_escape e.ex_stage)
    (resource_name e.ex_resource)
    e.ex_consumed e.ex_cap
    (match e.ex_partial with
    | Some p -> Printf.sprintf "\"%s\"" (Lalr_trace.Trace.json_escape p)
    | None -> "null")

(* ------------------------------------------------------------------ *)
(* Ambient installation                                                *)
(* ------------------------------------------------------------------ *)

(* The ambient budget and the innermost stage name. A single
   domain-local cell, not a stack: [with_budget]/[with_stage] save and
   restore the previous value around the thunk, which gives stack
   behaviour without allocation on the hot no-budget path. Domain-local
   because a budget is the property of one job on one domain (the serve
   model: one budget per request, one request per worker at a time);
   the counters inside [t] stay plain mutable under that single-writer
   rule. *)
let ambient : (t * string) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let get_ambient () = Domain.DLS.get ambient
let set_ambient v = Domain.DLS.set ambient v

let active () = get_ambient () <> None
let current_stage () =
  match get_ambient () with Some (_, s) -> s | None -> "?"

let with_budget b ~stage f =
  if b.started = None then b.started <- Some (Unix.gettimeofday ());
  let saved = get_ambient () in
  set_ambient (Some (b, stage));
  Fun.protect ~finally:(fun () -> set_ambient saved) f

let with_stage stage f =
  match get_ambient () with
  | None -> f ()
  | Some (b, _) as saved ->
      set_ambient (Some (b, stage));
      Fun.protect ~finally:(fun () -> set_ambient saved) f

(* ------------------------------------------------------------------ *)
(* Check points                                                        *)
(* ------------------------------------------------------------------ *)

let trip b stage resource ~consumed ~cap partial =
  ignore b;
  raise
    (Exceeded
       {
         ex_stage = stage;
         ex_resource = resource;
         ex_consumed = consumed;
         ex_cap = cap;
         ex_partial = (match partial with Some f -> Some (f ()) | None -> None);
       })

let wall_check_mask = 0xFFF

let check_wall_of b stage partial =
  match (b.wall_cap, b.started) with
  | Some cap, Some t0 ->
      let elapsed = Unix.gettimeofday () -. t0 in
      if elapsed > cap then
        trip b stage Wall_clock ~consumed:elapsed ~cap partial
  | _ -> ()

let check_wall () =
  match get_ambient () with
  | None -> ()
  | Some (b, stage) -> check_wall_of b stage None

let burn ?(amount = 1) () =
  match get_ambient () with
  | None -> ()
  | Some (b, stage) ->
      b.fuel_used <- b.fuel_used + amount;
      b.ticks <- b.ticks + 1;
      (match b.fuel_cap with
      | Some cap when b.fuel_used > cap ->
          trip b stage Fuel ~consumed:(float_of_int b.fuel_used)
            ~cap:(float_of_int cap) None
      | _ -> ());
      if b.ticks land wall_check_mask = 0 then check_wall_of b stage None

let count_state ?partial () =
  match get_ambient () with
  | None -> ()
  | Some (b, stage) ->
      b.states_used <- b.states_used + 1;
      (match b.states_cap with
      | Some cap when b.states_used > cap ->
          trip b stage States ~consumed:(float_of_int b.states_used)
            ~cap:(float_of_int cap) partial
      | _ -> ());
      check_wall_of b stage partial

let count_items ?partial n =
  match get_ambient () with
  | None -> ()
  | Some (b, stage) ->
      b.items_used <- b.items_used + n;
      (match b.items_cap with
      | Some cap when b.items_used > cap ->
          trip b stage Items ~consumed:(float_of_int b.items_used)
            ~cap:(float_of_int cap) partial
      | _ -> ())

let broken_invariant ~stage invariant =
  let stage = match get_ambient () with Some (_, s) -> s | None -> stage in
  raise (Internal_error { stage; invariant })

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let consumed b = function
  | Fuel -> float_of_int b.fuel_used
  | States -> float_of_int b.states_used
  | Items -> float_of_int b.items_used
  | Wall_clock -> (
      match b.started with
      | None -> 0.
      | Some t0 -> Unix.gettimeofday () -. t0)

let cap b = function
  | Fuel -> Option.map float_of_int b.fuel_cap
  | States -> Option.map float_of_int b.states_cap
  | Items -> Option.map float_of_int b.items_cap
  | Wall_clock -> b.wall_cap

(* ------------------------------------------------------------------ *)
(* CLI spec                                                            *)
(* ------------------------------------------------------------------ *)

let spec_doc =
  "comma-separated caps: fuel=N, wall=Ns|Nms, states=N, items=N (N accepts \
   scientific notation, e.g. fuel=1e6,wall=500ms)"

let parse_count what v =
  match float_of_string_opt v with
  | Some f when f >= 1. && Float.is_integer (Float.round f) && f <= 1e15 ->
      Ok (int_of_float (Float.round f))
  | Some _ -> Error (Printf.sprintf "%s cap must be a positive count: %S" what v)
  | None -> Error (Printf.sprintf "invalid %s cap %S" what v)

let parse_wall v =
  let num, scale =
    if Filename.check_suffix v "ms" then
      (String.sub v 0 (String.length v - 2), 1e-3)
    else if Filename.check_suffix v "s" then
      (String.sub v 0 (String.length v - 1), 1.)
    else (v, 1.)
  in
  match float_of_string_opt num with
  | Some f when f > 0. -> Ok (f *. scale)
  | Some _ -> Error (Printf.sprintf "wall cap must be positive: %S" v)
  | None -> Error (Printf.sprintf "invalid wall cap %S" v)

let of_spec spec =
  let parts =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then Error "empty budget spec"
  else
    let rec go fuel wall states items = function
      | [] -> Ok (create ?fuel ?wall ?max_states:states ?max_items:items ())
      | part :: rest -> (
          match String.index_opt part '=' with
          | None ->
              Error
                (Printf.sprintf "budget spec entry %S is not resource=value"
                   part)
          | Some i -> (
              let key = String.sub part 0 i in
              let v = String.sub part (i + 1) (String.length part - i - 1) in
              match key with
              | "fuel" -> (
                  match parse_count "fuel" v with
                  | Ok n -> go (Some n) wall states items rest
                  | Error e -> Error e)
              | "wall" -> (
                  match parse_wall v with
                  | Ok f -> go fuel (Some f) states items rest
                  | Error e -> Error e)
              | "states" -> (
                  match parse_count "states" v with
                  | Ok n -> go fuel wall (Some n) items rest
                  | Error e -> Error e)
              | "items" -> (
                  match parse_count "items" v with
                  | Ok n -> go fuel wall states (Some n) rest
                  | Error e -> Error e)
              | _ ->
                  Error
                    (Printf.sprintf
                       "unknown budget resource %S (expected fuel, wall, \
                        states or items)"
                       key)))
    in
    go None None None None parts
