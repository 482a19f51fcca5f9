(* Seeded workload inputs. Everything the program under test sees is a
   pure function of the workload seed and is rendered with the
   program's own printers: grammar text by [Reader.to_string], request
   lines by [Protocol.encode_request]. *)

module Grammar = Lalr_grammar.Grammar
module Reader = Lalr_grammar.Reader
module Registry = Lalr_suite.Registry
module Scaled = Lalr_suite.Scaled
module Protocol = Lalr_serve.Protocol
module Sentence = Lalr_runtime.Sentence
module Token = Lalr_runtime.Token

let default_seed = 1

(* One independent stream per purpose ([tag]), so that, say, the serve
   mix does not shift when the number of cli-scaled grammars changes. *)
let rng ~seed tag k = Random.State.make [| seed; Hashtbl.hash tag; k |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let names entries = List.map (fun (e : Registry.entry) -> e.Registry.name) entries
let suite_names = names Registry.all
let language_names = names Registry.languages

(* cli-suite: every registry grammar once per pass, in a seeded order. *)
let suite_order ~seed ~pass = shuffle (rng ~seed "suite-order" pass) suite_names

(* 90 units is half the generator's 10x-mini-c default: 5x. *)
let scaled_units = 90
let cli_scaled_count = 4

type scaled = { gseed : int; units : int }

let scaled_grammar s = Scaled.grammar ~seed:s.gseed ~units:s.units ()
let scaled_text s = Reader.to_string (scaled_grammar s)

let distinct_seeds st n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let s = Random.State.bits st in
      if List.mem s acc then go acc k else go (s :: acc) (k - 1)
  in
  go [] n

let cli_scaled ~seed =
  distinct_seeds (rng ~seed "cli-scaled" 0) cli_scaled_count
  |> List.map (fun gseed -> { gseed; units = scaled_units })

(* cli-scaled visits its fixed set in a fresh seeded order each pass. *)
let scaled_order ~seed ~pass =
  shuffle (rng ~seed "scaled-order" pass) (List.init cli_scaled_count Fun.id)

(* serve-mixed: blocks of ten requests, shuffled within the block: six
   inline Scaled grammars, three [suite:NAME] over the languages and one
   [health]. Inline unit counts cycle through 3..7 and the languages
   through a seeded order, so every seed sends the same mix and only the
   grammars' shapes and the order vary. A unit has 17 to 33 productions,
   so seven units stay at most 234 and the daemon's default path builds
   LR(1) for every inline grammar. Inline grammars are unique by text,
   so each one is a store miss that runs the whole pipeline. A unit has
   24 shapes, so three units give 13824 texts: a used one is redrawn,
   and tens of thousands of requests keep the mix intact. *)
type serve_op = Inline of { units : int; text : string } | Suite of string | Health

let inline_units = [| 3; 4; 5; 6; 7 |]

let serve_ops ~seed ~count =
  let st = rng ~seed "serve-mix" 0 in
  let seen = Hashtbl.create 1024 in
  let rec inline units =
    let text = scaled_text { gseed = Random.State.bits st; units } in
    let key = Digest.string text in
    if Hashtbl.mem seen key then inline units
    else begin
      Hashtbl.add seen key ();
      Inline { units; text }
    end
  in
  let n_inline = ref 0 and langs = ref [] in
  let next = function
    | `Inline ->
        incr n_inline;
        inline inline_units.(!n_inline mod Array.length inline_units)
    | `Suite ->
        if !langs = [] then langs := shuffle st language_names;
        let l = List.hd !langs in
        langs := List.tl !langs;
        Suite l
    | `Health -> Health
  in
  let block = [ `Inline; `Inline; `Inline; `Inline; `Inline; `Inline; `Suite; `Suite; `Suite; `Health ] in
  let rec go acc k =
    if k >= count then List.rev acc
    else
      let ops = List.map next (shuffle st block) in
      go (List.rev_append ops acc) (k + List.length ops)
  in
  List.filteri (fun i _ -> i < count) (go [] 0)

let serve_request ~id op =
  let id = Printf.sprintf "r%d" id in
  Protocol.encode_request
    (match op with
    | Health -> Protocol.Health { id }
    | Suite name ->
        Protocol.Classify
          {
            id;
            source = Protocol.File ("suite:" ^ name);
            budget = None;
            deadline_ms = None;
            trace_id = None;
          }
    | Inline { text; _ } ->
        Protocol.Classify
          {
            id;
            source = Protocol.Inline { text; format = `Cfg };
            budget = None;
            deadline_ms = None;
            trace_id = None;
          })

(* The parser runtime (timed in cli-scaled's traced run): the
   LALR(1)-clean languages plus one 5x Scaled grammar, and a fixed bag
   of generated sentences per grammar. *)
let parse_languages =
  List.filter
    (fun (e : Registry.entry) -> e.Registry.expected.Registry.lalr1)
    Registry.languages
  |> names

let sentences_per_grammar = 400

(* Depth 10 keeps sentences at tens to a few hundred tokens; the
   generator's default of 20 yields thousands on the recursive
   languages, and a heap to match. *)
let sentence_depth = 10

let parse_grammars ~seed =
  let scaled =
    { gseed = Random.State.bits (rng ~seed "parse-scaled" 0); units = scaled_units }
  in
  List.map
    (fun n -> (n, Lazy.force (Registry.find n).Registry.grammar))
    parse_languages
  @ [ ("scaled-5x", scaled_grammar scaled) ]

let sentences ~seed grammars =
  List.mapi
    (fun i (_, g) ->
      let prep = Sentence.prepare g in
      let st = rng ~seed "sentences" i in
      Array.init sentences_per_grammar (fun _ ->
          Sentence.generate ~max_depth:sentence_depth prep st))
    grammars

(* A canonical dump of a fixed slice of every workload's inputs; the
   benchmark's test pins its digest for the default seed. *)
let dump ~seed =
  let b = Buffer.create (1 lsl 20) in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  for pass = 0 to 3 do
    line (String.concat " " (suite_order ~seed ~pass))
  done;
  List.iter (fun s -> line (scaled_text s)) (cli_scaled ~seed);
  for pass = 0 to 3 do
    line (String.concat " " (List.map string_of_int (scaled_order ~seed ~pass)))
  done;
  List.iteri (fun i op -> line (serve_request ~id:i op)) (serve_ops ~seed ~count:200);
  let grammars = parse_grammars ~seed in
  List.iter2
    (fun (name, g) sents ->
      line name;
      Array.iter
        (fun toks ->
          line
            (String.concat " "
               (List.map (fun (t : Token.t) -> Grammar.terminal_name g t.Token.terminal) toks)))
        sents)
    grammars (sentences ~seed grammars);
  Buffer.contents b

let digest ~seed = Digest.to_hex (Digest.string (dump ~seed))
