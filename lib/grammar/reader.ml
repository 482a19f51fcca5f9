type error = {
  file : string option;
  line : int;
  col : int;
  message : string;
}

exception Error of error

let pp_error ppf e =
  match e.file with
  | Some f -> Format.fprintf ppf "%s:%d:%d: %s" f e.line e.col e.message
  | None -> Format.fprintf ppf "%d:%d: %s" e.line e.col e.message

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | IDENT of string
  | QUOTED of string  (* '+' or "+" : an implicitly declared terminal *)
  | COLON
  | SEMI
  | PIPE
  | SEPARATOR  (* %% *)
  | KW_TOKEN
  | KW_START
  | KW_LEFT
  | KW_RIGHT
  | KW_NONASSOC
  | KW_PREC
  | KW_EMPTY
  | EOF

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | QUOTED s -> Printf.sprintf "quoted terminal %S" s
  | COLON -> "':'"
  | SEMI -> "';'"
  | PIPE -> "'|'"
  | SEPARATOR -> "'%%'"
  | KW_TOKEN -> "'%token'"
  | KW_START -> "'%start'"
  | KW_LEFT -> "'%left'"
  | KW_RIGHT -> "'%right'"
  | KW_NONASSOC -> "'%nonassoc'"
  | KW_PREC -> "'%prec'"
  | KW_EMPTY -> "'%empty'"
  | EOF -> "end of input"

type lexer = {
  src : string;
  file : string option;  (* reported in errors; None for string input *)
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let lexer_error lx message =
  raise
    (Error { file = lx.file; line = lx.line; col = lx.pos - lx.bol + 1; message })

(* The current character, ['\000'] past the end: a caller that must
   tell a NUL byte from the end asks [at_end]. No option is allocated. *)
let peek lx =
  if lx.pos < String.length lx.src then String.unsafe_get lx.src lx.pos
  else '\000'

let at_end lx = lx.pos >= String.length lx.src

let advance lx =
  if peek lx = '\n' then begin
    lx.line <- lx.line + 1;
    lx.bol <- lx.pos + 1
  end;
  lx.pos <- lx.pos + 1

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let is_digit c = c >= '0' && c <= '9'

let rec skip_space lx =
  match peek lx with
  | ' ' | '\t' | '\r' | '\n' ->
      advance lx;
      skip_space lx
  | '/' when lx.pos + 1 < String.length lx.src -> (
      match lx.src.[lx.pos + 1] with
      | '/' ->
          while (not (at_end lx)) && peek lx <> '\n' do
            advance lx
          done;
          skip_space lx
      | '*' ->
          advance lx;
          advance lx;
          let rec go () =
            if at_end lx then lexer_error lx "unterminated comment"
            else if
              peek lx = '*'
              && lx.pos + 1 < String.length lx.src
              && lx.src.[lx.pos + 1] = '/'
            then begin
              advance lx;
              advance lx
            end
            else begin
              advance lx;
              go ()
            end
          in
          go ();
          skip_space lx
      | _ -> ())
  | _ -> ()

(* A token together with the position where it starts. *)
type ptoken = { tok : token; tline : int; tcol : int }

let next_token lx =
  skip_space lx;
  let tline = lx.line and tcol = lx.pos - lx.bol + 1 in
  let mk tok = { tok; tline; tcol } in
  if at_end lx then mk EOF
  else
    match peek lx with
    | ':' ->
        advance lx;
        mk COLON
    | ';' ->
        advance lx;
        mk SEMI
    | '|' ->
        advance lx;
        mk PIPE
    | ('\'' | '"') as quote ->
        advance lx;
        let buf = Buffer.create 8 in
        let rec go () =
          match peek lx with
          | c when at_end lx || c = '\n' ->
              lexer_error lx "unterminated quoted terminal"
          | c when c = quote ->
              advance lx;
              if Buffer.length buf = 0 then
                lexer_error lx "empty quoted terminal"
          | c ->
              Buffer.add_char buf c;
              advance lx;
              go ()
        in
        go ();
        mk (QUOTED (Buffer.contents buf))
    | '%' -> (
        advance lx;
        match peek lx with
        | '%' ->
            advance lx;
            mk SEPARATOR
        | c when is_ident_start c ->
            let start = lx.pos in
            while is_ident_char (peek lx) do
              advance lx
            done;
            let kw = String.sub lx.src start (lx.pos - start) in
            mk
              (match kw with
              | "token" -> KW_TOKEN
              | "start" -> KW_START
              | "left" -> KW_LEFT
              | "right" -> KW_RIGHT
              | "nonassoc" -> KW_NONASSOC
              | "prec" -> KW_PREC
              | "empty" -> KW_EMPTY
              | _ ->
                  lexer_error lx (Printf.sprintf "unknown directive %%%s" kw))
        | _ -> lexer_error lx "stray '%'")
    | c when is_ident_start c || is_digit c ->
        let start = lx.pos in
        while is_ident_char (peek lx) do
          advance lx
        done;
        mk (IDENT (String.sub lx.src start (lx.pos - start)))
    | c -> lexer_error lx (Printf.sprintf "unexpected character %C" c)

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

type parser_state = {
  lx : lexer;
  mutable cur : ptoken;
  strict : bool;  (* raise on first error vs. collect and resynchronise *)
  mutable errors : error list;  (* reversed; tolerant mode only *)
}

(* Tolerant mode gives up after this many diagnostics: past that point
   the input is noise and further recovery only slows the caller down. *)
let max_errors = 100

exception Bail

(* Consecutive identical diagnostics collapse: a lexical error retried
   after the lexer consumed only whitespace reports once, not once per
   retry. *)
let record st e =
  match st.errors with
  | last :: _ when last = e -> ()
  | _ ->
      st.errors <- e :: st.errors;
      if List.length st.errors >= max_errors then raise Bail

let syntax_error st message =
  raise
    (Error
       { file = st.lx.file; line = st.cur.tline; col = st.cur.tcol; message })

(* In tolerant mode a lexical error is recorded and the lexer skips one
   character (when it has not already moved) before retrying, so
   progress is guaranteed. *)
let rec tolerant_next st =
  let before = st.lx.pos in
  match next_token st.lx with
  | t -> t
  | exception Error e ->
      record st e;
      if st.lx.pos = before && not (at_end st.lx) then advance st.lx;
      if at_end st.lx then
        { tok = EOF; tline = st.lx.line; tcol = st.lx.pos - st.lx.bol + 1 }
      else tolerant_next st

let shift st =
  st.cur <- (if st.strict then next_token st.lx else tolerant_next st)

let expect st tok what =
  if st.cur.tok = tok then shift st
  else
    syntax_error st
      (Printf.sprintf "expected %s but found %s" what
         (token_to_string st.cur.tok))

(* Accumulated declarations. Lines are kept alongside so the grammar's
   lint diagnostics can cite file:line. *)
type decls = {
  mutable tokens : (string * int) list;  (* (name, line), reversed *)
  mutable start : string option;
  mutable prec : (Grammar.assoc * string list) list;  (* reversed *)
  mutable prec_lines : int list;  (* reversed, aligned with prec *)
}

let ident_list st what =
  let rec go acc =
    match st.cur.tok with
    | IDENT s ->
        let line = st.cur.tline in
        shift st;
        go ((s, line) :: acc)
    | QUOTED s ->
        let line = st.cur.tline in
        shift st;
        go ((s, line) :: acc)
    | _ ->
        if acc = [] then
          syntax_error st
            (Printf.sprintf "expected at least one %s but found %s" what
               (token_to_string st.cur.tok));
        List.rev acc
  in
  go []

let parse_declarations st =
  let d = { tokens = []; start = None; prec = []; prec_lines = [] } in
  let prec_decl assoc =
    let line = st.cur.tline in
    shift st;
    d.prec <- (assoc, List.map fst (ident_list st "terminal")) :: d.prec;
    d.prec_lines <- line :: d.prec_lines
  in
  (* Tolerant resynchronisation: skip to the next declaration keyword,
     the rules separator, or end of input. *)
  let rec sync_decl () =
    match st.cur.tok with
    | KW_TOKEN | KW_START | KW_LEFT | KW_RIGHT | KW_NONASSOC | SEPARATOR
    | EOF ->
        ()
    | _ ->
        shift st;
        sync_decl ()
  in
  let rec go () =
    let next =
      try
        match st.cur.tok with
        | KW_TOKEN ->
            shift st;
            d.tokens <- List.rev_append (ident_list st "token name") d.tokens;
            `Continue
        | KW_START -> (
            shift st;
            match st.cur.tok with
            | IDENT s ->
                if d.start <> None then
                  syntax_error st "duplicate %start declaration";
                d.start <- Some s;
                shift st;
                `Continue
            | _ -> syntax_error st "expected a nonterminal name after %start")
        | KW_LEFT ->
            prec_decl Grammar.Left;
            `Continue
        | KW_RIGHT ->
            prec_decl Grammar.Right;
            `Continue
        | KW_NONASSOC ->
            prec_decl Grammar.Nonassoc;
            `Continue
        | SEPARATOR ->
            shift st;
            `Stop
        | EOF when not st.strict ->
            (* Missing '%%' altogether: diagnose once and move on. *)
            record st
              {
                file = st.lx.file;
                line = st.cur.tline;
                col = st.cur.tcol;
                message = "expected a declaration or '%%' but found end of input";
              };
            `Stop
        | _ ->
            syntax_error st
              (Printf.sprintf "expected a declaration or '%%%%' but found %s"
                 (token_to_string st.cur.tok))
      with Error e when not st.strict ->
        record st e;
        sync_decl ();
        if st.cur.tok = SEPARATOR then begin
          shift st;
          `Stop
        end
        else if st.cur.tok = EOF then `Stop
        else `Continue
    in
    match next with `Continue -> go () | `Stop -> ()
  in
  go ();
  d

(* Quoted terminals are implicitly declared; collect them during rule
   parsing so Grammar.make sees a complete terminal list. *)
let parse_rules st d =
  let implicit : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let declared = Hashtbl.create 16 in
  List.iter (fun (t, _) -> Hashtbl.replace declared t ()) d.tokens;
  let note_quoted s line =
    if not (Hashtbl.mem declared s || Hashtbl.mem implicit s) then
      Hashtbl.replace implicit s line
  in
  let rules = ref [] in
  let rule_lines = ref [] in
  let parse_alternative lhs =
    let alt_line = st.cur.tline in
    let rhs = ref [] in
    let prec_override = ref None in
    let rec go () =
      match st.cur.tok with
      | IDENT s ->
          shift st;
          rhs := s :: !rhs;
          go ()
      | QUOTED s ->
          note_quoted s st.cur.tline;
          shift st;
          rhs := s :: !rhs;
          go ()
      | KW_EMPTY ->
          shift st;
          if !rhs <> [] then
            syntax_error st "%empty must be the whole alternative";
          (match st.cur.tok with
          | PIPE | SEMI -> ()
          | _ -> syntax_error st "%empty must be the whole alternative")
      | KW_PREC -> (
          shift st;
          match st.cur.tok with
          | IDENT s | QUOTED s ->
              if !prec_override <> None then
                syntax_error st "duplicate %prec";
              prec_override := Some s;
              shift st;
              go ()
          | _ -> syntax_error st "expected a terminal after %prec")
      | PIPE | SEMI -> ()
      | _ ->
          syntax_error st
            (Printf.sprintf "unexpected %s in production"
               (token_to_string st.cur.tok))
    in
    go ();
    rules := (lhs, List.rev !rhs, !prec_override) :: !rules;
    rule_lines := alt_line :: !rule_lines
  in
  let parse_rule () =
    match st.cur.tok with
    | IDENT lhs ->
        shift st;
        expect st COLON "':' after rule name";
        parse_alternative lhs;
        while st.cur.tok = PIPE do
          shift st;
          parse_alternative lhs
        done;
        expect st SEMI "';' at end of rule"
    | _ ->
        syntax_error st
          (Printf.sprintf "expected a rule name but found %s"
             (token_to_string st.cur.tok))
  in
  (* Tolerant resynchronisation: skip past the next ';' (the end of the
     broken rule), or stop at end of input. *)
  let rec sync_rule () =
    match st.cur.tok with
    | EOF -> ()
    | SEMI -> shift st
    | _ ->
        shift st;
        sync_rule ()
  in
  let parse_rule () =
    if st.strict then parse_rule ()
    else
      try parse_rule () with
      | Error e ->
          record st e;
          sync_rule ()
  in
  parse_rule ();
  while st.cur.tok <> EOF do
    parse_rule ()
  done;
  let implicit_tokens =
    Hashtbl.fold (fun s line acc -> (s, line) :: acc) implicit []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (List.rev !rules, List.rev !rule_lines, implicit_tokens)

let parse_with ~strict ~name ~source src =
  let lx = { src; file = source; pos = 0; line = 1; bol = 0 } in
  let st =
    { lx; cur = { tok = EOF; tline = 1; tcol = 1 }; strict; errors = [] }
  in
  let build () =
    shift st;
    let d = parse_declarations st in
    (* Where the rules section starts: the position cited when it turns
       out to be empty. *)
    let rules_line = st.cur.tline and rules_col = st.cur.tcol in
    let rules, rule_lines, implicit = parse_rules st d in
    if rules = [] then
      raise
        (Error
           {
             file = source;
             line = rules_line;
             col = rules_col;
             message = "no rules";
           });
    let start =
      match d.start with
      | Some s -> s
      | None -> (
          match rules with (lhs, _, _) :: _ -> lhs | [] -> assert false)
    in
    let tokens = List.rev d.tokens @ implicit in
    let locs =
      {
        Grammar.li_source = Option.value source ~default:("<" ^ name ^ ">");
        li_rules = rule_lines;
        li_tokens = tokens;
        li_prec = List.rev d.prec_lines;
      }
    in
    Grammar.make ~name ~locs
      ~prec:(List.rev d.prec)
      ~terminals:(List.map fst tokens)
      ~start ~rules ()
  in
  (st, build)

let of_string ?(name = "grammar") ?source src =
  let _, build = parse_with ~strict:true ~name ~source src in
  build ()

let injected_corruption source =
  {
    file = source;
    line = 1;
    col = 1;
    message = "injected corruption (fault injection)";
  }

let of_string_tolerant ?(name = "grammar") ?source src =
  Lalr_trace.Trace.with_span "reader.yacc" @@ fun () ->
  Lalr_guard.Faultpoint.check "reader";
  if Lalr_guard.Faultpoint.take_corrupt "reader" then
    (None, [ injected_corruption source ])
  else
  let st, build = parse_with ~strict:false ~name ~source src in
  match build () with
  | g -> (Some g, List.rev st.errors)
  | exception Error e -> (None, List.rev (e :: st.errors))
  | exception Bail -> (None, List.rev st.errors)
  | exception Invalid_argument msg ->
      (* Semantic errors from Grammar.make carry no position. *)
      let e = { file = source; line = 1; col = 1; message = msg } in
      (None, List.rev (e :: st.errors))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let of_file path =
  of_string
    ~name:(Filename.remove_extension (Filename.basename path))
    ~source:path (read_file path)

let of_file_tolerant path =
  of_string_tolerant
    ~name:(Filename.remove_extension (Filename.basename path))
    ~source:path (read_file path)

(* ------------------------------------------------------------------ *)
(* Printer (round-trips through of_string)                            *)
(* ------------------------------------------------------------------ *)

let needs_quoting s =
  not (String.length s > 0 && is_ident_start s.[0]
       && String.for_all is_ident_char s)

let print_symbol_name s =
  if needs_quoting s then Printf.sprintf "%S" s else s

let to_string (g : Grammar.t) =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "%token";
  for t = 1 to Grammar.n_terminals g - 1 do
    add " ";
    add (print_symbol_name (Grammar.terminal_name g t))
  done;
  add "\n";
  (* Precedence levels: group terminals by (level, assoc), ascending. *)
  let levels = Hashtbl.create 8 in
  Array.iteri
    (fun t prec ->
      match prec with
      | Some (level, a) ->
          let existing =
            Option.value (Hashtbl.find_opt levels level) ~default:(a, [])
          in
          Hashtbl.replace levels level (a, t :: snd existing)
      | None -> ())
    g.terminal_prec;
  let sorted =
    Hashtbl.fold (fun level la acc -> (level, la) :: acc) levels []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (_, (assoc, ts)) ->
      add
        (match assoc with
        | Grammar.Left -> "%left"
        | Grammar.Right -> "%right"
        | Grammar.Nonassoc -> "%nonassoc");
      List.iter
        (fun t ->
          add " ";
          add (print_symbol_name (Grammar.terminal_name g t)))
        (List.rev ts);
      add "\n")
    sorted;
  add ("%start " ^ Grammar.nonterminal_name g g.start ^ "\n%%\n");
  (* Productions grouped by lhs, skipping the augmented production 0. *)
  for n = 1 to Grammar.n_nonterminals g - 1 do
    let prods = Grammar.productions_of g n in
    if Array.length prods > 0 then begin
      add (Grammar.nonterminal_name g n);
      add " :";
      Array.iteri
        (fun i pid ->
          if i > 0 then add "\n  |";
          let p = Grammar.production g pid in
          if Array.length p.rhs = 0 then add " %empty"
          else
            Array.iter
              (fun s ->
                add " ";
                add (print_symbol_name (Grammar.symbol_name g s)))
              p.rhs)
        prods;
      add " ;\n"
    end
  done;
  Buffer.contents buf
