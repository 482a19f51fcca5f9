(* compiler-libs parsetree walker: one pass per file producing findings
   (Rules.finding) and ambient-state inventory cells (Rules.cell).

   Waivers are source-visible attributes —

     let cache = ref []  [@@lalr.allow D001 "mutex-guarded: see lock"]

   — scoped to the item (or expression) they annotate, plus the
   file-scope floating form [@@@lalr.allow CODE "reason"]. Every waiver
   must carry a non-empty reason and must match at least one finding;
   violations are D006 findings, which cannot themselves be waived. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Per-file context                                                    *)
(* ------------------------------------------------------------------ *)

type waiver = {
  w_code : string;
  w_reason : string;
  w_line : int;
  mutable w_used : bool;
}

type ctx = {
  file : string;  (* path as given on the command line, '/'-separated *)
  in_lib : bool;
  in_store : bool;
  mutable mutable_labels : string list;
      (* record labels declared [mutable] in this file; a top-level
         record literal assigning one is module-level mutable state *)
  mutable scopes : waiver list list;  (* innermost first *)
  mutable all_waivers : waiver list;
  mutable findings : Rules.finding list;
  mutable cells : Rules.cell list;
}

let has_component path comp =
  String.split_on_char '/' path |> List.exists (String.equal comp)

let under path dir_a dir_b =
  (* true iff [path] has ".../dir_a/dir_b/..." as consecutive
     components. *)
  let rec go = function
    | a :: (b :: _ as rest) -> (a = dir_a && b = dir_b) || go rest
    | _ -> false
  in
  go (String.split_on_char '/' path)

let make_ctx file =
  {
    file;
    in_lib = has_component file "lib";
    in_store = under file "lib" "store";
    mutable_labels = [];
    scopes = [ [] ];
    all_waivers = [];
    findings = [];
    cells = [];
  }

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let report ctx ~code ~line message =
  let severity =
    match Rules.find code with
    | Some r -> r.Rules.severity
    | None -> Rules.Error
  in
  let waiver =
    if not (Rules.waivable code) then None
    else
      let rec search = function
        | [] -> None
        | scope :: outer -> (
            match List.find_opt (fun w -> w.w_code = code) scope with
            | Some w ->
                w.w_used <- true;
                Some w.w_reason
            | None -> search outer)
      in
      search ctx.scopes
  in
  ctx.findings <-
    { Rules.code; severity; file = ctx.file; line; message; waiver }
    :: ctx.findings

(* ------------------------------------------------------------------ *)
(* Waiver attributes                                                   *)
(* ------------------------------------------------------------------ *)

let string_payload (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* Accepted payloads: [D001 "reason"] (constructor application) and the
   parenthesized [(D001) "reason"] apply form. *)
let parse_allow_payload = function
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
      match e.pexp_desc with
      | Pexp_construct ({ txt = Longident.Lident code; _ }, Some arg) ->
          Option.map (fun r -> (code, r)) (string_payload arg)
      | Pexp_apply
          ( { pexp_desc = Pexp_construct ({ txt = Longident.Lident code; _ }, None); _ },
            [ (_, arg) ] ) ->
          Option.map (fun r -> (code, r)) (string_payload arg)
      | _ -> None)
  | _ -> None

(* Turn the lalr.allow attributes of an item into in-scope waivers,
   reporting D006 for malformed/unknown/empty ones on the spot. *)
let waivers_of_attrs ctx (attrs : attributes) =
  List.filter_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "lalr.allow" then None
      else
        let line = line_of a.attr_loc in
        match parse_allow_payload a.attr_payload with
        | None ->
            report ctx ~code:"D006" ~line
              "malformed waiver: expected [@@lalr.allow CODE \"reason\"]";
            None
        | Some (code, _) when not (Rules.waivable code) ->
            report ctx ~code:"D006" ~line
              (Printf.sprintf "waiver names unknown or unwaivable rule %s"
                 code);
            None
        | Some (_, reason) when String.trim reason = "" ->
            report ctx ~code:"D006" ~line "waiver carries an empty reason";
            None
        | Some (code, reason) ->
            let w = { w_code = code; w_reason = reason; w_line = line;
                      w_used = false } in
            ctx.all_waivers <- w :: ctx.all_waivers;
            Some w)
    attrs

let with_waivers ctx ws f =
  if ws = [] then f ()
  else begin
    ctx.scopes <- ws :: ctx.scopes;
    Fun.protect f ~finally:(fun () -> ctx.scopes <- List.tl ctx.scopes)
  end

(* File-scope waiver ([@@@lalr.allow ...]): lives in the outermost
   scope for the rest of the file. *)
let add_file_waivers ctx ws =
  if ws <> [] then
    match List.rev ctx.scopes with
    | outermost :: rest -> ctx.scopes <- List.rev ((ws @ outermost) :: rest)
    | [] -> ctx.scopes <- [ ws ]

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)
(* ------------------------------------------------------------------ *)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> []

let last = Longident.last

(* ------------------------------------------------------------------ *)
(* D001 — module-level mutable state                                   *)
(* ------------------------------------------------------------------ *)

(* What a structure-level RHS may create. [`Unsafe kind] is a D001
   finding; [`Safe kind] is a sanctioned concurrency primitive recorded
   in the inventory only. The walk descends through wrappers that still
   evaluate at module-load time, and deliberately NOT into fun/lazy
   (those defer creation to the call). *)
let classify_head ctx (e : expression) =
  let rec go e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
        match flatten txt with
        | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some (`Unsafe "ref")
        | [ "Hashtbl"; "create" ] -> Some (`Unsafe "hashtbl")
        | [ "Array"; "make" ]
        | [ "Array"; "init" ]
        | [ "Array"; "make_matrix" ]
        | [ "Array"; "create_float" ] ->
            Some (`Unsafe "array")
        | [ "Bytes"; "create" ] | [ "Bytes"; "make" ] -> Some (`Unsafe "bytes")
        | [ "Buffer"; "create" ] -> Some (`Unsafe "buffer")
        | [ "Queue"; "create" ] -> Some (`Unsafe "queue")
        | [ "Stack"; "create" ] -> Some (`Unsafe "stack")
        | [ "Weak"; "create" ] -> Some (`Unsafe "weak")
        | [ "Atomic"; "make" ] -> Some (`Safe "atomic")
        | [ "Mutex"; "create" ] -> Some (`Safe "mutex")
        | [ "Condition"; "create" ] -> Some (`Safe "condition")
        | [ "Semaphore"; "Counting"; "make" ]
        | [ "Semaphore"; "Binary"; "make" ] ->
            Some (`Safe "semaphore")
        | [ "Domain"; "DLS"; "new_key" ] -> Some (`Safe "domain-local")
        | _ -> None)
    | Pexp_array _ -> Some (`Unsafe "array")
    | Pexp_record (fields, _)
      when List.exists
             (fun (({ txt; _ } : Longident.t Location.loc), _) ->
               List.mem (last txt) ctx.mutable_labels)
             fields ->
        Some (`Unsafe "mutable-record")
    | Pexp_let (_, _, body) -> go body
    | Pexp_sequence (_, body) -> go body
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> go e
    | Pexp_open (_, e) -> go e
    | Pexp_tuple es -> List.find_map go es
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> go e
    | Pexp_ifthenelse (c, t, f) ->
        ignore c;
        (match go t with Some k -> Some k | None -> Option.bind f go)
    | Pexp_match (_, cases) | Pexp_try (_, cases) ->
        List.find_map (fun c -> go c.pc_rhs) cases
    | _ -> None
  in
  go e

let binding_name (p : pattern) =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) | Ppat_alias (p, _) -> go p
    | _ -> None
  in
  match go p with Some n -> n | None -> "_"

let check_d001 ctx (vb : value_binding) =
  match classify_head ctx vb.pvb_expr with
  | None -> ()
  | Some head ->
      let line = line_of vb.pvb_loc in
      let name = binding_name vb.pvb_pat in
      let kind = match head with `Unsafe k | `Safe k -> k in
      let reason =
        match head with
        | `Safe _ -> None
        | `Unsafe kind ->
            report ctx ~code:"D001" ~line
              (Printf.sprintf
                 "module-level mutable state: '%s' is a %s (not \
                  Atomic/Domain-local; racy under Domains)"
                 name kind);
            (* The finding we just pushed knows whether a waiver was in
               scope; mirror that into the inventory entry. *)
            (match ctx.findings with
            | f :: _ when f.Rules.code = "D001" -> f.Rules.waiver
            | _ -> None)
      in
      ctx.cells <-
        {
          Rules.c_file = ctx.file;
          c_line = line;
          c_name = name;
          c_kind = kind;
          c_safe = (match head with `Safe _ -> true | `Unsafe _ -> false);
          c_reason = reason;
        }
        :: ctx.cells

(* ------------------------------------------------------------------ *)
(* Expression rules: D003, D004, D005                                  *)
(* ------------------------------------------------------------------ *)

let stdout_idents =
  [
    [ "print_string" ]; [ "print_endline" ]; [ "print_newline" ];
    [ "print_char" ]; [ "print_int" ]; [ "print_float" ]; [ "print_bytes" ];
    [ "Stdlib"; "print_string" ]; [ "Stdlib"; "print_endline" ];
    [ "Printf"; "printf" ]; [ "Format"; "printf" ];
    [ "Format"; "print_string" ]; [ "Format"; "print_int" ];
    [ "Format"; "print_newline" ]; [ "Format"; "print_flush" ];
    [ "stdout" ]; [ "Stdlib"; "stdout" ];
  ]

let check_ident ctx (loc : Location.t) txt =
  let path = flatten txt in
  (match path with
  | "Marshal" :: _ when not ctx.in_store ->
      report ctx ~code:"D003" ~line:(line_of loc)
        (Printf.sprintf
           "Marshal.%s outside lib/store: unframed bytes-to-values is the \
            store's job"
           (last txt))
  | _ -> ());
  if ctx.in_lib && List.mem path stdout_idents then
    report ctx ~code:"D005" ~line:(line_of loc)
      (Printf.sprintf
         "library code writes to stdout (%s); use a formatter argument or \
          a report/trace sink"
         (String.concat "." path))

(* A handler case swallows everything when its pattern matches any
   exception without a guard — unless the body re-raises the bound
   variable (a cleanup-and-rethrow). *)
let rec catch_all_pat (p : pattern) =
  match p.ppat_desc with
  | Ppat_any -> Some "_"
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_alias (p, { txt; _ }) -> (
      match catch_all_pat p with Some _ -> Some txt | None -> None)
  | Ppat_or (a, b) -> (
      match catch_all_pat a with Some n -> Some n | None -> catch_all_pat b)
  | Ppat_constraint (p, _) -> catch_all_pat p
  | _ -> None

let reraises name (body : expression) =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt = f; _ }; _ }, args)
            -> (
              match (flatten f, args) with
              | ( ( [ "raise" ] | [ "raise_notrace" ] | [ "reraise" ]
                  | [ "Printexc"; "raise_with_backtrace" ] ),
                  (_, { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ })
                  :: _ )
                when v = name ->
                  found := true
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body;
  !found

let check_handler_cases ctx what (cases : case list) =
  List.iter
    (fun c ->
      if c.pc_guard = None then
        match catch_all_pat c.pc_lhs with
        | Some name when name = "_" || not (reraises name c.pc_rhs) ->
            report ctx ~code:"D004" ~line:(line_of c.pc_lhs.ppat_loc)
              (Printf.sprintf
                 "catch-all %s handler can swallow Budget.Exceeded / \
                  Internal_error; match the intended exceptions"
                 what)
        | _ -> ())
    cases

let check_expr_rules ctx (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; loc } -> check_ident ctx loc txt
  | Pexp_try (_, cases) -> check_handler_cases ctx "try" cases
  | Pexp_match (_, cases) ->
      let exception_cases =
        List.filter_map
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_exception p -> Some { c with pc_lhs = p }
            | _ -> None)
          cases
      in
      check_handler_cases ctx "match-exception" exception_cases
  | _ -> ()

let expr_iterator ctx =
  let super = Ast_iterator.default_iterator in
  {
    super with
    expr =
      (fun it e ->
        with_waivers ctx (waivers_of_attrs ctx e.pexp_attributes) (fun () ->
            check_expr_rules ctx e;
            super.expr it e));
    value_binding =
      (fun it vb ->
        with_waivers ctx (waivers_of_attrs ctx vb.pvb_attributes) (fun () ->
            super.value_binding it vb));
  }

let walk_expr ctx e =
  let it = expr_iterator ctx in
  it.expr it e

(* ------------------------------------------------------------------ *)
(* Structures (.ml)                                                    *)
(* ------------------------------------------------------------------ *)

let collect_mutable_labels ctx str =
  let it =
    {
      Ast_iterator.default_iterator with
      label_declaration =
        (fun _ ld ->
          if ld.pld_mutable = Asttypes.Mutable then
            ctx.mutable_labels <- ld.pld_name.txt :: ctx.mutable_labels);
    }
  in
  it.structure it str

(* [top] is true while every enclosing module expression evaluates at
   load time (plain struct ... end nesting); functor bodies and
   first-class modules reset it — their state is per-application. *)
let rec walk_structure ctx ~top str =
  List.iter (walk_structure_item ctx ~top) str

and walk_structure_item ctx ~top (item : structure_item) =
  match item.pstr_desc with
  | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          with_waivers ctx (waivers_of_attrs ctx vb.pvb_attributes)
            (fun () ->
              if top then check_d001 ctx vb;
              walk_expr ctx vb.pvb_expr))
        vbs
  | Pstr_eval (e, attrs) ->
      with_waivers ctx (waivers_of_attrs ctx attrs) (fun () ->
          walk_expr ctx e)
  | Pstr_module mb ->
      with_waivers ctx (waivers_of_attrs ctx mb.pmb_attributes) (fun () ->
          walk_module ctx ~top mb.pmb_expr)
  | Pstr_recmodule mbs ->
      List.iter
        (fun mb ->
          with_waivers ctx (waivers_of_attrs ctx mb.pmb_attributes)
            (fun () -> walk_module ctx ~top mb.pmb_expr))
        mbs
  | Pstr_include { pincl_mod; pincl_attributes; _ } ->
      with_waivers ctx (waivers_of_attrs ctx pincl_attributes) (fun () ->
          walk_module ctx ~top pincl_mod)
  | Pstr_attribute a -> add_file_waivers ctx (waivers_of_attrs ctx [ a ])
  | Pstr_primitive _ | Pstr_type _ | Pstr_typext _ | Pstr_exception _
  | Pstr_modtype _ | Pstr_open _ | Pstr_class _ | Pstr_class_type _
  | Pstr_extension _ ->
      ()

and walk_module ctx ~top (me : module_expr) =
  match me.pmod_desc with
  | Pmod_structure str -> walk_structure ctx ~top str
  | Pmod_functor (_, body) -> walk_module ctx ~top:false body
  | Pmod_constraint (me, _) -> walk_module ctx ~top me
  | Pmod_apply _ | Pmod_apply_unit _ | Pmod_ident _ -> ()
  | Pmod_unpack e -> walk_expr ctx e
  | Pmod_extension _ -> ()

(* ------------------------------------------------------------------ *)
(* Signatures (.mli): D002                                             *)
(* ------------------------------------------------------------------ *)

let doc_strings (attrs : attributes) =
  List.filter_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "ocaml.doc" && a.attr_name.txt <> "ocaml.text"
      then None
      else
        match a.attr_payload with
        | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
            match string_payload e with
            | Some s -> Some (s, line_of a.attr_loc)
            | None -> None)
        | _ -> None)
    attrs

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let mentions_raise doc = contains ~needle:"@raise" doc
                         || contains ~needle:"Raises [" doc

let type_mentions_safe (ty : core_type) =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      typ =
        (fun it t ->
          (match t.ptyp_desc with
          | Ptyp_constr ({ txt; _ }, _)
            when last txt = "option" || last txt = "result" ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.typ it t);
    }
  in
  it.typ it ty;
  !found

(* The stronger robustness-contract pins the retired shell guard
   carried (tools/check_raising_mli.sh): the store's absorption
   contract and the faultpoint arming API are load-bearing for the
   fault-injection exit-code matrix, so their interfaces must keep
   saying so. *)
let check_contract_pins ctx ~raw =
  let count_substring s sub =
    let n = String.length s and m = String.length sub in
    if m = 0 then 0
    else begin
      let c = ref 0 in
      for i = 0 to n - m do
        if String.sub s i m = sub then incr c
      done;
      !c
    end
  in
  if Filename.basename ctx.file = "store.mli" && ctx.in_store then begin
    if count_substring raw "Never raises" < 2 then
      report ctx ~code:"D002" ~line:1
        "lib/store/store.mli: its reads and save must each document the 'Never \
         raises' absorption contract"
  end;
  if Filename.basename ctx.file = "faultpoint.mli" && under ctx.file "lib" "guard"
  then begin
    if not (contains ~needle:"(unit, string) result" raw) then
      report ctx ~code:"D002" ~line:1
        "lib/guard/faultpoint.mli: arm must stay result-typed, not raising";
    if not (contains ~needle:"absorb" (String.lowercase_ascii raw)) then
      report ctx ~code:"D002" ~line:1
        "lib/guard/faultpoint.mli: the store-absorption rule must stay \
         documented"
  end

let walk_signature ctx ~raw (sg : signature) =
  (* First pass: file-scope waivers from floating attributes, so a
     waiver placed anywhere in the interface covers it. *)
  List.iter
    (fun (item : signature_item) ->
      match item.psig_desc with
      | Psig_attribute a -> add_file_waivers ctx (waivers_of_attrs ctx [ a ])
      | Psig_value vd ->
          add_file_waivers ctx (waivers_of_attrs ctx vd.pval_attributes)
      | Psig_exception te ->
          add_file_waivers ctx
            (waivers_of_attrs ctx te.ptyexn_attributes)
      | _ -> ())
    sg;
  let raising = ref [] in
  let safe = ref false in
  let note_docs attrs =
    List.iter
      (fun (doc, line) ->
        if mentions_raise doc then raising := (line, "documents @raise") :: !raising)
      (doc_strings attrs)
  in
  List.iter
    (fun (item : signature_item) ->
      match item.psig_desc with
      | Psig_exception te ->
          raising :=
            ( line_of item.psig_loc,
              Printf.sprintf "declares exception %s" te.ptyexn_constructor.pext_name.txt )
            :: !raising;
          note_docs te.ptyexn_attributes
      | Psig_value vd ->
          if type_mentions_safe vd.pval_type then safe := true;
          note_docs vd.pval_attributes
      | Psig_attribute a -> note_docs [ a ]
      | _ -> ())
    sg;
  (if ctx.in_lib && not !safe then
     match List.rev !raising with
     | [] -> ()
     | (line, what) :: _ ->
         report ctx ~code:"D002" ~line
           (Printf.sprintf
              "%s but no val in this interface offers an option/result \
               counterpart"
              what));
  if ctx.in_lib then check_contract_pins ctx ~raw

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

type result = {
  r_findings : Rules.finding list;
  r_cells : Rules.cell list;
}

let finish ctx =
  (* Stale waivers: a waiver that matched nothing is itself a finding —
     fixing the code without removing its waiver must fail CI just as
     removing a needed waiver does. *)
  List.iter
    (fun w ->
      if not w.w_used then
        report ctx ~code:"D006" ~line:w.w_line
          (Printf.sprintf "stale waiver: no %s finding in scope (remove it)"
             w.w_code))
    (List.rev ctx.all_waivers);
  {
    r_findings = List.sort Rules.compare_finding ctx.findings;
    r_cells = List.sort Rules.compare_cell ctx.cells;
  }

let parse_with lexer ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  lexer lexbuf

let check_impl ~path source =
  let str = parse_with Parse.implementation ~path source in
  let ctx = make_ctx path in
  collect_mutable_labels ctx str;
  walk_structure ctx ~top:true str;
  finish ctx

let check_intf ~path source =
  let sg = parse_with Parse.interface ~path source in
  let ctx = make_ctx path in
  walk_signature ctx ~raw:source sg;
  finish ctx

let check_source ~path source =
  if Filename.check_suffix path ".mli" then check_intf ~path source
  else check_impl ~path source
