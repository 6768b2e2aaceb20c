open Ast

exception Error of { line : int; msg : string }

(* An index into the lexer's arrays, which never passes the [EOF] at
   [last]. *)
type st = { toks : Lexer.token array; lines : int array; last : int; mutable pos : int }

let fail st fmt =
  let line = st.lines.(st.pos) in
  Format.kasprintf (fun msg -> raise (Error { line; msg })) fmt

let peek st = st.toks.(st.pos)
let advance st = if st.pos < st.last then st.pos <- st.pos + 1

(* Tokens are compared by matching, not with the polymorphic [=]. *)
let at_punct st p = match peek st with Lexer.PUNCT q -> String.equal q p | _ -> false
let at_kw st k = match peek st with Lexer.KW q -> String.equal q k | _ -> false

let expected st tok =
  fail st "expected %a, found %a" Lexer.pp_token tok Lexer.pp_token (peek st)

let eat_punct st p = if at_punct st p then advance st else expected st (Lexer.PUNCT p)
let eat_kw st k = if at_kw st k then advance st else expected st (Lexer.KW k)

let ident st =
  match peek st with
  | Lexer.IDENT s ->
      advance st;
      s
  | t -> fail st "expected identifier, found %a" Lexer.pp_token t

let int_lit st =
  match peek st with
  | Lexer.INT i ->
      advance st;
      i
  | t -> fail st "expected integer, found %a" Lexer.pp_token t

(* --- types ------------------------------------------------------------ *)

let rec field_ty st =
  match peek st with
  | Lexer.IDENT "u8" -> advance st; Fu8
  | Lexer.IDENT "u16" -> advance st; Fu16
  | Lexer.IDENT "u32" -> advance st; Fu32
  | Lexer.IDENT "u64" -> advance st; Fu64
  | Lexer.IDENT "ptr" ->
      advance st;
      eat_punct st "<";
      let s = ident st in
      eat_punct st ">";
      Fptr s
  | Lexer.PUNCT "[" ->
      advance st;
      let elt = field_ty st in
      (match elt with
      | Farr _ -> fail st "arrays of arrays are not supported"
      | _ -> ());
      eat_punct st ";";
      let n = Int64.to_int (int_lit st) in
      if n <= 0 then fail st "array size must be positive";
      eat_punct st "]";
      Farr (elt, n)
  | t -> fail st "expected a field type, found %a" Lexer.pp_token t

let ty st =
  match peek st with
  | Lexer.IDENT "u64" -> advance st; Tu64
  | Lexer.IDENT "ctx" -> advance st; Tctx
  | Lexer.IDENT "ptr" ->
      advance st;
      eat_punct st "<";
      let s = ident st in
      eat_punct st ">";
      Tptr s
  | t -> fail st "expected a type, found %a" Lexer.pp_token t

(* --- expressions ------------------------------------------------------ *)

let binop_of_punct = function
  | "||" -> Some (LOr, 1)
  | "&&" -> Some (LAnd, 2)
  | "|" -> Some (BOr, 3)
  | "^" -> Some (BXor, 4)
  | "&" -> Some (BAnd, 5)
  | "==" -> Some (Eq, 6)
  | "!=" -> Some (Ne, 6)
  | "<" -> Some (Lt, 7)
  | "<=" -> Some (Le, 7)
  | ">" -> Some (Gt, 7)
  | ">=" -> Some (Ge, 7)
  | "<<" -> Some (Shl, 8)
  | ">>" -> Some (Shr, 8)
  | "+" -> Some (Add, 9)
  | "-" -> Some (Sub, 9)
  | "*" -> Some (Mul, 10)
  | "/" -> Some (Div, 10)
  | "%" -> Some (Mod, 10)
  | _ -> None

let rec expr st = binary st 1

and binary st min_prec =
  let lhs = ref (unary st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.PUNCT p -> (
        match binop_of_punct p with
        | Some (op, prec) when prec >= min_prec ->
            advance st;
            let rhs = binary st (prec + 1) in
            lhs := E_binop (op, !lhs, rhs)
        | _ -> continue := false)
    | _ -> continue := false
  done;
  !lhs

and unary st =
  match peek st with
  | Lexer.PUNCT "-" ->
      advance st;
      E_unop (Neg, unary st)
  | Lexer.PUNCT "!" ->
      advance st;
      E_unop (LNot, unary st)
  | Lexer.PUNCT "~" ->
      advance st;
      E_unop (BNot, unary st)
  | Lexer.PUNCT "&" ->
      advance st;
      E_addr (ident st)
  | _ -> postfix st

and postfix st =
  let e = ref (atom st) in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.PUNCT "." ->
        advance st;
        let f = ident st in
        e := E_field (!e, f)
    | Lexer.PUNCT "[" ->
        advance st;
        let idx = expr st in
        eat_punct st "]";
        e := E_index (!e, idx)
    | _ -> continue := false
  done;
  !e

and atom st =
  match peek st with
  | Lexer.INT i ->
      advance st;
      E_int i
  | Lexer.KW "null" ->
      advance st;
      E_null
  | Lexer.KW "new" ->
      advance st;
      E_new (ident st)
  | Lexer.PUNCT "(" ->
      advance st;
      let e = expr st in
      eat_punct st ")";
      e
  | Lexer.IDENT name -> (
      advance st;
      match peek st with
      | Lexer.PUNCT "(" ->
          advance st;
          let args = ref [] in
          if not (at_punct st ")") then begin
            args := [ expr st ];
            while at_punct st "," do
              advance st;
              args := expr st :: !args
            done
          end;
          eat_punct st ")";
          E_call (name, List.rev !args)
      | _ -> E_var name)
  | t -> fail st "expected an expression, found %a" Lexer.pp_token t

(* --- statements ------------------------------------------------------- *)

let compound_op = function
  | "+=" -> Some Add
  | "-=" -> Some Sub
  | "*=" -> Some Mul
  | "/=" -> Some Div
  | "%=" -> Some Mod
  | "&=" -> Some BAnd
  | "|=" -> Some BOr
  | "^=" -> Some BXor
  | "<<=" -> Some Shl
  | ">>=" -> Some Shr
  | _ -> None

let expr_of_lvalue = function
  | L_var v -> E_var v
  | L_field (e, f) -> E_field (e, f)
  | L_index (e, i) -> E_index (e, i)

let lvalue_of_expr st = function
  | E_var v -> L_var v
  | E_field (e, f) -> L_field (e, f)
  | E_index (e, i) -> L_index (e, i)
  | _ -> fail st "invalid assignment target"

let rec stmt st =
  match peek st with
  | Lexer.KW "var" -> (
      advance st;
      let name = ident st in
      match peek st with
      | Lexer.PUNCT ":" -> (
          advance st;
          match peek st with
          | Lexer.KW "bytes" ->
              advance st;
              eat_punct st "[";
              let n = Int64.to_int (int_lit st) in
              eat_punct st "]";
              eat_punct st ";";
              S_buf (name, n)
          | _ ->
              let t = ty st in
              eat_punct st "=";
              let e = expr st in
              eat_punct st ";";
              S_var (name, Some t, e))
      | _ ->
          eat_punct st "=";
          let e = expr st in
          eat_punct st ";";
          S_var (name, None, e))
  | Lexer.KW "if" ->
      advance st;
      eat_punct st "(";
      let c = expr st in
      eat_punct st ")";
      let then_ = block st in
      let else_ =
        if at_kw st "else" then begin
          advance st;
          if at_kw st "if" then [ stmt st ] else block st
        end
        else []
      in
      S_if (c, then_, else_)
  | Lexer.KW "while" ->
      advance st;
      eat_punct st "(";
      let c = expr st in
      eat_punct st ")";
      let body = block st in
      S_while (c, body)
  | Lexer.KW "for" ->
      advance st;
      eat_punct st "(";
      let init = stmt st in
      (match init with
      | S_var _ | S_assign _ -> ()
      | _ -> fail st "for-loop initialiser must be a declaration or assignment");
      let c = expr st in
      eat_punct st ";";
      (* the step has no trailing semicolon *)
      let e = expr st in
      let step =
        match peek st with
        | Lexer.PUNCT "=" ->
            let lv = lvalue_of_expr st e in
            advance st;
            S_assign (lv, expr st)
        | Lexer.PUNCT p when Option.is_some (compound_op p) ->
            let lv = lvalue_of_expr st e in
            advance st;
            S_assign (lv, E_binop (Option.get (compound_op p), expr_of_lvalue lv, expr st))
        | _ -> S_expr e
      in
      eat_punct st ")";
      let body = block st in
      S_for (init, c, step, body)
  | Lexer.KW "return" ->
      advance st;
      if at_punct st ";" then begin
        advance st;
        S_return None
      end
      else begin
        let e = expr st in
        eat_punct st ";";
        S_return (Some e)
      end
  | Lexer.KW "break" ->
      advance st;
      eat_punct st ";";
      S_break
  | Lexer.KW "continue" ->
      advance st;
      eat_punct st ";";
      S_continue
  | Lexer.KW "free" ->
      advance st;
      let e = expr st in
      eat_punct st ";";
      S_free e
  | _ -> (
      let e = expr st in
      match peek st with
      | Lexer.PUNCT "=" ->
          let lv = lvalue_of_expr st e in
          advance st;
          let rhs = expr st in
          eat_punct st ";";
          S_assign (lv, rhs)
      | Lexer.PUNCT p when Option.is_some (compound_op p) ->
          let lv = lvalue_of_expr st e in
          advance st;
          let rhs = expr st in
          eat_punct st ";";
          (* x op= e desugars to x = x op e (the lvalue base is
             re-evaluated; bases with side effects are the author's
             problem, as in C macros) *)
          S_assign (lv, E_binop (Option.get (compound_op p), expr_of_lvalue lv, rhs))
      | _ ->
          eat_punct st ";";
          S_expr e)

and block st =
  eat_punct st "{";
  let stmts = ref [] in
  while not (at_punct st "}") do
    stmts := stmt st :: !stmts
  done;
  advance st;
  List.rev !stmts

(* --- declarations ------------------------------------------------------ *)

let struct_decl st =
  eat_kw st "struct";
  let sname = ident st in
  eat_punct st "{";
  let fields = ref [] in
  while not (at_punct st "}") do
    let f = ident st in
    eat_punct st ":";
    let t = field_ty st in
    eat_punct st ";";
    fields := (f, t) :: !fields
  done;
  advance st;
  { sname; sfields = List.rev !fields }

let global_decl st =
  eat_kw st "global";
  let gname = ident st in
  eat_punct st ":";
  let t = field_ty st in
  eat_punct st ";";
  { gname; gty = t }

let fn_decl st =
  eat_kw st "fn";
  let fname = ident st in
  eat_punct st "(";
  let params = ref [] in
  if not (at_punct st ")") then begin
    let param () =
      let n = ident st in
      eat_punct st ":";
      let t = ty st in
      (n, t)
    in
    params := [ param () ];
    while at_punct st "," do
      advance st;
      params := param () :: !params
    done
  end;
  eat_punct st ")";
  let ret =
    if at_punct st "->" then begin
      advance st;
      (match peek st with
      | Lexer.IDENT "u64" -> advance st
      | Lexer.IDENT "ptr" ->
          advance st;
          eat_punct st "<";
          ignore (ident st);
          eat_punct st ">"
      | t -> fail st "expected return type, found %a" Lexer.pp_token t);
      true
    end
    else false
  in
  let body = block st in
  { fname; params = List.rev !params; ret; body }

let parse src =
  let { Lexer.toks; lines; count } = Lexer.tokenize src in
  let st = { toks; lines; last = count - 1; pos = 0 } in
  let structs = ref [] and globals = ref [] and fns = ref [] in
  let continue = ref true in
  while !continue do
    match peek st with
    | Lexer.EOF -> continue := false
    | Lexer.KW "struct" -> structs := struct_decl st :: !structs
    | Lexer.KW "global" -> globals := global_decl st :: !globals
    | Lexer.KW "fn" -> fns := fn_decl st :: !fns
    | t -> fail st "expected a declaration, found %a" Lexer.pp_token t
  done;
  {
    structs = List.rev !structs;
    globals = List.rev !globals;
    fns = List.rev !fns;
  }
