type token = INT of int64 | IDENT of string | KW of string | PUNCT of string | EOF

type t = { toks : token array; lines : int array; count : int }

exception Error of { line : int; msg : string }

(* Every keyword and operator token below is one shared constant, so
   lexing allocates only the arrays, identifiers and integer literals. *)

(* Whether [k] is spelled by src.[i .. i + len), from its [j]th byte. *)
let rec spells k src i len j =
  j = len || (String.unsafe_get k j = String.unsafe_get src (i + j) && spells k src i len (j + 1))

(* The keyword spelled by src.[i .. i + len), or [EOF]: the one keyword
   of that length and first letter (and second, for "b"), if it matches. *)
let keyword src i len =
  let candidate =
    match (len, String.unsafe_get src i) with
    | 2, 'f' -> KW "fn"
    | 2, 'i' -> KW "if"
    | 3, 'v' -> KW "var"
    | 3, 'f' -> KW "for"
    | 3, 'n' -> KW "new"
    | 4, 'e' -> KW "else"
    | 4, 'n' -> KW "null"
    | 4, 'f' -> KW "free"
    | 5, 'w' -> KW "while"
    | 5, 'b' -> if String.unsafe_get src (i + 1) = 'r' then KW "break" else KW "bytes"
    | 6, 's' -> KW "struct"
    | 6, 'g' -> KW "global"
    | 6, 'r' -> KW "return"
    | 8, 'c' -> KW "continue"
    | _ -> EOF
  in
  match candidate with KW k when spells k src i len 1 -> candidate | _ -> EOF

(* The operator or delimiter starting with [c], given the two characters
   after it ('\000' past the end): the longest match, or [EOF]. *)
let punct c c1 c2 =
  match c with
  | '<' when c1 = '<' -> if c2 = '=' then PUNCT "<<=" else PUNCT "<<"
  | '>' when c1 = '>' -> if c2 = '=' then PUNCT ">>=" else PUNCT ">>"
  | '-' when c1 = '>' -> PUNCT "->"
  | '&' when c1 = '&' -> PUNCT "&&"
  | '|' when c1 = '|' -> PUNCT "||"
  | '+' -> if c1 = '=' then PUNCT "+=" else PUNCT "+"
  | '-' -> if c1 = '=' then PUNCT "-=" else PUNCT "-"
  | '*' -> if c1 = '=' then PUNCT "*=" else PUNCT "*"
  | '/' -> if c1 = '=' then PUNCT "/=" else PUNCT "/"
  | '%' -> if c1 = '=' then PUNCT "%=" else PUNCT "%"
  | '&' -> if c1 = '=' then PUNCT "&=" else PUNCT "&"
  | '|' -> if c1 = '=' then PUNCT "|=" else PUNCT "|"
  | '^' -> if c1 = '=' then PUNCT "^=" else PUNCT "^"
  | '<' -> if c1 = '=' then PUNCT "<=" else PUNCT "<"
  | '>' -> if c1 = '=' then PUNCT ">=" else PUNCT ">"
  | '=' -> if c1 = '=' then PUNCT "==" else PUNCT "="
  | '!' -> if c1 = '=' then PUNCT "!=" else PUNCT "!"
  | '~' -> PUNCT "~"
  | '(' -> PUNCT "("
  | ')' -> PUNCT ")"
  | '{' -> PUNCT "{"
  | '}' -> PUNCT "}"
  | '[' -> PUNCT "["
  | ']' -> PUNCT "]"
  | ';' -> PUNCT ";"
  | ':' -> PUNCT ":"
  | ',' -> PUNCT ","
  | '.' -> PUNCT "."
  | _ -> EOF

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The digits of src.[i..j), '_' separators skipped, as an unsigned 64-bit
   [INT]; [EOF] when there are none or the value needs more than 64 bits. *)
let parse_digits src i j ~base =
  let b = Int64.of_int base in
  let limit = Int64.unsigned_div (-1L) b in
  let acc = ref 0L and any = ref false and fits = ref true and k = ref i in
  while !fits && !k < j do
    (if src.[!k] <> '_' then
       let d = Int64.of_int (hex_value src.[!k]) in
       if
         Int64.unsigned_compare !acc limit > 0
         || Int64.unsigned_compare d (Int64.sub (-1L) (Int64.mul !acc b)) > 0
       then fits := false
       else begin
         acc := Int64.add (Int64.mul !acc b) d;
         any := true
       end);
    incr k
  done;
  if !fits && !any then INT !acc else EOF

let pp_token ppf = function
  | INT i -> Format.fprintf ppf "%Ld" i
  | IDENT s -> Format.fprintf ppf "identifier %s" s
  | KW s -> Format.fprintf ppf "keyword %s" s
  | PUNCT s -> Format.fprintf ppf "'%s'" s
  | EOF -> Format.pp_print_string ppf "end of input"

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  (* about one token per five source bytes; doubled when full *)
  let toks = ref (Array.make ((n / 5) + 16) EOF) in
  let lines = ref (Array.make ((n / 5) + 16) 0) in
  let count = ref 0 in
  let i = ref 0 in
  let fail msg = raise (Error { line = !line; msg }) in
  let push tok =
    if !count = Array.length !toks then begin
      let grow a fill =
        let a' = Array.make (2 * !count) fill in
        Array.blit a 0 a' 0 !count;
        a'
      in
      toks := grow !toks EOF;
      lines := grow !lines 0
    end;
    !toks.(!count) <- tok;
    !lines.(!count) <- !line;
    incr count
  in
  let peek k = if !i + k < n then src.[!i + k] else '\000' in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      let closed = ref false in
      i := !i + 2;
      while not !closed do
        if !i + 1 >= n then fail "unterminated comment"
        else if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else begin
          if src.[!i] = '\n' then incr line;
          incr i
        end
      done
    end
    else if is_digit c then begin
      let start = !i in
      let hex = c = '0' && (peek 1 = 'x' || peek 1 = 'X') in
      let digits = if hex then start + 2 else start in
      i := digits;
      while
        !i < n
        && ((if hex then hex_value src.[!i] >= 0 else is_digit src.[!i])
           || src.[!i] = '_')
      do
        incr i
      done;
      match parse_digits src digits !i ~base:(if hex then 16 else 10) with
      | INT _ as tok -> push tok
      | _ ->
          let s = String.sub src start (!i - start) in
          let s = String.concat "" (String.split_on_char '_' s) in
          fail ((if hex then "bad hex literal " else "bad integer literal ") ^ s)
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do incr i done;
      match keyword src start (!i - start) with
      | EOF -> push (IDENT (String.sub src start (!i - start)))
      | kw -> push kw
    end
    else
      match punct c (peek 1) (peek 2) with
      | PUNCT p as tok ->
          push tok;
          i := !i + String.length p
      | _ -> fail (Printf.sprintf "unexpected character %C" c)
  done;
  push EOF;
  { toks = !toks; lines = !lines; count = !count }
