type token = INT of int64 | IDENT of string | KW of string | PUNCT of string | EOF

type t = { tok : token; line : int }

exception Error of { line : int; msg : string }

let is_keyword = function
  | "struct" | "global" | "fn" | "var" | "if" | "else" | "while" | "for"
  | "return" | "break" | "continue" | "null" | "new" | "free" | "bytes" ->
      true
  | _ -> false

(* The operator or delimiter starting with [c], given the two characters
   after it ('\000' past the end): the longest match, or [None]. *)
let punct c c1 c2 =
  let with_eq one two = Some (if c1 = '=' then two else one) in
  match c with
  | '<' when c1 = '<' -> Some (if c2 = '=' then "<<=" else "<<")
  | '>' when c1 = '>' -> Some (if c2 = '=' then ">>=" else ">>")
  | '-' when c1 = '>' -> Some "->"
  | '&' when c1 = '&' -> Some "&&"
  | '|' when c1 = '|' -> Some "||"
  | '+' -> with_eq "+" "+="
  | '-' -> with_eq "-" "-="
  | '*' -> with_eq "*" "*="
  | '/' -> with_eq "/" "/="
  | '%' -> with_eq "%" "%="
  | '&' -> with_eq "&" "&="
  | '|' -> with_eq "|" "|="
  | '^' -> with_eq "^" "^="
  | '<' -> with_eq "<" "<="
  | '>' -> with_eq ">" ">="
  | '=' -> with_eq "=" "=="
  | '!' -> with_eq "!" "!="
  | '~' -> Some "~"
  | '(' -> Some "("
  | ')' -> Some ")"
  | '{' -> Some "{"
  | '}' -> Some "}"
  | '[' -> Some "["
  | ']' -> Some "]"
  | ';' -> Some ";"
  | ':' -> Some ":"
  | ',' -> Some ","
  | '.' -> Some "."
  | _ -> None

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
   value; [None] when there are none or the value needs more than 64 bits. *)
let parse_digits src i j ~base =
  let b = Int64.of_int base in
  let limit = Int64.unsigned_div (-1L) b in
  let rec go k acc any =
    if k = j then if any then Some acc else None
    else if src.[k] = '_' then go (k + 1) acc any
    else
      let d = Int64.of_int (hex_value src.[k]) in
      if
        Int64.unsigned_compare acc limit > 0
        || Int64.unsigned_compare d (Int64.sub (-1L) (Int64.mul acc b)) > 0
      then None
      else go (k + 1) (Int64.add (Int64.mul acc b) d) true
  in
  go i 0L false

let pp_token ppf = function
  | INT i -> Format.fprintf ppf "%Ld" i
  | IDENT s -> Format.fprintf ppf "identifier %s" s
  | KW s -> Format.fprintf ppf "keyword %s" s
  | PUNCT s -> Format.fprintf ppf "'%s'" s
  | EOF -> Format.pp_print_string ppf "end of input"

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let toks = ref [] in
  let i = ref 0 in
  let fail msg = raise (Error { line = !line; msg }) in
  let push tok = toks := { tok; line = !line } :: !toks in
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
      let is_digit = if hex then fun c -> hex_value c >= 0 else is_digit in
      i := digits;
      while !i < n && (is_digit src.[!i] || src.[!i] = '_') do incr i done;
      match parse_digits src digits !i ~base:(if hex then 16 else 10) with
      | Some v -> push (INT v)
      | None ->
          let s = String.sub src start (!i - start) in
          let s = String.concat "" (String.split_on_char '_' s) in
          fail ((if hex then "bad hex literal " else "bad integer literal ") ^ s)
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do incr i done;
      let s = String.sub src start (!i - start) in
      push (if is_keyword s then KW s else IDENT s)
    end
    else
      match punct c (peek 1) (peek 2) with
      | Some p ->
          push (PUNCT p);
          i := !i + String.length p
      | None -> fail (Printf.sprintf "unexpected character %C" c)
  done;
  push EOF;
  List.rev !toks
