(** Lexer for eclang. *)

type token =
  | INT of int64
  | IDENT of string
  | KW of string  (** struct global fn var if else while return break
      continue null new free bytes *)
  | PUNCT of string  (** operators and delimiters, longest-match *)
  | EOF

type t = {
  toks : token array;  (** the tokens, in order; [toks.(count - 1)] is [EOF] *)
  lines : int array;  (** the source line of each token *)
  count : int;  (** the tokens, [EOF] included; the arrays may be longer *)
}

exception Error of { line : int; msg : string }

val tokenize : string -> t
(** Keywords and operators are shared constants, so lexing allocates only
    the two arrays, identifiers and integer literals.
    @raise Error on malformed input (bad character, unterminated comment). *)

val pp_token : Format.formatter -> token -> unit
