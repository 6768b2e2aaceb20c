(* eclang tests: lexer, parser, and compiled-program semantics (executed
   through the full verify -> Kie -> VM pipeline). *)
open Kflex_eclang

(* --- lexer ----------------------------------------------------------------- *)

(* the tokens of [src] with their lines, in order *)
let tokenize src =
  let t = Lexer.tokenize src in
  List.init t.Lexer.count (fun i -> (t.Lexer.toks.(i), t.Lexer.lines.(i)))

let t_lexer_tokens () =
  let toks = tokenize "fn f() { return 0x10 + 2_000; } // c" in
  let kinds = List.map fst toks in
  Alcotest.(check bool) "kw fn" true (List.mem (Lexer.KW "fn") kinds);
  Alcotest.(check bool) "hex" true (List.mem (Lexer.INT 16L) kinds);
  Alcotest.(check bool) "underscore" true (List.mem (Lexer.INT 2000L) kinds);
  Alcotest.(check bool) "eof" true (List.mem Lexer.EOF kinds)

let t_lexer_comments () =
  let toks = tokenize "/* multi \n line */ 1 // eol\n 2" in
  let ints =
    List.filter_map
      (fun (t, _) -> match t with Lexer.INT i -> Some i | _ -> None)
      toks
  in
  Alcotest.(check (list int64)) "ints" [ 1L; 2L ] ints

let t_lexer_line_numbers () =
  let toks = tokenize "1\n2\n3" in
  let lines =
    List.filter_map
      (fun (t, line) -> match t with Lexer.INT _ -> Some line | _ -> None)
      toks
  in
  Alcotest.(check (list int)) "lines" [ 1; 2; 3 ] lines

let t_lexer_errors () =
  List.iter
    (fun (src, line, msg) ->
      match Lexer.tokenize src with
      | exception Lexer.Error e ->
          Alcotest.(check (pair int string)) src (line, msg) (e.line, e.msg)
      | _ -> Alcotest.failf "should not lex: %S" src)
    [
      ("@", 1, "unexpected character '@'");
      ("1\n $", 2, "unexpected character '$'");
      ("/* unterminated", 1, "unterminated comment");
      ("0x", 1, "bad hex literal 0x");
      ("0x1_0000_0000_0000_0000", 1, "bad hex literal 0x10000000000000000");
    ]

(* Every operator and delimiter, and the longest match where one is a prefix
   of another. *)
let t_lexer_punctuation () =
  let puncts src =
    List.filter_map
      (fun (t, _) -> match t with Lexer.PUNCT p -> Some p | _ -> None)
      (tokenize src)
  in
  let all =
    [ "<<="; ">>="; "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^="; "<<"; ">>";
      "<="; ">="; "=="; "!="; "&&"; "||"; "->"; "+"; "-"; "*"; "/"; "%"; "&";
      "|"; "^"; "~"; "!"; "<"; ">"; "="; "("; ")"; "{"; "}"; "["; "]"; ";";
      ":"; ","; "." ]
  in
  Alcotest.(check (list string)) "each alone" all (puncts (String.concat " " all));
  Alcotest.(check (list string)) "longest first"
    [ "<<"; "<<="; ">>"; ">>="; "<="; ">="; "->"; "-"; "->"; "-="; "&&"; "&=";
      "||"; "|="; "=="; "="; "!"; "!=" ]
    (puncts "a<<b<<=c>>d>>=e<=f>=g->h-->i-=j&&k&=l||m|=n==o=!p!=q")

(* Decimal literals cover the whole u64 range, like hex ones. *)
let t_lexer_u64_literals () =
  let int src =
    match tokenize src with
    | [ (Lexer.INT i, _); (Lexer.EOF, _) ] -> i
    | _ -> Alcotest.failf "not one integer: %s" src
  in
  Alcotest.(check int64) "2^63" Int64.min_int (int "9223372036854775808");
  Alcotest.(check int64) "2^64-1" (-1L) (int "18446744073709551615");
  Alcotest.(check int64) "separators" (-1L) (int "18_446_744_073_709_551_615");
  (match Lexer.tokenize "18446744073709551616" with
  | exception Lexer.Error e ->
      Alcotest.(check string) "2^64" "bad integer literal 18446744073709551616" e.msg
  | _ -> Alcotest.fail "2^64 must not lex");
  let prog lit =
    (Compile.compile_string (Printf.sprintf "fn prog(c: ctx) -> u64 { return %s; }" lit))
      .Compile.prog
  in
  ignore (prog "9223372036854775808");
  Alcotest.(check bool) "decimal and hex compile alike" true
    (Array.for_all2 Kflex_bpf.Insn.equal
       (Kflex_bpf.Prog.insns (prog "18446744073709551615"))
       (Kflex_bpf.Prog.insns (prog "0xffffffffffffffff")))

(* --- parser ----------------------------------------------------------------- *)

let t_parser_precedence () =
  let p = Parser.parse "fn prog() -> u64 { return 2 + 3 * 4; }" in
  match (List.hd p.Ast.fns).Ast.body with
  | [ Ast.S_return (Some (Ast.E_binop (Ast.Add, Ast.E_int 2L, Ast.E_binop (Ast.Mul, Ast.E_int 3L, Ast.E_int 4L)))) ] ->
      ()
  | _ -> Alcotest.fail "precedence wrong"

let t_parser_else_if () =
  let p =
    Parser.parse
      "fn prog() -> u64 { if (1) { return 1; } else if (2) { return 2; } \
       return 3; }"
  in
  match (List.hd p.Ast.fns).Ast.body with
  | [ Ast.S_if (_, _, [ Ast.S_if _ ]); Ast.S_return _ ] -> ()
  | _ -> Alcotest.fail "else-if shape wrong"

let t_parser_struct () =
  let p = Parser.parse "struct s { a: u8; b: ptr<s>; c: [u64; 4]; }" in
  match p.Ast.structs with
  | [ { Ast.sname = "s"; sfields = [ ("a", Ast.Fu8); ("b", Ast.Fptr "s"); ("c", Ast.Farr (Ast.Fu64, 4)) ] } ] ->
      ()
  | _ -> Alcotest.fail "struct shape wrong"

let t_parser_errors () =
  List.iter
    (fun src ->
      match Parser.parse src with
      | exception Parser.Error _ -> ()
      | exception Lexer.Error _ -> ()
      | _ -> Alcotest.failf "should not parse: %s" src)
    [
      "fn f( { }";
      "struct s { a }";
      "fn f() { var x = ; }";
      "global g;";
      "fn f() { 1 + ; }";
      "fn f() { if 1 { } }";
    ]

(* --- compile + execute -------------------------------------------------------- *)

let run_src ?(payload = Bytes.create 0) src =
  let compiled = Compile.compile_string src in
  let kernel = Kflex_kernel.Helpers.create () in
  let heap = Kflex_runtime.Heap.create ~size:(Int64.shift_left 1L 20) () in
  let loaded =
    match
      Kflex.load ~kernel ~heap
        ~globals_size:compiled.Compile.layout.Compile.globals_size
        ~hook:Kflex_kernel.Hook.Xdp compiled.Compile.prog
    with
    | Ok l -> l
    | Error e ->
        Alcotest.failf "verify: %a" Kflex_verifier.Verify.pp_error e
  in
  let pkt =
    Kflex_kernel.Packet.make ~proto:Kflex_kernel.Packet.Udp ~src_port:1
      ~dst_port:2 payload
  in
  match Kflex.run_packet loaded pkt with
  | Kflex_runtime.Vm.Finished v -> v
  | Kflex_runtime.Vm.Cancelled _ -> Alcotest.fail "cancelled"

let check_ret name src expected =
  Alcotest.(check int64) name expected (run_src src)

let t_arith () =
  check_ret "arith" "fn prog(c: ctx) -> u64 { return (2 + 3) * 4 - 6 / 2; }" 17L;
  check_ret "mod" "fn prog(c: ctx) -> u64 { return 17 % 5; }" 2L;
  check_ret "bits" "fn prog(c: ctx) -> u64 { return (0xf0 | 0x0f) & 0x3c ^ 1; }" 0x3dL;
  check_ret "shift" "fn prog(c: ctx) -> u64 { return (1 << 10) >> 2; }" 256L;
  check_ret "neg" "fn prog(c: ctx) -> u64 { return 0 - (-5); }" 5L;
  check_ret "bnot" "fn prog(c: ctx) -> u64 { return ~0 >> 60; }" 15L

let t_compare () =
  check_ret "lt" "fn prog(c: ctx) -> u64 { return 3 < 4; }" 1L;
  check_ret "unsigned" "fn prog(c: ctx) -> u64 { return (0 - 1) > 100; }" 1L;
  check_ret "signed" "fn prog(c: ctx) -> u64 { return slt(0 - 1, 100); }" 1L;
  check_ret "lnot" "fn prog(c: ctx) -> u64 { return !(3 == 3); }" 0L

let t_short_circuit () =
  (* the right operand must not run when the left decides: division by zero
     yields 0 in the ISA, so use a global side effect instead *)
  check_ret "and-short"
    {|
global hits: u64;
fn bump() -> u64 { hits = hits + 1; return 1; }
fn prog(c: ctx) -> u64 {
  if (0 == 1 && bump() == 1) { return 99; }
  return hits;
}
|}
    0L;
  check_ret "or-short"
    {|
global hits: u64;
fn bump() -> u64 { hits = hits + 1; return 1; }
fn prog(c: ctx) -> u64 {
  if (1 == 1 || bump() == 1) { return hits; }
  return 99;
}
|}
    0L

let t_while_break_continue () =
  check_ret "sum"
    {|
fn prog(c: ctx) -> u64 {
  var s: u64 = 0;
  var i: u64 = 0;
  while (i < 10) {
    i = i + 1;
    if (i == 3) { continue; }
    if (i == 8) { break; }
    s = s + i;
  }
  return s;
}
|}
    (* 1+2+4+5+6+7 = 25 *)
    25L

let t_functions_inline () =
  check_ret "fib-iter"
    {|
fn fib(n: u64) -> u64 {
  var a: u64 = 0;
  var b: u64 = 1;
  var i: u64 = 0;
  while (i < n) {
    var t: u64 = a + b;
    a = b;
    b = t;
    i = i + 1;
  }
  return a;
}
fn prog(c: ctx) -> u64 { return fib(10) + fib(5); }
|}
    60L

let t_recursion_rejected () =
  match Compile.compile_string "fn prog(c: ctx) -> u64 { return prog(c); }" with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "recursion must be rejected"

let t_structs_and_heap () =
  check_ret "nodes"
    {|
struct pair { a: u64; b: u32; next: ptr<pair>; }
fn prog(c: ctx) -> u64 {
  var p: ptr<pair> = new pair;
  if (p == null) { return 0; }
  var q: ptr<pair> = new pair;
  if (q == null) { return 0; }
  p.a = 100;
  p.b = 0x1FFFFFFFF;   // truncated to u32
  p.next = q;
  q.a = 11;
  var r: u64 = p.a + p.b + p.next.a;
  free q;
  free p;
  return r;
}
|}
    (Int64.add 100L (Int64.add 0xFFFFFFFFL 11L))

let t_global_arrays () =
  check_ret "garr"
    {|
global tab: [u64; 32];
fn prog(c: ctx) -> u64 {
  var i: u64 = 0;
  while (i < 32) { tab[i] = i * i; i = i + 1; }
  return tab[7] + tab[31];
}
|}
    (Int64.of_int ((7 * 7) + (31 * 31)))

let t_struct_array_fields () =
  check_ret "sarr"
    {|
struct row { vals: [u32; 8]; sum: u64; }
fn prog(c: ctx) -> u64 {
  var r: ptr<row> = new row;
  if (r == null) { return 0; }
  var i: u64 = 0;
  while (i < 8) { r.vals[i] = i + 1; i = i + 1; }
  i = 0;
  while (i < 8) { r.sum = r.sum + r.vals[i]; i = i + 1; }
  return r.sum;
}
|}
    36L

let t_buffers () =
  check_ret "buf"
    {|
fn prog(c: ctx) -> u64 {
  var buf: bytes[16];
  st16(&buf, 0, 0xBEEF);
  st32(&buf, 4, 0xCAFE);
  st64(&buf, 8, 7);
  return ld16(&buf, 0) + ld32(&buf, 4) + ld64(&buf, 8);
}
|}
    (Int64.of_int (0xBEEF + 0xCAFE + 7))

let t_big_globals () =
  (* global offsets past the signed-16-bit insn field use the fallback
     address computation *)
  check_ret "big global array"
    {|
global big: [u64; 8192];
fn prog(c: ctx) -> u64 {
  big[8000] = 1234;
  big[0] = 1;
  return big[8000] + big[0];
}
|}
    1235L

let t_nested_while () =
  check_ret "nested"
    {|
fn prog(c: ctx) -> u64 {
  var total: u64 = 0;
  var i: u64 = 0;
  while (i < 5) {
    var j: u64 = 0;
    while (j < 4) {
      total = total + (i * 4 + j);
      j = j + 1;
    }
    i = i + 1;
  }
  return total;
}
|}
    190L

let t_fn_in_loop_condition () =
  check_ret "call in condition"
    {|
global n: u64;
fn next() -> u64 { n = n + 1; return n; }
fn prog(c: ctx) -> u64 {
  while (next() < 5) { }
  return n;
}
|}
    5L

let t_for_loop () =
  check_ret "for sum"
    {|
fn prog(c: ctx) -> u64 {
  var s: u64 = 0;
  for (var i = 0; i < 10; i = i + 1) { s += i; }
  return s;
}
|}
    45L;
  (* continue must execute the step (C semantics) *)
  check_ret "for continue"
    {|
fn prog(c: ctx) -> u64 {
  var s: u64 = 0;
  for (var i = 0; i < 10; i = i + 1) {
    if (i % 2 == 0) { continue; }
    s += i;
  }
  return s;
}
|}
    25L;
  check_ret "for break"
    {|
fn prog(c: ctx) -> u64 {
  var s: u64 = 0;
  for (var i = 0; i < 100; i = i + 1) {
    if (i == 5) { break; }
    s += 1;
  }
  return s;
}
|}
    5L

let t_compound_assign () =
  check_ret "compound ops"
    {|
struct cell { v: u64; }
global g: u64;
fn prog(c: ctx) -> u64 {
  var x: u64 = 10;
  x += 5;      // 15
  x -= 3;      // 12
  x *= 4;      // 48
  x /= 6;      // 8
  x %= 5;      // 3
  x <<= 4;     // 48
  x >>= 2;     // 12
  x |= 1;      // 13
  x &= 14;     // 12
  x ^= 5;      // 9
  g += x;
  var p: ptr<cell> = new cell;
  if (p == null) { return 0; }
  p.v += 33;
  return g + p.v;
}
|}
    42L

let t_pkt_helpers () =
  let payload = Bytes.make 16 '\000' in
  Bytes.set_int64_le payload 0 123L;
  let v =
    run_src ~payload
      "fn prog(c: ctx) -> u64 { return pkt_read_u64(c, 0) + pkt_len(c); }"
  in
  Alcotest.(check int64) "pkt" 139L v

let t_compile_errors () =
  List.iter
    (fun (name, src) ->
      match Compile.compile_string src with
      | exception Compile.Error _ -> ()
      | _ -> Alcotest.failf "%s should not compile" name)
    [
      ("unbound var", "fn prog(c: ctx) -> u64 { return x; }");
      ("unknown struct", "fn prog(c: ctx) -> u64 { var p: ptr<nope> = new nope; return 0; }");
      ("field on scalar", "fn prog(c: ctx) -> u64 { var x: u64 = 1; return x.f; }");
      ("unknown field", "struct s { a: u64; } fn prog(c: ctx) -> u64 { var p: ptr<s> = new s; return p.b; }");
      ("break outside loop", "fn prog(c: ctx) -> u64 { break; return 0; }");
      ("unknown fn", "fn prog(c: ctx) -> u64 { return nope(); }");
      ("bad arity", "fn f(a: u64) -> u64 { return a; } fn prog(c: ctx) -> u64 { return f(1, 2); }");
      ("variable buffer index", "fn prog(c: ctx) -> u64 { var b: bytes[8]; var i: u64 = 1; return b[i]; }");
      ("no entry", "fn other() -> u64 { return 0; }");
    ]

let t_heapless_mode_error () =
  (match
     Compile.compile_string ~use_heap:false
       "fn prog(c: ctx) -> u64 { var p: u64 = kflex_malloc(8); return 0; }"
   with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "heap helper in eBPF-mode program must fail");
  match
    Compile.compile_string ~use_heap:false
      "global g: u64; fn prog(c: ctx) -> u64 { return g; }"
  with
  | exception Compile.Error _ -> ()
  | _ -> Alcotest.fail "global in eBPF-mode program must fail"

let t_layout_queries () =
  let c =
    Compile.compile_string
      "struct s { a: u8; b: u64; c: u16; } global g1: u64; global g2: [u64; 4]; fn prog(c: ctx) -> u64 { return g1; }"
  in
  Alcotest.(check int) "sizeof padded" 24 (Compile.sizeof c "s");
  let boff, _ = Compile.field_offset c ~struct_:"s" "b" in
  Alcotest.(check int) "b aligned" 8 boff;
  let g1 = Compile.global_offset c "g1" in
  let g2 = Compile.global_offset c "g2" in
  Alcotest.(check int64) "g1 at base" 64L g1;
  Alcotest.(check int64) "g2 next" 72L g2

(* Differential property: random expression trees evaluated by the compiled
   extension in the VM must match direct evaluation in OCaml. Covers the
   whole codegen/ISA/interpreter chain for arithmetic. *)
let prop_random_expressions =
  let open QCheck in
  let leaf rng = 1 + Gen.int_bound 200 rng in
  let rec gen_expr depth rng =
    if depth = 0 then `Int (leaf rng)
    else
      match Gen.int_bound 12 rng with
      | 0 -> `Int (leaf rng)
      | 1 -> `Bin ("+", gen_expr (depth - 1) rng, gen_expr (depth - 1) rng)
      | 2 -> `Bin ("-", gen_expr (depth - 1) rng, gen_expr (depth - 1) rng)
      | 3 -> `Bin ("*", gen_expr (depth - 1) rng, gen_expr (depth - 1) rng)
      | 4 -> `Bin ("/", gen_expr (depth - 1) rng, gen_expr (depth - 1) rng)
      | 5 -> `Bin ("%", gen_expr (depth - 1) rng, gen_expr (depth - 1) rng)
      | 6 -> `Bin ("&", gen_expr (depth - 1) rng, gen_expr (depth - 1) rng)
      | 7 -> `Bin ("|", gen_expr (depth - 1) rng, gen_expr (depth - 1) rng)
      | 8 -> `Bin ("^", gen_expr (depth - 1) rng, gen_expr (depth - 1) rng)
      | 9 -> `Bin ("<<", gen_expr (depth - 1) rng, `Int (Gen.int_bound 8 rng))
      | 10 -> `Bin (">>", gen_expr (depth - 1) rng, `Int (Gen.int_bound 8 rng))
      | 11 -> `Bin ("<", gen_expr (depth - 1) rng, gen_expr (depth - 1) rng)
      | _ -> `Bin ("==", gen_expr (depth - 1) rng, gen_expr (depth - 1) rng)
  in
  let rec to_src = function
    | `Int i -> string_of_int i
    | `Bin (op, a, b) -> "(" ^ to_src a ^ " " ^ op ^ " " ^ to_src b ^ ")"
  in
  let rec eval = function
    | `Int i -> Int64.of_int i
    | `Bin (op, a, b) -> (
        let x = eval a and y = eval b in
        match op with
        | "+" -> Int64.add x y
        | "-" -> Int64.sub x y
        | "*" -> Int64.mul x y
        | "/" -> if y = 0L then 0L else Int64.unsigned_div x y
        | "%" -> if y = 0L then x else Int64.unsigned_rem x y
        | "&" -> Int64.logand x y
        | "|" -> Int64.logor x y
        | "^" -> Int64.logxor x y
        | "<<" -> Int64.shift_left x (Int64.to_int y land 63)
        | ">>" -> Int64.shift_right_logical x (Int64.to_int y land 63)
        | "<" -> if Int64.unsigned_compare x y < 0 then 1L else 0L
        | "==" -> if Int64.equal x y then 1L else 0L
        | _ -> assert false)
  in
  let arb =
    make
      ~print:(fun e -> to_src e)
      (fun rng -> gen_expr 4 rng)
  in
  QCheck.Test.make ~count:120 ~name:"random expressions: VM = OCaml" arb
    (fun e ->
      let src = "fn prog(c: ctx) -> u64 { return " ^ to_src e ^ "; }" in
      run_src src = eval e)

let t_deep_expression_error () =
  (* expressions too deep for the register pool must fail cleanly *)
  let deep = String.concat " + " (List.init 40 (fun _ -> "(1 + 2)")) in
  let src = "fn prog(c: ctx) -> u64 { return " ^ deep ^ "; }" in
  match Compile.compile_string src with
  | exception Compile.Error _ -> ()
  | _ -> () (* left-associative chains stay shallow: also acceptable *)

let () =
  Alcotest.run "eclang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick t_lexer_tokens;
          Alcotest.test_case "comments" `Quick t_lexer_comments;
          Alcotest.test_case "line numbers" `Quick t_lexer_line_numbers;
          Alcotest.test_case "errors" `Quick t_lexer_errors;
          Alcotest.test_case "punctuation" `Quick t_lexer_punctuation;
          Alcotest.test_case "u64 literals" `Quick t_lexer_u64_literals;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick t_parser_precedence;
          Alcotest.test_case "else-if" `Quick t_parser_else_if;
          Alcotest.test_case "struct" `Quick t_parser_struct;
          Alcotest.test_case "errors" `Quick t_parser_errors;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick t_arith;
          Alcotest.test_case "comparisons" `Quick t_compare;
          Alcotest.test_case "short circuit" `Quick t_short_circuit;
          Alcotest.test_case "while/break/continue" `Quick t_while_break_continue;
          Alcotest.test_case "inlined functions" `Quick t_functions_inline;
          Alcotest.test_case "recursion rejected" `Quick t_recursion_rejected;
          Alcotest.test_case "structs + heap" `Quick t_structs_and_heap;
          Alcotest.test_case "global arrays" `Quick t_global_arrays;
          Alcotest.test_case "struct array fields" `Quick t_struct_array_fields;
          Alcotest.test_case "stack buffers" `Quick t_buffers;
          Alcotest.test_case "packet helpers" `Quick t_pkt_helpers;
          Alcotest.test_case "big globals" `Quick t_big_globals;
          Alcotest.test_case "nested while" `Quick t_nested_while;
          Alcotest.test_case "call in loop condition" `Quick
            t_fn_in_loop_condition;
          Alcotest.test_case "for loops" `Quick t_for_loop;
          Alcotest.test_case "compound assignment" `Quick t_compound_assign;
        ] );
      ( "errors",
        [
          Alcotest.test_case "compile errors" `Quick t_compile_errors;
          Alcotest.test_case "heapless mode" `Quick t_heapless_mode_error;
          Alcotest.test_case "layout queries" `Quick t_layout_queries;
          Alcotest.test_case "deep expression" `Quick t_deep_expression_error;
          QCheck_alcotest.to_alcotest prop_random_expressions;
        ] );
    ]
