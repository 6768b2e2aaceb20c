(* The five extension-defined data structures of §5.2 (Fig. 5, Table 3),
   written in eclang and offloaded with KFlex. Each structure exposes
   update/lookup/delete functions plus a dispatching [prog] entry; Table 3
   additionally compiles one program per operation to count its guards. *)

type kind = Hashmap | Linked_list | Rbtree | Skiplist | Countmin | Countsketch

let all = [ Hashmap; Linked_list; Rbtree; Skiplist; Countmin; Countsketch ]

let name = function
  | Hashmap -> "hashmap"
  | Linked_list -> "linked_list"
  | Rbtree -> "rbtree"
  | Skiplist -> "skiplist"
  | Countmin -> "countmin"
  | Countsketch -> "countsketch"

(* ---------------------------------------------------------------------- *)

let hashmap_body = {|
struct node { key: u64; value: u64; next: ptr<node>; }
global buckets: [ptr<node>; 1024];

fn hash(k: u64) -> u64 {
  var h: u64 = k * 0x9E3779B97F4A7C15;
  h = h ^ (h >> 29);
  h = h * 0xBF58476D1CE4E5B9;
  h = h ^ (h >> 32);
  return h & 1023;
}

fn update(k: u64, v: u64) -> u64 {
  var b: u64 = hash(k);
  var n: ptr<node> = buckets[b];
  while (n != null) {
    if (n.key == k) { n.value = v; return 1; }
    n = n.next;
  }
  var m: ptr<node> = new node;
  if (m == null) { return 0; }
  m.key = k;
  m.value = v;
  m.next = buckets[b];
  buckets[b] = m;
  return 1;
}

fn lookup(k: u64) -> u64 {
  var n: ptr<node> = buckets[hash(k)];
  while (n != null) {
    if (n.key == k) { return n.value; }
    n = n.next;
  }
  return 0;
}

fn remove(k: u64) -> u64 {
  var b: u64 = hash(k);
  var n: ptr<node> = buckets[b];
  var prev: ptr<node> = null;
  while (n != null) {
    if (n.key == k) {
      if (prev == null) { buckets[b] = n.next; }
      else { prev.next = n.next; }
      free n;
      return 1;
    }
    prev = n;
    n = n.next;
  }
  return 0;
}
|}

let linked_list_body = {|
struct node { key: u64; value: u64; next: ptr<node>; prev: ptr<node>; }
global head: ptr<node>;

// constant-time: push at head (the paper notes list update is O(1))
fn update(k: u64, v: u64) -> u64 {
  var m: ptr<node> = new node;
  if (m == null) { return 0; }
  m.key = k;
  m.value = v;
  m.prev = null;
  m.next = head;
  if (head != null) { head.prev = m; }
  head = m;
  return 1;
}

fn lookup(k: u64) -> u64 {
  var n: ptr<node> = head;
  while (n != null) {
    if (n.key == k) { return n.value; }
    n = n.next;
  }
  return 0;
}

fn remove(k: u64) -> u64 {
  var n: ptr<node> = head;
  while (n != null) {
    if (n.key == k) {
      if (n.prev != null) { n.prev.next = n.next; }
      else { head = n.next; }
      if (n.next != null) { n.next.prev = n.prev; }
      free n;
      return 1;
    }
    n = n.next;
  }
  return 0;
}
|}

let rbtree_body = {|
// Iterative red-black tree with parent pointers (no sentinel; null = leaf).
struct node {
  key: u64; value: u64;
  left: ptr<node>; right: ptr<node>; parent: ptr<node>;
  red: u64;
}
global root: ptr<node>;

fn rotate_left(x: ptr<node>) -> u64 {
  var y: ptr<node> = x.right;
  x.right = y.left;
  if (y.left != null) { y.left.parent = x; }
  y.parent = x.parent;
  if (x.parent == null) { root = y; }
  else {
    if (x == x.parent.left) { x.parent.left = y; }
    else { x.parent.right = y; }
  }
  y.left = x;
  x.parent = y;
  return 0;
}

fn rotate_right(x: ptr<node>) -> u64 {
  var y: ptr<node> = x.left;
  x.left = y.right;
  if (y.right != null) { y.right.parent = x; }
  y.parent = x.parent;
  if (x.parent == null) { root = y; }
  else {
    if (x == x.parent.right) { x.parent.right = y; }
    else { x.parent.left = y; }
  }
  y.right = x;
  x.parent = y;
  return 0;
}

fn insert_fixup(zz: ptr<node>) -> u64 {
  var z: ptr<node> = zz;
  while (z.parent != null && z.parent.red == 1) {
    var p: ptr<node> = z.parent;
    var g: ptr<node> = p.parent;
    if (p == g.left) {
      var u: ptr<node> = g.right;
      if (u != null && u.red == 1) {
        p.red = 0; u.red = 0; g.red = 1; z = g;
      } else {
        if (z == p.right) { z = p; rotate_left(z); p = z.parent; g = p.parent; }
        p.red = 0; g.red = 1; rotate_right(g);
      }
    } else {
      var u2: ptr<node> = g.left;
      if (u2 != null && u2.red == 1) {
        p.red = 0; u2.red = 0; g.red = 1; z = g;
      } else {
        if (z == p.left) { z = p; rotate_right(z); p = z.parent; g = p.parent; }
        p.red = 0; g.red = 1; rotate_left(g);
      }
    }
  }
  root.red = 0;
  return 0;
}

fn update(k: u64, v: u64) -> u64 {
  var y: ptr<node> = null;
  var x: ptr<node> = root;
  while (x != null) {
    y = x;
    if (k == x.key) { x.value = v; return 1; }
    if (k < x.key) { x = x.left; } else { x = x.right; }
  }
  var z: ptr<node> = new node;
  if (z == null) { return 0; }
  z.key = k; z.value = v; z.red = 1;
  z.left = null; z.right = null; z.parent = y;
  if (y == null) { root = z; }
  else {
    if (k < y.key) { y.left = z; } else { y.right = z; }
  }
  insert_fixup(z);
  return 1;
}

fn lookup(k: u64) -> u64 {
  var x: ptr<node> = root;
  while (x != null) {
    if (k == x.key) { return x.value; }
    if (k < x.key) { x = x.left; } else { x = x.right; }
  }
  return 0;
}

// replace subtree u (child of up) by v
fn transplant(u: ptr<node>, v: ptr<node>) -> u64 {
  if (u.parent == null) { root = v; }
  else {
    if (u == u.parent.left) { u.parent.left = v; }
    else { u.parent.right = v; }
  }
  if (v != null) { v.parent = u.parent; }
  return 0;
}

// delete fixup tracking (x, xp) since x may be null
fn delete_fixup(xx: u64, xpp: u64) -> u64 {
  var x: ptr<node> = xx;
  var xp: ptr<node> = xpp;
  while (xp != null && (x == null || x.red == 0)) {
    if (x == xp.left) {
      var w: ptr<node> = xp.right;
      if (w.red == 1) {
        w.red = 0; xp.red = 1; rotate_left(xp); w = xp.right;
      }
      if ((w.left == null || w.left.red == 0) && (w.right == null || w.right.red == 0)) {
        w.red = 1; x = xp; xp = x.parent;
      } else {
        if (w.right == null || w.right.red == 0) {
          if (w.left != null) { w.left.red = 0; }
          w.red = 1; rotate_right(w); w = xp.right;
        }
        w.red = xp.red;
        xp.red = 0;
        if (w.right != null) { w.right.red = 0; }
        rotate_left(xp);
        x = root; xp = null;
      }
    } else {
      var w2: ptr<node> = xp.left;
      if (w2.red == 1) {
        w2.red = 0; xp.red = 1; rotate_right(xp); w2 = xp.left;
      }
      if ((w2.left == null || w2.left.red == 0) && (w2.right == null || w2.right.red == 0)) {
        w2.red = 1; x = xp; xp = x.parent;
      } else {
        if (w2.left == null || w2.left.red == 0) {
          if (w2.right != null) { w2.right.red = 0; }
          w2.red = 1; rotate_left(w2); w2 = xp.left;
        }
        w2.red = xp.red;
        xp.red = 0;
        if (w2.left != null) { w2.left.red = 0; }
        rotate_right(xp);
        x = root; xp = null;
      }
    }
  }
  if (x != null) { x.red = 0; }
  return 0;
}

fn tree_min(zz: ptr<node>) -> u64 {
  var z: ptr<node> = zz;
  while (z.left != null) { z = z.left; }
  return z;
}

fn remove(k: u64) -> u64 {
  var z: ptr<node> = root;
  while (z != null && z.key != k) {
    if (k < z.key) { z = z.left; } else { z = z.right; }
  }
  if (z == null) { return 0; }
  var y: ptr<node> = z;
  var ored: u64 = y.red;
  var x: ptr<node> = null;
  var xp: ptr<node> = null;
  if (z.left == null) {
    x = z.right; xp = z.parent;
    transplant(z, z.right);
  } else {
    if (z.right == null) {
      x = z.left; xp = z.parent;
      transplant(z, z.left);
    } else {
      y = tree_min(z.right);
      ored = y.red;
      x = y.right;
      if (y.parent == z) { xp = y; }
      else {
        xp = y.parent;
        transplant(y, y.right);
        y.right = z.right;
        y.right.parent = y;
      }
      transplant(z, y);
      y.left = z.left;
      y.left.parent = y;
      y.red = z.red;
    }
  }
  free z;
  if (ored == 0) { delete_fixup(x, xp); }
  return 1;
}
|}

let skiplist_body = {|
struct node { key: u64; value: u64; level: u64; fwd: [ptr<node>; 16]; }
global shead: ptr<node>;
global slevel: u64;
global upd: [u64; 16];   // per-level predecessors (single-threaded scratch)

fn init() -> u64 {
  if (shead == null) {
    shead = new node;
    shead.level = 16;
    slevel = 1;
  }
  return 0;
}

fn randlevel() -> u64 {
  var l: u64 = 1;
  while (l < 16 && (bpf_get_prandom_u32() & 1) == 1) { l = l + 1; }
  return l;
}

fn lookup(k: u64) -> u64 {
  init();
  var x: ptr<node> = shead;
  var i: u64 = slevel;
  while (i > 0) {
    var nx: ptr<node> = x.fwd[i - 1];
    while (nx != null && nx.key < k) { x = nx; nx = x.fwd[i - 1]; }
    i = i - 1;
  }
  var c: ptr<node> = x.fwd[0];
  if (c != null && c.key == k) { return c.value; }
  return 0;
}

fn update(k: u64, v: u64) -> u64 {
  init();
  var x: ptr<node> = shead;
  var i: u64 = slevel;
  while (i > 0) {
    var nx: ptr<node> = x.fwd[i - 1];
    while (nx != null && nx.key < k) { x = nx; nx = x.fwd[i - 1]; }
    upd[i - 1] = x;
    i = i - 1;
  }
  var c: ptr<node> = x.fwd[0];
  if (c != null && c.key == k) { c.value = v; return 1; }
  var lvl: u64 = randlevel();
  if (lvl > slevel) {
    i = slevel;
    while (i < lvl) { upd[i] = shead; i = i + 1; }
    slevel = lvl;
  }
  var n: ptr<node> = new node;
  if (n == null) { return 0; }
  n.key = k; n.value = v; n.level = lvl;
  i = 0;
  while (i < lvl) {
    var p: ptr<node> = upd[i];
    n.fwd[i] = p.fwd[i];
    p.fwd[i] = n;
    i = i + 1;
  }
  return 1;
}

fn remove(k: u64) -> u64 {
  init();
  var x: ptr<node> = shead;
  var i: u64 = slevel;
  while (i > 0) {
    var nx: ptr<node> = x.fwd[i - 1];
    while (nx != null && nx.key < k) { x = nx; nx = x.fwd[i - 1]; }
    upd[i - 1] = x;
    i = i - 1;
  }
  var c: ptr<node> = x.fwd[0];
  if (c == null || c.key != k) { return 0; }
  i = 0;
  while (i < c.level) {
    var p: ptr<node> = upd[i];
    if (p.fwd[i] == c) { p.fwd[i] = c.fwd[i]; }
    i = i + 1;
  }
  while (slevel > 1 && shead.fwd[slevel - 1] == null) { slevel = slevel - 1; }
  free c;
  return 1;
}
|}

let countmin_body = {|
// Count-min sketch: 4 rows x 2048 counters.
global cm: [u64; 8192];

fn rowhash(k: u64, r: u64) -> u64 {
  var h: u64 = (k + (r + 1) * 1442695040888963407) * 6364136223846793005;
  h = h ^ (h >> 33);
  h = h * 0xFF51AFD7ED558CCD;
  h = h ^ (h >> 29);
  return (r * 2048) + (h & 2047);
}

fn update(k: u64, v: u64) -> u64 {
  var r: u64 = 0;
  while (r < 4) {
    var idx: u64 = rowhash(k, r);
    cm[idx] = cm[idx] + v;
    r = r + 1;
  }
  return 1;
}

fn lookup(k: u64) -> u64 {
  var best: u64 = 0xFFFFFFFFFFFFFFFF;
  var r: u64 = 0;
  while (r < 4) {
    var e: u64 = cm[rowhash(k, r)];
    if (e < best) { best = e; }
    r = r + 1;
  }
  return best;
}

fn remove(k: u64) -> u64 {
  return 0; // sketches do not support deletion
}
|}

let countsketch_body = {|
// Count sketch: 4 rows x 2048 signed counters, sign hash per row.
global cs: [u64; 8192];

fn rowhash(k: u64, r: u64) -> u64 {
  var h: u64 = (k + (r + 1) * 0x9E3779B97F4A7C15) * 0xC2B2AE3D27D4EB4F;
  h = h ^ (h >> 31);
  return h;
}

fn update(k: u64, v: u64) -> u64 {
  var r: u64 = 0;
  while (r < 4) {
    var h: u64 = rowhash(k, r);
    var idx: u64 = (r * 2048) + (h & 2047);
    if (((h >> 13) & 1) == 1) { cs[idx] = cs[idx] + v; }
    else { cs[idx] = cs[idx] - v; }
    r = r + 1;
  }
  return 1;
}

// median of 4 signed estimates = (sum - min - max) / 2
fn lookup(k: u64) -> u64 {
  var sum: u64 = 0;
  var mn: u64 = 0x7FFFFFFFFFFFFFFF;
  var mx: u64 = 0x8000000000000000;
  var r: u64 = 0;
  while (r < 4) {
    var h: u64 = rowhash(k, r);
    var idx: u64 = (r * 2048) + (h & 2047);
    var e: u64 = cs[idx];
    if (((h >> 13) & 1) == 0) { e = 0 - e; }
    sum = sum + e;
    if (slt(e, mn) == 1) { mn = e; }
    if (sgt(e, mx) == 1) { mx = e; }
    r = r + 1;
  }
  return (sum - mn - mx) / 2;
}

fn remove(k: u64) -> u64 {
  return 0; // sketches do not support deletion
}
|}

let body = function
  | Hashmap -> hashmap_body
  | Linked_list -> linked_list_body
  | Rbtree -> rbtree_body
  | Skiplist -> skiplist_body
  | Countmin -> countmin_body
  | Countsketch -> countsketch_body

(* Driver protocol: payload u8 op @0 (0 update / 1 lookup / 2 delete),
   u64 key @1, u64 value @9. *)
let dispatch_entry = {|
fn prog(c: ctx) -> u64 {
  var op: u64 = pkt_read_u8(c, 0);
  var key: u64 = pkt_read_u64(c, 1);
  var val: u64 = pkt_read_u64(c, 9);
  if (op == 0) { return update(key, val); }
  if (op == 1) { return lookup(key); }
  return remove(key);
}
|}

let single_entry op =
  match op with
  | `Update -> {|
fn prog(c: ctx) -> u64 {
  return update(pkt_read_u64(c, 1), pkt_read_u64(c, 9));
}
|}
  | `Lookup -> {|
fn prog(c: ctx) -> u64 {
  return lookup(pkt_read_u64(c, 1));
}
|}
  | `Delete -> {|
fn prog(c: ctx) -> u64 {
  return remove(pkt_read_u64(c, 1));
}
|}

(* Chain-friendly entry: perform the dispatched operation but always
   return XDP_PASS (2), so several structures attached to one hook each see
   every event (the engine stops a chain at the first non-pass verdict). *)
let chain_entry = {|
fn prog(c: ctx) -> u64 {
  var op: u64 = pkt_read_u8(c, 0);
  var key: u64 = pkt_read_u64(c, 1);
  var val: u64 = pkt_read_u64(c, 9);
  var r: u64 = 0;
  if (op == 0) { r = update(key, val); }
  if (op == 1) { r = lookup(key); }
  if (op == 2) { r = remove(key); }
  return 2;
}
|}

let source kind = body kind ^ dispatch_entry
let op_source kind op = body kind ^ single_entry op
let chain_source kind = body kind ^ chain_entry

(* ---------------------------------------------------------------------- *)

type mode = M_kflex | M_perf | M_kmod | M_noelide

type instance = {
  kind : kind;
  compiled : Kflex_eclang.Compile.compiled;
  loaded : Kflex.loaded;
  heap : Kflex_runtime.Heap.t;
}

let options_of_mode = function
  | M_kflex -> Kflex_kie.Instrument.default_options
  | M_perf ->
      { Kflex_kie.Instrument.default_options with
        Kflex_kie.Instrument.performance_mode = true }
  | M_kmod ->
      { Kflex_kie.Instrument.default_options with
        Kflex_kie.Instrument.kmod_baseline = true }
  | M_noelide ->
      { Kflex_kie.Instrument.default_options with
        Kflex_kie.Instrument.no_elision = true }

let create ?(mode = M_kflex) ?(heap_bits = 24) kind =
  Kflex_runtime.Vm.seed_prandom 0x9E3779B97F4A7C15L;
  let compiled = Kflex_eclang.Compile.compile_string ~name:(name kind) (source kind) in
  let kernel = Kflex_kernel.Helpers.create () in
  let heap =
    Kflex_runtime.Heap.create ~size:(Int64.shift_left 1L heap_bits) ()
  in
  match
    Kflex.load ~options:(options_of_mode mode) ~kernel ~heap
      ~globals_size:compiled.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size
      ~hook:Kflex_kernel.Hook.Xdp compiled.Kflex_eclang.Compile.prog
  with
  | Ok loaded -> { kind; compiled; loaded; heap }
  | Error e ->
      Format.kasprintf failwith "datastruct %s rejected: %a" (name kind)
        Kflex_verifier.Verify.pp_error e

let op_packet ~op ~key ~value =
  let b = Bytes.make 17 '\000' in
  Bytes.set b 0 (Char.chr op);
  Bytes.set_int64_le b 1 key;
  Bytes.set_int64_le b 9 value;
  Kflex_kernel.Packet.make ~proto:Kflex_kernel.Packet.Udp ~src_port:1
    ~dst_port:9 b

let exec_op t ~op ~key ~value =
  let stats = Kflex_runtime.Vm.fresh_stats () in
  match Kflex.run_packet t.loaded ~stats (op_packet ~op ~key ~value) with
  | Kflex_runtime.Vm.Finished v -> (v, Kflex_runtime.Vm.total_cost stats)
  | Kflex_runtime.Vm.Cancelled _ ->
      Format.kasprintf failwith "datastruct %s op cancelled" (name t.kind)

let update t ~key ~value = exec_op t ~op:0 ~key ~value
let lookup t ~key = exec_op t ~op:1 ~key ~value:0L
let delete t ~key = exec_op t ~op:2 ~key ~value:0L
let loaded t = t.loaded
let kind t = t.kind
