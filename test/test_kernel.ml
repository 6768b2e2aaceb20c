(* Kernel substrate tests: packets, sockets, maps, hooks, cost model. *)
open Kflex_kernel

let t_packet_rw () =
  let p = Packet.make ~proto:Packet.Udp ~src_port:1 ~dst_port:2 (Bytes.make 16 '\000') in
  Packet.write p ~width:4 4 0xAABBCCDDL;
  Alcotest.(check int64) "read back" 0xAABBCCDDL (Packet.read p ~width:4 4);
  Alcotest.(check int64) "low byte" 0xDDL (Packet.read p ~width:1 4);
  Alcotest.(check int) "len" 16 (Packet.len p)

let t_packet_bounds () =
  let p = Packet.make ~proto:Packet.Tcp ~src_port:1 ~dst_port:2 (Bytes.make 8 '\255') in
  Alcotest.(check int64) "past end" 0L (Packet.read p ~width:8 4);
  Alcotest.(check int64) "negative" 0L (Packet.read p ~width:1 (-1));
  Packet.write p ~width:8 4 1L (* must be a no-op *);
  Alcotest.(check int64) "unchanged" 0xFFFFFFFFL (Packet.read p ~width:4 4)

let t_sockets () =
  let s = Socket.create () in
  Socket.listen s ~proto:Packet.Udp ~port:53;
  Alcotest.(check bool) "no tcp:53" true (Socket.lookup s ~proto:Packet.Tcp ~port:53 = None);
  let h1 = Option.get (Socket.lookup s ~proto:Packet.Udp ~port:53) in
  let h2 = Option.get (Socket.lookup s ~proto:Packet.Udp ~port:53) in
  Alcotest.(check int64) "same handle" h1 h2;
  Alcotest.(check (option int)) "two refs" (Some 2) (Socket.refcount s ~proto:Packet.Udp ~port:53);
  Alcotest.(check bool) "release" true (Socket.release s h1);
  Alcotest.(check int) "total" 1 (Socket.total_refs s);
  Alcotest.(check bool) "release" true (Socket.release s h1);
  Alcotest.(check bool) "over-release" false (Socket.release s h1);
  Socket.close s ~proto:Packet.Udp ~port:53;
  Alcotest.(check bool) "closed" true (Socket.lookup s ~proto:Packet.Udp ~port:53 = None)

let t_maps () =
  let m = Map.create ~max_entries:2 () in
  Alcotest.(check bool) "upd1" true (Map.update m 1L 10L);
  Alcotest.(check bool) "upd2" true (Map.update m 2L 20L);
  Alcotest.(check bool) "full" false (Map.update m 3L 30L);
  Alcotest.(check bool) "replace ok" true (Map.update m 1L 11L);
  Alcotest.(check (option int64)) "get" (Some 11L) (Map.lookup m 1L);
  Alcotest.(check bool) "del" true (Map.delete m 1L);
  Alcotest.(check bool) "del again" false (Map.delete m 1L);
  Alcotest.(check int) "entries" 1 (Map.entries m);
  (* registry *)
  let r = Map.registry () in
  let fd = Map.register r m in
  Alcotest.(check bool) "found" true (Map.find r fd <> None);
  Alcotest.(check bool) "unknown fd" true (Map.find r 999L = None)

let t_hook_ctx () =
  let p = Packet.make ~proto:Packet.Tcp ~src_port:1234 ~dst_port:80 (Bytes.make 100 '\000') in
  let ctx = Hook.build_ctx p in
  Alcotest.(check int) "size" Hook.ctx_size (Bytes.length ctx);
  Alcotest.(check int32) "len" 100l (Bytes.get_int32_le ctx 0);
  Alcotest.(check int32) "proto" 1l (Bytes.get_int32_le ctx 4);
  Alcotest.(check int) "sport" 1234 (Bytes.get_uint16_le ctx 8);
  Alcotest.(check int) "dport" 80 (Bytes.get_uint16_le ctx 10)

let t_hook_defaults () =
  Alcotest.(check int64) "xdp passes" Hook.xdp_pass (Hook.default_ret Hook.Xdp);
  Alcotest.(check int64) "skb passes" 0L (Hook.default_ret Hook.Sk_skb);
  Alcotest.(check int64) "lsm denies" (-1L) (Hook.default_ret Hook.Lsm);
  Alcotest.(check bool) "lsm sleepable" true (Hook.sleepable Hook.Lsm);
  Alcotest.(check bool) "xdp not" false (Hook.sleepable Hook.Xdp)

let t_cost_ordering () =
  (* the structural claim behind every end-to-end figure *)
  let compute_ns = 1000. in
  let xdp = Cost.xdp_service_ns ~compute_ns ~reply:true in
  let skb = Cost.skb_service_ns ~proto_tcp:true ~compute_ns in
  let usr_udp = Cost.user_service_ns ~proto_tcp:false ~compute_ns in
  let usr_tcp = Cost.user_service_ns ~proto_tcp:true ~compute_ns in
  Alcotest.(check bool) "xdp < skb" true (xdp < skb);
  Alcotest.(check bool) "skb < user" true (skb < usr_tcp);
  Alcotest.(check bool) "udp user < tcp user" true (usr_udp < usr_tcp);
  Alcotest.(check bool) "compute monotone" true
    (Cost.xdp_service_ns ~compute_ns:2000. ~reply:true > xdp)

(* Regression (found by the differential fuzzer): [off + width] in the
   packet bounds check overflowed for offsets near [max_int], turning a wild
   read into a Bytes exception; and 64-bit helper offsets were truncated
   before checking. *)
let t_packet_offset_overflow () =
  let p = Packet.make ~proto:Packet.Udp ~src_port:1 ~dst_port:2 (Bytes.make 8 '\042') in
  Alcotest.(check int64) "max_int read" 0L (Packet.read p ~width:8 max_int);
  Alcotest.(check int64) "near-max read" 0L (Packet.read p ~width:2 (max_int - 4));
  Packet.write p ~width:8 max_int 7L;
  Packet.write p ~width:4 (max_int - 2) 7L;
  Alcotest.(check int64) "unchanged" 0x2a2a2a2a2a2a2a2aL (Packet.read p ~width:8 0)

(* The cost model's structural claims, on a grid: every layered deployment
   is monotone in compute, and adding a layer never makes a request
   cheaper. These orderings are what every end-to-end figure rests on. *)
let t_cost_monotone_grid () =
  let computes = [ 0.; 100.; 500.; 1_000.; 2_000.; 4_000.; 10_000. ] in
  let check_mono name f =
    ignore
      (List.fold_left
         (fun prev c ->
           let v = f c in
           Alcotest.(check bool)
             (Printf.sprintf "%s monotone at %g" name c)
             true (v >= prev);
           v)
         neg_infinity computes)
  in
  check_mono "xdp reply" (fun c -> Cost.xdp_service_ns ~compute_ns:c ~reply:true);
  check_mono "xdp drop" (fun c -> Cost.xdp_service_ns ~compute_ns:c ~reply:false);
  check_mono "skb udp" (fun c -> Cost.skb_service_ns ~proto_tcp:false ~compute_ns:c);
  check_mono "skb tcp" (fun c -> Cost.skb_service_ns ~proto_tcp:true ~compute_ns:c);
  check_mono "user udp" (fun c -> Cost.user_service_ns ~proto_tcp:false ~compute_ns:c);
  check_mono "user tcp" (fun c -> Cost.user_service_ns ~proto_tcp:true ~compute_ns:c);
  List.iter
    (fun c ->
      let xdp = Cost.xdp_service_ns ~compute_ns:c ~reply:false in
      let skb_u = Cost.skb_service_ns ~proto_tcp:false ~compute_ns:c in
      let skb_t = Cost.skb_service_ns ~proto_tcp:true ~compute_ns:c in
      let usr_u = Cost.user_service_ns ~proto_tcp:false ~compute_ns:c in
      let usr_t = Cost.user_service_ns ~proto_tcp:true ~compute_ns:c in
      Alcotest.(check bool) "xdp <= skb (udp)" true (xdp <= skb_u);
      Alcotest.(check bool) "skb <= user (udp)" true (skb_u <= usr_u);
      Alcotest.(check bool) "skb <= user (tcp)" true (skb_t <= usr_t);
      Alcotest.(check bool) "udp <= tcp at skb" true (skb_u <= skb_t);
      Alcotest.(check bool) "udp <= tcp at user" true (usr_u <= usr_t);
      Alcotest.(check bool) "reply costs" true
        (Cost.xdp_service_ns ~compute_ns:c ~reply:true >= xdp))
    computes;
  (* the layer gaps match their published building blocks *)
  let gap =
    Cost.user_service_ns ~proto_tcp:false ~compute_ns:0.
    -. Cost.skb_service_ns ~proto_tcp:false ~compute_ns:0.
  in
  Alcotest.(check bool) "user gap is the boundary cost" true
    (gap >= Cost.syscall_ns);
  Alcotest.(check bool) "sane constants" true
    (Cost.insn_ns > 0. && Cost.native_speedup >= 1.
    && Cost.nic_to_xdp_ns > 0. && Cost.udp_stack_ns < Cost.tcp_stack_ns)

(* Compute units -> ns conversion is linear in the measured cost. *)
let t_cost_insn_linear () =
  let base = Cost.xdp_service_ns ~compute_ns:0. ~reply:true in
  List.iter
    (fun units ->
      let c = float_of_int units *. Cost.insn_ns in
      let v = Cost.xdp_service_ns ~compute_ns:c ~reply:true in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "%d units" units)
        (base +. c) v)
    [ 1; 10; 1_000; 250_000 ]

(* --- map kinds ---------------------------------------------------------- *)

let t_map_array () =
  let m = Map.create ~kind:Map.Array ~max_entries:4 () in
  Alcotest.(check bool) "in range" true (Map.update m 3L 30L);
  Alcotest.(check bool) "out of range" false (Map.update m 4L 40L);
  Alcotest.(check bool) "negative" false (Map.update m (-1L) 1L);
  Alcotest.(check (option int64)) "get" (Some 30L) (Map.lookup m 3L);
  Alcotest.(check bool) "no delete" false (Map.delete m 3L);
  Alcotest.(check (option int64)) "still there" (Some 30L) (Map.lookup m 3L);
  (* default-zero slots are elided from the dump *)
  Alcotest.(check bool) "dump elides zeros" true
    (Map.to_list m = [ (3L, 30L) ])

let t_map_percpu () =
  let m = Map.create ~kind:Map.Percpu ~cpus:4 ~max_entries:8 () in
  Alcotest.(check int) "cpus" 4 (Map.cpus m);
  (* each bank is independent... *)
  Alcotest.(check bool) "bank 0" true (Map.update ~cpu:0 m 7L 10L);
  Alcotest.(check bool) "bank 2" true (Map.update ~cpu:2 m 7L 32L);
  Alcotest.(check (option int64)) "bank 0 read" (Some 10L)
    (Map.lookup ~cpu:0 m 7L);
  Alcotest.(check (option int64)) "bank 1 miss" None (Map.lookup ~cpu:1 m 7L);
  (* ...and merged sums across banks *)
  Alcotest.(check (option int64)) "merged sum" (Some 42L) (Map.merged m 7L);
  Alcotest.(check (option int64)) "merged miss" None (Map.merged m 8L);
  Alcotest.(check bool) "dump is merged" true (Map.to_list m = [ (7L, 42L) ]);
  Alcotest.(check bool) "bank delete" true (Map.delete ~cpu:2 m 7L);
  Alcotest.(check (option int64)) "merged after delete" (Some 10L)
    (Map.merged m 7L)

let t_map_spinlock () =
  let m = Map.create ~kind:Map.Spinlock ~max_entries:2 () in
  (* unlocked access never touches the value *)
  Alcotest.(check bool) "update without lock" false (Map.update ~cpu:0 m 1L 5L);
  (match Map.try_lock ~cpu:0 m 1L with
  | Map.Acquired id ->
      Alcotest.(check bool) "held" true (Map.lock_held m 1L);
      (* self-deadlock: bounded spin reports contention, not a hang *)
      Alcotest.(check bool) "re-lock contends" true
        (Map.try_lock ~cpu:0 m 1L = Map.Contended);
      (* a non-holder cannot see or touch the slot *)
      Alcotest.(check (option int64)) "non-holder miss" None
        (Map.lookup ~cpu:1 m 1L);
      Alcotest.(check bool) "non-holder update" false
        (Map.update ~cpu:1 m 1L 9L);
      Alcotest.(check bool) "non-holder unlock" false (Map.unlock_id ~cpu:1 m id);
      (* the holder operates normally *)
      Alcotest.(check bool) "holder update" true (Map.update ~cpu:0 m 1L 5L);
      Alcotest.(check (option int64)) "holder read" (Some 5L)
        (Map.lookup ~cpu:0 m 1L);
      Alcotest.(check bool) "unlock" true (Map.unlock_id ~cpu:0 m id);
      Alcotest.(check bool) "released" false (Map.lock_held m 1L);
      Alcotest.(check bool) "double unlock" false (Map.unlock_id ~cpu:0 m id)
  | _ -> Alcotest.fail "first try_lock must acquire");
  (* lock+delete: the removed slot's unlock is tolerated *)
  (match Map.try_lock ~cpu:0 m 1L with
  | Map.Acquired id ->
      Alcotest.(check bool) "locked delete" true (Map.delete ~cpu:0 m 1L);
      Alcotest.(check bool) "unlock dead slot" true (Map.unlock_id ~cpu:0 m id)
  | _ -> Alcotest.fail "re-acquire must succeed");
  (* capacity: a full map cannot create a new slot to lock *)
  ignore (Map.try_lock ~cpu:0 m 10L);
  ignore (Map.try_lock ~cpu:1 m 11L);
  Alcotest.(check bool) "full map" true
    (Map.try_lock ~cpu:2 m 12L = Map.Unavailable);
  (* non-Spinlock maps refuse the protocol *)
  let h = Map.create ~kind:Map.Hash ~max_entries:2 () in
  Alcotest.(check bool) "hash refuses" true
    (Map.try_lock ~cpu:0 h 1L = Map.Unavailable)

let t_map_rcu () =
  let m = Map.create ~kind:Map.Rcu_shared ~cpus:2 ~max_entries:8 () in
  let stats () = Option.get (Map.rcu_stats m) in
  Alcotest.(check int) "v0" 0 (stats ()).Map.version;
  Alcotest.(check bool) "publish 1" true (Map.update m 1L 10L);
  Alcotest.(check bool) "publish 2" true (Map.update m 2L 20L);
  let s = stats () in
  Alcotest.(check int) "two versions" 2 s.Map.version;
  Alcotest.(check bool) "retired pending" true (s.Map.retired > 0);
  (* readers are wait-free on the snapshot, any cpu *)
  Alcotest.(check (option int64)) "read cpu0" (Some 10L) (Map.lookup ~cpu:0 m 1L);
  Alcotest.(check (option int64)) "read cpu1" (Some 20L) (Map.lookup ~cpu:1 m 2L);
  (* one cpu quiescing is not a grace period with cpus:2 ... *)
  Map.rcu_quiesce m ~cpu:0;
  (* ... but a full synchronize reclaims everything retired *)
  Map.rcu_synchronize m;
  let s = stats () in
  Alcotest.(check int) "drained" 0 s.Map.retired;
  Alcotest.(check bool) "reclaimed" true (s.Map.reclaimed > 0);
  (* per-cpu quiescence from every cpu also completes a grace period *)
  Alcotest.(check bool) "delete publishes" true (Map.delete m 2L);
  Alcotest.(check bool) "retired again" true ((stats ()).Map.retired > 0);
  Map.rcu_quiesce m ~cpu:0;
  Map.rcu_quiesce m ~cpu:1;
  Alcotest.(check int) "quiesced drain" 0 (stats ()).Map.retired;
  Alcotest.(check bool) "contents survive" true (Map.to_list m = [ (1L, 10L) ]);
  (* non-RCU maps have no stats and quiescence is a no-op *)
  let h = Map.create ~max_entries:2 () in
  Alcotest.(check bool) "hash no stats" true (Map.rcu_stats h = None);
  Map.rcu_quiesce h ~cpu:0;
  Map.rcu_synchronize h

(* --- the Rcu_shared trie and the Spinlock slot array --------------------- *)

(* The trie branches on [k * mix_c] ({!Map.rcu_depth}), a bijection whose
   inverse is multiplication by [mix_c]'s inverse mod 2^64 (each Newton
   step doubles the correct low bits). Keys whose mixed words differ only
   in their low 4 bits share the trie path down to its last level. *)
let mix_c = 0x9E3779B97F4A7C15L

let mix_inv =
  let x = ref mix_c in
  for _ = 1 to 6 do
    x := Int64.mul !x (Int64.sub 2L (Int64.mul mix_c !x))
  done;
  !x

(* The 16 keys whose mixed words agree with [k]'s above the low [bits]. *)
let path_siblings ?(bits = 4) k =
  let h = Int64.mul k mix_c in
  let top = Int64.logand h (Int64.shift_left (-1L) bits) in
  List.init 16 (fun j ->
      Int64.mul
        (Int64.logor top
           (Int64.shift_left (Int64.of_int j) (bits - 4)))
        mix_inv)

let t_map_rcu_trie_paths () =
  Alcotest.(check int64) "mix inverse" 1L (Int64.mul mix_c mix_inv);
  let m = Map.create ~kind:Map.Rcu_shared ~max_entries:64 () in
  let deep = path_siblings 5L in
  Alcotest.(check bool) "5 among its siblings" true (List.mem 5L deep);
  List.iter (fun k -> ignore (Map.update m k (Int64.neg k) : bool)) deep;
  List.iter
    (fun k ->
      Alcotest.(check int) "down to the last level" 16 (Map.rcu_depth m k);
      Alcotest.(check (option int64)) "full-key hit" (Some (Int64.neg k))
        (Map.lookup m k))
    deep;
  Alcotest.(check bool) "sorted dump" true
    (Map.to_list m
    = List.sort (fun (a, _) (b, _) -> Int64.compare a b)
        (List.map (fun k -> (k, Int64.neg k)) deep));
  (* deleting down to one key collapses the path into the root *)
  List.iter (fun k -> if k <> 5L then ignore (Map.delete m k : bool)) deep;
  Alcotest.(check int) "collapsed" 0 (Map.rcu_depth m 5L);
  Alcotest.(check bool) "survivor" true (Map.to_list m = [ (5L, -5L) ])

module Model = Stdlib.Map.Make (Int64)

(* Random update/delete/lookup/quiesce runs against [Stdlib.Map], over a
   key pool with 16 keys sharing the whole trie path, 16 sharing its top
   half and 16 scattered ones. After every step the stats must count each
   publish, and each quiesce (one cpu) must reclaim everything retired. *)
let prop_rcu_model =
  let pool =
    Array.of_list
      (path_siblings 0x1234L
      @ path_siblings ~bits:32 0x9876L
      @ List.init 16 (fun i -> Int64.mul (Int64.of_int (i + 1)) 0x2545F4914F6CDD1DL))
  in
  QCheck.Test.make ~count:300 ~name:"rcu trie = Stdlib.Map model"
    QCheck.(
      list_of_size (Gen.int_range 1 120)
        (triple (int_bound 4) (int_bound (Array.length pool - 1)) small_nat))
    (fun ops ->
      let m = Map.create ~kind:Map.Rcu_shared ~max_entries:64 () in
      let published = ref 0 and reclaimed = ref 0 in
      let model =
        List.fold_left
          (fun model (op, i, v) ->
            let k = pool.(i) and v = Int64.of_int v in
            let model =
              match op with
              | 0 | 1 ->
                  if not (Map.update m k v) then QCheck.Test.fail_report "update refused";
                  incr published;
                  Model.add k v model
              | 2 ->
                  let present = Model.mem k model in
                  if Map.delete m k <> present then
                    QCheck.Test.fail_report "delete disagrees";
                  if present then incr published;
                  Model.remove k model
              | 3 ->
                  if Map.lookup m k <> Model.find_opt k model then
                    QCheck.Test.fail_report "lookup disagrees";
                  model
              | _ ->
                  Map.rcu_quiesce m ~cpu:0;
                  reclaimed := !published;
                  model
            in
            let st = Option.get (Map.rcu_stats m) in
            if
              st.Map.version <> !published
              || st.Map.retired <> !published - !reclaimed
              || st.Map.reclaimed <> !reclaimed
            then QCheck.Test.fail_report "rcu_stats disagree";
            model)
          Model.empty ops
      in
      Map.to_list m = Model.bindings model
      && Map.entries m = Model.cardinal model
      && Array.for_all
           (fun k -> Map.lookup m k = Model.find_opt k model)
           pool)

(* Lock ids index a slot array that starts small and grows; ids are never
   reused, so a handle that outlived its slot can touch nothing. *)
let t_map_spinlock_slots () =
  let m = Map.create ~kind:Map.Spinlock ~max_entries:64 () in
  let key i = Int64.of_int (1000 * i) in
  let lock k =
    match Map.try_lock ~cpu:0 m k with
    | Map.Acquired id -> id
    | _ -> Alcotest.failf "lock %Ld" k
  in
  let ids = List.init 40 (fun i -> lock (key i)) in
  Alcotest.(check (list int)) "fresh ids in order" (List.init 40 (fun i -> i + 1)) ids;
  List.iteri
    (fun i id ->
      Alcotest.(check bool) "holder update" true (Map.update ~cpu:0 m (key i) (Int64.of_int i));
      Alcotest.(check bool) "unlock" true (Map.unlock_id ~cpu:0 m id))
    ids;
  Alcotest.(check bool) "values survive the growth" true
    (Map.to_list m = List.init 40 (fun i -> (key i, Int64.of_int i)));
  Alcotest.(check bool) "none held" true
    (List.for_all (fun i -> not (Map.lock_held m (key i))) (List.init 40 Fun.id));
  (* delete while held, then unlock: the slot dies with its id *)
  let id = lock (key 3) in
  Alcotest.(check int) "same slot, same id" 4 id;
  Alcotest.(check bool) "locked delete" true (Map.delete ~cpu:0 m (key 3));
  Alcotest.(check bool) "gone from the index" false (Map.lock_held m (key 3));
  Alcotest.(check bool) "unlock dead slot" true (Map.unlock_id ~cpu:0 m id);
  Alcotest.(check bool) "dead id unlocks nothing" false (Map.unlock_id ~cpu:0 m id);
  let id' = lock (key 3) in
  Alcotest.(check int) "a new slot takes a new id" 41 id';
  Alcotest.(check bool) "stale id cannot release it" false
    (Map.unlock_id ~cpu:0 m id);
  Alcotest.(check bool) "still held" true (Map.lock_held m (key 3));
  Alcotest.(check (option int64)) "fresh value" (Some 0L) (Map.lookup ~cpu:0 m (key 3));
  Alcotest.(check bool) "unlock new id" true (Map.unlock_id ~cpu:0 m id');
  Alcotest.(check bool) "ids past the array miss" false (Map.unlock_id ~cpu:0 m 1_000_000);
  Alcotest.(check bool) "id 0 misses" false (Map.unlock_id ~cpu:0 m 0)

(* fds are monotonic and never reused: a stale fd can only ever miss,
   which is what makes cross-registry sharing (engine replace) safe. *)
let t_map_registry_fds () =
  let r = Map.registry () in
  let m1 = Map.create ~max_entries:2 () in
  let m2 = Map.create ~max_entries:2 () in
  let fd1 = Map.register r m1 in
  let fd2 = Map.register r m2 in
  Alcotest.(check int64) "fds start at 3" 3L fd1;
  Alcotest.(check bool) "monotonic" true (fd2 > fd1);
  Alcotest.(check bool) "unregister" true (Map.unregister r fd1);
  Alcotest.(check bool) "stale fd misses" true (Map.find r fd1 = None);
  Alcotest.(check bool) "unregister again" false (Map.unregister r fd1);
  let fd3 = Map.register r (Map.create ~max_entries:2 ()) in
  Alcotest.(check bool) "no reuse after free" true (fd3 > fd2);
  (* one map may be registered in several registries (shared maps) *)
  let r2 = Map.registry () in
  let fd_shared = Map.register r2 m2 in
  Alcotest.(check bool) "shared registration" true
    (Map.find r2 fd_shared == Map.find r fd2
    || (Map.find r2 fd_shared <> None && Map.find r fd2 <> None))

(* Per-kind helper costs: the invariants cost.mli pins. *)
let t_map_cost_monotone () =
  let kinds =
    [ Map.Array; Map.Percpu; Map.Hash; Map.Spinlock; Map.Rcu_shared ]
  in
  List.iter
    (fun k ->
      let c = Cost.map_cost k in
      let name = Map.kind_name k in
      Alcotest.(check bool) (name ^ " miss <= hit") true
        (c.Cost.lookup_miss <= c.Cost.lookup_hit);
      Alcotest.(check bool) (name ^ " hit <= update") true
        (c.Cost.lookup_hit <= c.Cost.update);
      Alcotest.(check bool) (name ^ " delete <= update") true
        (c.Cost.delete <= c.Cost.update);
      Alcotest.(check bool) (name ^ " positive") true (c.Cost.lookup_miss > 0))
    kinds;
  (* cross-kind ordering: Array <= Percpu <= Hash <= Spinlock <= Rcu *)
  ignore
    (List.fold_left
       (fun prev k ->
         let c = Cost.map_cost k in
         (match prev with
         | None -> ()
         | Some (pname, (p : Cost.map_cost)) ->
             Alcotest.(check bool)
               (Printf.sprintf "%s <= %s hit" pname (Map.kind_name k))
               true
               (p.Cost.lookup_hit <= c.Cost.lookup_hit);
             Alcotest.(check bool)
               (Printf.sprintf "%s <= %s miss" pname (Map.kind_name k))
               true
               (p.Cost.lookup_miss <= c.Cost.lookup_miss));
         Some (Map.kind_name k, c))
       None kinds);
  (* the RCU copy+publish+retire update dominates every other kind's *)
  let rcu = Cost.map_cost Map.Rcu_shared in
  List.iter
    (fun k ->
      let c = Cost.map_cost k in
      Alcotest.(check bool)
        (Map.kind_name k ^ " update < rcu update")
        true
        (c.Cost.update <= rcu.Cost.update))
    [ Map.Array; Map.Percpu; Map.Hash; Map.Spinlock ];
  (* lock/unlock/merge constants *)
  Alcotest.(check bool) "lock > unlock" true
    (Cost.map_lock_cost > Cost.map_unlock_cost);
  Alcotest.(check bool) "merge linear in cpus" true
    (Cost.map_merge_cost ~cpus:8 - Cost.map_merge_cost ~cpus:4
    = Cost.map_merge_cost ~cpus:4 - Cost.map_merge_cost ~cpus:0)

(* The packet accessors are VM builtins, not kernel helpers: the packet
   travels with the invocation, so [pkt_len] sees the payload of the packet
   being run and an empty one when the invocation installs none. *)
let t_helpers_pkt () =
  let k = Helpers.create () in
  let impls = Helpers.implementations k in
  Alcotest.(check bool) "sk helpers" true (List.mem_assoc "bpf_sk_lookup_udp" impls);
  Alcotest.(check bool) "map helpers" true (List.mem_assoc "bpf_map_lookup" impls);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " is a VM builtin") true
        (List.mem_assoc n Kflex_runtime.Vm.builtin_helpers
        && not (List.mem_assoc n impls)))
    Kflex_runtime.Vm.native_builtins;
  let c =
    Kflex_eclang.Compile.compile_string ~name:"pkt_len"
      "fn prog(c: ctx) -> u64 { return pkt_len(c); }"
  in
  let loaded =
    match
      Kflex.load ~heap:(Kflex_runtime.Heap.create ~size:65536L ()) ~kernel:k
        ~hook:Hook.Xdp c.Kflex_eclang.Compile.prog
    with
    | Ok l -> l
    | Error e -> Alcotest.failf "rejected: %a" Kflex_verifier.Verify.pp_error e
  in
  let p = Packet.make ~proto:Packet.Udp ~src_port:1 ~dst_port:2 (Bytes.make 4 'x') in
  Alcotest.(check bool) "packet set" true
    (Kflex.run_packet loaded p = Kflex_runtime.Vm.Finished 4L);
  Alcotest.(check bool) "packet cleared" true
    (Kflex_runtime.Vm.exec loaded.Kflex.ext ~ctx:(Hook.build_ctx p) ()
    = Kflex_runtime.Vm.Finished 0L)

(* --- allocation gates ------------------------------------------------------

   Each warmed helper call allocates nothing: a loop runs the call [iters]
   times through the fused Jit, and the minor words of a run at 2N
   minus those at N cancel the per-invocation constant (the facade's
   optional arguments, the fresh context block). Map fd 3 is the map
   under test, holding key 5. *)

let loop_src ~iters body =
  Printf.sprintf
    {|
fn prog(c: ctx) -> u64 {
  var kbuf: bytes[8];
  var vbuf: bytes[8];
  var acc: u64 = 0;
  var h: u64 = 0;
  var i: u64 = 0;
  while (i < %d) {
    %s
    i = i + 1;
  }
  return acc & 1;
}
|}
    iters body

let loop_words ?map body =
  let words iters =
    let c = Kflex_eclang.Compile.compile_string ~name:"gate" (loop_src ~iters body) in
    let kernel = Helpers.create () in
    (match map with
    | Some m -> ignore (Map.register (Helpers.maps kernel) m : int64)
    | None -> ());
    let heap = Kflex_runtime.Heap.create ~size:65536L () in
    let loaded =
      match
        Kflex.load ~heap ~globals_size:c.Kflex_eclang.Compile.layout.Kflex_eclang.Compile.globals_size
          ~quantum:max_int ~kernel ~hook:Hook.Xdp
          c.Kflex_eclang.Compile.prog
      with
      | Ok l -> l
      | Error e -> Alcotest.failf "gate rejected: %a" Kflex_verifier.Verify.pp_error e
    in
    let p = Packet.make ~proto:Packet.Udp ~src_port:1 ~dst_port:2 (Bytes.make 64 '\001') in
    let stats = Kflex_runtime.Vm.fresh_stats () in
    let go () =
      match Kflex.run_packet loaded ~stats p with
      | Kflex_runtime.Vm.Finished _ -> ()
      | Kflex_runtime.Vm.Cancelled _ -> Alcotest.fail "gate loop cancelled"
    in
    go ();
    let w0 = Gc.minor_words () in
    go ();
    Gc.minor_words () -. w0
  in
  words 4000 -. words 2000

let check_no_alloc what ?map body =
  Alcotest.(check (float 0.)) (what ^ ": minor words per call") 0.
    (loop_words ?map body)

let t_packet_helpers_alloc () =
  check_no_alloc "pkt_read"
    "acc = acc + pkt_read_u8(c, i & 7) + pkt_read_u16(c, 2) + pkt_read_u32(c, 4) + pkt_read_u64(c, 8);";
  check_no_alloc "pkt_write"
    "pkt_write_u8(c, 20, i); pkt_write_u16(c, 22, i); pkt_write_u32(c, 24, i); pkt_write_u64(c, 28, i);"

(* Rcu_shared's gate map also holds key 5's 15 trie-path siblings, so a
   lookup of 5 walks all 16 levels. *)
let gate_map kind =
  let m = Map.create ~kind ~cpus:2 ~max_entries:64 () in
  (match kind with
  | Map.Spinlock -> ()
  | Map.Rcu_shared ->
      List.iter (fun k -> ignore (Map.update m k 77L : bool)) (path_siblings 5L)
  | _ -> ignore (Map.update m 5L 77L : bool));
  m

let t_map_helpers_alloc () =
  List.iter
    (fun kind ->
      let name op = Printf.sprintf "%s %s" (Map.kind_name kind) op in
      let under_lock body =
        if kind = Map.Spinlock then
          Printf.sprintf
            "h = bpf_map_lock(3, &kbuf); if (h != 0) { %s bpf_map_unlock(h); }"
            body
        else body
      in
      let hit = "st64(&kbuf, 0, 5); acc = acc + bpf_map_lookup(3, &kbuf, &vbuf);" in
      let miss = "st64(&kbuf, 0, 1000); acc = acc + bpf_map_lookup(3, &kbuf, &vbuf);" in
      let update =
        "st64(&kbuf, 0, 5); st64(&vbuf, 0, i); acc = acc + bpf_map_update(3, &kbuf, &vbuf);"
      in
      check_no_alloc (name "lookup hit") ~map:(gate_map kind) (under_lock hit);
      check_no_alloc (name "lookup miss") ~map:(gate_map kind) miss;
      (* an Rcu_shared update publishes a fresh snapshot version: it
         allocates the new path by design *)
      if kind <> Map.Rcu_shared then
        check_no_alloc (name "update") ~map:(gate_map kind) (under_lock update))
    [ Map.Array; Map.Hash; Map.Percpu; Map.Spinlock; Map.Rcu_shared ];
  check_no_alloc "bpf_map_lock/unlock" ~map:(gate_map Map.Spinlock)
    "st64(&kbuf, 0, 5); h = bpf_map_lock(3, &kbuf); if (h != 0) { bpf_map_unlock(h); }";
  check_no_alloc "spin sequence" ~map:(gate_map Map.Spinlock)
    "st64(&kbuf, 0, 5); h = bpf_map_lock(3, &kbuf); if (h != 0) { acc = acc + \
     bpf_map_lookup(3, &kbuf, &vbuf); st64(&vbuf, 0, i); acc = acc + \
     bpf_map_update(3, &kbuf, &vbuf); bpf_map_unlock(h); }"

let () =
  Alcotest.run "kernel"
    [
      ( "kernel",
        [
          Alcotest.test_case "packet rw" `Quick t_packet_rw;
          Alcotest.test_case "packet bounds" `Quick t_packet_bounds;
          Alcotest.test_case "sockets" `Quick t_sockets;
          Alcotest.test_case "maps" `Quick t_maps;
          Alcotest.test_case "map array kind" `Quick t_map_array;
          Alcotest.test_case "map percpu banks" `Quick t_map_percpu;
          Alcotest.test_case "map spinlock protocol" `Quick t_map_spinlock;
          Alcotest.test_case "map rcu epochs" `Quick t_map_rcu;
          Alcotest.test_case "map rcu trie paths" `Quick t_map_rcu_trie_paths;
          QCheck_alcotest.to_alcotest prop_rcu_model;
          Alcotest.test_case "map spinlock slots" `Quick t_map_spinlock_slots;
          Alcotest.test_case "map registry fds" `Quick t_map_registry_fds;
          Alcotest.test_case "map cost monotone" `Quick t_map_cost_monotone;
          Alcotest.test_case "hook ctx" `Quick t_hook_ctx;
          Alcotest.test_case "hook defaults" `Quick t_hook_defaults;
          Alcotest.test_case "cost ordering" `Quick t_cost_ordering;
          Alcotest.test_case "packet offset overflow" `Quick
            t_packet_offset_overflow;
          Alcotest.test_case "cost monotone grid" `Quick t_cost_monotone_grid;
          Alcotest.test_case "cost linear in insns" `Quick t_cost_insn_linear;
          Alcotest.test_case "helper registry" `Quick t_helpers_pkt;
          Alcotest.test_case "packet helpers allocate nothing" `Quick
            t_packet_helpers_alloc;
          Alcotest.test_case "map helpers allocate nothing" `Quick
            t_map_helpers_alloc;
        ] );
    ]
