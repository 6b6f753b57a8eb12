module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Rng = Hart_util.Rng
module Chunk = Hart_core.Chunk
module Hart_error = Hart_core.Hart_error
module Epalloc = Hart_core.Epalloc
module Leaf = Hart_core.Leaf
module Value_obj = Hart_core.Value_obj
module Microlog = Hart_core.Microlog
module Hash_dir = Hart_core.Hash_dir
module Hart = Hart_core.Hart
module Hart_mt = Hart_core.Hart_mt
module Keygen = Hart_workloads.Keygen
module Art = Hart_art.Art
module Rwlock = Hart_core.Rwlock
module SMap = Map.Make (String)

let fresh_pool () =
  Pmem.create (Meter.create Latency.c300_100)

let fresh_hart ?kh () =
  let pool = fresh_pool () in
  (Hart.create ?kh pool, pool)

(* ------------------------------------------------------------------ *)
(* Hash_dir                                                            *)

let test_dir_basic () =
  let d = Hash_dir.create () in
  Hash_dir.insert d "aa" 1;
  Hash_dir.insert d "ab" 2;
  Alcotest.(check (option int)) "aa" (Some 1) (Hash_dir.find d "aa");
  Alcotest.(check (option int)) "ab" (Some 2) (Hash_dir.find d "ab");
  Alcotest.(check (option int)) "missing" None (Hash_dir.find d "zz");
  Alcotest.(check int) "length" 2 (Hash_dir.length d);
  Hash_dir.insert d "aa" 3;
  Alcotest.(check (option int)) "replaced" (Some 3) (Hash_dir.find d "aa");
  Alcotest.(check int) "length unchanged" 2 (Hash_dir.length d)

let test_dir_remove () =
  let d = Hash_dir.create () in
  Hash_dir.insert d "k1" 1;
  Hash_dir.insert d "k2" 2;
  Hash_dir.remove d "k1";
  Alcotest.(check (option int)) "removed" None (Hash_dir.find d "k1");
  Alcotest.(check (option int)) "other intact" (Some 2) (Hash_dir.find d "k2");
  Hash_dir.remove d "k1" (* idempotent *);
  Alcotest.(check int) "length" 1 (Hash_dir.length d);
  Hash_dir.check_invariants d

let test_dir_grows () =
  let d = Hash_dir.create ~initial_buckets:16 () in
  for i = 0 to 999 do
    Hash_dir.insert d (Printf.sprintf "key%04d" i) i
  done;
  Alcotest.(check int) "all present" 1000 (Hash_dir.length d);
  for i = 0 to 999 do
    Alcotest.(check (option int)) "find" (Some i)
      (Hash_dir.find d (Printf.sprintf "key%04d" i))
  done;
  Hash_dir.check_invariants d

let qcheck_dir_vs_hashtbl =
  let key_gen = QCheck.Gen.(map (String.make 2) (map Char.chr (int_range 97 102))) in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k v -> `Insert (k, v)) key_gen (int_bound 100));
          (2, map (fun k -> `Remove k) key_gen);
          (2, map (fun k -> `Find k) key_gen);
        ])
  in
  QCheck.Test.make ~count:300 ~name:"Hash_dir behaves like Hashtbl"
    (QCheck.make QCheck.Gen.(list_size (int_bound 100) op_gen))
    (fun ops ->
      let d = Hash_dir.create ~initial_buckets:16 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (function
          | `Insert (k, v) ->
              Hash_dir.insert d k v;
              Hashtbl.replace model k v;
              true
          | `Remove k ->
              Hash_dir.remove d k;
              Hashtbl.remove model k;
              true
          | `Find k -> Hash_dir.find d k = Hashtbl.find_opt model k)
        ops
      &&
      (Hash_dir.check_invariants d;
       Hash_dir.length d = Hashtbl.length model))

(* ------------------------------------------------------------------ *)
(* Chunk layout                                                        *)

let test_chunk_classes () =
  Alcotest.(check int) "leaf size" 40 (Chunk.obj_size Chunk.Leaf_c);
  Alcotest.(check int) "leaf chunk" (16 + (56 * 40)) (Chunk.chunk_bytes Chunk.Leaf_c);
  Alcotest.(check bool) "val8 for tiny" true (Chunk.value_class_for 7 = Chunk.Val8);
  Alcotest.(check bool) "val16 boundary" true (Chunk.value_class_for 8 = Chunk.Val16);
  Alcotest.(check bool) "val16 top" true (Chunk.value_class_for 15 = Chunk.Val16);
  Alcotest.(check bool) "val32 extension" true (Chunk.value_class_for 31 = Chunk.Val32);
  Alcotest.(check bool) "too big rejected" true
    (match Chunk.value_class_for 32 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_chunk_header_fields () =
  let pool = fresh_pool () in
  let chunk = Chunk.alloc pool Chunk.Leaf_c in
  Alcotest.(check bool) "fresh chunk empty" true (Chunk.is_empty pool ~chunk);
  Alcotest.(check int) "hint 0" 0 (Chunk.next_free_hint pool ~chunk);
  Alcotest.(check int) "available" 0 (Chunk.full_indicator pool ~chunk);
  Chunk.set_bit pool ~chunk ~idx:0;
  Alcotest.(check bool) "bit set" true (Chunk.test_bit pool ~chunk ~idx:0);
  Alcotest.(check int) "hint advanced" 1 (Chunk.next_free_hint pool ~chunk);
  for idx = 1 to 55 do
    Chunk.set_bit pool ~chunk ~idx
  done;
  Alcotest.(check bool) "full" true (Chunk.is_full pool ~chunk);
  Alcotest.(check int) "full indicator 01" 1 (Chunk.full_indicator pool ~chunk);
  Chunk.reset_bit pool ~chunk ~idx:17;
  Alcotest.(check int) "hint points at hole" 17 (Chunk.next_free_hint pool ~chunk);
  Alcotest.(check int) "available again" 0 (Chunk.full_indicator pool ~chunk)

let test_chunk_header_durable () =
  let pool = fresh_pool () in
  let chunk = Chunk.alloc pool Chunk.Val8 in
  Chunk.set_bit pool ~chunk ~idx:5;
  Pmem.crash pool;
  Alcotest.(check bool) "set_bit persisted" true (Chunk.test_bit pool ~chunk ~idx:5)

let test_chunk_pnext () =
  let pool = fresh_pool () in
  let a = Chunk.alloc pool Chunk.Val16 and b = Chunk.alloc pool Chunk.Val16 in
  Chunk.set_pnext pool ~chunk:a b;
  Pmem.crash pool;
  Alcotest.(check int) "pnext durable" b (Chunk.pnext pool ~chunk:a)

let test_chunk_iter_live () =
  let pool = fresh_pool () in
  let chunk = Chunk.alloc pool Chunk.Leaf_c in
  List.iter (fun idx -> Chunk.set_bit pool ~chunk ~idx) [ 3; 7; 55 ];
  let seen = ref [] in
  Chunk.iter_live pool Chunk.Leaf_c ~chunk (fun ~idx ~obj ->
      seen := (idx, obj) :: !seen;
      Alcotest.(check int) "obj offset" (Chunk.obj_off Chunk.Leaf_c ~chunk ~idx) obj);
  Alcotest.(check (list int)) "live indices" [ 3; 7; 55 ]
    (List.rev_map fst !seen |> List.sort compare)

(* ------------------------------------------------------------------ *)
(* EPallocator                                                         *)

let fresh_alloc () =
  let pool = fresh_pool () in
  (Epalloc.create pool, pool)

let test_epalloc_distinct_objects () =
  let a, _ = fresh_alloc () in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 200 do
    let obj = Epalloc.epmalloc a Chunk.Leaf_c in
    Alcotest.(check bool) "fresh object" false (Hashtbl.mem seen obj);
    Hashtbl.add seen obj ();
    Epalloc.set_obj_bit a Chunk.Leaf_c ~obj
  done;
  Alcotest.(check int) "200 live" 200 (Epalloc.live_objects a Chunk.Leaf_c);
  Alcotest.(check int) "ceil(200/56) chunks" 4 (Epalloc.chunk_count a Chunk.Leaf_c)

let test_epalloc_no_double_handout () =
  (* without set_obj_bit, reservations alone must prevent double hand-out *)
  let a, _ = fresh_alloc () in
  let x = Epalloc.epmalloc a Chunk.Val8 in
  let y = Epalloc.epmalloc a Chunk.Val8 in
  Alcotest.(check bool) "reserved slot not reissued" true (x <> y)

let test_epalloc_cancel_reservation () =
  let a, _ = fresh_alloc () in
  let x = Epalloc.epmalloc a Chunk.Val8 in
  Epalloc.cancel_reservation a Chunk.Val8 ~obj:x;
  let y = Epalloc.epmalloc a Chunk.Val8 in
  Alcotest.(check int) "slot reusable after cancel" x y

let test_epalloc_slot_reuse_after_reset () =
  let a, _ = fresh_alloc () in
  let x = Epalloc.epmalloc a Chunk.Val16 in
  Epalloc.set_obj_bit a Chunk.Val16 ~obj:x;
  (* fill more so the chunk is not recycled when x is freed *)
  let y = Epalloc.epmalloc a Chunk.Val16 in
  Epalloc.set_obj_bit a Chunk.Val16 ~obj:y;
  Epalloc.reset_obj_bit a Chunk.Val16 ~obj:x;
  let z = Epalloc.epmalloc a Chunk.Val16 in
  Alcotest.(check int) "freed slot handed out again" x z

let test_epalloc_chunk_of_obj () =
  let a, _ = fresh_alloc () in
  let objs = List.init 120 (fun _ ->
      let o = Epalloc.epmalloc a Chunk.Leaf_c in
      Epalloc.set_obj_bit a Chunk.Leaf_c ~obj:o;
      o)
  in
  List.iter
    (fun obj ->
      let chunk = Epalloc.chunk_of_obj a Chunk.Leaf_c obj in
      Alcotest.(check bool) "obj within its chunk" true
        (obj > chunk && obj < chunk + Chunk.chunk_bytes Chunk.Leaf_c))
    objs;
  Alcotest.(check bool) "foreign offset rejected" true
    (match Epalloc.chunk_of_obj a Chunk.Leaf_c 8 with
    | _ -> false
    | exception Not_found -> true)

let test_epalloc_class_of_value_obj () =
  let a, _ = fresh_alloc () in
  let v8 = Epalloc.epmalloc a Chunk.Val8 in
  let v16 = Epalloc.epmalloc a Chunk.Val16 in
  let v32 = Epalloc.epmalloc a Chunk.Val32 in
  Alcotest.(check bool) "v8" true (Epalloc.class_of_value_obj a v8 = Some Chunk.Val8);
  Alcotest.(check bool) "v16" true (Epalloc.class_of_value_obj a v16 = Some Chunk.Val16);
  Alcotest.(check bool) "v32" true (Epalloc.class_of_value_obj a v32 = Some Chunk.Val32);
  let leaf = Epalloc.epmalloc a Chunk.Leaf_c in
  Alcotest.(check bool) "leaf is no value" true
    (Epalloc.class_of_value_obj a leaf = None)

let test_eprecycle_returns_space () =
  let a, pool = fresh_alloc () in
  (* commit then free a full chunk's worth of values *)
  let objs = List.init 56 (fun _ ->
      let o = Epalloc.epmalloc a Chunk.Val8 in
      Epalloc.set_obj_bit a Chunk.Val8 ~obj:o;
      o)
  in
  Alcotest.(check int) "one chunk" 1 (Epalloc.chunk_count a Chunk.Val8);
  let live_before = Pmem.live_bytes pool in
  List.iter (fun obj -> Epalloc.reset_obj_bit a Chunk.Val8 ~obj) objs;
  Epalloc.eprecycle a Chunk.Val8
    ~chunk:(Epalloc.chunk_of_obj a Chunk.Val8 (List.hd objs));
  Alcotest.(check bool) "pm space released" true (Pmem.live_bytes pool < live_before);
  Alcotest.(check int) "list empty" 0 (Epalloc.chunk_count a Chunk.Val8);
  Epalloc.check_invariants a

let test_eprecycle_middle_of_list () =
  let a, _ = fresh_alloc () in
  (* build three chunks; empty the middle one *)
  let objs = Array.init (3 * 56) (fun _ ->
      let o = Epalloc.epmalloc a Chunk.Val8 in
      Epalloc.set_obj_bit a Chunk.Val8 ~obj:o;
      o)
  in
  Alcotest.(check int) "three chunks" 3 (Epalloc.chunk_count a Chunk.Val8);
  let chunks = ref [] in
  Epalloc.iter_chunks a Chunk.Val8 (fun c -> chunks := c :: !chunks);
  let middle = List.nth (List.rev !chunks) 1 in
  Array.iter
    (fun obj ->
      if Epalloc.chunk_of_obj a Chunk.Val8 obj = middle then
        Epalloc.reset_obj_bit a Chunk.Val8 ~obj)
    objs;
  Epalloc.eprecycle a Chunk.Val8 ~chunk:middle;
  Alcotest.(check int) "two chunks remain" 2 (Epalloc.chunk_count a Chunk.Val8);
  Epalloc.check_invariants a

let test_eprecycle_refuses_nonempty () =
  let a, _ = fresh_alloc () in
  let o = Epalloc.epmalloc a Chunk.Val8 in
  Epalloc.set_obj_bit a Chunk.Val8 ~obj:o;
  let chunk = Epalloc.chunk_of_obj a Chunk.Val8 o in
  Epalloc.eprecycle a Chunk.Val8 ~chunk;
  Alcotest.(check int) "chunk kept" 1 (Epalloc.chunk_count a Chunk.Val8);
  Alcotest.(check bool) "object intact" true (Epalloc.obj_bit a Chunk.Val8 ~obj:o)

let test_epalloc_attach_rebuilds () =
  let a, pool = fresh_alloc () in
  let objs = List.init 100 (fun _ ->
      let o = Epalloc.epmalloc a Chunk.Leaf_c in
      Epalloc.set_obj_bit a Chunk.Leaf_c ~obj:o;
      o)
  in
  Pmem.crash pool;
  let a' = Epalloc.attach pool in
  Alcotest.(check int) "live objects survive" 100 (Epalloc.live_objects a' Chunk.Leaf_c);
  Alcotest.(check int) "kh recovered" 2 (Epalloc.kh a');
  List.iter
    (fun obj ->
      Alcotest.(check bool) "bit visible" true (Epalloc.obj_bit a' Chunk.Leaf_c ~obj))
    objs;
  Epalloc.check_invariants a'

let test_epalloc_attach_rejects_garbage () =
  let pool = fresh_pool () in
  ignore (Pmem.alloc pool 4096);
  Alcotest.(check bool) "bad magic rejected" true
    (match Epalloc.attach pool with
    | _ -> false
    | exception Hart_error.Error { site = Hart_error.Root_block _; _ } -> true)

let test_epalloc_leaf_repair () =
  (* simulate the Algorithm 1 crash window: value committed, leaf bit not
     set; the next epmalloc of that leaf slot must free the value *)
  let a, pool = fresh_alloc () in
  let leaf = Epalloc.epmalloc a Chunk.Leaf_c in
  let v = Epalloc.epmalloc a Chunk.Val8 in
  Value_obj.write pool ~obj:v "six";
  Leaf.set_p_value pool ~leaf v;
  Epalloc.set_obj_bit a Chunk.Val8 ~obj:v;
  (* crash: leaf bit never set *)
  Pmem.crash pool;
  let a' = Epalloc.attach pool in
  (* the attach-time sweep repairs the slot eagerly (see DESIGN.md):
     the orphaned value is reclaimed before any allocation happens *)
  Alcotest.(check int) "orphaned value reclaimed at attach" 0
    (Epalloc.live_objects a' Chunk.Val8);
  let leaf' = Epalloc.epmalloc a' Chunk.Leaf_c in
  Alcotest.(check int) "same slot handed out" leaf leaf';
  Alcotest.(check int) "p_value cleared" 0 (Leaf.p_value pool ~leaf:leaf')

(* Allocator model check: random alloc/commit/free/recycle/crash
   sequences against a simple set model. *)
let qcheck_epalloc_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, return `Alloc);
          (3, map (fun i -> `Free i) (int_bound 500));
          (1, return `Crash);
        ])
  in
  QCheck.Test.make ~count:100 ~name:"EPallocator behaves like a set allocator"
    (QCheck.make QCheck.Gen.(list_size (int_bound 120) op_gen))
    (fun script ->
      let pool = fresh_pool () in
      let a = ref (Epalloc.create pool) in
      let live = Hashtbl.create 64 in
      let order = ref [] in
      List.iter
        (fun op ->
          match op with
          | `Alloc ->
              let obj = Epalloc.epmalloc !a Chunk.Val16 in
              if Hashtbl.mem live obj then
                failwith (Printf.sprintf "double hand-out of %d" obj);
              Epalloc.set_obj_bit !a Chunk.Val16 ~obj;
              Hashtbl.add live obj ();
              order := obj :: !order
          | `Free i -> (
              match List.nth_opt !order (i mod max 1 (List.length !order)) with
              | Some obj when Hashtbl.mem live obj ->
                  Epalloc.reset_obj_bit !a Chunk.Val16 ~obj;
                  Hashtbl.remove live obj;
                  Epalloc.eprecycle !a Chunk.Val16
                    ~chunk:(Epalloc.chunk_of_obj !a Chunk.Val16 obj)
              | Some _ | None -> ())
          | `Crash ->
              Pmem.crash pool;
              a := Epalloc.attach pool)
        script;
      Epalloc.check_invariants !a;
      Epalloc.live_objects !a Chunk.Val16 = Hashtbl.length live)

let qcheck_chunk_header_roundtrip =
  QCheck.Test.make ~count:300 ~name:"chunk header packs bitmap/hint/indicator"
    (QCheck.make
       QCheck.Gen.(list_size (int_bound 56) (int_bound 55)))
    (fun bits ->
      let pool = fresh_pool () in
      let chunk = Chunk.alloc pool Chunk.Leaf_c in
      List.iter (fun idx -> Chunk.set_bit pool ~chunk ~idx) bits;
      let set = List.sort_uniq compare bits in
      List.for_all (fun idx -> Chunk.test_bit pool ~chunk ~idx) set
      && (Chunk.is_full pool ~chunk = (List.length set = 56))
      && (Chunk.full_indicator pool ~chunk = if List.length set = 56 then 1 else 0)
      &&
      (* the hint always names a free slot when one exists *)
      (List.length set = 56
      || not (Chunk.test_bit pool ~chunk ~idx:(Chunk.next_free_hint pool ~chunk))))

(* ------------------------------------------------------------------ *)
(* Leaf and value codecs                                               *)

let test_leaf_codec () =
  let pool = fresh_pool () in
  let leaf = Pmem.alloc pool 40 in
  Leaf.write_key pool ~leaf "hello";
  Alcotest.(check string) "key roundtrip" "hello" (Leaf.key pool ~leaf);
  Leaf.set_p_value pool ~leaf 4242;
  Alcotest.(check int) "p_value roundtrip" 4242 (Leaf.p_value pool ~leaf);
  Pmem.crash pool;
  Alcotest.(check string) "key durable" "hello" (Leaf.key pool ~leaf);
  Alcotest.(check int) "p_value durable" 4242 (Leaf.p_value pool ~leaf)

let test_leaf_key_limit () =
  let pool = fresh_pool () in
  let leaf = Pmem.alloc pool 40 in
  Leaf.write_key pool ~leaf (String.make 24 'x');
  Alcotest.(check bool) "25 bytes rejected" true
    (match Leaf.write_key pool ~leaf (String.make 25 'x') with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_value_codec () =
  let pool = fresh_pool () in
  List.iter
    (fun payload ->
      let obj = Pmem.alloc pool 32 in
      Value_obj.write pool ~obj payload;
      Alcotest.(check string) "roundtrip" payload (Value_obj.read pool ~obj))
    [ ""; "x"; "1234567"; "fifteen-bytes.."; String.make 31 'v' ]

(* ------------------------------------------------------------------ *)
(* Micro-logs                                                          *)

let test_microlog_roundtrip () =
  let pool = fresh_pool () in
  let base = Pmem.alloc pool Microlog.region_bytes in
  let logs = Microlog.create pool ~base in
  let slot = Microlog.Update.acquire logs in
  Microlog.Update.set_pleaf logs ~slot 111;
  Microlog.Update.set_poldv logs ~slot 222;
  Microlog.Update.set_pnewv logs ~slot 333;
  Alcotest.(check int) "pleaf" 111 (Microlog.Update.pleaf logs ~slot);
  Alcotest.(check int) "poldv" 222 (Microlog.Update.poldv logs ~slot);
  Alcotest.(check int) "pnewv" 333 (Microlog.Update.pnewv logs ~slot);
  Microlog.Update.reclaim logs ~slot;
  Alcotest.(check int) "reclaimed" 0 (Microlog.Update.pleaf logs ~slot)

let test_microlog_durability () =
  let pool = fresh_pool () in
  let base = Pmem.alloc pool Microlog.region_bytes in
  let logs = Microlog.create pool ~base in
  let slot = Microlog.Update.acquire logs in
  Microlog.Update.set_pleaf logs ~slot 7;
  Pmem.crash pool;
  let logs' = Microlog.attach pool ~base in
  let pending = ref [] in
  Microlog.Update.iter_pending logs' (fun ~slot -> pending := slot :: !pending);
  Alcotest.(check (list int)) "pending slot found" [ slot ] !pending;
  (* the busy slot must not be handed out again before reclaim *)
  let other = Microlog.Update.acquire logs' in
  Alcotest.(check bool) "busy slot skipped" true (other <> slot)

let test_microlog_recycle_class () =
  let pool = fresh_pool () in
  let base = Pmem.alloc pool Microlog.region_bytes in
  let logs = Microlog.create pool ~base in
  let slot = Microlog.Recycle.acquire logs in
  Microlog.Recycle.set_pcurrent logs ~slot ~cls:Chunk.Val16 999;
  Alcotest.(check bool) "class recorded" true
    (Microlog.Recycle.cls logs ~slot = Chunk.Val16);
  Alcotest.(check int) "pcurrent" 999 (Microlog.Recycle.pcurrent logs ~slot)

let test_microlog_exhaustion () =
  let pool = fresh_pool () in
  let base = Pmem.alloc pool Microlog.region_bytes in
  let logs = Microlog.create pool ~base in
  let slots = List.init Microlog.n_slots (fun _ -> Microlog.Update.acquire logs) in
  Alcotest.(check bool) "all slots distinct" true
    (List.length (List.sort_uniq compare slots) = Microlog.n_slots);
  (* with every slot busy, acquire blocks until one is reclaimed and then
     returns exactly the freed slot *)
  let freed = List.hd slots in
  let waiter = Domain.spawn (fun () -> Microlog.Update.acquire logs) in
  Unix.sleepf 0.05;
  Microlog.Update.reclaim logs ~slot:freed;
  Alcotest.(check int) "blocked acquire gets the freed slot" freed
    (Domain.join waiter)

(* ------------------------------------------------------------------ *)
(* Micro-log recovery protocols, state by state (§III-B.2, §III-B.4):
   construct each durable log state the algorithms can crash in and
   check that Epalloc.attach repairs it exactly as specified.           *)

(* A committed (leaf, value) pair plus a second "bystander" key whose
   state must never be disturbed by log recovery. *)
let setup_update_scenario () =
  let pool = fresh_pool () in
  let h = Hart.create pool in
  Hart.insert h ~key:"bystander" ~value:"bb";
  Hart.insert h ~key:"target" ~value:"OLD";
  (pool, h)

let recovered_value pool =
  let h = Hart.recover pool in
  Hart.check_integrity ~allow_recovered_orphans:true h;
  Alcotest.(check (option string)) "bystander untouched" (Some "bb")
    (Hart.search h "bystander");
  Hart.search h "target"

let test_ulog_state_pleaf_only () =
  (* crash between Algorithm 3 lines 2 and 3: only PLeaf durable -> the
     recovery must simply reset the log, value stays OLD *)
  let pool, h = setup_update_scenario () in
  Pmem.arm_crash pool ~after_flushes:1;
  (try ignore (Hart.update h ~key:"target" ~value:"NEW")
   with Pmem.Crash_injected -> ());
  Alcotest.(check (option string)) "old value" (Some "OLD") (recovered_value pool)

let test_ulog_state_pleaf_poldv () =
  (* crash between lines 3 and 6: PLeaf + POldV durable, PNewV not ->
     reset, old value intact *)
  let pool, h = setup_update_scenario () in
  Pmem.arm_crash pool ~after_flushes:2;
  (try ignore (Hart.update h ~key:"target" ~value:"NEW")
   with Pmem.Crash_injected -> ());
  Alcotest.(check (option string)) "old value" (Some "OLD") (recovered_value pool)

let test_ulog_state_all_three () =
  (* crash after line 6: all three pointers durable -> recovery resumes
     from line 7 and the update commits *)
  let pool, h = setup_update_scenario () in
  (* flushes: PLeaf, POldV, value object, PNewV = 4 *)
  Pmem.arm_crash pool ~after_flushes:4;
  (try ignore (Hart.update h ~key:"target" ~value:"NEW")
   with Pmem.Crash_injected -> ());
  Alcotest.(check (option string)) "new value (redo)" (Some "NEW")
    (recovered_value pool)

let test_ulog_replay_is_idempotent () =
  (* all-three state recovered twice (crash during first recovery's
     replay) must still commit exactly once *)
  let pool, h = setup_update_scenario () in
  Pmem.arm_crash pool ~after_flushes:4;
  (try ignore (Hart.update h ~key:"target" ~value:"NEW")
   with Pmem.Crash_injected -> ());
  (* crash the first recovery after one of its replay flushes *)
  Pmem.arm_crash pool ~after_flushes:1;
  (try ignore (Hart.recover pool) with Pmem.Crash_injected -> ());
  Alcotest.(check (option string)) "still committed once" (Some "NEW")
    (recovered_value pool)

let test_rlog_recovery_head_unlink () =
  (* empty a chunk at the head of the value list, crash inside the
     recycle protocol, recover: the list must be consistent *)
  let pool = fresh_pool () in
  let h = Hart.create pool in
  for i = 0 to 55 do
    Hart.insert h ~key:(Printf.sprintf "rl%03d" i) ~value:"v"
  done;
  (* deleting everything recycles the (single, head) value chunk *)
  let crashed = ref false in
  Pmem.arm_crash pool ~after_flushes:8;
  (try
     for i = 0 to 55 do
       ignore (Hart.delete h (Printf.sprintf "rl%03d" i))
     done
   with Pmem.Crash_injected -> crashed := true);
  Pmem.disarm_crash pool;
  if not !crashed then Pmem.crash pool;
  let h' = Hart.recover pool in
  Hart.check_integrity ~allow_recovered_orphans:true h';
  (* whatever the crash point, surviving keys are exactly the committed
     ones and further deletion works *)
  let keys = ref [] in
  Hart.iter h' (fun k _ -> keys := k :: !keys);
  List.iter (fun k -> ignore (Hart.delete h' k)) !keys;
  Alcotest.(check int) "store drains cleanly" 0 (Hart.count h')

(* ------------------------------------------------------------------ *)
(* HART basic operations                                               *)

let test_hart_insert_search () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"AABF" ~value:"v1";
  Hart.insert h ~key:"AACD" ~value:"v2";
  Hart.insert h ~key:"XY01" ~value:"v3";
  Alcotest.(check (option string)) "AABF" (Some "v1") (Hart.search h "AABF");
  Alcotest.(check (option string)) "AACD" (Some "v2") (Hart.search h "AACD");
  Alcotest.(check (option string)) "XY01" (Some "v3") (Hart.search h "XY01");
  Alcotest.(check (option string)) "missing" None (Hart.search h "AABX");
  Alcotest.(check int) "count" 3 (Hart.count h);
  Alcotest.(check int) "two ARTs (prefixes AA and XY)" 2 (Hart.art_count h);
  Hart.check_integrity h

let test_hart_insert_is_upsert () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"key1" ~value:"old";
  Hart.insert h ~key:"key1" ~value:"new";
  Alcotest.(check (option string)) "updated" (Some "new") (Hart.search h "key1");
  Alcotest.(check int) "count stays 1" 1 (Hart.count h);
  Hart.check_integrity h

let test_hart_update () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"key1" ~value:"old";
  Alcotest.(check bool) "update hits" true (Hart.update h ~key:"key1" ~value:"new");
  Alcotest.(check (option string)) "value" (Some "new") (Hart.search h "key1");
  Alcotest.(check bool) "update miss" false (Hart.update h ~key:"nope" ~value:"x");
  Alcotest.(check (option string)) "no phantom insert" None (Hart.search h "nope");
  Hart.check_integrity h

let test_hart_update_changes_class () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"key1" ~value:"tiny";
  ignore (Hart.update h ~key:"key1" ~value:(String.make 30 'B'));
  Alcotest.(check (option string)) "30-byte value" (Some (String.make 30 'B'))
    (Hart.search h "key1");
  ignore (Hart.update h ~key:"key1" ~value:"s");
  Alcotest.(check (option string)) "shrunk" (Some "s") (Hart.search h "key1");
  Hart.check_integrity h

let test_hart_delete () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"AAx" ~value:"1";
  Hart.insert h ~key:"AAy" ~value:"2";
  Alcotest.(check bool) "delete hits" true (Hart.delete h "AAx");
  Alcotest.(check (option string)) "gone" None (Hart.search h "AAx");
  Alcotest.(check (option string)) "sibling" (Some "2") (Hart.search h "AAy");
  Alcotest.(check bool) "delete miss" false (Hart.delete h "AAx");
  Alcotest.(check int) "count" 1 (Hart.count h);
  Hart.check_integrity h

let test_hart_delete_frees_empty_art () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"ZZonly" ~value:"1";
  Alcotest.(check int) "one ART" 1 (Hart.art_count h);
  ignore (Hart.delete h "ZZonly");
  Alcotest.(check int) "ART freed" 0 (Hart.art_count h);
  Hart.check_integrity h

let test_hart_short_keys () =
  let h, _ = fresh_hart () in
  (* keys shorter than kh=2 become whole hash keys with empty ART keys *)
  Hart.insert h ~key:"a" ~value:"one";
  Hart.insert h ~key:"ab" ~value:"two";
  Hart.insert h ~key:"abc" ~value:"three";
  Alcotest.(check (option string)) "a" (Some "one") (Hart.search h "a");
  Alcotest.(check (option string)) "ab" (Some "two") (Hart.search h "ab");
  Alcotest.(check (option string)) "abc" (Some "three") (Hart.search h "abc");
  ignore (Hart.delete h "ab");
  Alcotest.(check (option string)) "ab gone" None (Hart.search h "ab");
  Alcotest.(check (option string)) "a kept" (Some "one") (Hart.search h "a");
  Alcotest.(check (option string)) "abc kept" (Some "three") (Hart.search h "abc");
  Hart.check_integrity h

let test_hart_key_limits () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:(String.make 24 'k') ~value:"ok";
  Alcotest.(check bool) "25-byte key rejected" true
    (match Hart.insert h ~key:(String.make 25 'k') ~value:"v" with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "empty key rejected" true
    (match Hart.insert h ~key:"" ~value:"v" with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "32-byte value rejected" true
    (match Hart.insert h ~key:"k" ~value:(String.make 32 'v') with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check (option string)) "over-long search is None" None
    (Hart.search h (String.make 30 'q'))

let test_hart_empty_value () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"key" ~value:"";
  Alcotest.(check (option string)) "empty value stored" (Some "") (Hart.search h "key");
  Hart.check_integrity h

let test_hart_split_key () =
  let h, _ = fresh_hart ~kh:2 () in
  Alcotest.(check (pair string string)) "long" ("AA", "BF") (Hart.split_key h "AABF");
  Alcotest.(check (pair string string)) "exact" ("AB", "") (Hart.split_key h "AB");
  Alcotest.(check (pair string string)) "short" ("A", "") (Hart.split_key h "A")

let test_hart_kh_variants () =
  List.iter
    (fun kh ->
      let h, _ = fresh_hart ~kh () in
      let keys = List.init 200 (fun i -> Printf.sprintf "key-%04d" i) in
      List.iter (fun k -> Hart.insert h ~key:k ~value:k) keys;
      List.iter
        (fun k -> Alcotest.(check (option string)) k (Some k) (Hart.search h k))
        keys;
      Hart.check_integrity h)
    [ 1; 2; 4; 8 ]

let test_hart_range () =
  let h, _ = fresh_hart () in
  let keys = [ "AAa"; "AAb"; "ABa"; "ABb"; "ACa"; "B"; "BAx" ] in
  List.iter (fun k -> Hart.insert h ~key:k ~value:(String.lowercase_ascii k)) keys;
  let got = ref [] in
  Hart.range h ~lo:"AAb" ~hi:"B" (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "cross-ART range" [ "AAb"; "ABa"; "ABb"; "ACa"; "B" ]
    (List.rev !got)

let test_hart_iter () =
  let h, _ = fresh_hart () in
  let keys = List.init 100 (fun i -> Printf.sprintf "it%04d" i) in
  List.iter (fun k -> Hart.insert h ~key:k ~value:k) keys;
  let n = ref 0 in
  Hart.iter h (fun k v ->
      incr n;
      Alcotest.(check string) "value matches key" k v);
  Alcotest.(check int) "all visited" 100 !n

let test_hart_fold_min_max () =
  let h, _ = fresh_hart () in
  Alcotest.(check (option (pair string string))) "min of empty" None (Hart.min_binding h);
  Alcotest.(check (option (pair string string))) "max of empty" None (Hart.max_binding h);
  List.iter
    (fun k -> Hart.insert h ~key:k ~value:(String.uppercase_ascii k))
    [ "mm"; "aa"; "zz"; "a"; "zzz" ];
  Alcotest.(check (option (pair string string))) "min" (Some ("a", "A"))
    (Hart.min_binding h);
  Alcotest.(check (option (pair string string))) "max" (Some ("zzz", "ZZZ"))
    (Hart.max_binding h);
  let n = Hart.fold h ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  Alcotest.(check int) "fold visits all" 5 n

let test_hart_stats () =
  let h, _ = fresh_hart () in
  for i = 0 to 499 do
    Hart.insert h ~key:(Printf.sprintf "st%04d" i) ~value:"seven77"
  done;
  ignore (Hart.update h ~key:"st0000" ~value:(String.make 30 'x'));
  let s = Hart_core.Hart_stats.collect h in
  Alcotest.(check int) "keys" 500 s.Hart_core.Hart_stats.keys;
  Alcotest.(check int) "arts" (Hart.art_count h) s.Hart_core.Hart_stats.arts;
  Alcotest.(check int) "leaf objects" 500
    s.Hart_core.Hart_stats.leaf_class.Hart_core.Hart_stats.live_objects;
  Alcotest.(check int) "val8 objects (one updated away)" 499
    s.Hart_core.Hart_stats.val8_class.Hart_core.Hart_stats.live_objects;
  Alcotest.(check int) "val32 objects" 1
    s.Hart_core.Hart_stats.val32_class.Hart_core.Hart_stats.live_objects;
  Alcotest.(check bool) "occupancy sane" true
    (s.Hart_core.Hart_stats.leaf_class.Hart_core.Hart_stats.occupancy > 0.5);
  Alcotest.(check int) "pm bytes agree" (Hart.pm_bytes h)
    s.Hart_core.Hart_stats.pm_bytes;
  let hist = s.Hart_core.Hart_stats.art_nodes in
  Alcotest.(check bool) "node histogram populated" true
    (hist.Hart_core.Hart_stats.n4 + hist.Hart_core.Hart_stats.n16
     + hist.Hart_core.Hart_stats.n48
     + hist.Hart_core.Hart_stats.n256
    > 0);
  (* the renderer shouldn't raise *)
  ignore (Format.asprintf "%a" Hart_core.Hart_stats.pp s : string)

let test_hart_memory_accounting () =
  let h, pool = fresh_hart () in
  let pm0 = Hart.pm_bytes h in
  for i = 0 to 999 do
    Hart.insert h ~key:(Printf.sprintf "mem%05d" i) ~value:"seven"
  done;
  Alcotest.(check bool) "pm grew" true (Hart.pm_bytes h > pm0);
  Alcotest.(check bool) "dram tracked" true (Hart.dram_bytes h > 0);
  Alcotest.(check bool) "meter agrees with pool" true
    (Hart.pm_bytes h = Pmem.live_bytes pool)

(* ------------------------------------------------------------------ *)
(* HART vs model                                                       *)

let hart_key_gen =
  (* 2-byte prefix from a tiny alphabet + short suffix: exercises shared
     ARTs, empty ART keys and prefix relationships *)
  QCheck.Gen.(
    let c = map (fun i -> "AB1".[i]) (int_bound 2) in
    map2
      (fun a rest -> String.make 1 a ^ String.concat "" (List.map (String.make 1) rest))
      c
      (list_size (int_bound 4) c))

let hart_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> `Insert (k, v)) hart_key_gen (map string_of_int (int_bound 9999)));
        (2, map (fun k -> `Delete k) hart_key_gen);
        (2, map (fun k -> `Search k) hart_key_gen);
        (2, map2 (fun k v -> `Update (k, v)) hart_key_gen (map string_of_int (int_bound 9999)));
      ])

let pp_hart_op = function
  | `Insert (k, v) -> Printf.sprintf "Insert(%S,%S)" k v
  | `Delete k -> Printf.sprintf "Delete(%S)" k
  | `Search k -> Printf.sprintf "Search(%S)" k
  | `Update (k, v) -> Printf.sprintf "Update(%S,%S)" k v

let hart_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_hart_op ops))
    QCheck.Gen.(list_size (int_bound 150) hart_op_gen)

let run_hart_ops h model ops =
  List.for_all
    (fun op ->
      match op with
      | `Insert (k, v) ->
          Hart.insert h ~key:k ~value:v;
          model := SMap.add k v !model;
          true
      | `Delete k ->
          let expect = SMap.mem k !model in
          model := SMap.remove k !model;
          Hart.delete h k = expect
      | `Search k -> Hart.search h k = SMap.find_opt k !model
      | `Update (k, v) ->
          let expect = SMap.mem k !model in
          if expect then model := SMap.add k v !model;
          Hart.update h ~key:k ~value:v = expect)
    ops

let qcheck_hart_vs_map =
  QCheck.Test.make ~count:200 ~name:"HART behaves like Map under random ops"
    hart_ops_arb
    (fun ops ->
      let h, _ = fresh_hart () in
      let model = ref SMap.empty in
      run_hart_ops h model ops
      &&
      (Hart.check_integrity h;
       Hart.count h = SMap.cardinal !model
       && SMap.for_all (fun k v -> Hart.search h k = Some v) !model))

let qcheck_hart_recovery =
  QCheck.Test.make ~count:100 ~name:"recovery after clean crash preserves all data"
    hart_ops_arb
    (fun ops ->
      let h, pool = fresh_hart () in
      let model = ref SMap.empty in
      ignore (run_hart_ops h model ops : bool);
      Pmem.crash pool;
      let h' = Hart.recover pool in
      Hart.check_integrity ~allow_recovered_orphans:true h';
      Hart.count h' = SMap.cardinal !model
      && SMap.for_all (fun k v -> Hart.search h' k = Some v) !model)

(* ------------------------------------------------------------------ *)
(* Crash injection sweeps                                              *)

(* Run [f]; if the armed crash fires, recover and validate with [check].
   Returns true when [f] ran to completion without crashing. *)
let with_crash_at pool k f check =
  Pmem.arm_crash pool ~after_flushes:k;
  match f () with
  | () ->
      Pmem.disarm_crash pool;
      true
  | exception Pmem.Crash_injected ->
      check ();
      false

let test_insert_crash_sweep () =
  (* crash an insertion at every flush boundary; prior data must survive,
     the in-flight key must be atomic (all or nothing), and no leaks *)
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let h, pool = fresh_hart () in
    Hart.insert h ~key:"preexist1" ~value:"A";
    Hart.insert h ~key:"preexist2" ~value:"B";
    let completed =
      with_crash_at pool !k
        (fun () -> Hart.insert h ~key:"victim-key" ~value:"victim!")
        (fun () ->
          let h' = Hart.recover pool in
          Hart.check_integrity ~allow_recovered_orphans:true h';
          Alcotest.(check (option string)) "preexist1 survives" (Some "A")
            (Hart.search h' "preexist1");
          Alcotest.(check (option string)) "preexist2 survives" (Some "B")
            (Hart.search h' "preexist2");
          (match Hart.search h' "victim-key" with
          | None | Some "victim!" -> ()
          | Some other ->
              Alcotest.failf "victim neither absent nor complete: %S" other);
          (* the repair path must leave a strictly consistent image:
             exercise the crashed slots, then recheck strictly *)
          Hart.insert h' ~key:"victim-key" ~value:"again";
          Hart.insert h' ~key:"post-crash" ~value:"C";
          Hart.check_integrity h')
    in
    if completed then continue := false else incr k
  done;
  Alcotest.(check bool) "sweep exercised several crash points" true (!k >= 4)

let test_update_crash_sweep () =
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let h, pool = fresh_hart () in
    Hart.insert h ~key:"stable" ~value:"S";
    Hart.insert h ~key:"target" ~value:"OLD";
    let completed =
      with_crash_at pool !k
        (fun () -> ignore (Hart.update h ~key:"target" ~value:"NEW"))
        (fun () ->
          let h' = Hart.recover pool in
          Hart.check_integrity ~allow_recovered_orphans:true h';
          Alcotest.(check (option string)) "stable survives" (Some "S")
            (Hart.search h' "stable");
          (match Hart.search h' "target" with
          | Some "OLD" | Some "NEW" -> ()
          | v ->
              Alcotest.failf "target corrupted after update crash: %s"
                (Option.value v ~default:"<absent>"));
          (* after recovery the update log must be fully reclaimed *)
          ignore (Hart.update h' ~key:"target" ~value:"FINAL");
          Alcotest.(check (option string)) "post-recovery update works"
            (Some "FINAL") (Hart.search h' "target");
          Hart.check_integrity h')
    in
    if completed then continue := false else incr k
  done;
  Alcotest.(check bool) "sweep exercised several crash points" true (!k >= 4)

let test_delete_crash_sweep () =
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let h, pool = fresh_hart () in
    Hart.insert h ~key:"keepme" ~value:"K";
    Hart.insert h ~key:"victim" ~value:"V";
    let completed =
      with_crash_at pool !k
        (fun () -> ignore (Hart.delete h "victim"))
        (fun () ->
          let h' = Hart.recover pool in
          Hart.check_integrity ~allow_recovered_orphans:true h';
          Alcotest.(check (option string)) "other key survives" (Some "K")
            (Hart.search h' "keepme");
          (match Hart.search h' "victim" with
          | None | Some "V" -> ()
          | Some other -> Alcotest.failf "deleted key corrupted: %S" other);
          Hart.insert h' ~key:"fresh" ~value:"F";
          Hart.check_integrity h')
    in
    if completed then continue := false else incr k
  done;
  Alcotest.(check bool) "sweep exercised several crash points" true (!k >= 1)

let test_recycle_crash_sweep () =
  (* delete ALL keys of two full chunks so both leaf chunks and both
     value chunks go through EPRecycle's unlink protocol, and sweep the
     crash over the entire run including the unlink windows at the end *)
  let total_keys = 60 in
  let completed_flushes =
    (* dry run to learn the flush count of the whole deletion phase *)
    let h, pool = fresh_hart () in
    for i = 0 to total_keys - 1 do
      Hart.insert h ~key:(Printf.sprintf "rc%04d" i) ~value:"v"
    done;
    let c0 = (Meter.counters (Pmem.meter pool)).Meter.flushes in
    for i = 0 to total_keys - 1 do
      ignore (Hart.delete h (Printf.sprintf "rc%04d" i))
    done;
    (Meter.counters (Pmem.meter pool)).Meter.flushes - c0
  in
  Alcotest.(check bool) "deletion phase flushes enough to recycle" true
    (completed_flushes > 3 * total_keys);
  (* sweep, concentrating on every flush of the last few deletions where
     the chunks empty and unlink *)
  let points =
    List.init 30 (fun i -> i * completed_flushes / 30)
    @ List.init 24 (fun i -> completed_flushes - 24 + i)
  in
  List.iter
    (fun k ->
      let h, pool = fresh_hart () in
      for i = 0 to total_keys - 1 do
        Hart.insert h ~key:(Printf.sprintf "rc%04d" i) ~value:"v"
      done;
      let crashed = ref false in
      Pmem.arm_crash pool ~after_flushes:k;
      (try
         for i = 0 to total_keys - 1 do
           ignore (Hart.delete h (Printf.sprintf "rc%04d" i))
         done;
         Pmem.disarm_crash pool
       with Pmem.Crash_injected -> crashed := true);
      if !crashed then begin
        let h' = Hart.recover pool in
        Hart.check_integrity ~allow_recovered_orphans:true h';
        (* deletions are not atomic as a batch, but every surviving key
           must be intact and the store must drain cleanly afterwards *)
        let survivors = ref [] in
        Hart.iter h' (fun k v ->
            if v <> "v" then Alcotest.failf "corrupted survivor %s=%s" k v;
            survivors := k :: !survivors);
        List.iter (fun k -> ignore (Hart.delete h' k)) !survivors;
        Alcotest.(check int)
          (Printf.sprintf "drains after crash at %d flushes" k)
          0 (Hart.count h');
        Hart.check_integrity h'
      end)
    points

let qcheck_crash_anywhere =
  (* random workload, crash after a random number of flushes, recover:
     committed data is intact and the image is repairable *)
  QCheck.Test.make ~count:150 ~name:"random crash point: recovery is consistent"
    (QCheck.pair hart_ops_arb (QCheck.make QCheck.Gen.(int_bound 400)))
    (fun (ops, crash_at) ->
      let h, pool = fresh_hart () in
      let model = ref SMap.empty in
      let committed = ref SMap.empty in
      Pmem.arm_crash pool ~after_flushes:crash_at;
      (try
         List.iter
           (fun op ->
             (match op with
             | `Insert (k, v) ->
                 Hart.insert h ~key:k ~value:v;
                 model := SMap.add k v !model
             | `Delete k ->
                 ignore (Hart.delete h k);
                 model := SMap.remove k !model
             | `Search k -> ignore (Hart.search h k)
             | `Update (k, v) ->
                 if Hart.update h ~key:k ~value:v then model := SMap.add k v !model);
             committed := !model)
           ops;
         Pmem.disarm_crash pool
       with Pmem.Crash_injected -> ());
      let h' = Hart.recover pool in
      Hart.check_integrity ~allow_recovered_orphans:true h';
      (* every op completed before the crash must be durable; the one
         in-flight op may have landed either way, so compare against the
         committed-prefix model modulo one key *)
      let recovered =
        let m = ref SMap.empty in
        Hart.iter h' (fun k v -> m := SMap.add k v !m);
        !m
      in
      let diff_keys =
        SMap.merge
          (fun _ a b -> if a = b then None else Some ())
          !committed recovered
      in
      SMap.cardinal diff_keys <= 1)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let test_recover_empty () =
  let h, pool = fresh_hart () in
  ignore h;
  Pmem.crash pool;
  let h' = Hart.recover pool in
  Alcotest.(check int) "empty recovered" 0 (Hart.count h');
  Hart.check_integrity h'

let test_recover_preserves_kh () =
  let pool = fresh_pool () in
  let h = Hart.create ~kh:4 pool in
  Hart.insert h ~key:"prefix-key" ~value:"v";
  Pmem.crash pool;
  let h' = Hart.recover pool in
  Alcotest.(check int) "kh persisted" 4 (Hart.kh h');
  Alcotest.(check (option string)) "data back" (Some "v") (Hart.search h' "prefix-key")

let test_recover_then_operate () =
  let h, pool = fresh_hart () in
  for i = 0 to 499 do
    Hart.insert h ~key:(Printf.sprintf "ro%05d" i) ~value:(string_of_int i)
  done;
  for i = 0 to 99 do
    ignore (Hart.delete h (Printf.sprintf "ro%05d" i))
  done;
  Pmem.crash pool;
  let h' = Hart.recover pool in
  Alcotest.(check int) "400 keys back" 400 (Hart.count h');
  (* full op mix on the recovered tree *)
  Hart.insert h' ~key:"ro00000" ~value:"reborn";
  ignore (Hart.update h' ~key:"ro00200" ~value:"upd");
  ignore (Hart.delete h' "ro00300");
  Alcotest.(check (option string)) "insert" (Some "reborn") (Hart.search h' "ro00000");
  Alcotest.(check (option string)) "update" (Some "upd") (Hart.search h' "ro00200");
  Alcotest.(check (option string)) "delete" None (Hart.search h' "ro00300");
  Hart.check_integrity h'

let test_crash_during_recovery () =
  (* recovery itself writes PM (log replay, repair sweep): crashing in
     the middle of it must leave a state a second recovery handles *)
  let h, pool = fresh_hart () in
  for i = 0 to 199 do
    Hart.insert h ~key:(Printf.sprintf "cr%04d" i) ~value:"v"
  done;
  (* leave a pending update log by crashing mid-update *)
  Pmem.arm_crash pool ~after_flushes:4;
  (try ignore (Hart.update h ~key:"cr0100" ~value:"NEW")
   with Pmem.Crash_injected -> ());
  (* now crash the recovery at each of its first flush points *)
  let recovered = ref None in
  let k = ref 0 in
  while !recovered = None && !k < 30 do
    Pmem.arm_crash pool ~after_flushes:!k;
    (match Hart.recover pool with
    | h' ->
        Pmem.disarm_crash pool;
        recovered := Some h'
    | exception Pmem.Crash_injected -> incr k)
  done;
  (match !recovered with
  | None ->
      (* recovery exercised 30 crash points and still had flushes left:
         finish it cleanly *)
      recovered := Some (Hart.recover pool)
  | Some _ -> ());
  let h' = Option.get !recovered in
  Hart.check_integrity ~allow_recovered_orphans:true h';
  Alcotest.(check int) "all records present" 200 (Hart.count h');
  (match Hart.search h' "cr0100" with
  | Some "v" | Some "NEW" -> ()
  | v -> Alcotest.failf "cr0100 corrupted: %s" (Option.value v ~default:"<absent>"))

let test_eviction_does_not_break_protocol () =
  (* random background write-backs may persist any dirty line at any
     time; HART's ordering must stay correct under them *)
  let h, pool = fresh_hart () in
  let rng = Rng.create 0xE71C7L in
  let model = ref SMap.empty in
  for i = 0 to 399 do
    let k = Printf.sprintf "ev%04d" (Rng.int rng 200) in
    (match Rng.int rng 3 with
    | 0 ->
        Hart.insert h ~key:k ~value:(string_of_int i);
        model := SMap.add k (string_of_int i) !model
    | 1 ->
        if Hart.update h ~key:k ~value:"u" then model := SMap.add k "u" !model
    | _ ->
        ignore (Hart.delete h k);
        model := SMap.remove k !model);
    Pmem.evict_random pool rng ~fraction:0.3
  done;
  Pmem.crash pool;
  let h' = Hart.recover pool in
  Hart.check_integrity ~allow_recovered_orphans:true h';
  Alcotest.(check int) "all committed data back" (SMap.cardinal !model)
    (Hart.count h');
  SMap.iter
    (fun k v -> Alcotest.(check (option string)) k (Some v) (Hart.search h' k))
    !model

let test_pool_image_reboot_cycle () =
  (* save -> load -> recover across simulated process restarts *)
  let h, pool = fresh_hart () in
  for i = 0 to 99 do
    Hart.insert h ~key:(Printf.sprintf "pi%03d" i) ~value:(string_of_int i)
  done;
  Pmem.persist_all pool;
  let path = Filename.temp_file "hart_core" ".pm" in
  Pmem.save pool path;
  let pool2 = Pmem.load (Meter.create Latency.c300_100) path in
  let h2 = Hart.recover pool2 in
  Alcotest.(check int) "first reboot" 100 (Hart.count h2);
  ignore (Hart.delete h2 "pi000");
  Hart.insert h2 ~key:"pi100" ~value:"100";
  Pmem.persist_all pool2;
  Pmem.save pool2 path;
  let pool3 = Pmem.load (Meter.create Latency.c300_100) path in
  let h3 = Hart.recover pool3 in
  Alcotest.(check int) "second reboot" 100 (Hart.count h3);
  Alcotest.(check (option string)) "deleted stays deleted" None (Hart.search h3 "pi000");
  Alcotest.(check (option string)) "new key survives" (Some "100") (Hart.search h3 "pi100");
  Hart.check_integrity h3;
  Sys.remove path

let test_double_recovery () =
  let h, pool = fresh_hart () in
  for i = 0 to 99 do
    Hart.insert h ~key:(Printf.sprintf "dr%03d" i) ~value:"v"
  done;
  Pmem.crash pool;
  let h1 = Hart.recover pool in
  Alcotest.(check int) "first recovery" 100 (Hart.count h1);
  Pmem.crash pool;
  let h2 = Hart.recover pool in
  Alcotest.(check int) "second recovery" 100 (Hart.count h2);
  Hart.check_integrity h2

(* ------------------------------------------------------------------ *)
(* Recovery equivalence: every mount of a crashed image — serial,
   quarantining, 1-4 domains, the Hart_mt restart — must rebuild the
   store a per-leaf reference rebuild produces, ART by ART.             *)

let dump_hart h =
  let m = ref SMap.empty in
  Hart.iter h (fun k v -> m := SMap.add k v !m);
  SMap.bindings !m

(* The reference, built from public calls only: attach its own clone,
   then insert every live leaf in chunk-chain scan order into one ART
   per hash key. Returns the ARTs by hash key and the sorted bindings. *)
let reference_rebuild pool =
  let pool = Pmem.clone pool in
  let alloc = Epalloc.attach pool in
  let kh = Epalloc.kh alloc in
  let arts = Hashtbl.create 64 and bindings = ref SMap.empty in
  Epalloc.iter_live_objs alloc Chunk.Leaf_c (fun ~obj ->
      let key = Leaf.key pool ~leaf:obj in
      let n = String.length key in
      let hk, ak =
        if n <= kh then (key, "") else (String.sub key 0 kh, String.sub key kh (n - kh))
      in
      let art =
        match Hashtbl.find_opt arts hk with
        | Some a -> a
        | None ->
            let a = Art.create () in
            Hashtbl.add arts hk a;
            a
      in
      (match Art.insert art ak obj with
      | `Inserted -> ()
      | `Replaced _ -> Alcotest.failf "reference: duplicate leaf for %S" key);
      let v = Value_obj.read pool ~obj:(Leaf.p_value pool ~leaf:obj) in
      bindings := SMap.add key v !bindings);
  (arts, SMap.bindings !bindings)

let recovery_mounts =
  [
    ("recover", fun p -> Hart.recover p);
    ("recover ~quarantine", fun p -> Hart.recover ~quarantine:true p);
    ("Hart_mt restart", fun p -> Hart_mt.underlying (Hart_mt.recover p));
  ]
  @ List.concat_map
      (fun d ->
        [
          (Printf.sprintf "%d domain(s)" d, fun p -> Hart.recover_parallel ~domains:d p);
          ( Printf.sprintf "%d domain(s), quarantining" d,
            fun p -> Hart.recover_parallel ~domains:d ~quarantine:true p );
        ])
      [ 1; 2; 3; 4 ]

(* [pool] must already be crashed; every mount recovers its own clone of
   the same durable image. Each ART must match the reference's ART of
   its hash key, and [Hart_stats] must agree across all mounts. An
   insert-only ART's shape does not depend on its insertion order;
   [test_recover_duplicate_in_scan_order] pins that order. *)
let check_recovery_equiv pool =
  let ref_arts, ref_bindings = reference_rebuild pool in
  let stats = ref None in
  List.iter
    (fun (name, mount) ->
      let h = mount (Pmem.clone pool) in
      Hart.check_integrity ~allow_recovered_orphans:true h;
      Alcotest.(check int) (name ^ ": count") (List.length ref_bindings) (Hart.count h);
      Alcotest.(check int)
        (name ^ ": art count") (Hashtbl.length ref_arts) (Hart.art_count h);
      if dump_hart h <> ref_bindings then
        Alcotest.failf "%s: bindings diverge from the reference" name;
      if Hart.quarantines h <> [] then
        Alcotest.failf "%s: clean image produced quarantine findings" name;
      Hart.iter_arts h (fun hk art ->
          match Hashtbl.find_opt ref_arts hk with
          | None -> Alcotest.failf "%s: ART %S missing from the reference" name hk
          | Some r ->
              if Art.node_histogram art <> Art.node_histogram r then
                Alcotest.failf "%s: node histogram of ART %S diverges" name hk;
              if Art.pool_stats art <> Art.pool_stats r then
                Alcotest.failf "%s: pool stats of ART %S diverge" name hk);
      let s = Hart_core.Hart_stats.collect h in
      match !stats with
      | None -> stats := Some s
      | Some s0 ->
          if s <> s0 then Alcotest.failf "%s: structural stats diverge" name)
    recovery_mounts

let test_parallel_recover_empty () =
  let h, pool = fresh_hart () in
  ignore h;
  Pmem.crash pool;
  check_recovery_equiv pool;
  Alcotest.(check int) "still empty" 0
    (Hart.count (Hart.recover_parallel ~domains:4 (Pmem.clone pool)))

let test_parallel_recover_mixed () =
  let h, pool = fresh_hart () in
  (* spread over many hash prefixes; values across all three classes *)
  for i = 0 to 1199 do
    let key =
      Printf.sprintf "%c%c-par%04d"
        (Char.chr (Char.code 'a' + (i mod 23)))
        (Char.chr (Char.code 'a' + (i / 23 mod 17)))
        i
    in
    let value =
      match i mod 3 with
      | 0 -> Printf.sprintf "v%d" i
      | 1 -> Printf.sprintf "medium-value-%04d" (i mod 10_000)
      | _ -> Printf.sprintf "wide-value-padding-%010d" (i mod 1_000_000)
    in
    Hart.insert h ~key ~value
  done;
  for i = 0 to 1199 do
    if i mod 5 = 0 then
      ignore
        (Hart.update h
           ~key:
             (Printf.sprintf "%c%c-par%04d"
                (Char.chr (Char.code 'a' + (i mod 23)))
                (Char.chr (Char.code 'a' + (i / 23 mod 17)))
                i)
           ~value:"updated"
          : bool)
  done;
  for i = 0 to 1199 do
    if i mod 3 = 0 then
      ignore
        (Hart.delete h
           (Printf.sprintf "%c%c-par%04d"
              (Char.chr (Char.code 'a' + (i mod 23)))
              (Char.chr (Char.code 'a' + (i / 23 mod 17)))
              i)
          : bool)
  done;
  Pmem.crash pool;
  check_recovery_equiv pool

let test_parallel_recover_churned () =
  (* waves of insert-everything / delete-everything cycle whole chunks
     through the recycler before the final populated state *)
  let h, pool = fresh_hart () in
  let key i = Printf.sprintf "ch%c%04d" (Char.chr (Char.code 'a' + (i mod 19))) i in
  for wave = 0 to 2 do
    for i = 0 to 599 do
      Hart.insert h ~key:(key i) ~value:(Printf.sprintf "w%d-%d" wave i)
    done;
    if wave < 2 then
      for i = 0 to 599 do
        ignore (Hart.delete h (key i) : bool)
      done
  done;
  Pmem.crash pool;
  check_recovery_equiv pool

let test_parallel_recover_short_keys () =
  (* keys at and below the hash-key length: empty ART keys, and a
     non-default kh read back from the pool header *)
  let pool = fresh_pool () in
  let h = Hart.create ~kh:3 pool in
  for i = 0 to 400 do
    let len = 1 + (i mod 6) in
    let key =
      String.init len (fun j -> Char.chr (Char.code 'a' + ((i + j) mod 26)))
    in
    Hart.insert h ~key ~value:(string_of_int i)
  done;
  Pmem.crash pool;
  let r = Hart.recover_parallel ~domains:3 (Pmem.clone pool) in
  Alcotest.(check int) "kh read from pool" 3 (Hart.kh r);
  check_recovery_equiv pool

let test_parallel_recover_pending_log () =
  (* a crash mid-update leaves a pending micro-log; its serial replay
     inside recover_parallel must land exactly as in serial recovery *)
  let h, pool = fresh_hart () in
  for i = 0 to 299 do
    Hart.insert h ~key:(Printf.sprintf "pl%04d" i) ~value:"v"
  done;
  Pmem.arm_crash pool ~after_flushes:3;
  (try ignore (Hart.update h ~key:"pl0100" ~value:"NEW" : bool)
   with Pmem.Crash_injected -> ());
  Pmem.disarm_crash pool;
  check_recovery_equiv pool

let test_parallel_recover_validation () =
  let h, pool = fresh_hart () in
  ignore h;
  Pmem.crash pool;
  Alcotest.(check bool) "domains:0 rejected" true
    (match Hart.recover_parallel ~domains:0 pool with
    | (_ : Hart.t) -> false
    | exception Invalid_argument _ -> true)

(* Attach builds each class's chunk registry from the chain walk in one
   sort. Churn a pool until its chunk lists are far out of address order:
   thousands of chunks across all four classes, a block of them recycled
   back to the pool and then reallocated at lower addresses. Both
   recovery paths must rebuild registries that agree with the lists, and
   every key must read back — also when the mount has to replay a
   pending recycle log. *)
let registry_key i =
  Printf.sprintf "%c%c-reg%06d"
    (Char.chr (Char.code 'a' + (i mod 23)))
    (Char.chr (Char.code 'a' + (i / 23 mod 17)))
    i

let registry_value i =
  match i mod 3 with
  | 0 -> Printf.sprintf "v%d" (i mod 100_000)
  | 1 -> Printf.sprintf "medium-%08d" i
  | _ -> Printf.sprintf "wide-value-padding-%010d" i

let chunk_list a cls =
  let l = ref [] in
  Epalloc.iter_chunks a cls (fun c -> l := c :: !l);
  List.rev !l

let churned_registry_pool () =
  let h, pool = fresh_hart () in
  let live = Hashtbl.create 65_536 in
  let insert i =
    Hart.insert h ~key:(registry_key i) ~value:(registry_value i);
    Hashtbl.replace live (registry_key i) (registry_value i)
  and delete i =
    if not (Hart.delete h (registry_key i)) then Alcotest.failf "%d not deleted" i;
    Hashtbl.remove live (registry_key i)
  in
  for i = 0 to 71_999 do
    insert i
  done;
  (* an address-contiguous block of chunks empties and is recycled ... *)
  for i = 24_000 to 47_999 do
    delete i
  done;
  (* ... and fresh inserts reallocate that space, linked at the heads *)
  for i = 72_000 to 89_999 do
    insert i
  done;
  (* thin the survivors so the lists also carry sparse chunks *)
  for i = 0 to 71_999 do
    if (i < 24_000 || i >= 48_000) && i mod 4 <> 0 then delete i
  done;
  let chunks = chunk_list (Hart.alloc h) in
  let all = [ Chunk.Leaf_c; Chunk.Val8; Chunk.Val16; Chunk.Val32 ] in
  let total = List.fold_left (fun n cls -> n + List.length (chunks cls)) 0 all in
  Alcotest.(check bool) (Printf.sprintf "thousands of chunks (%d)" total) true
    (total >= 2_000);
  List.iter
    (fun cls ->
      let l = chunks cls in
      Alcotest.(check bool)
        (Epalloc.cls_name cls ^ " list out of address order")
        true
        (l <> List.sort compare l && l <> List.sort (Fun.flip compare) l))
    all;
  (h, pool, live)

let check_registry_recovery ?allow_recovered_orphans live pool =
  List.iter
    (fun (name, recover) ->
      let h = recover (Pmem.clone pool) in
      Epalloc.check_invariants (Hart.alloc h);
      Hart.check_integrity ?allow_recovered_orphans h;
      Alcotest.(check int) (name ^ ": count") (Hashtbl.length live) (Hart.count h);
      Hashtbl.iter
        (fun k v ->
          if Hart.search h k <> Some v then Alcotest.failf "%s: %s lost" name k)
        live)
    [
      ("serial", fun p -> Hart.recover p);
      ("parallel", fun p -> Hart.recover_parallel ~domains:2 p);
    ]

let test_attach_registry_out_of_order () =
  let _, pool, live = churned_registry_pool () in
  Pmem.crash pool;
  check_registry_recovery live pool

(* Drain a mid-list leaf chunk of [h] down to one key and crash; then
   recover a clone, delete that last key — which unlinks the chunk under
   the recycle log — and crash at the latest flush that leaves the log
   pending. Returns that image and the keys deleted on the way. *)
let pending_recycle_image h pool =
  let chunk = List.nth (chunk_list (Hart.alloc h) Chunk.Leaf_c) 1 in
  let keys = ref [] in
  Chunk.iter_live pool Chunk.Leaf_c ~chunk (fun ~idx:_ ~obj ->
      keys := Leaf.key pool ~leaf:obj :: !keys);
  let last, drain =
    match List.sort compare !keys with
    | k :: rest -> (k, rest)
    | [] -> Alcotest.fail "mid-list chunk is empty"
  in
  List.iter
    (fun k -> if not (Hart.delete h k) then Alcotest.failf "%s not drained" k)
    drain;
  Pmem.crash pool;
  let delete_last h =
    let f0 = Pmem.flush_count (Hart.pool h) in
    Alcotest.(check bool) "last key deleted" true (Hart.delete h last);
    Pmem.flush_count (Hart.pool h) - f0
  in
  let flushes = delete_last (Hart.recover (Pmem.clone pool)) in
  (* latest crash point first: the log is pending until its final reclaim *)
  let rec crash_pending k =
    if k < 0 then Alcotest.fail "no crash point leaves the recycle log pending";
    let p = Pmem.clone pool in
    let h = Hart.recover p in
    Pmem.arm_crash p ~after_flushes:k;
    (match delete_last h with
    | (_ : int) -> Alcotest.failf "crash at flush %d never fired" k
    | exception Pmem.Crash_injected -> ());
    let pending = ref false in
    Microlog.Recycle.iter_pending (Epalloc.logs (Hart.alloc h))
      (fun ~slot:_ -> pending := true);
    if !pending then p else crash_pending (k - 1)
  in
  (crash_pending (flushes - 1), last :: drain)

let test_attach_registry_pending_recycle () =
  let h, pool, live = churned_registry_pool () in
  let image, removed = pending_recycle_image h pool in
  List.iter (Hashtbl.remove live) removed;
  check_registry_recovery ~allow_recovered_orphans:true live image

(* Grouping extremes: the rebuild groups leaves by hash key, so cover a
   single ART spanning many chunks, ARTs of one key each, ARTs whose
   only key is the hash key itself, and a mount that replays a pending
   recycle log. *)
let test_recover_one_art_many_chunks () =
  let h, pool = fresh_hart () in
  let key i = Printf.sprintf "zz%06d" i in
  (* a permuted insert order, so scan order differs from key order *)
  for i = 0 to 2999 do
    Hart.insert h ~key:(key (i * 7919 mod 3000)) ~value:(string_of_int i)
  done;
  for i = 0 to 2999 do
    if i mod 7 = 0 then ignore (Hart.delete h (key i) : bool)
  done;
  Pmem.crash pool;
  Alcotest.(check int) "one ART" 1 (Hart.art_count (Hart.recover (Pmem.clone pool)));
  Alcotest.(check bool) "dozens of leaf chunks" true
    (List.length (chunk_list (Hart.alloc h) Chunk.Leaf_c) >= 40);
  check_recovery_equiv pool

let test_recover_one_key_arts () =
  let h, pool = fresh_hart ~kh:4 () in
  let keys = Keygen.generate Keygen.Random 1500 in
  Array.iteri (fun i key -> Hart.insert h ~key ~value:(Keygen.value_for i)) keys;
  Pmem.crash pool;
  let r = Hart.recover (Pmem.clone pool) in
  Alcotest.(check bool) "most ARTs hold one key" true
    (2 * Hart.art_count r > Hart.count r + Hart.art_count r / 2);
  check_recovery_equiv pool

let test_recover_keys_within_kh () =
  let h, pool = fresh_hart ~kh:4 () in
  (* every string of 1-4 letters over a..f: all ART keys are empty *)
  let rec strings len =
    if len = 0 then [ "" ]
    else
      List.concat_map
        (fun s -> List.init 6 (fun c -> s ^ String.make 1 (Char.chr (97 + c))))
        (strings (len - 1))
  in
  let keys = List.concat_map strings [ 1; 2; 3; 4 ] in
  List.iteri (fun i key -> Hart.insert h ~key ~value:(string_of_int i)) keys;
  List.iteri (fun i key -> if i mod 5 = 0 then ignore (Hart.delete h key : bool)) keys;
  Pmem.crash pool;
  let r = Hart.recover (Pmem.clone pool) in
  Alcotest.(check int) "one key per ART" (Hart.count r) (Hart.art_count r);
  check_recovery_equiv pool

(* Structure alone cannot show insertion order: an insert-only ART's
   shape and pool stats are the same for every order of its keys. A
   duplicate committed leaf can: the mount raises at the second leaf of
   the pair it meets, so it must name the later leaf in chain-scan order
   at every domain count — for a pair inside one chunk (one scan slice
   at every domain count) and for a pair across the chain. *)
let test_recover_duplicate_in_scan_order () =
  let h, pool = fresh_hart () in
  for i = 0 to 299 do
    Hart.insert h ~key:(Printf.sprintf "dd%04d" (i * 7 mod 300)) ~value:"v"
  done;
  let live_leaves chunk =
    let l = ref [] in
    Chunk.iter_live pool Chunk.Leaf_c ~chunk (fun ~idx:_ ~obj -> l := obj :: !l);
    List.rev !l
  in
  let chunks = chunk_list (Hart.alloc h) Chunk.Leaf_c in
  let head = live_leaves (List.hd chunks) in
  let first = List.hd head in
  let last_of l = List.hd (List.rev l) in
  List.iter
    (fun (what, later) ->
      let img = Pmem.clone pool in
      Leaf.write_key img ~leaf:later (Leaf.key img ~leaf:first);
      Pmem.persist img ~off:later ~len:Leaf.size;
      Pmem.crash img;
      List.iter
        (fun d ->
          match Hart.recover_parallel ~domains:d (Pmem.clone img) with
          | (_ : Hart.t) -> Alcotest.failf "%s: duplicate mounted at %d domain(s)" what d
          | exception Hart_error.Error { site = Leaf_slot { leaf; _ }; _ } ->
              Alcotest.(check int)
                (Printf.sprintf "%s: later leaf named at %d domain(s)" what d)
                later leaf)
        [ 1; 2; 3; 4 ])
    [
      ("within a chunk", last_of head);
      ("across the chain", last_of (live_leaves (last_of chunks)));
    ]

let test_recover_pending_recycle () =
  let h, pool = fresh_hart () in
  for i = 0 to 899 do
    Hart.insert h ~key:(registry_key i) ~value:(registry_value i)
  done;
  let image, _ = pending_recycle_image h pool in
  check_recovery_equiv image

(* ------------------------------------------------------------------ *)
(* Rwlock and Hart_mt                                                  *)

let test_rwlock_exclusion () =
  let l = Rwlock.create () in
  Rwlock.write_lock l;
  Alcotest.(check bool) "writer active" true (Rwlock.writer_active l);
  Rwlock.write_unlock l;
  Rwlock.read_lock l;
  Rwlock.read_lock l;
  Alcotest.(check int) "two readers" 2 (Rwlock.readers l);
  Rwlock.read_unlock l;
  Rwlock.read_unlock l;
  Alcotest.(check int) "released" 0 (Rwlock.readers l)

let test_rwlock_writer_blocks_readers () =
  let l = Rwlock.create () in
  let hits = Atomic.make 0 in
  Rwlock.write_lock l;
  let reader =
    Domain.spawn (fun () ->
        Rwlock.with_read l (fun () -> Atomic.incr hits))
  in
  Unix.sleepf 0.05;
  Alcotest.(check int) "reader blocked while writer holds" 0 (Atomic.get hits);
  Rwlock.write_unlock l;
  Domain.join reader;
  Alcotest.(check int) "reader ran after release" 1 (Atomic.get hits)

let test_rwlock_counter_race () =
  let l = Rwlock.create () in
  let counter = ref 0 in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Rwlock.with_write l (fun () -> counter := !counter + 1)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no lost updates" 4000 !counter

let test_hart_mt_basic () =
  let pool = fresh_pool () in
  let h = Hart_mt.create pool in
  Hart_mt.insert h ~key:"mtkey" ~value:"v";
  Alcotest.(check (option string)) "search" (Some "v") (Hart_mt.search h "mtkey");
  Alcotest.(check bool) "update" true (Hart_mt.update h ~key:"mtkey" ~value:"w");
  Alcotest.(check bool) "delete" true (Hart_mt.delete h "mtkey");
  Alcotest.(check int) "count" 0 (Hart_mt.count h)

let test_hart_mt_concurrent_inserts () =
  let pool = fresh_pool () in
  let h = Hart_mt.create pool in
  let n_domains = 4 and per = 500 in
  let workers =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Hart_mt.insert h
                ~key:(Printf.sprintf "d%d-%04d" d i)
                ~value:(string_of_int i)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "all inserted" (n_domains * per) (Hart_mt.count h);
  for d = 0 to n_domains - 1 do
    for i = 0 to per - 1 do
      let k = Printf.sprintf "d%d-%04d" d i in
      if Hart_mt.search h k <> Some (string_of_int i) then
        Alcotest.failf "lost key %s" k
    done
  done;
  Hart.check_integrity (Hart_mt.underlying h)

let test_hart_mt_mixed_stress () =
  let pool = fresh_pool () in
  let h = Hart_mt.create pool in
  for i = 0 to 199 do
    Hart_mt.insert h ~key:(Printf.sprintf "mx%04d" i) ~value:"init"
  done;
  let workers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.create (Int64.of_int (100 + d)) in
            for _ = 1 to 1000 do
              let k = Printf.sprintf "mx%04d" (Rng.int rng 200) in
              match Rng.int rng 4 with
              | 0 -> Hart_mt.insert h ~key:k ~value:(Printf.sprintf "d%d" d)
              | 1 -> ignore (Hart_mt.search h k)
              | 2 -> ignore (Hart_mt.update h ~key:k ~value:"u")
              | _ -> ignore (Hart_mt.delete h k)
            done))
  in
  List.iter Domain.join workers;
  Hart.check_integrity (Hart_mt.underlying h)

let test_hart_mt_lock_mapping () =
  let pool = fresh_pool () in
  let h = Hart_mt.create pool in
  let l1 = Hart_mt.art_lock h "AAkey1" in
  let l2 = Hart_mt.art_lock h "AAkey2" in
  let l3 = Hart_mt.art_lock h "BBkey1" in
  Alcotest.(check bool) "same prefix -> same lock" true (l1 == l2);
  Alcotest.(check bool) "different prefix -> different lock" true (l1 != l3)

(* ------------------------------------------------------------------ *)
(* Exhaustive delete-path / recycle-log crash matrices                 *)

(* Sweep EVERY flush boundary of [f] (the dry run bounds the sweep), and
   at every boundary also crash the recovery at every one of ITS flush
   boundaries, and the second recovery at every of THEIRS, before
   validating with [check]. Pmem.clone keeps the nesting affordable:
   prefixes re-execute once per outer point only. *)
let crash_matrix ~build ~f ~check =
  let total =
    let h, pool = build () in
    let f0 = Pmem.flush_count pool in
    f h;
    Pmem.flush_count pool - f0
  in
  Alcotest.(check bool) "operation flushes at all" true (total > 0);
  for k = 0 to total - 1 do
    let h, pool = build () in
    Pmem.arm_crash pool ~after_flushes:k;
    (try
       f h;
       Alcotest.failf "crash %d/%d never fired" k total
     with Pmem.Crash_injected -> ());
    let outer = Pmem.clone pool in
    (* second-level sweep: crash the first recovery at flush [m] *)
    let r1 =
      let p = Pmem.clone outer in
      let f0 = Pmem.flush_count p in
      ignore (Hart.recover p);
      Pmem.flush_count p - f0
    in
    for m = 0 to r1 - 1 do
      let p = Pmem.clone outer in
      Pmem.arm_crash p ~after_flushes:m;
      (try
         ignore (Hart.recover p);
         Alcotest.failf "nested crash %d.%d never fired" k m
       with Pmem.Crash_injected -> ());
      let mid = Pmem.clone p in
      (* third-level sweep: crash the SECOND recovery at flush [q] *)
      let r2 =
        let q = Pmem.clone mid in
        let f0 = Pmem.flush_count q in
        ignore (Hart.recover q);
        Pmem.flush_count q - f0
      in
      for q = 0 to r2 - 1 do
        let p2 = Pmem.clone mid in
        Pmem.arm_crash p2 ~after_flushes:q;
        (try
           ignore (Hart.recover p2);
           Alcotest.failf "nested crash %d.%d.%d never fired" k m q
         with Pmem.Crash_injected -> ());
        let h3 = Hart.recover p2 in
        Hart.check_integrity ~allow_recovered_orphans:true h3;
        check h3
      done;
      let h2 = Hart.recover mid in
      Hart.check_integrity ~allow_recovered_orphans:true h2;
      check h2
    done;
    let h1 = Hart.recover outer in
    Hart.check_integrity ~allow_recovered_orphans:true h1;
    check h1
  done;
  total

let test_delete_crash_matrix () =
  (* the richest Algorithm 5 instance: deleting the last key of a prefix
     empties its leaf chunk AND its value chunk (both recycled via the
     Algorithm 6 log) and removes the empty ART from the directory *)
  let build () =
    let h, pool = fresh_hart () in
    Hart.insert h ~key:"XXonly-key" ~value:"last value";
    Hart.insert h ~key:"YYbystander" ~value:"B";
    (h, pool)
  in
  let total =
    crash_matrix ~build
      ~f:(fun h -> ignore (Hart.delete h "XXonly-key"))
      ~check:(fun h' ->
        Alcotest.(check (option string)) "bystander survives" (Some "B")
          (Hart.search h' "YYbystander");
        (match Hart.search h' "XXonly-key" with
        | None | Some "last value" -> ()
        | Some v -> Alcotest.failf "victim neither absent nor intact: %S" v);
        (* drain and reuse: the half-recycled chunks must stay usable *)
        ignore (Hart.delete h' "XXonly-key");
        Hart.insert h' ~key:"XXonly-key" ~value:"again";
        Hart.check_integrity h')
  in
  Alcotest.(check bool) "delete path has many crash points" true (total >= 6)

let test_recycle_log_crash_matrix () =
  (* drive Algorithm 6 through a MIDDLE-of-list unlink: three leaf chunks
     exist and the middle one empties. Sweep the two deletes that empty
     it, with full nested recovery sweeps. *)
  let n = 56 in
  let build () =
    let h, pool = fresh_hart () in
    for c = 0 to 2 do
      for i = 0 to n - 1 do
        Hart.insert h ~key:(Printf.sprintf "c%d-%03d" c i) ~value:"v"
      done
    done;
    (* drain the middle chunk down to its final two keys *)
    for i = 2 to n - 1 do
      ignore (Hart.delete h (Printf.sprintf "c1-%03d" i))
    done;
    (h, pool)
  in
  ignore
    (crash_matrix ~build
       ~f:(fun h ->
         ignore (Hart.delete h "c1-000");
         ignore (Hart.delete h "c1-001"))
       ~check:(fun h' ->
         Alcotest.(check (option string)) "first chunk intact" (Some "v")
           (Hart.search h' "c0-000");
         Alcotest.(check (option string)) "last chunk intact" (Some "v")
           (Hart.search h' "c2-055");
         List.iter
           (fun k ->
             match Hart.search h' k with
             | None | Some "v" -> ()
             | Some x -> Alcotest.failf "%s corrupted: %S" k x)
           [ "c1-000"; "c1-001" ];
         Hart.insert h' ~key:"c1-000" ~value:"reuse";
         Hart.check_integrity h')
      : int)

(* ------------------------------------------------------------------ *)
(* Range / min / max edge cases                                        *)

let test_range_short_keys () =
  (* keys shorter than kh = 2 live in dedicated hash slots with empty
     ART keys; range must still see them in global key order *)
  let h, _ = fresh_hart () in
  List.iter
    (fun k -> Hart.insert h ~key:k ~value:("v" ^ k))
    [ "a"; "b"; "ab"; "abc"; "b0"; "B" ];
  let got = ref [] in
  Hart.range h ~lo:"a" ~hi:"b" (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "short keys in range" [ "a"; "ab"; "abc"; "b" ]
    (List.rev !got);
  Alcotest.(check (option (pair string string))) "min is capital"
    (Some ("B", "vB")) (Hart.min_binding h);
  Alcotest.(check (option (pair string string))) "max" (Some ("b0", "vb0"))
    (Hart.max_binding h)

let test_range_hash_prefix_bounds () =
  (* lo / hi exactly equal to a hash-key prefix: the 2-byte prefix "ab"
     is both a live key and the hash key of "abc", "abd" *)
  let h, _ = fresh_hart () in
  List.iter
    (fun k -> Hart.insert h ~key:k ~value:k)
    [ "aa"; "ab"; "abc"; "abd"; "ac"; "b" ];
  let collect lo hi =
    let acc = ref [] in
    Hart.range h ~lo ~hi (fun k _ -> acc := k :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list string)) "hi = prefix excludes its extensions"
    [ "aa"; "ab" ] (collect "a" "ab");
  Alcotest.(check (list string)) "lo = prefix includes it and extensions"
    [ "ab"; "abc"; "abd"; "ac" ] (collect "ab" "ac");
  Alcotest.(check (list string)) "interior of one prefix" [ "abc"; "abd" ]
    (collect "aba" "abz")

let test_range_lo_eq_hi () =
  let h, _ = fresh_hart () in
  List.iter (fun k -> Hart.insert h ~key:k ~value:k) [ "q"; "qq"; "qqq" ];
  let collect lo hi =
    let acc = ref [] in
    Hart.range h ~lo ~hi (fun k _ -> acc := k :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list string)) "lo = hi = live key" [ "qq" ] (collect "qq" "qq");
  Alcotest.(check (list string)) "lo = hi absent" [] (collect "qx" "qx");
  Alcotest.(check (list string)) "inverted bounds empty" [] (collect "z" "a")

let test_range_after_art_cleanup () =
  (* deleting the last key of a prefix drops its ART from the directory;
     range / min / max must neither see ghosts nor miss neighbours *)
  let h, _ = fresh_hart () in
  List.iter
    (fun k -> Hart.insert h ~key:k ~value:k)
    [ "m1-a"; "m2-a"; "m2-b"; "m3-a" ];
  ignore (Hart.delete h "m2-a");
  ignore (Hart.delete h "m2-b");
  Alcotest.(check int) "one ART dropped" 2 (Hart.art_count h);
  let acc = ref [] in
  Hart.range h ~lo:"m1" ~hi:"m4" (fun k _ -> acc := k :: !acc);
  Alcotest.(check (list string)) "no ghosts, no gaps" [ "m1-a"; "m3-a" ]
    (List.rev !acc);
  Alcotest.(check (option (pair string string))) "min skips dropped ART"
    (Some ("m1-a", "m1-a")) (Hart.min_binding h);
  Alcotest.(check (option (pair string string))) "max skips dropped ART"
    (Some ("m3-a", "m3-a")) (Hart.max_binding h);
  ignore (Hart.delete h "m1-a");
  ignore (Hart.delete h "m3-a");
  Alcotest.(check (option (pair string string))) "min on emptied store" None
    (Hart.min_binding h);
  Alcotest.(check (option (pair string string))) "max on emptied store" None
    (Hart.max_binding h);
  let empty = ref [] in
  Hart.range h ~lo:"" ~hi:"~~~~" (fun k _ -> empty := k :: !empty);
  Alcotest.(check (list string)) "range on emptied store" [] !empty;
  Hart.check_integrity h

(* ------------------------------------------------------------------ *)
(* Recover round-trips over every index (HART + the seven baselines)   *)

module Fault = Hart_fault.Fault
module Explore = Hart_fault.Explore

(* Build an index, snapshot its pool with [Pmem.clone] (a quiesced
   "reboot"), [recover] from the snapshot and differential-check the
   recovered bindings against a pure Map oracle; then keep operating on
   the recovered instance to prove it is live, not just readable. *)
let roundtrip_check (tgt : Fault.target) ops =
  let name = tgt.Fault.target_name in
  let inst = tgt.Fault.fresh () in
  List.iter inst.Fault.apply ops;
  let model = List.fold_left Explore.apply_model SMap.empty ops in
  Alcotest.(check (list (pair string string)))
    (name ^ ": live bindings match oracle")
    (SMap.bindings model) (inst.Fault.dump ());
  let snapshot = Pmem.clone inst.Fault.pool in
  let r = tgt.Fault.reattach snapshot in
  r.Fault.check ();
  Alcotest.(check (list (pair string string)))
    (name ^ ": recovered bindings match oracle")
    (SMap.bindings model) (r.Fault.dump ());
  let post = Explore.[ Insert ("zz-post-recover", "pr"); Delete "zz-post-recover" ] in
  List.iter r.Fault.apply post;
  r.Fault.check ();
  Alcotest.(check (list (pair string string)))
    (name ^ ": recovered instance still operates")
    (SMap.bindings model) (r.Fault.dump ())

let test_recover_roundtrip_empty () =
  List.iter (fun tgt -> roundtrip_check tgt []) Fault.all_targets

let test_recover_roundtrip_single_key () =
  List.iter
    (fun tgt -> roundtrip_check tgt [ Explore.Insert ("solo", "v") ])
    Fault.all_targets

let test_recover_roundtrip_mixed () =
  let ops =
    Explore.
      [
        Insert ("alpha", "1");
        Insert ("alpha-beta", "2");
        Insert ("beta", "3");
        Update ("alpha", "one");
        Insert ("gamma", "");
        Delete "beta";
        Insert ("a", "x");
        Insert ("delta", String.make 30 'd');
        Delete "never-existed";
        Update ("also-never-existed", "m");
        Insert ("alpha", "one-again");
      ]
  in
  List.iter (fun tgt -> roundtrip_check tgt ops) Fault.all_targets

(* ------------------------------------------------------------------ *)
(* Image corruption: every baseline's saved image must be rejected by
   [Pmem.load] when its trailing whole-image checksum no longer matches
   — a corrupt trailer, a flipped body bit, or a truncation must never
   produce a silently-wrong mounted pool.                              *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let expect_load_failure name path =
  match Pmem.load (Meter.create Latency.c300_100) path with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: corrupt image accepted by Pmem.load" name

let test_image_corruption_all_indexes () =
  let ops =
    Explore.
      [
        Insert ("ic-a", "1");
        Insert ("ic-b", String.make 24 'b');
        Insert ("ic-c", "3");
        Delete "ic-a";
        Update ("ic-b", "two");
      ]
  in
  let model = List.fold_left Explore.apply_model SMap.empty ops in
  let path = Filename.temp_file "hart_img" ".pm" in
  List.iter
    (fun (tgt : Fault.target) ->
      let name = tgt.Fault.target_name in
      let inst = tgt.Fault.fresh () in
      List.iter inst.Fault.apply ops;
      Pmem.persist_all inst.Fault.pool;
      Pmem.save inst.Fault.pool path;
      (* the pristine image loads and the index recovers from it *)
      let pool' = Pmem.load (Meter.create Latency.c300_100) path in
      let r = tgt.Fault.reattach pool' in
      r.Fault.check ();
      Alcotest.(check (list (pair string string)))
        (name ^ ": image round-trip")
        (SMap.bindings model) (r.Fault.dump ());
      let image = read_file path in
      let len = String.length image in
      let flipped at mask =
        let b = Bytes.of_string image in
        Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor mask));
        Bytes.to_string b
      in
      write_file path (flipped (len - 3) 0x20);
      expect_load_failure (name ^ ": corrupt trailer") path;
      write_file path (flipped (len / 2) 0x01);
      expect_load_failure (name ^ ": flipped body bit") path;
      write_file path (String.sub image 0 (len - 5));
      expect_load_failure (name ^ ": truncated mid-trailer") path;
      write_file path (String.sub image 0 (len / 2));
      expect_load_failure (name ^ ": truncated mid-body") path)
    Fault.all_targets;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* fsck / scrub / media quarantine                                     *)

let populate_hart ?checksums () =
  let pool = fresh_pool () in
  let h = Hart.create ?checksums pool in
  let model = ref SMap.empty in
  let key_of i =
    Printf.sprintf "%c%c-fk%03d"
      (Char.chr (97 + (i mod 7)))
      (Char.chr (97 + (i mod 5)))
      i
  in
  for i = 0 to 149 do
    let value =
      match i mod 3 with
      | 0 -> Printf.sprintf "v%d" i
      | 1 -> Printf.sprintf "value-medium-%04d" i
      | _ -> Printf.sprintf "value-wide-padding-%08d" i
    in
    Hart.insert h ~key:(key_of i) ~value;
    model := SMap.add (key_of i) value !model
  done;
  for i = 0 to 149 do
    if i mod 11 = 0 then begin
      ignore (Hart.delete h (key_of i));
      model := SMap.remove (key_of i) !model
    end
  done;
  (h, pool, !model)

let test_fsck_clean_store () =
  let h, pool, model = populate_hart () in
  Alcotest.(check int) "no quarantines" 0 (List.length (Hart.quarantines h));
  Alcotest.(check int) "fsck clean" 0 (List.length (Hart.fsck h));
  Alcotest.(check int) "scrub clean" 0 (List.length (Hart.scrub h));
  Pmem.crash pool;
  let h' = Hart.recover ~quarantine:true pool in
  Alcotest.(check int) "recovery quarantines nothing" 0
    (List.length (Hart.quarantines h'));
  Alcotest.(check int) "fsck clean after recovery" 0
    (List.length (Hart.fsck h'));
  Hart.check_integrity ~allow_recovered_orphans:true h';
  Alcotest.(check int) "count intact" (SMap.cardinal model) (Hart.count h')

let test_checksummed_roundtrip () =
  let h, pool, model = populate_hart ~checksums:true () in
  Alcotest.(check bool) "flag set" true (Hart.checksums h);
  Alcotest.(check int) "deep fsck clean" 0
    (List.length (Hart.fsck ~deep:true h));
  Pmem.crash pool;
  let h' = Hart.recover pool in
  Alcotest.(check bool) "pool self-describes" true (Hart.checksums h');
  Alcotest.(check (list (pair string string)))
    "bindings survive reboot" (SMap.bindings model) (dump_hart h');
  Hart.check_integrity ~allow_recovered_orphans:true h';
  Alcotest.(check int) "deep fsck clean after reboot" 0
    (List.length (Hart.fsck ~deep:true h'));
  Pmem.crash pool;
  let hp = Hart.recover_parallel ~domains:3 ~quarantine:true pool in
  Alcotest.(check (list (pair string string)))
    "parallel quarantining recovery agrees" (SMap.bindings model)
    (dump_hart hp);
  Alcotest.(check int) "parallel quarantines nothing" 0
    (List.length (Hart.quarantines hp))

let leaf_offsets h =
  let offs = ref [] in
  Hart.iter_arts h (fun _hk art ->
      Art.iter art (fun _k off -> offs := off :: !offs));
  List.sort_uniq compare !offs

(* A live leaf's line is destroyed: the binding cannot be repaired, so
   recovery must excise it, report it, and keep everything else intact —
   never serve a corrupted key or value.                               *)
let test_unrepairable_leaf_quarantined () =
  let h, pool, model = populate_hart () in
  Pmem.persist_all pool;
  let victim = List.nth (leaf_offsets h) 3 in
  Pmem.crash pool;
  Pmem.inject_media_fault pool
    (Pmem.Clobber_line { line = victim / Pmem.line_bytes; seed = 0xBADF00DL });
  let h' = Hart.recover ~quarantine:true pool in
  let qs = Hart.quarantines h' in
  Alcotest.(check bool) "losses reported" true
    (List.exists
       (fun (f : Hart_error.finding) ->
         f.Hart_error.f_action = Hart_error.Quarantined)
       qs);
  let lost =
    SMap.fold
      (fun key _ acc -> if Hart.search h' key = None then key :: acc else acc)
      model []
  in
  Alcotest.(check bool) "the clobbered leaf is gone" true (lost <> []);
  (* survivors are exact: present implies model-correct *)
  Hart.iter h' (fun key value ->
      match SMap.find_opt key model with
      | Some v when v = value -> ()
      | Some v -> Alcotest.failf "key %S: got %S, want %S" key value v
      | None -> Alcotest.failf "fabricated key %S" key);
  (* fsck heals the pool: the excised leaf's value object is reclaimed,
     its lines resealed, and a second pass finds nothing left to do *)
  ignore (Hart.fsck h');
  Hart.check_integrity ~allow_recovered_orphans:true h';
  Alcotest.(check int) "fsck converges" 0 (List.length (Hart.fsck h'));
  Alcotest.(check (list int))
    "media scrub clean after fsck" []
    (Pmem.media_verify pool).Pmem.corrupt_lines

let test_microlog_acquire_timeout () =
  let pool = fresh_pool () in
  let base = Pmem.alloc pool Microlog.region_bytes in
  let logs = Microlog.create pool ~base in
  let slots =
    List.init Microlog.n_slots (fun _ -> Microlog.Update.acquire logs)
  in
  Microlog.set_acquire_timeout logs (Some 0.02);
  (match Microlog.Update.acquire logs with
  | _ -> Alcotest.fail "acquire should have timed out"
  | exception
      Hart_error.Error
        { site = Hart_error.Log_stall { kind; waited; busy }; _ } ->
      Alcotest.(check string) "kind" "update" kind;
      Alcotest.(check bool) "waited recorded" true (waited >= 0.02);
      Alcotest.(check int) "all slots dumped as busy" Microlog.n_slots
        (List.length busy));
  (* a reclaim un-wedges acquisition within the same timeout regime *)
  Microlog.Update.reclaim logs ~slot:(List.hd slots);
  let s = Microlog.Update.acquire logs in
  Alcotest.(check int) "freed slot re-acquired" (List.hd slots) s

(* k seeded media faults into a populated pool: a quarantining mount
   plus fsck must partition every finding into {repaired, quarantined,
   detected}, serve only model-correct bindings, and report any loss —
   or refuse the mount with a typed error. Silent wrong answers fail.  *)
let qcheck_media_fsck_partition =
  QCheck.Test.make ~count:30 ~name:"media faults: fsck report partitions"
    QCheck.(triple (int_bound 0xFFFF) (int_range 1 6) bool)
    (fun (seed, k, checksums) ->
      let h0, pool, model = populate_hart ~checksums () in
      ignore h0;
      Pmem.persist_all pool;
      Pmem.crash pool;
      let rng = Rng.create (Int64.of_int (0x5EED0000 + seed)) in
      let lines = max 3 (Pmem.live_bytes pool / Pmem.line_bytes) in
      for _ = 1 to k do
        let line = 1 + Rng.int rng (lines - 1) in
        let fault =
          match Rng.int rng 5 with
          | 0 ->
              Pmem.Flip_bit
                {
                  off = (line * Pmem.line_bytes) + Rng.int rng Pmem.line_bytes;
                  bit = Rng.int rng 8;
                }
          | 1 -> Pmem.Flip_bits { seed = Rng.next64 rng; flips = 1 + Rng.int rng 4 }
          | 2 -> Pmem.Clobber_line { line; seed = Rng.next64 rng }
          | 3 -> Pmem.Stuck_line { line }
          | _ -> Pmem.Poison_line { line }
        in
        Pmem.inject_media_fault pool fault
      done;
      match Hart.recover ~quarantine:true pool with
      | exception Hart_error.Error _ -> true (* typed refusal = detected *)
      | exception Pmem.Media_poisoned _ -> true
      | h -> (
          try
            let findings = Hart.quarantines h @ Hart.fsck h in
            let repaired, quarantined, detected =
              Hart_error.partition findings
            in
            if
              List.length repaired + List.length quarantined
              + List.length detected
              <> List.length findings
            then QCheck.Test.fail_report "partition is not total";
            Hart.iter h (fun key value ->
                match SMap.find_opt key model with
                | Some v when v = value -> ()
                | Some v ->
                    QCheck.Test.fail_reportf "key %S: got %S, want %S" key
                      value v
                | None -> QCheck.Test.fail_reportf "fabricated key %S" key);
            let lost =
              SMap.fold
                (fun key _ acc ->
                  if Hart.search h key = None then key :: acc else acc)
                model []
            in
            if lost <> [] && quarantined = [] && detected = [] then
              QCheck.Test.fail_reportf
                "%d keys lost but nothing quarantined or detected"
                (List.length lost);
            Hart.check_integrity ~allow_recovered_orphans:true h;
            true
          with
          | Hart_error.Error _ | Pmem.Media_poisoned _ ->
              true (* typed mid-walk detection is an accepted outcome *)))

let () =
  Alcotest.run "core"
    [
      ( "hash_dir",
        [
          Alcotest.test_case "basic" `Quick test_dir_basic;
          Alcotest.test_case "remove" `Quick test_dir_remove;
          Alcotest.test_case "grows" `Quick test_dir_grows;
          QCheck_alcotest.to_alcotest qcheck_dir_vs_hashtbl;
        ] );
      ( "chunk",
        [
          Alcotest.test_case "classes and sizes" `Quick test_chunk_classes;
          Alcotest.test_case "header fields" `Quick test_chunk_header_fields;
          Alcotest.test_case "header durable" `Quick test_chunk_header_durable;
          Alcotest.test_case "pnext durable" `Quick test_chunk_pnext;
          Alcotest.test_case "iter_live" `Quick test_chunk_iter_live;
        ] );
      ( "epalloc",
        [
          Alcotest.test_case "distinct objects" `Quick test_epalloc_distinct_objects;
          Alcotest.test_case "no double hand-out" `Quick test_epalloc_no_double_handout;
          Alcotest.test_case "cancel reservation" `Quick test_epalloc_cancel_reservation;
          Alcotest.test_case "slot reuse after reset" `Quick test_epalloc_slot_reuse_after_reset;
          Alcotest.test_case "chunk_of_obj" `Quick test_epalloc_chunk_of_obj;
          Alcotest.test_case "class_of_value_obj" `Quick test_epalloc_class_of_value_obj;
          Alcotest.test_case "recycle returns space" `Quick test_eprecycle_returns_space;
          Alcotest.test_case "recycle mid-list" `Quick test_eprecycle_middle_of_list;
          Alcotest.test_case "recycle refuses non-empty" `Quick test_eprecycle_refuses_nonempty;
          Alcotest.test_case "attach rebuilds" `Quick test_epalloc_attach_rebuilds;
          Alcotest.test_case "attach rejects garbage" `Quick test_epalloc_attach_rejects_garbage;
          Alcotest.test_case "leaf slot repair" `Quick test_epalloc_leaf_repair;
          QCheck_alcotest.to_alcotest qcheck_epalloc_model;
          QCheck_alcotest.to_alcotest qcheck_chunk_header_roundtrip;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "leaf" `Quick test_leaf_codec;
          Alcotest.test_case "leaf key limit" `Quick test_leaf_key_limit;
          Alcotest.test_case "value object" `Quick test_value_codec;
        ] );
      ( "microlog",
        [
          Alcotest.test_case "roundtrip" `Quick test_microlog_roundtrip;
          Alcotest.test_case "durability" `Quick test_microlog_durability;
          Alcotest.test_case "recycle class tag" `Quick test_microlog_recycle_class;
          Alcotest.test_case "exhaustion" `Quick test_microlog_exhaustion;
        ] );
      ( "hart",
        [
          Alcotest.test_case "insert/search" `Quick test_hart_insert_search;
          Alcotest.test_case "insert is upsert" `Quick test_hart_insert_is_upsert;
          Alcotest.test_case "update" `Quick test_hart_update;
          Alcotest.test_case "update changes size class" `Quick test_hart_update_changes_class;
          Alcotest.test_case "delete" `Quick test_hart_delete;
          Alcotest.test_case "delete frees empty ART" `Quick test_hart_delete_frees_empty_art;
          Alcotest.test_case "short keys" `Quick test_hart_short_keys;
          Alcotest.test_case "key/value limits" `Quick test_hart_key_limits;
          Alcotest.test_case "empty value" `Quick test_hart_empty_value;
          Alcotest.test_case "split_key" `Quick test_hart_split_key;
          Alcotest.test_case "kh variants" `Quick test_hart_kh_variants;
          Alcotest.test_case "cross-ART range" `Quick test_hart_range;
          Alcotest.test_case "range: keys shorter than kh" `Quick
            test_range_short_keys;
          Alcotest.test_case "range: hash-prefix bounds" `Quick
            test_range_hash_prefix_bounds;
          Alcotest.test_case "range: lo = hi" `Quick test_range_lo_eq_hi;
          Alcotest.test_case "range/min/max after ART cleanup" `Quick
            test_range_after_art_cleanup;
          Alcotest.test_case "iter" `Quick test_hart_iter;
          Alcotest.test_case "fold/min/max" `Quick test_hart_fold_min_max;
          Alcotest.test_case "stats" `Quick test_hart_stats;
          Alcotest.test_case "memory accounting" `Quick test_hart_memory_accounting;
          QCheck_alcotest.to_alcotest qcheck_hart_vs_map;
        ] );
      ( "crash",
        [
          Alcotest.test_case "insert crash sweep" `Quick test_insert_crash_sweep;
          Alcotest.test_case "update crash sweep" `Quick test_update_crash_sweep;
          Alcotest.test_case "delete crash sweep" `Quick test_delete_crash_sweep;
          Alcotest.test_case "recycle crash sweep" `Quick test_recycle_crash_sweep;
          Alcotest.test_case "ulog state: PLeaf only" `Quick test_ulog_state_pleaf_only;
          Alcotest.test_case "ulog state: PLeaf+POldV" `Quick test_ulog_state_pleaf_poldv;
          Alcotest.test_case "ulog state: all three (redo)" `Quick test_ulog_state_all_three;
          Alcotest.test_case "ulog replay idempotent" `Quick test_ulog_replay_is_idempotent;
          Alcotest.test_case "rlog head unlink" `Quick test_rlog_recovery_head_unlink;
          Alcotest.test_case "delete crash matrix (3-level)" `Quick
            test_delete_crash_matrix;
          Alcotest.test_case "recycle-log crash matrix (mid-list)" `Quick
            test_recycle_log_crash_matrix;
          QCheck_alcotest.to_alcotest qcheck_crash_anywhere;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "empty pool" `Quick test_recover_empty;
          Alcotest.test_case "kh persisted" `Quick test_recover_preserves_kh;
          Alcotest.test_case "recover then operate" `Quick test_recover_then_operate;
          Alcotest.test_case "double recovery" `Quick test_double_recovery;
          Alcotest.test_case "crash during recovery" `Quick test_crash_during_recovery;
          Alcotest.test_case "eviction robustness" `Quick test_eviction_does_not_break_protocol;
          Alcotest.test_case "pool image reboot cycle" `Quick test_pool_image_reboot_cycle;
          QCheck_alcotest.to_alcotest qcheck_hart_recovery;
        ] );
      ( "parallel-recovery",
        [
          Alcotest.test_case "empty pool" `Quick test_parallel_recover_empty;
          Alcotest.test_case "mixed pool" `Quick test_parallel_recover_mixed;
          Alcotest.test_case "churned pool" `Quick test_parallel_recover_churned;
          Alcotest.test_case "short keys, kh=3" `Quick test_parallel_recover_short_keys;
          Alcotest.test_case "pending update log" `Quick test_parallel_recover_pending_log;
          Alcotest.test_case "validation" `Quick test_parallel_recover_validation;
          Alcotest.test_case "registry from out-of-order chunk lists" `Quick
            test_attach_registry_out_of_order;
          Alcotest.test_case "registry with pending recycle replay" `Quick
            test_attach_registry_pending_recycle;
          Alcotest.test_case "one ART over many chunks" `Quick
            test_recover_one_art_many_chunks;
          Alcotest.test_case "kh=4, one-key ARTs" `Quick test_recover_one_key_arts;
          Alcotest.test_case "keys within kh" `Quick test_recover_keys_within_kh;
          Alcotest.test_case "pending recycle log" `Quick test_recover_pending_recycle;
          Alcotest.test_case "duplicate leaf named in scan order" `Quick
            test_recover_duplicate_in_scan_order;
        ] );
      ( "recover-roundtrip",
        [
          Alcotest.test_case "all indexes: empty" `Quick test_recover_roundtrip_empty;
          Alcotest.test_case "all indexes: single key" `Quick
            test_recover_roundtrip_single_key;
          Alcotest.test_case "all indexes: mixed ops" `Quick
            test_recover_roundtrip_mixed;
          Alcotest.test_case "all indexes: corrupt image rejected" `Quick
            test_image_corruption_all_indexes;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "clean store" `Quick test_fsck_clean_store;
          Alcotest.test_case "checksummed round-trip" `Quick
            test_checksummed_roundtrip;
          Alcotest.test_case "unrepairable leaf quarantined" `Quick
            test_unrepairable_leaf_quarantined;
          Alcotest.test_case "log acquire timeout" `Quick
            test_microlog_acquire_timeout;
          QCheck_alcotest.to_alcotest qcheck_media_fsck_partition;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "rwlock exclusion" `Quick test_rwlock_exclusion;
          Alcotest.test_case "rwlock blocks readers" `Quick test_rwlock_writer_blocks_readers;
          Alcotest.test_case "rwlock counter race" `Quick test_rwlock_counter_race;
          Alcotest.test_case "hart_mt basic" `Quick test_hart_mt_basic;
          Alcotest.test_case "hart_mt concurrent inserts" `Quick test_hart_mt_concurrent_inserts;
          Alcotest.test_case "hart_mt mixed stress" `Quick test_hart_mt_mixed_stress;
          Alcotest.test_case "hart_mt lock mapping" `Quick test_hart_mt_lock_mapping;
        ] );
    ]
