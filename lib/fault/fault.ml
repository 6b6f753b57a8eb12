(* Single-domain crash exploration over the eight recoverable indexes,
   as [Explore] cases, plus the media-fault sweep. *)

module Pmem = Hart_pmem.Pmem
module Rng = Hart_util.Rng
module Hart = Hart_core.Hart
module Hart_error = Hart_core.Hart_error
module Fptree = Hart_baselines.Fptree
module Wort = Hart_baselines.Wort
module Woart = Hart_baselines.Woart
module Art_cow = Hart_baselines.Art_cow
module Nv_tree = Hart_baselines.Nv_tree
module Wb_tree = Hart_baselines.Wb_tree
module Cdds_btree = Hart_baselines.Cdds_btree
module SMap = Map.Make (String)
open Explore

type instance = {
  pool : Pmem.t;
  apply : op -> unit;
  check : unit -> unit;
  dump : unit -> (string * string) list;
}

type target = {
  target_name : string;
  fresh : unit -> instance;
  reattach : Pmem.t -> instance;
  media_mount : (Pmem.t -> instance * Hart_error.finding list) option;
      (* fault-tolerant mount for the media sweep: adopt a pool whose
         device ECC may be reporting corruption, repair or quarantine
         what it can, and report findings. [None] = the index has no
         repair path; the sweep consults the device ECC itself and
         refuses a corrupt image with a typed error. *)
}

let hart_instance ?(expect_clean = true) pool h =
  {
    pool;
    apply =
      (function
      | Insert (k, v) -> Hart.insert h ~key:k ~value:v
      | Update (k, v) -> ignore (Hart.update h ~key:k ~value:v : bool)
      | Delete k -> ignore (Hart.delete h k : bool)
      | Search k -> ignore (Hart.search h k : string option));
    check =
      (fun () ->
        Hart.check_integrity ~allow_recovered_orphans:true h;
        (* crash schedules never involve media faults, so a quarantining
           mount reached through this path must have found nothing — a
           finding here means recovery misclassified a legitimate torn
           state as corruption *)
        if expect_clean then
          match Hart.quarantines h with
          | [] -> ()
          | fs ->
              failwith
                (Format.asprintf
                   "media-clean recovery produced %d quarantine finding(s): %a"
                   (List.length fs)
                   (Format.pp_print_list
                      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
                      Hart_error.pp_finding)
                   fs));
    dump = (fun () -> sorted_dump (Hart.iter h));
  }

(* quarantining mount + fsck, the fault-tolerant HART mount the media
   sweep exercises; every finding of either pass is reported *)
let hart_media_mount recover pool =
  let h = recover pool in
  let fs = Hart.quarantines h @ Hart.fsck h in
  (hart_instance ~expect_clean:false pool h, fs)

let hart =
  {
    target_name = "hart";
    fresh =
      (fun () ->
        let pool = fresh_pool () in
        hart_instance pool (Hart.create pool));
    reattach = (fun pool -> hart_instance pool (Hart.recover pool));
    media_mount = Some (hart_media_mount (Hart.recover ~quarantine:true));
  }

(* HART with the checksummed object format: CRC-32 trailers on leaf
   keys, value objects and micro-log words. Not part of the crash-gate
   eight (it is the same index with a flag), but swept by the media gate
   so the deep fsck checksum walk is exercised end to end. *)
let hart_checksummed =
  {
    target_name = "hart-crc";
    fresh =
      (fun () ->
        let pool = fresh_pool () in
        hart_instance pool (Hart.create ~checksums:true pool));
    reattach = (fun pool -> hart_instance pool (Hart.recover pool));
    media_mount = Some (hart_media_mount (Hart.recover ~quarantine:true));
  }

(* Same index, but every post-crash reattach rebuilds with the
   multi-domain recovery. The rebuild phase issues no flushes, so armed
   nested crashes still land only in the serial log replay — the
   schedule space is identical to [hart]'s, and so must be the verdicts. *)
let hart_parallel_recovery ~domains =
  {
    target_name = Printf.sprintf "hart-par%d" domains;
    fresh =
      (fun () ->
        let pool = fresh_pool () in
        hart_instance pool (Hart.create pool));
    reattach =
      (fun pool -> hart_instance pool (Hart.recover_parallel ~domains pool));
    media_mount =
      Some
        (hart_media_mount (fun pool ->
             Hart.recover_parallel ~domains ~quarantine:true pool));
  }

let fptree_instance pool t =
  {
    pool;
    apply =
      (function
      | Insert (k, v) -> Fptree.insert t ~key:k ~value:v
      | Update (k, v) -> ignore (Fptree.update t ~key:k ~value:v : bool)
      | Delete k -> ignore (Fptree.delete t k : bool)
      | Search k -> ignore (Fptree.search t k : string option));
    check = (fun () -> Fptree.check_integrity t);
    dump = (fun () -> sorted_dump (Fptree.iter t));
  }

let fptree =
  {
    target_name = "fptree";
    fresh =
      (fun () ->
        let pool = fresh_pool () in
        fptree_instance pool (Fptree.create pool));
    reattach = (fun pool -> fptree_instance pool (Fptree.recover pool));
    media_mount = None;
  }

(* The six remaining baselines all expose the uniform ops record; only
   the integrity check and the recover entry point differ. Their keys
   are bounded at 24 bytes, so a 25-byte [0xff] run is above any key. *)
let ops_instance pool (o : Hart_baselines.Index_intf.ops) check =
  let hi = String.make 25 '\xff' in
  {
    pool;
    apply =
      (function
      | Insert (k, v) -> o.insert ~key:k ~value:v
      | Update (k, v) -> ignore (o.update ~key:k ~value:v : bool)
      | Delete k -> ignore (o.delete k : bool)
      | Search k -> ignore (o.search k : string option));
    check;
    dump = (fun () -> sorted_dump (fun f -> o.range ~lo:"\x00" ~hi f));
  }

let baseline_target name ~fresh ~reattach =
  {
    target_name = name;
    fresh =
      (fun () ->
        let pool = fresh_pool () in
        fresh pool);
    reattach;
    media_mount = None;
  }

let wort =
  let inst pool t = ops_instance pool (Wort.ops t) (fun () -> Wort.check_invariants t) in
  baseline_target "wort"
    ~fresh:(fun pool -> inst pool (Wort.create pool))
    ~reattach:(fun pool -> inst pool (Wort.recover pool))

let woart =
  let inst pool t = ops_instance pool (Woart.ops t) (fun () -> Woart.check_integrity t) in
  baseline_target "woart"
    ~fresh:(fun pool -> inst pool (Woart.create pool))
    ~reattach:(fun pool -> inst pool (Woart.recover pool))

let art_cow =
  let inst pool t =
    ops_instance pool (Art_cow.ops t) (fun () -> Art_cow.check_integrity t)
  in
  baseline_target "art-cow"
    ~fresh:(fun pool -> inst pool (Art_cow.create pool))
    ~reattach:(fun pool -> inst pool (Art_cow.recover pool))

let nv_tree =
  let inst pool t =
    ops_instance pool (Nv_tree.ops t) (fun () -> Nv_tree.check_integrity t)
  in
  baseline_target "nv-tree"
    ~fresh:(fun pool -> inst pool (Nv_tree.create pool))
    ~reattach:(fun pool -> inst pool (Nv_tree.recover pool))

let wb_tree =
  let inst pool t =
    ops_instance pool (Wb_tree.ops t) (fun () -> Wb_tree.check_integrity t)
  in
  baseline_target "wb-tree"
    ~fresh:(fun pool -> inst pool (Wb_tree.create pool))
    ~reattach:(fun pool -> inst pool (Wb_tree.recover pool))

let cdds_btree =
  let inst pool t =
    ops_instance pool (Cdds_btree.ops t) (fun () -> Cdds_btree.check_integrity t)
  in
  baseline_target "cdds"
    ~fresh:(fun pool -> inst pool (Cdds_btree.create pool))
    ~reattach:(fun pool -> inst pool (Cdds_btree.recover pool))

let all_targets = [ hart; fptree; wort; woart; art_cow; nv_tree; wb_tree; cdds_btree ]

(* the media sweep's roster: the crash-gate eight plus the checksummed
   HART variant, so both HART detection tiers (line ECC alone, line ECC
   + object CRCs) face the same corruption sites *)
let media_targets = hart_checksummed :: all_targets

let find_target name =
  List.find_opt (fun t -> t.target_name = name) media_targets

(* a key no workload uses, for the post-recovery usability probe *)
let probe_key = "~~probe~~"

(* The single-domain case: a plain loop over one op list. A crash
   inside op [j] leaves committed = models.(j) and in flight = [op j],
   so the core's admissible set is exactly {models.(j), models.(j+1)}.
   Snapshots are pool clones at op boundaries, resumed at the next op. *)
let case ~workload ?(setup = []) target ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  (* oracle prefix states: models.(j) = setup plus ops.(0..j-1), atomic *)
  let models = Array.make (n + 1) SMap.empty in
  models.(0) <- List.fold_left apply_model SMap.empty setup;
  for j = 1 to n do
    models.(j) <- apply_model models.(j - 1) ops.(j - 1)
  done;
  let inspect inst () =
    inst.check ();
    inst.dump ()
  in
  (* run ops.(j0..) on [inst] (the crash, if any, already armed); [f_base]
     measured flushes precede [j0] *)
  let rec go ~checkpoint inst j0 f_base =
    let f0 = Pmem.flush_count inst.pool in
    let measured () = f_base + Pmem.flush_count inst.pool - f0 in
    let j = ref j0 and last = ref 0 in
    let crashed =
      try
        while !j < n do
          inst.apply ops.(!j);
          incr j;
          match checkpoint with
          | Some (k, take) when measured () - !last >= k && !j < n ->
              last := measured ();
              take (snapshot_at !j !last (Pmem.clone inst.pool))
          | _ -> ()
        done;
        false
      with Pmem.Crash_injected -> true
    in
    Pmem.disarm_crash inst.pool;
    {
      crashed;
      flushes = measured ();
      pool = inst.pool;
      committed = models.(!j);
      in_flight = (if crashed then [ (!j, ops.(!j)) ] else []);
      waiting = [];
      errors = [];
      acked = 0;
      dropped = false;
      live = inspect inst;
    }
  and snapshot_at j fl cp =
    {
      first_crash = fl;
      resume =
        (fun ~mode ~crash_at ->
          let inst = adopt cp target.reattach in
          Pmem.arm_crash ~mode inst.pool ~after_flushes:(crash_at - fl);
          go ~checkpoint:None inst j fl);
    }
  in
  {
    kind = Single;
    name = target.target_name;
    workload;
    seed = 0L;
    n_ops = n;
    run =
      (fun ~crash ~checkpoint ->
        let inst = target.fresh () in
        List.iter inst.apply setup;
        Option.iter
          (fun (mode, i) -> Pmem.arm_crash ~mode inst.pool ~after_flushes:i)
          crash;
        go ~checkpoint inst 0 0);
    mount = (fun pool -> inspect (target.reattach pool));
    (* idempotence: recovering the recovered image changes nothing;
       usability: the recovered store accepts and repairs further ops *)
    recheck =
      (fun pool recovered ->
        Pmem.crash pool;
        let inst = target.reattach pool in
        inst.check ();
        if inst.dump () <> recovered then failwith "recovery is not idempotent";
        inst.apply (Insert (probe_key, "p"));
        inst.apply (Delete probe_key);
        inst.check ());
  }

let explore ?mode ?(nested = true) ?directed ?setup ?checkpoint_every
    ?keep_going ~workload target ops =
  sweep ?mode ~nested ?directed ?checkpoint_every ?keep_going
    (case ~workload ?setup target ops)

(* ------------------------------------------------------------------ *)
(* Built-in workloads (the standing gate)                              *)

let key prefix i = Printf.sprintf "%s%03d" prefix i

let update_log_workload =
  (* Algorithm 3 coverage: update-in-place via the persistent log, value
     size-class migrations (Val8 <-> Val32), upsert-as-update, empty
     values, and the log interplay with delete *)
  [
    Insert ("AAa", "v7bytes");
    Insert ("AAb", "w");
    Insert ("ABc", String.make 30 'x');
    Update ("AAb", String.make 30 'y');
    Update ("AAb", "s");
    Insert ("AAa", "upserted");
    Update ("ABc", "");
    Delete ("AAb");
    Update ("zz-missing", "ignored");
    Delete ("AAa");
    Update ("ABc", "final16bytes!!!!");
    Delete ("ABc");
  ]

let delete_recycle_workload =
  (* Algorithm 5 + 6: drain every key so the (single, head) leaf chunk
     and value chunks empty and unlink; the last delete of a prefix also
     frees its ART (directory cleanup); then reuse recycled space *)
  [
    Insert ("AAq", "1");
    Insert ("AAr", "2");
    Insert ("ABs", String.make 20 'z');
    Insert ("B", "short-key");
    Delete ("AAq");
    Delete ("AAr");
    Delete ("ABs");
    Delete ("B");
    Insert ("AAq", "reborn");
    Delete ("AAq");
  ]

let mixed_dense_workload =
  (* interleaved op mix over shared prefixes; key lengths 1..4 straddle
     kh = 2 (hash-key-only keys, empty ART keys, prefix relationships) *)
  [
    Insert ("A", "1");
    Insert ("AB", "2");
    Insert ("ABC", "3");
    Insert ("ABCD", "4");
    Update ("AB", "2nd");
    Delete ("ABC");
    Insert ("ABC", "3rd");
    Update ("A", String.make 25 'm');
    Delete ("AB");
    Insert ("B", "5");
    Delete ("A");
    Update ("ABCD", "");
    Delete ("B");
    Delete ("ABC");
    Delete ("ABCD");
  ]

let chunk_unlink_setup, chunk_unlink_workload =
  (* three full 56-slot leaf chunks (and three value chunks), then drain
     each chunk down to one key in setup; the measured phase performs the
     three deletes that trigger Algorithm 6's unlink at the middle, head
     and tail positions of the chunk lists *)
  let per = 56 in
  let prefixes = [ "ka"; "kb"; "kc" ] in
  let inserts =
    List.concat_map
      (fun p -> List.init per (fun i -> Insert (key p i, "v")))
      prefixes
  in
  let drains =
    List.concat_map
      (fun p -> List.init (per - 1) (fun i -> Delete (key p (i + 1))))
      [ "kb"; "ka"; "kc" ]
  in
  ( inserts @ drains,
    [ Delete (key "kb" 0); Delete (key "ka" 0); Delete (key "kc" 0) ] )

let split_chain_setup, split_chain_workload =
  (* setup fills one FPTree leaf (leaf_cap = 32) minus one; the measured
     inserts overflow it and the next leaf, so the sweep crosses every
     flush of two leaf splits — including the window between the chain
     relink and the left bitmap shrink that recovery must repair. On
     HART the same script fills a leaf chunk towards its second chunk. *)
  let setup = List.init 31 (fun i -> Insert (key "s" (2 * i), "v")) in
  let measured =
    List.init 34 (fun i -> Insert (key "t" i, "w"))
    @ [ Delete (key "s" 0); Update (key "t" 0, "w2"); Delete (key "t" 33) ]
  in
  (setup, measured)

let builtin_workloads =
  [
    ("update-log", [], update_log_workload);
    ("delete-recycle", [], delete_recycle_workload);
    ("mixed-dense", [], mixed_dense_workload);
    ("chunk-unlink", chunk_unlink_setup, chunk_unlink_workload);
    ("split-chain", split_chain_setup, split_chain_workload);
  ]

let find_workload name =
  List.find_opt (fun (n, _, _) -> n = name) builtin_workloads

(* ------------------------------------------------------------------ *)
(* Adversarial torn sweep, most-directed first: (1) evict exactly the
   lines each schedule's recovery is observed to read (the directed
   pass, [Torn_lines] via the read trace); (2) drop exactly the line
   whose flush the crash interrupted (the suspected commit point,
   [Torn_commit]); (3) [subsets] random-subset sweeps with distinct
   derived seeds as a fallback net for designs whose critical lines are
   neither read by recovery nor being flushed at the crash. *)

let adversarial_passes ?(directed = true) ?(subsets = 4) ?(base_seed = 0xF417L)
    ?(fraction = 0.5) () =
  (if directed then [ (Pmem.Clean, true) ] else [])
  @ (Pmem.Torn_commit, false)
    :: List.init subsets (fun k ->
           (Pmem.Torn { seed = Int64.add base_seed (Int64.of_int k); fraction }, false))

let explore_adversarial ?(nested = true) ?directed ?setup ?checkpoint_every
    ?keep_going ?subsets ?base_seed ?fraction ~workload target ops =
  let c = case ~workload ?setup target ops in
  List.map
    (fun (mode, directed) ->
      sweep ~mode ~nested ~directed ?checkpoint_every ?keep_going c)
    (adversarial_passes ?directed ?subsets ?base_seed ?fraction ())

(* ------------------------------------------------------------------ *)
(* Media-fault sweep: seeded corruption of a populated durable image,
   with a no-silent-wrong-answer oracle.

   Per site: populate the target and power it off cleanly, inject one
   seeded media fault into the durable image, mount (fault-tolerantly
   for HART, behind a device-ECC verification for the baselines), read
   everything back, run a small write batch, power-cycle, mount and
   read again — a stuck line that silently swallowed a write-back only
   becomes visible at the second mount. Every key that diverges from
   the oracle must be accounted for by the mount's findings (by name,
   or by residual capacity where the damage made the key unreadable);
   a typed error anywhere is itself an accepted outcome (detection).
   A divergence nothing accounts for is a silent wrong answer — the
   one forbidden behaviour. *)

type media_outcome =
  | Media_repaired
  | Media_quarantined
  | Media_detected
  | Media_benign

let media_outcome_name = function
  | Media_repaired -> "repaired"
  | Media_quarantined -> "quarantined"
  | Media_detected -> "detected"
  | Media_benign -> "benign"

type media_site = {
  site_index : int;
  site_fault : string;
  site_outcome : media_outcome;
  site_findings : int;
}

type media_report = {
  m_target : string;
  m_workload : string;
  m_seed : int64;
  m_sites : media_site list;
  m_violations : violation list;
}

let describe_fault = function
  | Pmem.Flip_bit { off; bit } -> Printf.sprintf "flip-bit(off=%d,bit=%d)" off bit
  | Pmem.Flip_bits { seed; flips } ->
      Printf.sprintf "flip-bits(seed=%Ld,flips=%d)" seed flips
  | Pmem.Clobber_line { line; seed } ->
      Printf.sprintf "clobber-line(line=%d,seed=%Ld)" line seed
  | Pmem.Stuck_line { line } -> Printf.sprintf "stuck-line(line=%d)" line
  | Pmem.Poison_line { line } -> Printf.sprintf "poison-line(line=%d)" line

(* One seeded fault aimed inside the populated region. [live_bytes] is a
   lower bound on [brk] (the bump allocator hands offsets out
   contiguously), so the drawn line is always in-pool. *)
let pick_fault rng pool =
  let lines = max 3 (Pmem.live_bytes pool / Pmem.line_bytes) in
  let line = 1 + Rng.int rng (lines - 1) in
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

let explore_media ?(sites = 25) ?(base_seed = 0x4D454449414CL) ?(setup = [])
    ?(keep_going = false) ~workload target ops =
  let exception Skip_site in
  let exception Site_detected in
  let found = ref [] in
  let outcomes = ref [] in
  let model0 =
    List.fold_left apply_model (List.fold_left apply_model SMap.empty setup) ops
  in
  (* keys no builtin workload uses, for the post-mount write batch *)
  let bk0 = "~~media0~~" and bk1 = "~~media1~~" in
  let model2 = SMap.add bk1 (String.make 20 'q') model0 in
  for site = 0 to sites - 1 do
    let rng = Rng.create (Int64.add base_seed (Int64.of_int site)) in
    (* 1. populate and power off cleanly: the durable image = the oracle *)
    let inst0 = target.fresh () in
    List.iter inst0.apply setup;
    List.iter inst0.apply ops;
    Pmem.persist_all inst0.pool;
    Pmem.crash inst0.pool;
    let pool = inst0.pool in
    (* 2. one seeded media fault against the durable image *)
    let fault = pick_fault rng pool in
    Pmem.inject_media_fault pool fault;
    let fault_s = describe_fault fault in
    let fail fmt =
      Printf.ksprintf
        (fun s ->
          collect ~keep_going found
            (violation ~target:target.target_name ~workload ~mode:Pmem.Clean
               ~schedule:site (Printf.sprintf "%s: %s" fault_s s));
          raise Skip_site)
        fmt
    in
    let findings = ref [] in
    let mount () =
      match target.media_mount with
      | Some f ->
          let inst, fs = f pool in
          findings := !findings @ fs;
          inst
      | None ->
          (* no repair path: consult the device ECC and refuse a corrupt
             image with a typed error rather than serving from it *)
          let rep = Pmem.media_verify pool in
          (match (rep.Pmem.corrupt_lines, rep.Pmem.poisoned_lines) with
          | [], [] -> ()
          | line :: _, _ | [], line :: _ ->
              Hart_error.error
                (Hart_error.Pool_line { line })
                "device ECC reports media corruption; refusing unverified mount");
          target.reattach pool
    in
    let classify () =
      let repaired, quarantined, detected = Hart_error.partition !findings in
      if detected <> [] then Media_detected
      else if quarantined <> [] then Media_quarantined
      else if repaired <> [] then Media_repaired
      else Media_benign
    in
    let emit outcome =
      outcomes :=
        {
          site_index = site;
          site_fault = fault_s;
          site_outcome = outcome;
          site_findings = List.length !findings;
        }
        :: !outcomes
    in
    (* every divergent key must be named by a finding or absorbed by
       residual (unidentifiable-key) capacity *)
    let covered ~phase divergent =
      let named = List.concat_map (fun f -> f.Hart_error.f_keys) !findings in
      let residual =
        List.fold_left
          (fun a f ->
            a
            + max 0 (f.Hart_error.f_capacity - List.length f.Hart_error.f_keys))
          0 !findings
      in
      let uncovered =
        List.filter (fun k -> not (List.mem k named)) divergent
      in
      if List.length uncovered > residual then
        fail
          "silent wrong answer at %s: %d divergent key(s) [%s] not covered by \
           findings (%d named, residual capacity %d)"
          phase (List.length uncovered)
          (String.concat ";" (List.map (Printf.sprintf "%S") uncovered))
          (List.length named) residual
    in
    let divergence model got =
      let gm = List.fold_left (fun m (k, v) -> SMap.add k v m) SMap.empty got in
      let d = ref [] in
      SMap.iter
        (fun k v ->
          match SMap.find_opt k gm with
          | Some v' when String.equal v' v -> ()
          | _ -> d := k :: !d)
        model;
      SMap.iter (fun k _ -> if not (SMap.mem k model) then d := k :: !d) gm;
      !d
    in
    let checked ~phase inst =
      try inst.check ()
      with Failure msg -> fail "integrity broken at %s: %s" phase msg
    in
    (try
       (* 3. fault-tolerant mount *)
       let inst =
         try mount ()
         with Hart_error.Error _ | Pmem.Media_poisoned _ -> raise Site_detected
       in
       checked ~phase:"first mount" inst;
       (* 4. read everything back *)
       (match inst.dump () with
       | got -> covered ~phase:"first mount" (divergence model0 got)
       | exception (Hart_error.Error _ | Pmem.Media_poisoned _) ->
           raise Site_detected);
       (* 5. write batch: fresh inserts and a delete *)
       (try
          inst.apply (Insert (bk0, "mv0"));
          inst.apply (Insert (bk1, String.make 20 'q'));
          inst.apply (Delete bk0)
        with Hart_error.Error _ | Pmem.Media_poisoned _ -> raise Site_detected);
       (* 6. power-cycle and re-mount: a stuck line that swallowed one of
          the batch's write-backs is only discoverable now *)
       Pmem.crash pool;
       let inst2 =
         try mount ()
         with Hart_error.Error _ | Pmem.Media_poisoned _ -> raise Site_detected
       in
       checked ~phase:"re-mount" inst2;
       (match inst2.dump () with
       | got -> covered ~phase:"re-mount" (divergence model2 got)
       | exception (Hart_error.Error _ | Pmem.Media_poisoned _) ->
           raise Site_detected);
       emit (classify ())
     with
    | Site_detected -> emit Media_detected
    | Skip_site -> emit (classify ()))
  done;
  {
    m_target = target.target_name;
    m_workload = workload;
    m_seed = base_seed;
    m_sites = List.rev !outcomes;
    m_violations = List.rev !found;
  }

let media_count outcome r =
  List.length (List.filter (fun s -> s.site_outcome = outcome) r.m_sites)

let media_site_json s =
  Printf.sprintf {|{"site":%d,"fault":"%s","outcome":"%s","findings":%d}|}
    s.site_index (json_escape s.site_fault)
    (media_outcome_name s.site_outcome)
    s.site_findings

let media_report_json r =
  Printf.sprintf
    {|{"target":"%s","workload":"%s","seed":%Ld,"sites":%d,"repaired":%d,"quarantined":%d,"detected":%d,"benign":%d,"site_list":[%s],"violations":%s}|}
    (json_escape r.m_target) (json_escape r.m_workload) r.m_seed
    (List.length r.m_sites)
    (media_count Media_repaired r)
    (media_count Media_quarantined r)
    (media_count Media_detected r)
    (media_count Media_benign r)
    (String.concat "," (List.map media_site_json r.m_sites))
    (String.concat ""
       (String.split_on_char '\n'
          (violation_list_json r.m_violations)))

let media_reports_json = function
  | [] -> "[]\n"
  | rs -> "[\n  " ^ String.concat ",\n  " (List.map media_report_json rs) ^ "\n]\n"

let media_violations_to_json reports =
  violation_list_json (List.concat_map (fun r -> r.m_violations) reports)

let pp_media_report ppf r =
  Format.fprintf ppf
    "%-8s %-14s media sites=%d repaired=%d quarantined=%d detected=%d benign=%d"
    r.m_target r.m_workload (List.length r.m_sites)
    (media_count Media_repaired r)
    (media_count Media_quarantined r)
    (media_count Media_detected r)
    (media_count Media_benign r);
  if r.m_violations <> [] then
    Format.fprintf ppf " VIOLATIONS=%d" (List.length r.m_violations)
