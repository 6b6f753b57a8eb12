(* Exhaustive crash-schedule exploration (lib/fault): every flush
   boundary of every built-in workload, on HART and FPTree, under clean
   and torn crash modes, including nested crash-during-recovery. *)

module Pmem = Hart_pmem.Pmem
module Explore = Hart_fault.Explore
module Fault = Hart_fault.Fault
module Fault_mt = Hart_fault.Fault_mt

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let find name =
  match Fault.find_workload name with
  | Some w -> w
  | None -> Alcotest.failf "unknown built-in workload %S" name

(* Every schedule must correspond to a distinct dry-run flush boundary:
   schedules = total_flushes proves 100%% coverage (explore itself raises
   if any armed schedule fails to fire). Nested coverage is likewise
   exhaustive over observed recovery flushes — zero for a target whose
   recovery never writes PM (FPTree rebuilds DRAM only, unless it had a
   torn split to repair), so [expect_nested] is per-target. *)
let check_report ?(nested = true) ?(expect_nested = false) r =
  Alcotest.(check bool)
    (Format.asprintf "%a: has flush boundaries" Explore.pp_report r)
    true
    (r.Explore.total_flushes > 0);
  Alcotest.(check int)
    (Format.asprintf "%a: full coverage" Explore.pp_report r)
    r.Explore.total_flushes r.Explore.schedules;
  if nested then begin
    Alcotest.(check int)
      (Format.asprintf "%a: full nested coverage" Explore.pp_report r)
      r.Explore.recovery_flushes r.Explore.nested_schedules;
    if expect_nested then
      Alcotest.(check bool)
        (Format.asprintf "%a: nested schedules ran" Explore.pp_report r)
        true
        (r.Explore.nested_schedules > 0)
  end

let sweep ?mode ?nested ?expect_nested target name () =
  let name, setup, ops = find name in
  let r = Fault.explore ?mode ?nested ~setup ~workload:name target ops in
  check_report ?nested ?expect_nested r

let clean_cases ?expect_nested target =
  List.map
    (fun (name, _, _) ->
      Alcotest.test_case
        (Printf.sprintf "%s/%s clean" target.Fault.target_name name)
        `Quick
        (sweep ?expect_nested target name))
    Fault.builtin_workloads

(* Torn mode is costlier (the eviction subset is re-drawn per schedule),
   so sweep the three light workloads and skip chunk-unlink's hundreds of
   setup ops here; the CLI gate still covers it. *)
let torn_cases target =
  List.concat_map
    (fun (name, _, _) ->
      List.map
        (fun seed ->
          let mode = Pmem.Torn { seed; fraction = 0.5 } in
          Alcotest.test_case
            (Printf.sprintf "%s/%s torn seed=%Ld" target.Fault.target_name name
               seed)
            `Quick
            (sweep ~mode target name))
        [ 7L; 42L ])
    (List.filter
       (fun (n, _, _) -> n <> "chunk-unlink" && n <> "split-chain")
       Fault.builtin_workloads)

(* The split-chain sweep must hit FPTree's torn-split window: some
   schedule crashes between the chain relink and the left bitmap shrink,
   recovery repairs it with a persisted bitmap write, and that write is
   itself nested-crash-swept. *)
let fptree_split_repair () =
  let name, setup, ops = find "split-chain" in
  let r = Fault.explore ~setup ~workload:name Fault.fptree ops in
  check_report ~expect_nested:true r

(* Torn with fraction 1.0 must behave exactly like a clean crash: every
   dirty line evicted = every dirty line durable, which is a state the
   protocol must already tolerate (it cannot rely on lines NOT being
   evicted). *)
let torn_full_eviction target () =
  let name, setup, ops = find "mixed-dense" in
  let r =
    Fault.explore
      ~mode:(Pmem.Torn { seed = 1L; fraction = 1.0 })
      ~nested:false ~setup ~workload:name target ops
  in
  check_report ~nested:false r

(* Parallel recovery must pass the same clean and torn matrices as the
   serial target, over the same schedule space: the rebuild phase issues
   no flushes, so sweeping with [recover_parallel] as the reattach must
   observe exactly the flush boundaries (outer and nested) that serial
   recovery does. *)
let parallel_recovery_matches_serial_space () =
  let name, setup, ops = find "delete-recycle" in
  let s = Fault.explore ~setup ~workload:name Fault.hart ops in
  let p =
    Fault.explore ~setup ~workload:name
      (Fault.hart_parallel_recovery ~domains:2)
      ops
  in
  Alcotest.(check int) "same flush boundaries" s.Explore.total_flushes
    p.Explore.total_flushes;
  Alcotest.(check int) "same schedules" s.Explore.schedules p.Explore.schedules;
  Alcotest.(check int) "same recovery flushes" s.Explore.recovery_flushes
    p.Explore.recovery_flushes;
  Alcotest.(check int) "same nested schedules" s.Explore.nested_schedules
    p.Explore.nested_schedules

let parallel_recovery_cases =
  let target = Fault.hart_parallel_recovery ~domains:2 in
  clean_cases ~expect_nested:true target
  @ List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "%s/%s torn seed=7" target.Fault.target_name name)
          `Quick
          (sweep ~mode:(Pmem.Torn { seed = 7L; fraction = 0.5 }) target name))
      [ "update-log"; "mixed-dense" ]
  @ [
      Alcotest.test_case "schedule space matches serial hart" `Quick
        parallel_recovery_matches_serial_space;
    ]

(* Pin HART's crash-schedule space exactly: the ART node-layer rewrite
   (bitmap/pooled DRAM representation, DESIGN.md §14) must not move a
   single flush boundary, because the modelled PM write/flush sequence
   is independent of how the DRAM index represents its children. Any
   drift in these triples means the cost model changed, not just the
   physical layout — which is a fidelity bug this PR's contract
   forbids. *)
let schedule_space_pin () =
  List.iter
    (fun (name, flushes, scheds, nested) ->
      let name, setup, ops = find name in
      let r = Fault.explore ~setup ~workload:name Fault.hart ops in
      Alcotest.(check int)
        (Printf.sprintf "%s: flush boundaries" name)
        flushes r.Explore.total_flushes;
      Alcotest.(check int)
        (Printf.sprintf "%s: schedules" name)
        scheds r.Explore.schedules;
      Alcotest.(check int)
        (Printf.sprintf "%s: nested schedules" name)
        nested r.Explore.nested_schedules)
    [
      ("update-log", 105, 105, 254);
      ("delete-recycle", 82, 82, 130);
      ("mixed-dense", 96, 96, 162);
      ("chunk-unlink", 43, 43, 68);
      ("split-chain", 189, 189, 211);
    ]

let oracle_semantics () =
  let module SMap = Map.Make (String) in
  let m = List.fold_left Explore.apply_model SMap.empty in
  Alcotest.(check (list (pair string string)))
    "insert upserts"
    [ ("a", "2") ]
    (SMap.bindings (m [ Insert ("a", "1"); Insert ("a", "2") ]));
  Alcotest.(check (list (pair string string)))
    "update on absent key is a no-op" []
    (SMap.bindings (m [ Update ("a", "1") ]));
  Alcotest.(check (list (pair string string)))
    "delete removes" []
    (SMap.bindings (m [ Insert ("a", "1"); Delete "a" ]))

(* Checkpointed replay must be invisible: same coverage, same nested
   schedules, same recovery flushes as the full re-execution sweep, with
   at least one schedule actually served from a snapshot. *)
let checkpoint_equivalence target name () =
  let name, setup, ops = find name in
  let full = Fault.explore ~setup ~workload:name target ops in
  let cp = Fault.explore ~setup ~checkpoint_every:30 ~workload:name target ops in
  Alcotest.(check int) "same flush boundaries" full.Explore.total_flushes
    cp.Explore.total_flushes;
  Alcotest.(check int) "same schedules" full.Explore.schedules cp.Explore.schedules;
  Alcotest.(check int) "same nested schedules" full.Explore.nested_schedules
    cp.Explore.nested_schedules;
  Alcotest.(check int) "same recovery flushes" full.Explore.recovery_flushes
    cp.Explore.recovery_flushes;
  Alcotest.(check bool) "snapshots were taken" true (cp.Explore.checkpoints > 0);
  Alcotest.(check bool) "schedules were replayed from snapshots" true
    (cp.Explore.checkpoint_replays > 0)

(* The explorer must actually catch a broken target: a "store" that
   persists nothing recovers to an empty map mid-workload. *)
let detects_violation () =
  let broken =
    {
      Fault.target_name = "broken";
      fresh =
        (fun () ->
          let inner = Fault.hart.Fault.fresh () in
          (* drop every delete: completed ops are then NOT all applied *)
          { inner with apply = (function Explore.Delete _ -> () | op -> inner.apply op) });
      reattach = Fault.hart.Fault.reattach;
      media_mount = None;
    }
  in
  let name, setup, ops = find "delete-recycle" in
  match Fault.explore ~nested:false ~setup ~workload:name broken ops with
  | (_ : Explore.report) -> Alcotest.fail "explorer accepted a broken target"
  | exception Explore.Violation _ -> ()

(* A target that is correct crash-free (so the always-fatal dry-run
   check passes) but whose recovery silently drops a key — every
   schedule crashing after that key's insert committed is a violation.
   Shared by the keep-going and JSON tests. *)
let tampered_target () =
  {
    Fault.target_name = "tampered";
    fresh = Fault.hart.Fault.fresh;
    reattach =
      (fun pool ->
        let inner = Fault.hart.Fault.reattach pool in
        inner.Fault.apply (Explore.Delete "ab");
        inner);
    media_mount = None;
  }

let tampered_ops =
  [ Explore.Insert ("aa", "1"); Explore.Insert ("ab", "2");
    Explore.Insert ("ac", "3") ]

(* keep_going must complete the sweep and collect every violating
   schedule instead of raising on the first. *)
let keep_going_collects () =
  let r =
    Fault.explore ~nested:false ~keep_going:true ~workload:"tampered"
      (tampered_target ()) tampered_ops
  in
  Alcotest.(check bool) "violations were collected" true
    (List.length r.Explore.violations > 1);
  Alcotest.(check int) "sweep still covered every boundary"
    r.Explore.total_flushes r.Explore.schedules;
  (* every collected violation carries exact replay coordinates *)
  List.iter
    (fun v ->
      Alcotest.(check string) "violation names its target" "tampered"
        v.Explore.v_target;
      Alcotest.(check bool) "violation schedule is in range" true
        (v.Explore.v_schedule >= 0 && v.Explore.v_schedule < r.Explore.total_flushes))
    r.Explore.violations;
  (* a clean target under keep_going collects nothing *)
  let name, setup, ops = find "mixed-dense" in
  let ok =
    Fault.explore ~nested:false ~setup ~keep_going:true ~workload:name
      Fault.hart ops
  in
  Alcotest.(check (list string)) "clean target: no violations" []
    (List.map Explore.violation_message ok.Explore.violations)

(* Recovery that fails with a typed error must become a violation of
   the schedule it happened in — under keep-going the sweep carries on
   and reports it — instead of escaping the sweep. The forged target's
   every third reattach (main, idempotence or nested recovery alike)
   raises [Hart_error.Error]. *)
let typed_recovery_error_is_violation () =
  let module Hart_error = Hart_core.Hart_error in
  let calls = ref 0 in
  let forged =
    {
      Fault.hart with
      Fault.target_name = "forged";
      reattach =
        (fun pool ->
          incr calls;
          if !calls mod 3 = 0 then
            Hart_error.error (Hart_error.Pool_line { line = 0 }) "forged";
          Fault.hart.Fault.reattach pool);
    }
  in
  let name, setup, ops = find "update-log" in
  let r = Fault.explore ~keep_going:true ~setup ~workload:name forged ops in
  Alcotest.(check int) "sweep still covered every boundary"
    r.Explore.total_flushes r.Explore.schedules;
  Alcotest.(check bool) "typed errors were recorded" true
    (r.Explore.violations <> []);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "detail names the typed error: %s" v.Explore.v_detail)
        true
        (contains ~sub:"pool line 0: forged" v.Explore.v_detail))
    r.Explore.violations

(* ------------------------------------------------------------------ *)
(* All eight §II indexes as fault targets                              *)

let baseline_targets =
  List.filter
    (fun t ->
      t.Fault.target_name <> "hart" && t.Fault.target_name <> "fptree")
    Fault.all_targets

let all_targets_registered () =
  Alcotest.(check int) "eight targets" 8 (List.length Fault.all_targets);
  List.iter
    (fun t ->
      match Fault.find_target t.Fault.target_name with
      | Some t' ->
          Alcotest.(check string) "find_target round-trip" t.Fault.target_name
            t'.Fault.target_name
      | None -> Alcotest.failf "find_target misses %s" t.Fault.target_name)
    Fault.all_targets;
  Alcotest.(check bool) "unknown name is None" true
    (Fault.find_target "no-such-index" = None)

(* Each baseline gets the same treatment HART and FPTree get above:
   a clean sweep with nested crash-during-recovery coverage and a torn
   sweep, both driving its own [recover] entry point on every
   schedule. *)
let baseline_cases =
  List.concat_map
    (fun t ->
      [
        Alcotest.test_case
          (Printf.sprintf "%s/mixed-dense clean+nested" t.Fault.target_name)
          `Quick
          (sweep t "mixed-dense");
        Alcotest.test_case
          (Printf.sprintf "%s/mixed-dense torn" t.Fault.target_name)
          `Quick
          (sweep ~mode:(Pmem.Torn { seed = 7L; fraction = 0.5 }) t "mixed-dense");
      ])
    baseline_targets

(* ------------------------------------------------------------------ *)
(* Media-fault sweep                                                   *)

(* Every target (the crash-gate eight plus checksummed HART) faces the
   same seeded corruption sites; the oracle forbids exactly one thing —
   a silent wrong answer. *)
let media_sweep_target tgt () =
  let name, setup, ops = find "mixed-dense" in
  let r =
    Fault.explore_media ~sites:6 ~keep_going:true ~setup ~workload:name tgt ops
  in
  Alcotest.(check int) "every site ran" 6 (List.length r.Fault.m_sites);
  Alcotest.(check (list string)) "no silent wrong answers" []
    (List.map Explore.violation_message r.Fault.m_violations);
  (* not vacuous: most drawn faults corrupt content the mount must react
     to (only an unwritten stuck line may stay benign) *)
  Alcotest.(check bool) "some sites were non-benign" true
    (List.exists
       (fun s -> s.Fault.site_outcome <> Fault.Media_benign)
       r.Fault.m_sites);
  (* a HART-family mount must have produced findings at some site; a
     baseline never does (it refuses with a typed error instead) *)
  let saw_findings =
    List.exists (fun s -> s.Fault.site_findings > 0) r.Fault.m_sites
  in
  Alcotest.(check bool) "findings match mount capability"
    (tgt.Fault.media_mount <> None)
    saw_findings

(* Determinism: the same (target, seed) re-draws the same faults and
   reaches the same per-site outcomes. *)
let media_sweep_deterministic () =
  let name, setup, ops = find "mixed-dense" in
  let run () =
    let r =
      Fault.explore_media ~sites:4 ~keep_going:true ~setup ~workload:name
        Fault.hart_checksummed ops
    in
    List.map
      (fun s ->
        Printf.sprintf "%d:%s:%s" s.Fault.site_index s.Fault.site_fault
          (Fault.media_outcome_name s.Fault.site_outcome))
      r.Fault.m_sites
  in
  Alcotest.(check (list string)) "replayable" (run ()) (run ())

let media_sweep_roster () =
  Alcotest.(check int) "nine media targets" 9 (List.length Fault.media_targets);
  Alcotest.(check bool) "hart-crc resolvable" true
    (Fault.find_target "hart-crc" <> None);
  (* a HART-family target repairs or quarantines; a baseline only
     detects — both without silent wrong answers *)
  List.iter
    (fun tgt ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mount capability matches family"
           tgt.Fault.target_name)
        (String.length tgt.Fault.target_name >= 4
        && String.sub tgt.Fault.target_name 0 4 = "hart")
        (tgt.Fault.media_mount <> None))
    Fault.media_targets

let media_json () =
  let name, setup, ops = find "update-log" in
  let r =
    Fault.explore_media ~sites:3 ~keep_going:true ~setup ~workload:name
      Fault.hart ops
  in
  let j = Fault.media_reports_json [ r ] in
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "JSON carries %s" sub)
        true (contains ~sub j))
    [
      {|"target":"hart"|}; {|"workload":"update-log"|}; {|"sites":3|};
      {|"outcome":"|}; {|"violations":[]|};
    ];
  Alcotest.(check string) "no violations -> empty baseline" "[]\n"
    (Fault.media_violations_to_json [ r ])

(* ------------------------------------------------------------------ *)
(* Adversarial torn mode                                               *)

let adversarial_sweep () =
  let name, setup, ops = find "update-log" in
  let rs =
    Fault.explore_adversarial ~nested:false ~directed:false ~subsets:2 ~setup
      ~workload:name Fault.hart ops
  in
  Alcotest.(check int) "one commit-point pass + K subset passes" 3
    (List.length rs);
  (match rs with
  | first :: rest ->
      (match first.Explore.mode with
      | Pmem.Torn_commit -> ()
      | _ -> Alcotest.fail "first pass must evict the commit-point line");
      List.iteri
        (fun k r ->
          match r.Explore.mode with
          | Pmem.Torn { seed; _ } ->
              Alcotest.(check int64) "subset seeds are consecutive"
                (Int64.add 0xF417L (Int64.of_int k))
                seed
          | _ -> Alcotest.fail "fallback passes must be random-subset Torn")
        rest
  | [] -> Alcotest.fail "no reports");
  List.iter (fun r -> check_report ~nested:false r) rs

(* Directed mode leads with a clean pass whose every crashed schedule
   is re-run with exactly the lines its recovery reads torn-evicted. *)
let adversarial_directed () =
  let name, setup, ops = find "update-log" in
  let rs =
    Fault.explore_adversarial ~nested:false ~subsets:1 ~setup ~workload:name
      Fault.hart ops
  in
  Alcotest.(check int) "directed + commit-point + 1 subset pass" 3
    (List.length rs);
  (match rs with
  | directed :: commit :: _ ->
      (match directed.Explore.mode with
      | Pmem.Clean -> ()
      | _ -> Alcotest.fail "directed pass sweeps clean crashes");
      Alcotest.(check bool) "directed torn re-runs happened" true
        (directed.Explore.directed_schedules > 0);
      (match commit.Explore.mode with
      | Pmem.Torn_commit -> ()
      | _ -> Alcotest.fail "second pass must evict the commit-point line")
  | _ -> Alcotest.fail "no reports");
  List.iter (fun r -> check_report ~nested:false r) rs

(* ------------------------------------------------------------------ *)
(* Machine-readable violation reports                                  *)

let violation_json () =
  Alcotest.(check string) "empty array diffs clean" "[]\n"
    (Explore.violation_list_json []);
  let r =
    Fault.explore ~nested:false ~keep_going:true ~workload:"tampered"
      (tampered_target ()) tampered_ops
  in
  let j = Explore.violations_to_json [ r ] in
  Alcotest.(check bool) "at least one violation serialized" true
    (List.length r.Explore.violations > 0);
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "JSON carries %s" sub)
        true (contains ~sub j))
    [
      {|"target":"tampered"|}; {|"workload":"tampered"|}; {|"mode":"clean"|};
      {|"schedule":|}; {|"detail":"|};
    ];
  (* a clean report list serializes to the empty baseline *)
  let name, setup, ops = find "update-log" in
  let ok = Fault.explore ~nested:false ~setup ~workload:name Fault.hart ops in
  Alcotest.(check string) "clean run -> empty baseline" "[]\n"
    (Explore.violations_to_json [ ok ])

(* ------------------------------------------------------------------ *)
(* Concurrent crash explorer (Fault_mt)                                *)

let mt_check_report ?(min_in_flight = 2) r =
  Alcotest.(check bool) "has flush boundaries" true
    (r.Explore.total_flushes > 0);
  Alcotest.(check int) "full coverage" r.Explore.total_flushes
    r.Explore.schedules;
  Alcotest.(check bool)
    (Printf.sprintf "saw >= %d ops in flight at some crash" min_in_flight)
    true
    (r.Explore.max_in_flight >= min_in_flight);
  Alcotest.(check bool) "some schedules crash with >= 2 ops in flight" true
    (r.Explore.multi_in_flight > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.violations)

let mt_sweep ~domains () =
  let setup, scripts = Fault_mt.default_workload ~domains ~ops_per_domain:4 in
  let r = Fault_mt.explore ~seed:42L ~domains ~workload:"mt-test" ~setup scripts in
  mt_check_report r

let mt_torn_sweep () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:3 in
  let r =
    Fault_mt.explore
      ~mode:(Pmem.Torn { seed = 5L; fraction = 0.5 })
      ~seed:11L ~domains:2 ~workload:"mt-torn" ~setup scripts
  in
  mt_check_report r

(* The same (seed, schedule) pair must replay bit-identically: committed
   prefix, in-flight set and recovered state all equal. *)
let mt_determinism () =
  let setup, scripts = Fault_mt.default_workload ~domains:3 ~ops_per_domain:4 in
  let case = Fault_mt.case ~seed:7L ~workload:"mt-det" ~setup scripts in
  let p1 = Explore.probe ~schedule:20 case in
  let p2 = Explore.probe ~schedule:20 case in
  Alcotest.(check bool) "replay is bit-identical" true (p1 = p2);
  Alcotest.(check bool) "the armed schedule fired" true p1.Explore.p_crashed

let mt_subsample () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:4 in
  let r =
    Fault_mt.explore ~max_schedules:10 ~seed:42L ~domains:2 ~workload:"mt-sub"
      ~setup scripts
  in
  Alcotest.(check bool) "subsampled below full coverage" true
    (r.Explore.schedules > 0
    && r.Explore.schedules <= 11
    && r.Explore.schedules < r.Explore.total_flushes);
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.violations)

(* The generalised explorer over the other striped front ends: FPTree
   (leaf-group stripes, splits exclusive) and WOART (radix-prefix
   stripes, structural inserts/deletes exclusive). Their mutations
   mostly serialise, so the interesting coverage is the contended
   (waiting-writer) crash points, not multi-in-flight ones. *)
let mt_index_sweep target () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:4 in
  let r =
    Fault_mt.explore ~target ~seed:42L ~domains:2 ~workload:"mt-test" ~setup
      scripts
  in
  Alcotest.(check bool) "has flush boundaries" true
    (r.Explore.total_flushes > 0);
  Alcotest.(check int) "full coverage" r.Explore.total_flushes
    r.Explore.schedules;
  Alcotest.(check bool) "saw an op in flight at some crash" true
    (r.Explore.max_in_flight >= 1);
  Alcotest.(check bool) "saw contended (waiting-writer) crash points" true
    (r.Explore.contended > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.violations)

(* Same-stripe collisions on purpose: the sweep must cross crash points
   where a colliding op is waiting for the stripe while another op is
   in flight — the serialized case the tightened oracle is about. *)
let mt_collide () =
  let setup, scripts = Fault_mt.collide_workload ~domains:2 ~ops_per_domain:8 in
  let r =
    Fault_mt.explore ~seed:42L ~domains:2 ~workload:"mt-collide" ~setup scripts
  in
  mt_check_report r;
  Alcotest.(check bool) "saw contended (waiting-writer) crash points" true
    (r.Explore.contended > 0)

(* Seeded generator: each seed is a different mix of commuting and
   colliding inserts/updates/deletes/searches; three seeds per CI run. *)
let mt_generated () =
  List.iter
    (fun seed ->
      let setup, scripts = Fault_mt.gen_workload ~seed ~domains:2 ~ops_per_domain:6 in
      let r =
        Fault_mt.explore ~seed ~domains:2
          ~workload:(Printf.sprintf "mt-gen#%Ld" seed)
          ~setup scripts
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld has flush boundaries" seed)
        true
        (r.Explore.total_flushes > 0);
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld no violations" seed)
        0
        (List.length r.Explore.violations))
    [ 42L; 43L; 44L ];
  (* determinism of the generator itself: same seed, same scripts *)
  Alcotest.(check bool) "generator is a pure function of the seed" true
    (Fault_mt.gen_workload ~seed:42L ~domains:2 ~ops_per_domain:6
    = Fault_mt.gen_workload ~seed:42L ~domains:2 ~ops_per_domain:6)

(* Checkpointed replay must check exactly what full re-execution checks:
   same flush census, same in-flight statistics, zero violations, and
   snapshots must actually have been taken and used. *)
let mt_checkpoint_equivalence () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:4 in
  let plain =
    Fault_mt.explore ~seed:42L ~domains:2 ~workload:"mt-cp" ~setup scripts
  in
  let cp =
    Fault_mt.explore ~checkpoint_every:20 ~seed:42L ~domains:2
      ~workload:"mt-cp" ~setup scripts
  in
  Alcotest.(check int) "same flush census" plain.Explore.total_flushes
    cp.Explore.total_flushes;
  Alcotest.(check int) "same schedule count" plain.Explore.schedules
    cp.Explore.schedules;
  Alcotest.(check int) "same max in-flight" plain.Explore.max_in_flight
    cp.Explore.max_in_flight;
  Alcotest.(check int) "same multi-in-flight census"
    plain.Explore.multi_in_flight cp.Explore.multi_in_flight;
  Alcotest.(check int) "same contention census" plain.Explore.contended
    cp.Explore.contended;
  Alcotest.(check int) "plain run took no checkpoints" 0
    plain.Explore.checkpoints;
  Alcotest.(check bool) "checkpointed run took snapshots" true
    (cp.Explore.checkpoints > 0);
  Alcotest.(check bool) "some schedules replayed from a snapshot" true
    (cp.Explore.checkpoint_replays > 0);
  Alcotest.(check int) "no violations either way" 0
    (List.length plain.Explore.violations
    + List.length cp.Explore.violations)

(* ------------------------------------------------------------------ *)
(* Nested concurrent recovery re-crash: after every mid-flight crash
   whose recovery passed the oracle, the single-domain recovery is
   itself crashed at each of its own flush boundaries, recovered again,
   and the doubly-recovered state judged against the same admissible
   set (DESIGN.md §12). *)

let mt_nested_sweep target () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:4 in
  let r =
    Fault_mt.explore ~target ~nested:true ~seed:42L ~domains:2
      ~workload:"mt-nested" ~setup scripts
  in
  Alcotest.(check int) "full coverage" r.Explore.total_flushes
    r.Explore.schedules;
  Alcotest.(check int) "full nested coverage" r.Explore.recovery_flushes
    r.Explore.nested_schedules;
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.violations)

(* HART's recovery rewrites PM (micro-log replay, bitmap repair), so
   the nested sweep must actually have boundaries to crash. *)
let mt_nested_hart_covers () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:6 in
  let r =
    Fault_mt.explore ~nested:true ~seed:42L ~domains:2 ~workload:"mt-nested"
      ~setup scripts
  in
  Alcotest.(check bool) "hart recovery flushes were re-crashed" true
    (r.Explore.nested_schedules > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.violations)

(* FPTree split-repair racing fresh writers: domain 0 drives one hot
   leaf past capacity (leaf_cap = 32) while domain 1 keeps updating the
   hot keys and inserting fresh private ones, so the sweep crosses
   split, repair and recovery boundaries with writers in flight. The
   schedule space is pinned: a silent change would mean the sweep no
   longer explores what this test claims it does. *)
let mt_split_race_pin () =
  let setup, scripts =
    Fault_mt.split_race_workload ~domains:2 ~ops_per_domain:6
  in
  List.iter
    (fun mode ->
      let r =
        Fault_mt.explore ?mode ~target:Fault_mt.fptree_mt ~nested:true
          ~seed:42L ~domains:2 ~workload:"mt-split-race" ~setup scripts
      in
      Alcotest.(check int) "pinned schedule space" 99 r.Explore.total_flushes;
      Alcotest.(check int) "full coverage" r.Explore.total_flushes
        r.Explore.schedules;
      Alcotest.(check int) "full nested coverage" r.Explore.recovery_flushes
        r.Explore.nested_schedules;
      Alcotest.(check bool) "split-side contention crossed" true
        (r.Explore.contended > 0);
      Alcotest.(check bool) "writers in flight at crash points" true
        (r.Explore.multi_in_flight > 0);
      Alcotest.(check int) "no violations" 0
        (List.length r.Explore.violations))
    [ None; Some (Pmem.Torn { seed = 5L; fraction = 0.5 }) ]

(* A concurrent index whose bindings are right but whose quiesced
   integrity check fails: the crash-free dry run must reject it before
   any crash is injected. *)
module Bad_check_mt = struct
  include Hart_core.Hart_mt.M

  let name = "bad-check"

  let check_integrity ~recovered t =
    if not recovered then failwith "bad-check: quiesced store fails integrity";
    check_integrity ~recovered t
end

let mt_dry_run_checks_integrity () =
  let target = Fault_mt.of_mt (module Bad_check_mt) in
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:2 in
  match
    Fault_mt.explore ~target ~seed:42L ~domains:2 ~workload:"bad-check" ~setup
      scripts
  with
  | (_ : Explore.report) ->
      Alcotest.fail "dry run accepted a store failing its integrity check"
  | exception Explore.Violation msg ->
      Alcotest.(check bool) "the violation names the integrity failure" true
        (contains ~sub:"quiesced store fails integrity" msg)

(* Pin the concurrent gate's exhaustive census: hart-mt at 2 domains,
   default workload, seed 42, with nested recovery re-crash. *)
let mt_census_pin () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:6 in
  let r =
    Fault_mt.explore ~nested:true ~seed:42L ~domains:2 ~workload:"mt-default"
      ~setup scripts
  in
  Alcotest.(check int) "flush boundaries" 69 r.Explore.total_flushes;
  Alcotest.(check int) "schedules" 69 r.Explore.schedules;
  Alcotest.(check int) "nested schedules" 210 r.Explore.nested_schedules;
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.violations)

(* ------------------------------------------------------------------ *)
(* Deterministic simulation of the full KV server stack (Fault_server):
   pipelined RESP clients over the seeded simulated network, crash at
   every flush boundary with requests in flight in every layer, and
   the session-linearizability oracle of DESIGN.md §17. *)

module Fault_server = Hart_fault.Fault_server

let srv_check_report r =
  Alcotest.(check bool) "has flush boundaries" true
    (r.Explore.total_flushes > 0);
  Alcotest.(check int) "full coverage" r.Explore.total_flushes
    r.Explore.schedules;
  Alcotest.(check bool) "pipelined batch ops in flight at some crash" true
    (r.Explore.max_in_flight >= 2);
  Alcotest.(check bool) "schedules with >= 2 ops in flight" true
    (r.Explore.multi_in_flight > 0);
  Alcotest.(check bool) "write acks parsed across crashed schedules" true
    (r.Explore.acked_writes > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.violations)

let srv_sweep ?mode () =
  let setup, scripts =
    Fault_server.default_workload ~clients:2 ~ops_per_client:8
  in
  let r =
    Fault_server.explore ?mode ~seed:11L ~clients:2 ~workload:"srv" ~setup
      scripts
  in
  srv_check_report r

let srv_torn_sweep () =
  srv_sweep ~mode:(Pmem.Torn { seed = 7L; fraction = 0.5 }) ()

let srv_drop_sweep () =
  let setup, scripts, drops =
    Fault_server.drop_workload ~clients:2 ~ops_per_client:8
  in
  let r =
    Fault_server.explore ~drops ~seed:11L ~clients:2 ~workload:"srv-drop"
      ~setup scripts
  in
  Alcotest.(check bool) "has flush boundaries" true
    (r.Explore.total_flushes > 0);
  Alcotest.(check int) "full coverage" r.Explore.total_flushes
    r.Explore.schedules;
  Alcotest.(check bool) "sessions hard-dropped mid-pipelined-batch" true
    (r.Explore.dropped_sessions > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.Explore.violations)

(* The whole stack — fragmentation, fiber choice, batching, crash — is
   a pure function of (seed, schedule). *)
let srv_determinism () =
  let setup, scripts =
    Fault_server.default_workload ~clients:2 ~ops_per_client:6
  in
  let case = Fault_server.case ~seed:7L ~workload:"srv-det" ~setup scripts in
  let p1 = Explore.probe ~schedule:25 case in
  let p2 = Explore.probe ~schedule:25 case in
  Alcotest.(check bool) "byte-level replay is identical" true (p1 = p2);
  Alcotest.(check bool) "the armed schedule fired" true p1.Explore.p_crashed;
  Alcotest.(check (list string)) "no oracle errors" [] p1.Explore.p_errors

(* Pin the server gate's schedule space as the CLI sweeps it: 2 clients
   x 28 ops, seed 11, clean, both workloads. *)
let srv_census_pin () =
  let setup, scripts = Fault_server.default_workload ~clients:2 ~ops_per_client:28 in
  let r =
    Fault_server.explore ~seed:11L ~clients:2 ~workload:"srv-default" ~setup
      scripts
  in
  Alcotest.(check int) "srv-default schedules" 222 r.Explore.schedules;
  Alcotest.(check int) "srv-default full coverage" r.Explore.total_flushes
    r.Explore.schedules;
  Alcotest.(check int) "srv-default multi-in-flight" 81 r.Explore.multi_in_flight;
  Alcotest.(check int) "srv-default acks" 4068 r.Explore.acked_writes;
  Alcotest.(check int) "srv-default no violations" 0
    (List.length r.Explore.violations);
  let setup, scripts, drops =
    Fault_server.drop_workload ~clients:2 ~ops_per_client:28
  in
  let r =
    Fault_server.explore ~drops ~seed:11L ~clients:2 ~workload:"srv-drop"
      ~setup scripts
  in
  Alcotest.(check int) "srv-drop schedules" 114 r.Explore.schedules;
  Alcotest.(check int) "srv-drop dropped sessions" 114
    r.Explore.dropped_sessions;
  Alcotest.(check int) "srv-drop acks" 1006 r.Explore.acked_writes;
  Alcotest.(check int) "srv-drop no violations" 0
    (List.length r.Explore.violations)

(* ------------------------------------------------------------------ *)
(* Self-minimizing reproducers: re-inject the PR 3 free-before-sever
   bug (Epalloc's reservation hold degraded to a plain durable bit
   reset, so a racing domain can reallocate a freed object while the
   crashing domain's parent pointer still reaches it) and require the
   shrinker to carve a violating workload down to a locally minimal,
   deterministically replayable reproducer. *)

module Epalloc = Hart_core.Epalloc

let with_injected_bug f =
  Epalloc.unsafe_no_reservation_hold := true;
  Fun.protect
    ~finally:(fun () -> Epalloc.unsafe_no_reservation_hold := false)
    f

(* Does this (seed, workload) violate under deterministic replay? *)
let mt_violates ~seed ~setup scripts =
  match
    Explore.sweep ~keep_going:true ~stop_after_first:true
      (Fault_mt.case ~seed ~workload:"inject" ~setup scripts)
  with
  | r -> r.Explore.violations <> []
  | exception Explore.Violation _ -> true
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  (* a corrupted target can also trip the explorer itself; like the
     shrinker, count any deterministic failure as a violation *)
  | exception _ -> true

let find_mt_violation () =
  let candidates =
    List.concat_map
      (fun seed ->
        let s = Int64.of_int seed in
        [
          (s, Fault_mt.default_workload ~domains:2 ~ops_per_domain:6);
          (s, Fault_mt.collide_workload ~domains:2 ~ops_per_domain:6);
          (s, Fault_mt.gen_workload ~seed:s ~domains:2 ~ops_per_domain:6);
        ])
      [ 1; 2; 3; 4; 5 ]
  in
  List.find_opt
    (fun (seed, (setup, scripts)) -> mt_violates ~seed ~setup scripts)
    candidates

let mt_shrink_regression () =
  with_injected_bug (fun () ->
      match find_mt_violation () with
      | None -> Alcotest.fail "bug injection produced no violating schedule"
      | Some (seed, (setup, scripts)) -> (
          match Fault_mt.shrink ~seed ~setup scripts with
          | None -> Alcotest.fail "shrinker lost the violation"
          | Some s ->
              let repro = s.Explore.s_repro in
              let ops = Explore.repro_ops repro in
              Alcotest.(check bool)
                (Printf.sprintf "reproducer has <= 10 ops (got %d)" ops)
                true (ops <= 10);
              Alcotest.(check bool) "reproducer has <= 2 domains" true
                (repro.Explore.r_domains <= 2);
              Alcotest.(check bool) "shrink accepted at least one move" true
                (s.Explore.s_accepted > 0);
              (* the minimal coordinates still violate, twice: the replay
                 is deterministic *)
              let still () =
                mt_violates ~seed:repro.Explore.r_seed ~setup:repro.Explore.r_setup
                  repro.Explore.r_scripts
              in
              Alcotest.(check bool) "shrunk workload still violates" true
                (still ());
              Alcotest.(check bool) "deterministically so" true (still ())))

(* The known-minimal shape of the PR 3 bug: one domain's out-of-place
   update durably frees the old value object with the pending update
   log still referencing it, while the other domain's mutation
   reallocates the just-freed slot; crashing before the log reclaims
   makes replay free the new owner's value. From these coordinates the
   shrinker must reproduce a <= 3-op reproducer. *)
let mt_shrink_minimal_shape () =
  with_injected_bug (fun () ->
      let setup = [ Explore.Insert ("aa00", "v0"); Explore.Insert ("bb00", "v1") ] in
      let scripts =
        [| [ Explore.Update ("aa00", "u0") ]; [ Explore.Delete "bb00" ] |]
      in
      let seed =
        List.find_opt
          (fun s -> mt_violates ~seed:s ~setup scripts)
          (List.init 16 (fun i -> Int64.of_int (i + 1)))
      in
      match seed with
      | None -> Alcotest.fail "minimal free-before-sever shape did not violate"
      | Some seed -> (
          match Fault_mt.shrink ~seed ~setup scripts with
          | None -> Alcotest.fail "shrinker lost the violation"
          | Some s ->
              let ops = Explore.repro_ops s.Explore.s_repro in
              Alcotest.(check bool)
                (Printf.sprintf "<= 3-op reproducer (got %d)" ops)
                true (ops <= 3)))

(* With the fix in place (hold restored), the exact same search finds
   nothing: the regression gate is meaningful. *)
let mt_no_violation_when_fixed () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:6 in
  Alcotest.(check bool) "fixed allocator passes the same sweep" false
    (mt_violates ~seed:1L ~setup scripts)

(* The server sweep must catch real durability bugs end to end: the
   same injected allocator bug, observed through RESP sessions instead
   of direct index calls, and carved down to a minimal replayable
   reproducer by the same delta-debugging core. *)

let srv_violates ~seed ~setup scripts =
  match
    Explore.sweep ~keep_going:true ~stop_after_first:true
      (Fault_server.case ~seed ~workload:"srv-inject" ~setup scripts)
  with
  | r -> r.Explore.violations <> []
  | exception Explore.Violation _ -> true
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  | exception _ -> true

let srv_shrink_regression () =
  with_injected_bug (fun () ->
      let candidates =
        List.map
          (fun s ->
            ( Int64.of_int s,
              Fault_server.default_workload ~clients:2 ~ops_per_client:8 ))
          [ 1; 2; 3; 4; 5; 11 ]
      in
      match
        List.find_opt
          (fun (seed, (setup, scripts)) -> srv_violates ~seed ~setup scripts)
          candidates
      with
      | None ->
          Alcotest.fail "bug injection produced no violating server schedule"
      | Some (seed, (setup, scripts)) -> (
          match Fault_server.shrink ~seed ~setup scripts with
          | None -> Alcotest.fail "shrinker lost the violation"
          | Some s ->
              let repro = s.Explore.s_repro in
              Alcotest.(check bool) "reproducer has <= 2 clients" true
                (repro.Explore.r_domains <= 2);
              Alcotest.(check bool)
                (Printf.sprintf "reproducer has <= 12 ops (got %d)"
                   (Explore.repro_ops repro))
                true
                (Explore.repro_ops repro <= 12);
              let still () =
                srv_violates ~seed:repro.Explore.r_seed
                  ~setup:repro.Explore.r_setup repro.Explore.r_scripts
              in
              Alcotest.(check bool) "shrunk session still violates" true
                (still ());
              Alcotest.(check bool) "deterministically so" true (still ())))

let srv_no_violation_when_fixed () =
  let setup, scripts =
    Fault_server.default_workload ~clients:2 ~ops_per_client:8
  in
  Alcotest.(check bool) "fixed allocator passes the same server sweep" false
    (srv_violates ~seed:1L ~setup scripts)

(* ------------------------------------------------------------------ *)
(* [hart_cli fault --replay]: the CLI must print exactly the coordinates
   the core's probe returns for the same (case, mode, schedule). *)

let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/hart_cli.exe"

let run_cli args =
  let ic = Unix.open_process_args_in cli (Array.of_list (cli :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "hart_cli %s failed" (String.concat " " args)

let expected_replay ~label ~schedule (case : Explore.case) (p : Explore.probe) =
  let bindings bs = String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) bs) in
  let state = function Ok bs -> bindings bs | Error m -> "FAILURE: " ^ m in
  let ops what =
    List.map (fun (i, op) ->
        Format.asprintf "%s %s %d: %a" what label i Explore.pp_op op)
  in
  String.concat "\n"
    ([
       Printf.sprintf "[%s/%s] mode=clean schedule=%d" case.Explore.name
         case.Explore.workload schedule;
       Printf.sprintf "crashed=%b flushes=%d recovery-flushes=%d" p.Explore.p_crashed
         p.Explore.p_flushes p.Explore.p_recovery_flushes;
       "committed: " ^ bindings p.Explore.p_committed;
     ]
    @ ops "in-flight" p.Explore.p_in_flight
    @ ops "waiting" p.Explore.p_waiting
    @ List.map (fun e -> "error: " ^ e) p.Explore.p_errors
    @ [ "recovered: " ^ state p.Explore.p_state ]
    @ List.map
        (fun (m, st) ->
          Printf.sprintf "nested %d%s: %s" m
            (if st = p.Explore.p_state then "" else " (DIFFERS)")
            (state st))
        p.Explore.p_nested)
  ^ "\n"

let cli_replay_matches_probe () =
  let check args expected =
    Alcotest.(check string) (String.concat " " args) expected (run_cli args)
  in
  (* concurrent, with the nested boundaries *)
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:6 in
  let case = Fault_mt.case ~seed:42L ~workload:"mt-default" ~setup scripts in
  let p = Explore.probe ~nested:true ~schedule:20 case in
  Alcotest.(check bool) "the replayed schedule crashed" true p.Explore.p_crashed;
  Alcotest.(check bool) "nested boundaries were replayed" true
    (p.Explore.p_nested <> []);
  check
    [ "fault"; "--domains"; "2"; "--nested-mt"; "--replay"; "20" ]
    (expected_replay ~label:"fiber" ~schedule:20 case p);
  (* one generated workload, named as the sweep reports it, under the
     sweep's own interleaving seed *)
  let setup, scripts = Fault_mt.gen_workload ~seed:43L ~domains:2 ~ops_per_domain:6 in
  let case = Fault_mt.case ~seed:42L ~workload:"mt-gen#43" ~setup scripts in
  check
    [ "fault"; "--domains"; "2"; "--mt-workload"; "mt-gen#43"; "--replay"; "11" ]
    (expected_replay ~label:"fiber" ~schedule:11 case
       (Explore.probe ~schedule:11 case));
  (* the server sweep replays both of its workloads *)
  let setup, scripts = Fault_server.default_workload ~clients:2 ~ops_per_client:28 in
  let dsetup, dscripts, drops = Fault_server.drop_workload ~clients:2 ~ops_per_client:28 in
  let cases =
    [
      Fault_server.case ~seed:11L ~workload:"srv-default" ~setup scripts;
      Fault_server.case ~drops ~seed:11L ~workload:"srv-drop" ~setup:dsetup
        dscripts;
    ]
  in
  check
    [ "fault"; "--server"; "--seed"; "11"; "--replay"; "30" ]
    (String.concat ""
       (List.map
          (fun c -> expected_replay ~label:"client" ~schedule:30 c (Explore.probe ~schedule:30 c))
          cases))

let () =
  Alcotest.run "fault"
    [
      ("oracle", [ Alcotest.test_case "apply_model" `Quick oracle_semantics ]);
      ("hart-clean", clean_cases ~expect_nested:true Fault.hart);
      ( "hart-schedule-pin",
        [ Alcotest.test_case "schedule space unchanged" `Quick schedule_space_pin ] );
      ( "fptree-clean",
        clean_cases Fault.fptree
        @ [ Alcotest.test_case "fptree/split-chain repairs torn split" `Quick
              fptree_split_repair ] );
      ("hart-parallel-recovery", parallel_recovery_cases);
      ("hart-torn", torn_cases Fault.hart);
      ("fptree-torn", torn_cases Fault.fptree);
      ( "torn-full",
        [
          Alcotest.test_case "hart full eviction = clean" `Quick
            (torn_full_eviction Fault.hart);
          Alcotest.test_case "fptree full eviction = clean" `Quick
            (torn_full_eviction Fault.fptree);
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "hart/mixed-dense replay equivalence" `Quick
            (checkpoint_equivalence Fault.hart "mixed-dense");
          Alcotest.test_case "hart/split-chain replay equivalence" `Quick
            (checkpoint_equivalence Fault.hart "split-chain");
          Alcotest.test_case "fptree/split-chain replay equivalence" `Quick
            (checkpoint_equivalence Fault.fptree "split-chain");
        ] );
      ( "meta",
        [
          Alcotest.test_case "detects broken target" `Quick detects_violation;
          Alcotest.test_case "keep-going collects all violations" `Quick
            keep_going_collects;
          Alcotest.test_case "typed recovery error is a violation" `Quick
            typed_recovery_error_is_violation;
          Alcotest.test_case "all eight targets registered" `Quick
            all_targets_registered;
        ] );
      ("baselines", baseline_cases);
      ( "media",
        List.map
          (fun tgt ->
            Alcotest.test_case
              (Printf.sprintf "%s/mixed-dense media sweep" tgt.Fault.target_name)
              `Quick (media_sweep_target tgt))
          Fault.media_targets
        @ [
            Alcotest.test_case "deterministic replay" `Quick
              media_sweep_deterministic;
            Alcotest.test_case "roster and capabilities" `Quick
              media_sweep_roster;
            Alcotest.test_case "media JSON serialization" `Quick media_json;
          ] );
      ( "adversarial",
        [
          Alcotest.test_case "commit-line + subset passes" `Quick
            adversarial_sweep;
          Alcotest.test_case "directed read-set eviction" `Quick
            adversarial_directed;
        ] );
      ( "json",
        [ Alcotest.test_case "violation serialization" `Quick violation_json ] );
      ( "replay",
        [
          Alcotest.test_case "hart_cli --replay prints the probe" `Quick
            cli_replay_matches_probe;
        ] );
      ( "mt",
        [
          Alcotest.test_case "2-domain exhaustive sweep" `Quick (mt_sweep ~domains:2);
          Alcotest.test_case "4-domain exhaustive sweep" `Quick (mt_sweep ~domains:4);
          Alcotest.test_case "2-domain torn sweep" `Quick mt_torn_sweep;
          Alcotest.test_case "replay determinism" `Quick mt_determinism;
          Alcotest.test_case "max-schedules subsampling" `Quick mt_subsample;
          Alcotest.test_case "fptree-mt 2-domain sweep" `Quick
            (mt_index_sweep Fault_mt.fptree_mt);
          Alcotest.test_case "woart-mt 2-domain sweep" `Quick
            (mt_index_sweep Fault_mt.woart_mt);
          Alcotest.test_case "wb-tree-mt 2-domain sweep" `Quick
            (mt_index_sweep Fault_mt.wb_tree_mt);
          Alcotest.test_case "same-stripe collision sweep" `Quick mt_collide;
          Alcotest.test_case "generated workloads, 3 seeds" `Quick mt_generated;
          Alcotest.test_case "nested recovery re-crash: hart" `Quick
            (mt_nested_sweep Fault_mt.hart_mt);
          Alcotest.test_case "nested recovery re-crash: fptree" `Quick
            (mt_nested_sweep Fault_mt.fptree_mt);
          Alcotest.test_case "nested recovery re-crash: woart" `Quick
            (mt_nested_sweep Fault_mt.woart_mt);
          Alcotest.test_case "nested sweep covers hart recovery" `Quick
            mt_nested_hart_covers;
          Alcotest.test_case "shrinker: injected bug to minimal repro" `Quick
            mt_shrink_regression;
          Alcotest.test_case "shrinker: known shape to <= 3 ops" `Quick
            mt_shrink_minimal_shape;
          Alcotest.test_case "no violation once fixed" `Quick
            mt_no_violation_when_fixed;
          Alcotest.test_case "checkpointed replay equivalence" `Quick
            mt_checkpoint_equivalence;
          Alcotest.test_case "fptree split-race pinned nested sweep" `Quick
            mt_split_race_pin;
          Alcotest.test_case "dry run checks quiesced integrity" `Quick
            mt_dry_run_checks_integrity;
          Alcotest.test_case "hart-mt default census pinned" `Quick
            mt_census_pin;
        ] );
      ( "server-dst",
        [
          Alcotest.test_case "2-client exhaustive sweep" `Quick (srv_sweep ?mode:None);
          Alcotest.test_case "2-client torn sweep" `Quick srv_torn_sweep;
          Alcotest.test_case "hard-drop mid-batch sweep" `Quick srv_drop_sweep;
          Alcotest.test_case "byte-level replay determinism" `Quick
            srv_determinism;
          Alcotest.test_case "2-client x 28-op census pinned" `Quick
            srv_census_pin;
          Alcotest.test_case "injected bug to minimal repro" `Quick
            srv_shrink_regression;
          Alcotest.test_case "no violation once fixed" `Quick
            srv_no_violation_when_fixed;
        ] );
    ]
