(* Shared pieces of the three workloads: the clock, latency samples,
   the simulated PM set-up, the durability check and the metric list. *)

module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter
module Latency = Hart_pmem.Latency
module Hart = Hart_core.Hart
module Hart_stats = Hart_core.Hart_stats
module Keygen = Hart_workloads.Keygen
module Rng = Hart_util.Rng

let now () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now () - t0) /. 1e9

(* Growable int vector (latency samples in ns). *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of latency samples, in µs. *)
let percentile_us sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let i = min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
    float_of_int sorted.(i) /. 1e3

(* A metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* What a run hands back: [end_to_end] and [per_layer] follow
   BENCHMARK.json; [failed] includes acknowledged writes absent or wrong
   after recovery. *)
type outcome = {
  attempted : int;
  failed : int;
  samples : int;  (** latency samples behind p50/p99 *)
  end_to_end : metric list;
  per_layer : metric list;
  counters : Meter.counters;  (** measured-phase Meter delta *)
}

(* The paper's §IV-A emulation: PM write 300 ns, PM read 100 ns. *)
let fresh_meter () = Meter.create Latency.c300_100

let keys ~seed n = Keygen.generate ~seed:(Int64.of_int seed) Keygen.Random n

(* Set-ups per run; the set-up time is their median. *)
let setups = 5

(* Run [setup] [setups] times, each from scratch after a full major GC,
   and keep only the last result (one store in memory at a time). *)
let repeat_setup setup =
  let timed () =
    Gc.full_major ();
    let t0 = now () in
    let r = setup () in
    (r, seconds_since t0)
  in
  let rec go acc i =
    let r, dt = timed () in
    if i <= 1 then (r, median (dt :: acc)) else go (dt :: acc) (i - 1)
  in
  go [] setups

(* ------------------------------------------------------------------ *)
(* Durability check                                                    *)

(* A crash point's findings: the mount times and, per acknowledged
   write that is absent or wrong, its key id and the value the model
   expects. *)
type recovery = { mount_s : float list; lost : (int * string option) list; errors : int }

let image_dir = ".bench_out"

(* Mounts timed per crash point. *)
let mounts = 3

(* Mount the durable image of [pool] with [Hart.recover] [mounts] times
   (each timed, after a full major GC), then run [check_integrity] on
   the last mount and compare every key the workload knows with the
   model. The image goes through a file and each mount gets a fresh
   [Meter], so the check leaves the running store's simulated cache
   alone: [Pmem.save] writes only flushed lines, the state a power
   failure leaves. A failed mount loses every acknowledged write. *)
let crash_and_check pool ~keys ~model =
  if not (Sys.file_exists image_dir) then Sys.mkdir image_dir 0o755;
  let path = Filename.concat image_dir "crash.pm" in
  Pmem.save pool path;
  let mount () =
    let img = Pmem.load (fresh_meter ()) path in
    Pmem.reserve img (Pmem.capacity pool);
    Gc.full_major ();
    let t0 = now () in
    let mounted =
      match Hart.recover img with
      | h -> Some h
      | exception e ->
          Printf.eprintf "recovery failed: %s\n%!" (Printexc.to_string e);
          None
    in
    (mounted, seconds_since t0)
  in
  let earlier = List.init (mounts - 1) (fun _ -> snd (mount ())) in
  let mounted, last = mount () in
  Sys.remove path;
  let mount_s = last :: earlier in
  let lost found =
    let l = ref [] in
    Array.iteri (fun id k -> if found k <> model.(id) then l := (id, model.(id)) :: !l) keys;
    !l
  in
  match mounted with
  | None -> { mount_s; lost = lost (fun _ -> None); errors = 1 }
  | Some h ->
      let errors =
        match Hart.check_integrity ~allow_recovered_orphans:true h with
        | () -> 0
        | exception Failure msg ->
            Printf.eprintf "check_integrity after recovery: %s\n%!" msg;
            1
      in
      { mount_s; lost = lost (Hart.search h); errors }

(* ------------------------------------------------------------------ *)
(* Metrics shared by every workload                                    *)

(* The outcome of the correctness checks: failures against attempts,
   and the acknowledged writes recovery lost, counted on their own. *)
let durability ~attempted ~failed ~lost =
  [
    m "error_rate" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
    m "lost_acked_writes" "count" (float_of_int lost);
  ]

(* Per-op Meter deltas of the measured (traced) phase. *)
let meter_metrics ~ops (d : Meter.counters) =
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  [
    m "pmem.flushes_per_op" "count" (per d.flushes);
    m "pmem.fences_per_op" "count" (per d.fences);
    m "pmem.persist_calls_per_op" "count" (per d.persist_calls);
    m "pmem.pm_writes_per_op" "count" (per d.pm_writes);
    m "pmem.allocs_per_op" "count" (per d.pm_allocs);
    m "pmem.frees_per_op" "count" (per d.pm_frees);
    m "pmem.pm_reads_per_op" "count" (per d.pm_reads);
    m "meter.pm_read_misses_per_op" "count" (per d.pm_read_misses);
    m "meter.dram_read_misses_per_op" "count" (per d.dram_read_misses);
  ]

(* Structure of the store at the end of the measured phase. *)
let structure_metrics hart =
  let s = Hart_stats.collect hart in
  let vals = [ s.val8_class; s.val16_class; s.val32_class ] in
  let sum f = List.fold_left (fun a c -> a + f c) 0 vals in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  [
    m "hart.arts" "count" (float_of_int (Hart.art_count hart));
    m "art.max_height" "count" (float_of_int s.max_art_height);
    m "art.node_bytes_per_key" "B" (ratio s.art_node_bytes (max 1 s.keys));
    m "epalloc.leaf_occupancy" "ratio" s.leaf_class.occupancy;
    m "epalloc.value_occupancy" "ratio"
      (ratio
         (sum (fun (c : Hart_stats.class_stats) -> c.live_objects))
         (sum (fun (c : Hart_stats.class_stats) -> c.capacity)));
  ]

let span_mean layer = (Spans.summary layer).Spans.mean_ns

(* Mean time per HART call, by op type, from the traced phase's spans. *)
let hart_span_metrics () =
  [
    m "hart.insert_ns" "ns" (span_mean Spans.hart_insert);
    m "hart.update_ns" "ns" (span_mean Spans.hart_update);
    m "hart.delete_ns" "ns" (span_mean Spans.hart_delete);
    m "hart.search_ns" "ns" (span_mean Spans.hart_search);
  ]

(* ------------------------------------------------------------------ *)
(* Running a workload                                                  *)

type params = {
  seed : int;
  seconds : float;  (* measured time, when [ops] is [None] *)
  ops : int option;  (* measure exactly this many ops instead *)
  traced : bool;
  preload : int option;  (* override the workload's store size *)
}

type phase = { ops : int; failed : int; elapsed_s : float }

let rate (ph : phase) = float_of_int ph.ops /. ph.elapsed_s

(* What [drive] needs from a workload's set-up state. *)
type view = {
  pool : Pmem.t;
  hart : Hart.t;
  keys : string array;
  model : string option array;  (* expected value per key id *)
}

type 'st workload = {
  setup : unit -> 'st;  (* keys, trace and preload, from the seed *)
  view : 'st -> view;
  measure :
    'st -> traced:bool -> deadline:int -> max_ops:int -> lats:Vec.t -> phase;
      (* the closed loop: until [deadline] (monotonic ns) or [max_ops],
         checking every reply against the model *)
  layer_metrics : 'st -> phase -> metric list;
      (* workload-specific per-layer metrics of the traced phase *)
  checkpoint_s : float;  (* measured seconds between durability checks *)
}

(* Set up [setups] times, then measure: the untraced phase gives the
   end-to-end metrics; a traced run measures an untraced half of its
   time (the reference rate), then a traced half for the per-layer
   metrics. Last, crash, recover and check every acknowledged write. *)
let drive p w =
  let st, setup_s = repeat_setup w.setup in
  let v = w.view st in
  let meter = Pmem.meter v.pool in
  let share = if p.traced then 0.5 else 1. in
  let max_ops =
    match p.ops with Some n -> int_of_float (float_of_int n *. share) | None -> max_int
  in
  let after s = now () + int_of_float (s *. 1e9) in
  (* The untraced phase, cut every [w.checkpoint_s] to mount the pool's
     durable image and check every acknowledged write while the store
     itself runs on. Crash points spread over the run make the recovery
     time a median of mounts taken at several moments. *)
  let lats = Vec.create () in
  let a = ref { ops = 0; failed = 0; elapsed_s = 0. } and checks = ref [] in
  let c0 = Meter.counters meter in
  let segment ~deadline =
    let ph = w.measure st ~traced:false ~deadline ~max_ops ~lats in
    a :=
      { ops = !a.ops + ph.ops; failed = !a.failed + ph.failed;
        elapsed_s = !a.elapsed_s +. ph.elapsed_s }
  in
  (match p.ops with
  | Some _ -> segment ~deadline:max_int
  | None ->
      let rec go left =
        let this = Float.min left w.checkpoint_s in
        segment ~deadline:(after this);
        if left -. this > 1e-3 then begin
          checks := crash_and_check v.pool ~keys:v.keys ~model:v.model :: !checks;
          go (left -. this)
        end
      in
      go (p.seconds *. share));
  let a = !a and delta = Meter.diff c0 (Meter.counters meter) in
  let b, per_layer =
    if not p.traced then ({ ops = 0; failed = 0; elapsed_s = 0. }, [])
    else begin
      Spans.reset ();
      let c1 = Meter.counters meter in
      let deadline = if p.ops = None then after (p.seconds *. share) else max_int in
      let b = w.measure st ~traced:true ~deadline ~max_ops ~lats:(Vec.create ()) in
      let c2 = Meter.counters meter in
      ( b,
        w.layer_metrics st b
        @ [ m "trace.overhead" "ratio" (rate b /. rate a) ]
        @ structure_metrics v.hart
        @ meter_metrics ~ops:b.ops (Meter.diff c1 c2) )
    end
  in
  let live = float_of_int (max 1 (Hart.count v.hart)) in
  let pm_per_key = float_of_int (Hart.pm_bytes v.hart) /. live
  and dram_per_key = float_of_int (Hart.dram_bytes v.hart) /. live in
  let sorted = Vec.to_array lats in
  Array.sort compare sorted;
  let samples = Array.length sorted in
  let p50 = percentile_us sorted 0.50 and p99 = percentile_us sorted 0.99 in
  Pmem.crash v.pool;
  let checks = crash_and_check v.pool ~keys:v.keys ~model:v.model :: !checks in
  (* A write lost at one crash point can still be missing at the next:
     count each (key id, expected value) once. *)
  let lost_writes = Hashtbl.create 16 in
  List.iter (fun r -> List.iter (fun w -> Hashtbl.replace lost_writes w ()) r.lost) checks;
  let lost = Hashtbl.length lost_writes in
  let errors = List.fold_left (fun n r -> n + r.errors) 0 checks in
  let attempted = a.ops + b.ops in
  let failed = a.failed + b.failed + lost + errors in
  {
    attempted;
    failed;
    samples;
    end_to_end =
      [
        m "setup_s" "s" setup_s;
        m "ops_per_s" "ops/s" (rate a);
        m "p50_us" "us" p50;
        m "p99_us" "us" p99;
        m "sim_ns_per_op" "ns" (delta.sim_ns /. float_of_int (max 1 a.ops));
        m "recovery_s" "s" (median (List.concat_map (fun r -> r.mount_s) checks));
        m "pm_bytes_per_key" "B" pm_per_key;
        m "dram_bytes_per_key" "B" dram_per_key;
      ];
    per_layer = per_layer @ durability ~attempted ~failed ~lost;
    counters = delta;
  }
