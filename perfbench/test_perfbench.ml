(* Determinism of the single-caller workloads: two runs with one seed
   generate the identical trace and give identical Meter counts,
   simulated time and footprint; another seed gives another trace. Also
   checks that a durability check leaves the running store's Meter
   alone, that read-large never flushes and that a traced kv-pipelined
   run reports every per-layer metric. Small stores keep it fast. *)

open Perfbench
open Common

let params ?(traced = false) seed =
  { seed; seconds = 0.; ops = Some 4000; traced; preload = Some 3000 }

let run ?traced which seed =
  let p = params ?traced seed in
  drive p (Index_wl.workload which p)

let value (o : outcome) name =
  (List.find (fun x -> x.name = name) (o.end_to_end @ o.per_layer)).value

let fail fmt = Printf.ksprintf failwith fmt

let trace which seed = Index_wl.digest which ~seed ~preload:3000 ~n:4000

let determinism name which =
  if trace which 7 <> trace which 7 then fail "%s: one seed gave two traces" name;
  if trace which 7 = trace which 8 then fail "%s: two seeds gave one trace" name;
  let a = run which 7 and b = run which 7 in
  if a.counters <> b.counters then fail "%s: Meter counts differ for one seed" name;
  List.iter
    (fun metric ->
      if value a metric <> value b metric then
        fail "%s: %s differs for one seed (%g vs %g)" name metric (value a metric)
          (value b metric))
    [ "sim_ns_per_op"; "pm_bytes_per_key"; "dram_bytes_per_key" ];
  if a.attempted <> 4000 || a.failed <> 0 then
    fail "%s: %d failures in %d ops" name a.failed a.attempted;
  Printf.printf "%s: deterministic\n" name

(* Two stretches of write-mix, with and without a durability check
   between them: the store's Meter counts must match. *)
let check_leaves_meter () =
  let p = params 7 in
  let w = Index_wl.workload `Write_mix p in
  let counts ~check =
    let st = w.setup () in
    let v = w.view st in
    let stretch () =
      ignore (w.measure st ~traced:false ~deadline:max_int ~max_ops:2000 ~lats:(Vec.create ()))
    in
    stretch ();
    if check then ignore (crash_and_check v.pool ~keys:v.keys ~model:v.model);
    stretch ();
    Meter.counters (Pmem.meter v.pool)
  in
  if counts ~check:false <> counts ~check:true then
    fail "a durability check changed the running store's Meter counts";
  print_endline "durability check: leaves the Meter alone"

let () =
  determinism "write-mix" `Write_mix;
  determinism "read-large" `Read_large;
  check_leaves_meter ();
  let r = run ~traced:true `Read_large 7 in
  if value r "pmem.flushes_per_op" <> 0. then fail "read-large flushed";
  let w = run ~traced:true `Write_mix 7 in
  if value w "pmem.flushes_per_op" <= 0. then fail "write-mix did not flush";
  let p = params ~traced:true 7 in
  let kv = drive p (Kv_wl.workload p) in
  if List.length kv.per_layer <> List.length w.per_layer then
    fail "kv-pipelined reports %d per-layer metrics, write-mix %d"
      (List.length kv.per_layer) (List.length w.per_layer);
  if value kv "server.writes_per_batch" <= 0. then fail "kv-pipelined: no write batches";
  print_endline "ok"
