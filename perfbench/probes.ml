(* Standalone layer probes, run in the traced run after the measured
   phase, on the workload's own inputs. Each times a loop of calls into
   one layer's public function and reports ns per call. *)

open Common
module Resp = Hart_server.Resp
module Hash_dir = Hart_core.Hash_dir
module Art = Hart_art.Art

let per_call t0 n = float_of_int (now () - t0) /. float_of_int (max 1 n)

(* [Resp.parse] over a buffer of the run's own requests. *)
let resp_parse_ns (reqs : string) =
  let t0 = now () in
  let rec go pos n =
    match Resp.parse reqs pos with
    | Resp.Cmd (c, p) ->
        ignore (Sys.opaque_identity c);
        go p (n + 1)
    | Resp.Error (_, p) -> go p (n + 1)
    | Resp.Incomplete -> n
  in
  let n = go 0 0 in
  per_call t0 n

(* [Hash_dir.find] on a directory holding the store's hash keys, looked
   up with each read's hash key. *)
let hash_dir_find_ns hart (reads : string array) =
  let dir = Hash_dir.create ~meter:(fresh_meter ()) () in
  Hart.iter_arts hart (fun hk _ -> Hash_dir.insert dir hk ());
  let hks = Array.map (fun k -> fst (Hart.split_key hart k)) reads in
  let t0 = now () in
  Array.iter (fun hk -> ignore (Sys.opaque_identity (Hash_dir.find dir hk))) hks;
  per_call t0 (Array.length hks)

(* [Art.find] on the store's own ARTs with each read's ART key. *)
let art_find_ns hart (reads : string array) =
  let arts = Hashtbl.create 4096 in
  Hart.iter_arts hart (fun hk art -> Hashtbl.replace arts hk art);
  let pairs =
    Array.to_list reads
    |> List.filter_map (fun k ->
           let hk, ak = Hart.split_key hart k in
           Option.map (fun a -> (a, ak)) (Hashtbl.find_opt arts hk))
    |> Array.of_list
  in
  let t0 = now () in
  Array.iter (fun (a, ak) -> ignore (Sys.opaque_identity (Art.find a ak))) pairs;
  per_call t0 (Array.length pairs)

(* Dirty one line with [Pmem.set_u64], then [Pmem.persist] it, line by
   line over [bytes] of a fresh pool of that size: the dirty map, the
   ECC CRC and the shadow copy of one persisted line. *)
let persist_line_ns ~bytes =
  let bytes = max (1 lsl 16) bytes in
  let pool = Pmem.create ~capacity:(bytes + (1 lsl 16)) (fresh_meter ()) in
  let base = Pmem.alloc pool bytes in
  let lines = bytes / Pmem.line_bytes in
  let t0 = now () in
  for i = 0 to lines - 1 do
    let off = base + (i * Pmem.line_bytes) in
    Pmem.set_u64 pool off (Int64.of_int i);
    Pmem.persist pool ~off ~len:8
  done;
  per_call t0 lines

(* [Meter.access] alone: PM reads at seeded random lines spread over
   [bytes], the simulation tax per memory event. *)
let meter_access_ns ~seed ~bytes =
  let meter = fresh_meter () in
  let rng = Rng.create (Int64.of_int (seed + 7)) in
  let lines = max 1 (bytes / 64) in
  let addrs = Array.init 1_000_000 (fun _ -> 64 * Rng.int rng lines) in
  let t0 = now () in
  Array.iter (fun addr -> Meter.access meter Meter.Pm ~addr ~write:false) addrs;
  per_call t0 (Array.length addrs)

(* The probes every workload runs; [resp_parse_ns] only on RESP input. *)
let run ~seed ~hart ~reads =
  let bytes = Hart.pm_bytes hart in
  [
    m "hash_dir.find_ns" "ns" (hash_dir_find_ns hart reads);
    m "art.find_ns" "ns" (art_find_ns hart reads);
    m "pmem.persist_line_ns" "ns" (persist_line_ns ~bytes);
    m "meter.access_ns" "ns" (meter_access_ns ~seed ~bytes);
  ]
