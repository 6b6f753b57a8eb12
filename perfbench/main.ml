(* Command-line entry point of the benchmark (see BENCHMARK.json):

     main.exe --workload write-mix|read-large|kv-pipelined --seed N
              --seconds S --trace 0|1

   prints every metric by name and unit, then, as the last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones. *)

open Perfbench
open Common

let usage =
  "main.exe --workload write-mix|read-large|kv-pipelined --seed N --seconds S \
   --trace 0|1 [--spans FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--spans", Arg.Set_string spans, "FILE write the traced run's span log here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let p =
    {
      seed = !seed;
      seconds = !seconds;
      ops = None;
      traced = !trace = 1;
      preload = None;
    }
  in
  let o =
    match !workload with
    | "write-mix" -> drive p (Index_wl.workload `Write_mix p)
    | "read-large" -> drive p (Index_wl.workload `Read_large p)
    | "kv-pipelined" -> drive p (Kv_wl.workload p)
    | w ->
        Printf.eprintf "unknown workload %S\n%s\n" w usage;
        exit 2
  in
  if p.traced then begin
    if !spans <> "" then Spans.write !spans;
    Printf.printf "%-12s %10s %12s %12s\n" "span" "calls" "mean_ns" "self_ns";
    Array.iteri
      (fun l name ->
        let s = Spans.summary l in
        if s.calls > 0 then
          Printf.printf "%-12s %10d %12.1f %12.1f\n" name s.calls s.mean_ns s.mean_self_ns)
      Spans.layers
  end;
  let shown = o.end_to_end @ o.per_layer in
  Printf.printf "%s seed=%d: attempted=%d failed=%d latency samples=%d\n" !workload
    !seed o.attempted o.failed o.samples;
  List.iter (fun x -> Printf.printf "  %-34s %14.6g %s\n" x.name x.value x.unit) shown;
  let reported = if p.traced then o.per_layer else o.end_to_end in
  let num v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit)
          reported))
