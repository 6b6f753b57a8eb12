(* The single-caller index workloads, calling [Hart] directly:

   - write-mix: 25% insert, 25% update, 25% delete, 25% search. An
     insert takes a key absent at that point of the run (one never
     inserted or one deleted since), the others a key live at that
     point, each drawn uniformly, so store size and hit rate stay level;
   - read-large: 100% search, uniform over the preloaded keys.

   Set-up generates the keys and preloads the store. The ops come from
   a generator seeded from the seed, one at a time as the run consumes
   them, so set-up does not grow with the run. Every reply is checked
   against a model of every key. *)

open Common

let k_insert = 0
let k_update = 1
let k_delete = 2
let k_search = 3

let preload_value id = Printf.sprintf "p%x" id
let op_value i = Printf.sprintf "v%x" i

(* The op stream of a workload over a key table whose first [preload]
   keys are preloaded. *)
type gen =
  | Mix of {
      rk : Rng.t;  (* op kinds *)
      rt : Rng.t;  (* key picks *)
      slot : int array;
          (* key ids: live ones in [slot.(0 .. live-1)], absent ones after
             them; an insert or delete swaps a uniform pick across *)
      mutable live : int;
    }
  | Reads of { rt : Rng.t; preload : int }

(* write-mix's key table holds twice the preload: inserts draw from the
   keys absent at the time, so the table does not grow with the run. *)
let table_size which ~preload = match which with `Write_mix -> 2 * preload | `Read_large -> preload

let gen which ~seed ~preload =
  let rng i = Rng.create (Int64.of_int ((seed * 4) + i)) in
  match which with
  | `Write_mix ->
      Mix { rk = rng 1; rt = rng 2; slot = Array.init (2 * preload) Fun.id; live = preload }
  | `Read_large -> Reads { rt = rng 3; preload }

(* The next op: its kind and key id. *)
let next = function
  | Reads { rt; preload } -> (k_search, Rng.int rt preload)
  | Mix g ->
      let k = Rng.int g.rk 4 in
      let total = Array.length g.slot in
      let swap i j =
        let x = g.slot.(i) in
        g.slot.(i) <- g.slot.(j);
        g.slot.(j) <- x
      in
      if k = k_insert && g.live < total then begin
        swap g.live (g.live + Rng.int g.rt (total - g.live));
        g.live <- g.live + 1;
        (k, g.slot.(g.live - 1))
      end
      else if k = k_delete && g.live > 0 then begin
        swap (Rng.int g.rt g.live) (g.live - 1);
        g.live <- g.live - 1;
        (k, g.slot.(g.live))
      end
      else (k, if g.live = 0 then 0 else g.slot.(Rng.int g.rt g.live))

(* Digest of the key table and the first [n] ops of a seed. *)
let digest which ~seed ~preload ~n =
  let b = Buffer.create (1 lsl 16) in
  Array.iter
    (fun k -> Buffer.add_string b k; Buffer.add_char b '\n')
    (keys ~seed (table_size which ~preload));
  let g = gen which ~seed ~preload in
  for _ = 1 to n do
    let k, id = next g in
    Buffer.add_string b (Printf.sprintf "%d:%d," k id)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

type store = {
  which : [ `Write_mix | `Read_large ];
  seed : int;
  preload : int;
  gen : gen;
  v : view;
  mutable next : int;  (* ops run so far *)
}

let setup which ~seed ~preload () =
  let keys = keys ~seed (table_size which ~preload) in
  let pool = Pmem.create (fresh_meter ()) in
  let hart = Hart.create pool in
  let model = Array.make (Array.length keys) None in
  for id = 0 to preload - 1 do
    let v = preload_value id in
    Hart.insert hart ~key:keys.(id) ~value:v;
    model.(id) <- Some v
  done;
  {
    which;
    seed;
    preload;
    gen = gen which ~seed ~preload;
    v = { pool; hart; keys; model };
    next = 0;
  }

let hart_layer k =
  if k = k_insert then Spans.hart_insert
  else if k = k_update then Spans.hart_update
  else if k = k_delete then Spans.hart_delete
  else Spans.hart_search

(* One call per op, timed into [lats]; the reply is checked against the
   model. A traced op is a span with the HART call as its child. *)
let measure s ~traced ~deadline ~max_ops ~lats =
  let h = s.v.hart and keys = s.v.keys and model = s.v.model in
  let sp = Spans.buf () in
  let from = s.next in
  let stop = from + min max_ops (max_int - from) in
  let failed = ref 0 in
  let t_start = now () in
  let t = ref t_start in
  while s.next < stop && !t < deadline do
    let op = s.next in
    let k, id = next s.gen in
    let key = keys.(id) in
    if traced then Spans.push sp ~layer:Spans.op ~id:op ~start:(now ());
    let call f =
      let t0 = now () in
      let r = f () in
      t := now ();
      Vec.push lats (!t - t0);
      if traced then Spans.record_child sp ~layer:(hart_layer k) ~start:t0 ~stop:!t;
      r
    in
    let ok =
      try
        if k = k_search then call (fun () -> Hart.search h key) = model.(id)
        else if k = k_delete then begin
          let r = call (fun () -> Hart.delete h key) in
          let expect = model.(id) <> None in
          model.(id) <- None;
          r = expect
        end
        else begin
          let v = op_value op in
          let r =
            if k = k_insert then (call (fun () -> Hart.insert h ~key ~value:v); true)
            else call (fun () -> Hart.update h ~key ~value:v)
          in
          let expect = k = k_insert || model.(id) <> None in
          if r then model.(id) <- Some v;
          r = expect
        end
      with e ->
        Printf.eprintf "op %d raised %s\n%!" op (Printexc.to_string e);
        t := now ();
        false
    in
    if not ok then incr failed;
    if traced then Spans.pop sp ~stop:(now ());
    s.next <- op + 1
  done;
  { ops = s.next - from; failed = !failed; elapsed_s = seconds_since t_start }

(* The keys the run's first searches read, replayed from the seed, for
   the standalone probes. *)
let probe_reads s ~upto =
  let g = gen s.which ~seed:s.seed ~preload:s.preload in
  let reads = ref [] in
  for _ = 1 to min upto 200_000 do
    let k, id = next g in
    if k = k_search then reads := s.v.keys.(id) :: !reads
  done;
  Array.of_list (List.rev !reads)

(* No RESP, server or striped front end on these workloads' path. *)
let not_on_path =
  [
    m "resp.parse_ns" "ns" 0.;
    m "server.writes_per_batch" "count" 0.;
    m "server.self_us" "us" 0.;
    m "hart_mt.search_ns" "ns" 0.;
    m "hart_mt.apply_batch_ns_per_op" "ns" 0.;
    m "hart_mt.stripes_per_batch" "count" 0.;
  ]

let layer_metrics s _ =
  Probes.run ~seed:s.seed ~hart:s.v.hart ~reads:(probe_reads s ~upto:s.next)
  @ not_on_path @ hart_span_metrics ()

let workload which (p : params) =
  let default = match which with `Write_mix -> 100_000 | `Read_large -> 400_000 in
  let preload = Option.value p.preload ~default in
  {
    setup = setup which ~seed:p.seed ~preload;
    view = (fun s -> s.v);
    measure;
    layer_metrics;
    (* a read-large check mounts ~34 MiB three times: check less often *)
    checkpoint_s = 10.;
  }
