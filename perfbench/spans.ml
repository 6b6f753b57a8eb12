(* Span recorder for the traced run.

   A span is one call into a layer, timed from outside the layer by the
   benchmark: its layer, the id of the request (workload op or kv
   request) it serves, its start and its duration. Spans opened with
   [push]/[pop] nest on a per-domain stack, so a span's self time is its
   duration minus the durations of the spans nested directly inside it.
   [record] adds an already-closed span that has no children on this
   domain (a kv request: its store work runs in the server fiber).

   Each domain records into its own buffer (no locking on the hot path).
   Aggregates per layer are kept exactly; the span log itself is capped
   and written out by [write] after the run. *)

let layers =
  [|
    "op";
    "kv.request";
    "store.get";
    "store.batch";
    "hart.insert";
    "hart.update";
    "hart.delete";
    "hart.search";
  |]

let op = 0
let kv_request = 1
let store_get = 2
let store_batch = 3
let hart_insert = 4
let hart_update = 5
let hart_delete = 6
let hart_search = 7
let n_layers = Array.length layers
let log_cap = 100_000
let max_depth = 8

type buf = {
  (* aggregates, indexed by layer *)
  count : int array;
  total : int array;
  self : int array;
  (* open-span stack *)
  mutable depth : int;
  st_layer : int array;
  st_id : int array;
  st_start : int array;
  st_child : int array;
  (* capped log *)
  mutable n : int;
  l_id : int array;
  l_layer : int array;
  l_parent : int array;  (* parent layer, -1 at the root *)
  l_start : int array;
  l_dur : int array;
  l_self : int array;
}

let new_buf () =
  let z n = Array.make n 0 in
  {
    count = z n_layers;
    total = z n_layers;
    self = z n_layers;
    depth = 0;
    st_layer = z max_depth;
    st_id = z max_depth;
    st_start = z max_depth;
    st_child = z max_depth;
    n = 0;
    l_id = z log_cap;
    l_layer = z log_cap;
    l_parent = z log_cap;
    l_start = z log_cap;
    l_dur = z log_cap;
    l_self = z log_cap;
  }

let all : buf list ref = ref []
let all_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b = new_buf () in
      Mutex.protect all_mu (fun () -> all := b :: !all);
      b)

let buf () = Domain.DLS.get key

let reset () =
  Mutex.protect all_mu (fun () ->
      List.iter
        (fun b ->
          Array.fill b.count 0 n_layers 0;
          Array.fill b.total 0 n_layers 0;
          Array.fill b.self 0 n_layers 0;
          b.depth <- 0;
          b.n <- 0)
        !all)

let close b ~layer ~id ~parent ~start ~dur ~child =
  let self = dur - child in
  b.count.(layer) <- b.count.(layer) + 1;
  b.total.(layer) <- b.total.(layer) + dur;
  b.self.(layer) <- b.self.(layer) + self;
  if b.n < log_cap then begin
    let i = b.n in
    b.l_id.(i) <- id;
    b.l_layer.(i) <- layer;
    b.l_parent.(i) <- parent;
    b.l_start.(i) <- start;
    b.l_dur.(i) <- dur;
    b.l_self.(i) <- self;
    b.n <- i + 1
  end

let push b ~layer ~id ~start =
  let d = b.depth in
  b.st_layer.(d) <- layer;
  b.st_id.(d) <- id;
  b.st_start.(d) <- start;
  b.st_child.(d) <- 0;
  b.depth <- d + 1

let pop b ~stop =
  let d = b.depth - 1 in
  b.depth <- d;
  let dur = stop - b.st_start.(d) in
  let parent =
    if d > 0 then begin
      b.st_child.(d - 1) <- b.st_child.(d - 1) + dur;
      b.st_layer.(d - 1)
    end
    else -1
  in
  close b ~layer:b.st_layer.(d) ~id:b.st_id.(d) ~parent ~start:b.st_start.(d)
    ~dur ~child:b.st_child.(d)

(* The id of the innermost open span: children inherit their request. *)
let current_id b = if b.depth = 0 then -1 else b.st_id.(b.depth - 1)

(* An already-closed leaf span nested in the innermost open span. *)
let record_child b ~layer ~start ~stop =
  let dur = stop - start and d = b.depth - 1 in
  b.st_child.(d) <- b.st_child.(d) + dur;
  close b ~layer ~id:b.st_id.(d) ~parent:b.st_layer.(d) ~start ~dur ~child:0

let record b ~layer ~id ~start ~stop =
  close b ~layer ~id ~parent:(-1) ~start ~dur:(stop - start) ~child:0

type summary = { calls : int; mean_ns : float; mean_self_ns : float }

let summary layer =
  let c, t, s =
    List.fold_left
      (fun (c, t, s) b ->
        (c + b.count.(layer), t + b.total.(layer), s + b.self.(layer)))
      (0, 0, 0) !all
  in
  let per x = if c = 0 then 0. else float_of_int x /. float_of_int c in
  { calls = c; mean_ns = per t; mean_self_ns = per s }

let name_of l = if l < 0 then "-" else layers.(l)

(* One line per logged span: request id, layer, parent layer, start
   (ns, monotonic clock), duration and self time (ns). *)
let write path =
  let oc = open_out path in
  output_string oc "id\tlayer\tparent\tstart_ns\tdur_ns\tself_ns\n";
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        Printf.fprintf oc "%d\t%s\t%s\t%d\t%d\t%d\n" b.l_id.(i)
          layers.(b.l_layer.(i))
          (name_of b.l_parent.(i))
          b.l_start.(i) b.l_dur.(i) b.l_self.(i)
      done)
    !all;
  close_out oc
