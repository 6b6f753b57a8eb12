(* kv-pipelined: the RESP server ([Server.connect_loopback]) on
   [Scheduler.Wall] with two domains. Two client connections each run a
   closed loop of 16-request pipelined rounds, 70% GET / 30% SET,
   uniform over a key partition the connection owns, so every reply has
   exactly one correct value. The store is preloaded with 200k Random
   keys (about 3.8k ARTs).

   Each connection's requests come from its own seeded generator, so a
   connection's request sequence does not depend on scheduling. *)

open Common
module Hart_mt = Hart_core.Hart_mt
module Striped_mt = Hart_core.Striped_mt
module Index_intf = Hart_core.Index_intf
module Scheduler = Hart_async.Scheduler
module Server = Hart_server.Server
module Resp = Hart_server.Resp
module Transport = Hart_server.Transport

let conns = 2
let round = 16
let domains = 2
let default_preload = 200_000

(* Global request id: the connection's request sequence number,
   interleaved across connections. *)
let rid j seq = (seq * conns) + j

(* ------------------------------------------------------------------ *)
(* Traced store                                                        *)

(* Request ids of the writes of the batch being applied on this domain,
   so each HART call inside [apply_batch] is attributed to its request. *)
let batch_ids : (string * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let take_id key =
  let r = Domain.DLS.get batch_ids in
  match List.partition (fun (k, _) -> k = key) !r with
  | (_, id) :: again, rest ->
      r := again @ rest;
      id
  | [], _ -> Spans.current_id (Spans.buf ())

let in_span ~layer ~id f =
  let b = Spans.buf () in
  let t0 = now () in
  Spans.push b ~layer ~id ~start:t0;
  match f () with
  | r ->
      let t1 = now () in
      Spans.pop b ~stop:t1;
      (r, t1 - t0)
  | exception e ->
      Spans.pop b ~stop:(now ());
      raise e

(* HART's calls as the striped front end makes them, each a span. *)
module Traced_S = struct
  include Hart_mt.S

  let call layer id f = fst (in_span ~layer ~id f)

  let search t k =
    call Spans.hart_search (Spans.current_id (Spans.buf ())) (fun () -> Hart.search t k)

  let insert t ~key ~value =
    call Spans.hart_insert (take_id key) (fun () -> Hart.insert t ~key ~value)

  let update t ~key ~value =
    call Spans.hart_update (take_id key) (fun () -> Hart.update t ~key ~value)

  let delete t key = call Spans.hart_delete (take_id key) (fun () -> Hart.delete t key)
end

module Traced_mt = Striped_mt.Make (Traced_S)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type conn_state = {
  j : int;
  rng : Rng.t;
  ids : int array;  (* key ids of this connection's partition *)
  mutable seq : int;  (* requests sent so far *)
  (* per phase *)
  mutable lats : Vec.t;
  mutable failed : int;
  mutable replies : int;
  mutable sets : int;
  mutable rounds : int;
  mutable self_ns : int;  (* round time outside the store closures *)
  closure_ns : int Atomic.t;  (* time inside the store closures *)
  mutable batches : int;
  mutable batch_ops : int;
  mutable stripes : int;
}

let new_phase st =
  st.lats <- Vec.create ();
  st.failed <- 0;
  st.replies <- 0;
  st.sets <- 0;
  st.rounds <- 0;
  st.self_ns <- 0;
  Atomic.set st.closure_ns 0;
  st.batches <- 0;
  st.batch_ops <- 0;
  st.stripes <- 0

let new_conn ~seed ~n j =
  {
    j;
    rng = Rng.create (Int64.of_int ((seed * 16) + 5 + j));
    ids = Array.init ((n - j + conns - 1) / conns) (fun i -> j + (i * conns));
    seq = 0;
    lats = Vec.create ();
    failed = 0;
    replies = 0;
    sets = 0;
    rounds = 0;
    self_ns = 0;
    closure_ns = Atomic.make 0;
    batches = 0;
    batch_ops = 0;
    stripes = 0;
  }

(* The next request of a connection: [Some value] for a SET. *)
let next_request rng ~ids ~j ~seq =
  let id = ids.(Rng.int rng (Array.length ids)) in
  let set = Rng.int rng 10 < 3 in
  (id, if set then Some (Printf.sprintf "c%d.%x" j seq) else None)

let encode b key = function
  | Some v -> Resp.request b [ "SET"; key; v ]
  | None -> Resp.request b [ "GET"; key ]

exception Lost_connection

(* One connection's closed loop: send a round, await its 16 replies,
   check each against the model, repeat until the deadline. *)
let client st (conn : Transport.conn) ~keys ~model ~deadline ~max_rounds ~traced =
  let req = Buffer.create 2048 and eb = Buffer.create 64 in
  let expected = Array.make round "" in
  let chunk = Bytes.create 65536 in
  let acc = ref "" and got = ref 0 in
  (* Read until [n] replies have arrived; a reply's latency runs from
     [t0], the write of its round, to the read that delivered it. *)
  let await ~t0 ~n ~measured =
    got := 0;
    while !got < n do
      let k = conn.read chunk 0 (Bytes.length chunk) in
      if k = 0 then raise Lost_connection;
      let t = now () in
      acc := !acc ^ Bytes.sub_string chunk 0 k;
      let pos = ref 0 and more = ref true in
      while !more do
        match Resp.reply_skip !acc !pos with
        | None -> more := false
        | Some p ->
            let reply = String.sub !acc !pos (p - !pos) in
            if reply <> expected.(!got) then begin
              st.failed <- st.failed + 1;
              Printf.eprintf "conn %d: reply %S, expected %S\n%!" st.j reply expected.(!got)
            end;
            if measured then begin
              Vec.push st.lats (t - t0);
              if traced then
                Spans.record (Spans.buf ()) ~layer:Spans.kv_request
                  ~id:(rid st.j (st.seq - n + !got)) ~start:t0 ~stop:t;
              st.replies <- st.replies + 1
            end;
            incr got;
            pos := p
      done;
      acc := String.sub !acc !pos (String.length !acc - !pos)
    done
  in
  (try
     while st.rounds < max_rounds && now () < deadline do
       Buffer.clear req;
       for q = 0 to round - 1 do
         let id, set = next_request st.rng ~ids:st.ids ~j:st.j ~seq:st.seq in
         encode req keys.(id) set;
         (match set with
         | Some _ ->
             model.(id) <- set;
             st.sets <- st.sets + 1;
             expected.(q) <- "+OK\r\n"
         | None ->
             Buffer.clear eb;
             (match model.(id) with Some v -> Resp.bulk eb v | None -> Resp.null eb);
             expected.(q) <- Buffer.contents eb);
         st.seq <- st.seq + 1
       done;
       let c0 = Atomic.get st.closure_ns in
       let t0 = now () in
       conn.write (Buffer.contents req);
       await ~t0 ~n:round ~measured:true;
       st.self_ns <- st.self_ns + (now () - t0) - (Atomic.get st.closure_ns - c0);
       st.rounds <- st.rounds + 1
     done;
     expected.(0) <- "+OK\r\n";
     conn.write "*1\r\n$4\r\nQUIT\r\n";
     await ~t0:0 ~n:1 ~measured:false
   with Lost_connection | Transport.Dropped ->
     Printf.eprintf "conn %d: connection lost\n%!" st.j;
     st.failed <- st.failed + (round - !got));
  conn.close ()

(* The store one connection's server fiber drives in the traced run:
   [Traced_mt]'s closures, each a span attributed to its request. The
   server handles a connection's requests in order, so counting them
   recovers each request's id. *)
let traced_store tm st =
  let next = ref st.seq in
  let closure layer id f =
    let r, dt = in_span ~layer ~id f in
    ignore (Atomic.fetch_and_add st.closure_ns dt);
    r
  in
  {
    Server.s_get =
      (fun k ->
        let id = rid st.j !next in
        incr next;
        closure Spans.store_get id (fun () -> Traced_mt.search tm k));
    s_scan = (fun _ _ -> []);
    s_batch =
      (fun ops ->
        let first = !next in
        let n = List.length ops in
        next := first + n;
        let keys =
          List.map (function Index_intf.Bset (k, _) | Index_intf.Bdel k -> k) ops
        in
        let locks =
          List.fold_left
            (fun acc k ->
              let l = Traced_mt.stripe_lock tm k in
              if List.memq l acc then acc else l :: acc)
            [] keys
        in
        st.batches <- st.batches + 1;
        st.batch_ops <- st.batch_ops + n;
        st.stripes <- st.stripes + List.length locks;
        Domain.DLS.get batch_ids := List.mapi (fun i k -> (k, rid st.j (first + i))) keys;
        closure Spans.store_batch (rid st.j first) (fun () -> Traced_mt.apply_batch tm ops));
  }

type store = {
  v : view;
  mt : Hart_mt.t;
  tm : Traced_mt.t;  (* the same HART behind the traced front end *)
  states : conn_state array;
  mutable server_batches : int;  (* [Server.stats] batches of the last phase *)
}

let setup ~seed ~preload () =
  let keys = keys ~seed preload in
  (* sized up front: the pool must not grow under running domains *)
  let cap =
    let rec pow2 c = if c >= preload * 256 then c else pow2 (2 * c) in
    pow2 (1 lsl 22)
  in
  let pool = Pmem.create ~capacity:cap ~max_capacity:cap (fresh_meter ()) in
  let hart = Hart.create pool in
  let model = Array.make preload None in
  Array.iteri
    (fun id k ->
      let v = Index_wl.preload_value id in
      Hart.insert hart ~key:k ~value:v;
      model.(id) <- Some v)
    keys;
  {
    v = { pool; hart; keys; model };
    mt = Hart_mt.of_hart hart;
    tm = Traced_mt.of_index hart;
    states = Array.init conns (new_conn ~seed ~n:preload);
    server_batches = 0;
  }

(* Both connections' closed loops on [Scheduler.Wall] with two domains;
   each connection's server fiber runs behind a loopback transport. *)
let measure s ~traced ~deadline ~max_ops ~lats =
  let wall = Scheduler.Wall.create () in
  let plain = Server.store_of_hart s.mt in
  let max_rounds = if max_ops = max_int then max_int else max 1 (max_ops / (conns * round)) in
  let stats = Array.map (fun _ -> { Server.commands = 0; batches = 0 }) s.states in
  Array.iteri
    (fun j st ->
      new_phase st;
      let store = if traced then traced_store s.tm st else plain in
      let conn =
        Server.connect_loopback ~stats:stats.(j) ~spawn:(Scheduler.Wall.spawn wall) store
      in
      Scheduler.Wall.spawn wall (fun () ->
          client st conn ~keys:s.v.keys ~model:s.v.model ~deadline ~max_rounds ~traced))
    s.states;
  let t0 = now () in
  Scheduler.Wall.run ~domains wall;
  let elapsed_s = seconds_since t0 in
  let sum f = Array.fold_left (fun a st -> a + f st) 0 s.states in
  Array.iter (fun st -> Array.iter (Vec.push lats) (Vec.to_array st.lats)) s.states;
  s.server_batches <- Array.fold_left (fun a x -> a + x.Server.batches) 0 stats;
  { ops = sum (fun st -> st.replies); failed = sum (fun st -> st.failed); elapsed_s }

(* The first requests of each connection, regenerated from the seed:
   their RESP bytes and the keys the GETs read, for the probes. *)
let probe_inputs ~seed ~keys ~upto =
  let b = Buffer.create (1 lsl 20) and reads = ref [] in
  for j = 0 to conns - 1 do
    let st = new_conn ~seed ~n:(Array.length keys) j in
    for seq = 0 to min upto 100_000 - 1 do
      let id, set = next_request st.rng ~ids:st.ids ~j ~seq in
      encode b keys.(id) set;
      if set = None then reads := keys.(id) :: !reads
    done
  done;
  (Buffer.contents b, Array.of_list (List.rev !reads))

let layer_metrics ~seed s (b : phase) =
  let sum f = Array.fold_left (fun a st -> a + f st) 0 s.states in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let batch = Spans.summary Spans.store_batch in
  let reqs, reads = probe_inputs ~seed ~keys:s.v.keys ~upto:(b.ops / conns) in
  Probes.run ~seed ~hart:s.v.hart ~reads
  @ [
      m "resp.parse_ns" "ns" (Probes.resp_parse_ns reqs);
      m "server.writes_per_batch" "count" (ratio (sum (fun st -> st.sets)) s.server_batches);
      m "server.self_us" "us"
        (ratio (sum (fun st -> st.self_ns)) (sum (fun st -> st.rounds)) /. 1e3);
      m "hart_mt.search_ns" "ns" (span_mean Spans.store_get);
      m "hart_mt.apply_batch_ns_per_op" "ns"
        (batch.mean_ns *. float_of_int batch.calls /. float_of_int (max 1 (sum (fun st -> st.batch_ops))));
      m "hart_mt.stripes_per_batch" "count"
        (ratio (sum (fun st -> st.stripes)) (sum (fun st -> st.batches)));
    ]
  @ hart_span_metrics ()

let workload (p : params) =
  let preload = Option.value p.preload ~default:default_preload in
  {
    setup = setup ~seed:p.seed ~preload;
    view = (fun s -> s.v);
    measure;
    layer_metrics = layer_metrics ~seed:p.seed;
    (* short segments: a write missing at a crash point is often
       repaired by a later persist of its line, so frequent checks see
       more of the losses *)
    checkpoint_s = 5.;
  }
