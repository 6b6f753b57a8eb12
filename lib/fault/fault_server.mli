(** Deterministic simulation testing (DST) of the full KV server stack.

    FoundationDB-style: several client sessions pipeline scripted RESP
    requests through seeded simulated network connections
    ({!Hart_async.Sim_net} — arbitrary byte fragmentation, chunked
    delivery with a scheduling point per chunk, optional mid-session
    hard drops) into per-connection {!Hart_server.Server.serve_conn}
    fibers over one striped concurrent HART, all on the deterministic
    executor ({!Hart_async.Scheduler.Sim}). Every persist, lock edge
    and network edge is a scheduling point; one (seed, schedule) pair
    replays the exact byte-level session. The sweep crashes every flush
    boundary of the dry run — with requests in flight in every layer —
    recovers single-domain, and checks a session-linearizability
    oracle:

    - the commit-order model (from {!Hart_core.Mt_hook} batch
      attribution) is the linearization of acknowledged writes;
    - ack ⇒ durable: a write reply parsed before the crash names a
      committed operation, and the recovered image contains the whole
      committed model;
    - unacknowledged operations land as any admissible subset of the
      started-but-uncommitted batch ops (atomically present or absent:
      the {!Explore} admissible-set oracle);
    - GETs return the value at call entry or one committed during the
      call; replies are well-typed, in request order.

    The sweep, violations and shrinking are {!Explore}'s. See DESIGN.md
    §17. *)

val case :
  ?drops:int option array ->
  seed:int64 ->
  workload:string ->
  ?setup:Explore.op list ->
  Explore.op list array ->
  Explore.case
(** One client session per script ([Insert]/[Update] → SET, [Delete] →
    DEL, [Search] → GET), each pipelined as one burst; [setup]
    populates the store directly, before any connection opens. [drops]
    arms a {!Hart_async.Sim_net} hard-drop byte fuse per client. The
    crash-free run also requires every non-dropped session to be fully
    acknowledged and the quiesced store to pass its integrity check.
    No snapshots: every schedule re-executes from scratch. *)

val explore :
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?keep_going:bool ->
  ?max_schedules:int ->
  ?drops:int option array ->
  seed:int64 ->
  clients:int ->
  workload:string ->
  ?setup:Explore.op list ->
  Explore.op list array ->
  Explore.report
(** {!Explore.sweep} over {!case}; [Array.length scripts] must equal
    [clients]. *)

val shrink :
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?budget:int ->
  seed:int64 ->
  setup:Explore.op list ->
  Explore.op list array ->
  Explore.shrunk option
(** {!Explore.shrink} over {!case}: client sessions play the role of
    domains (the repro's [r_domains] is its client count). Drop fuses
    are not threaded through: shrink serves the no-drop sweeps. *)

val default_workload :
  clients:int -> ops_per_client:int -> Explore.op list * Explore.op list array
(** [(setup, scripts)] — each client mixes writes on its own key prefix
    (distinct stripes, so batch ops overlap at crash points) with
    writes and reads on a shared prefix (colliding commits; GETs whose
    answer depends on the linearization). *)

val drop_workload :
  clients:int ->
  ops_per_client:int ->
  Explore.op list * Explore.op list array * int option array
(** {!default_workload} with the last client's connection armed to
    hard-drop after 120 delivered bytes — mid-pipelined-batch, writes
    received but never acknowledged. The server's epilogue contract
    (DESIGN.md §17) says those writes still commit; the sweep checks
    they survive every crash boundary like any other committed op. *)
