(** Deterministic concurrent crash explorer for any striped concurrent
    index ({!Hart_core.Index_intf.MT}, i.e. anything built by
    [Striped_mt.Make]).

    Several simulated domains — effect-handler fibers on one OS thread —
    drive one concurrent index under a seed-replayable interleaving: a
    seeded RNG picks the next runnable fiber at every cooperative switch
    point (every [Pmem.persist], every lock acquire/release, every op
    boundary; see [Hart_util.Sched_hook] and [Hart_core.Rwlock]). A
    crash is injected at a chosen flush boundary — typically with
    several operations in flight on distinct shards — the pool is
    recovered single-domain, and the durable image is checked against a
    {e linearization-set oracle}:

    the recovered map must equal [committed + S] for some subset [S] of
    the in-flight operations, where [committed] is the model folded over
    the operations whose commit signal ([Hart_core.Mt_hook], fired by
    [Striped_mt] after completion, immediately before the final write
    unlock with no yield in between) preceded the crash, and the
    in-flight set is the operations holding a write lock at the crash.
    In-flight operations hold distinct locks (asserted), so by the
    [stripe_of_key] commuting contract they commute durably and every
    subset is reachable; each must be atomically present or absent.
    Colliding operations still {e waiting} for a lock have durably done
    nothing: they appear in no admissible subset, which is the
    tightened, serialized-case half of the oracle.

    Everything is deterministic: the same [(target, seed, schedule)]
    triple replays bit-identically, so a violation names one exact
    execution. This module supplies the fiber execution, its quiescent
    snapshots and the workloads; the sweep, oracle and shrinker are
    {!Explore}'s. *)

(** One concurrent index wired for exploration. [mt_fresh] formats a new
    pool; [mt_recover] adopts a pool (a crashed image single-domain, or a
    quiescent checkpoint); [mi_inspect ~recovered] runs the index's
    integrity check and returns the sorted live bindings. *)
type mt_instance = {
  mi_pool : Hart_pmem.Pmem.t;
  mi_apply : Explore.op -> unit;
  mi_inspect : recovered:bool -> Explore.bindings;
}

type mt_target = {
  mt_name : string;
  mt_fresh : unit -> mt_instance;
  mt_recover : Hart_pmem.Pmem.t -> mt_instance;
}

val of_mt : (module Hart_core.Index_intf.MT) -> mt_target
(** Package any [Striped_mt] instantiation as an explorer target. *)

val hart_mt : mt_target
(** [Hart_mt] — 512 hash-prefix stripes, all operations shard-local. *)

val fptree_mt : mt_target
(** [Fptree_mt] — leaf-group stripes; splits run exclusively. *)

val woart_mt : mt_target
(** [Woart_mt] — radix-prefix stripes; only value updates commute. *)

val wort_mt : mt_target
(** [Wort_mt] — radix-prefix stripes over the WORT baseline; value
    updates (and upserts onto existing keys) commute, structural
    inserts and deletes serialize. *)

val wb_tree_mt : mt_target
(** [Wb_tree_mt] — leaf stripes over the wB+-tree; deletes and
    non-splitting inserts/updates are leaf-local and commute, a full
    leaf splits exclusively. *)

val all_mt_targets : mt_target list

val find_mt_target : string -> mt_target option
(** Look a target up by its [mt_name] ("hart", "fptree", "woart",
    "wort", "wb-tree"). *)

val mount : mt_target -> Hart_pmem.Pmem.t -> unit -> Explore.bindings
(** Single-domain recovery of a crashed image, as an {!Explore.case}
    mount: recover, then (in the thunk) check integrity and dump. *)

val case :
  ?target:mt_target ->
  seed:int64 ->
  workload:string ->
  ?setup:Explore.op list ->
  Explore.op list array ->
  Explore.case
(** One simulated domain per script ([target] default {!hart_mt});
    [setup] runs single-domain before the measured phase. The dry run's
    snapshots are taken at the first fully-quiescent op boundary after
    every [K] flushes — every fiber parked between operations, no locks
    held — and carry the per-fiber op cursors, committed model and RNG
    state, so a replay resumes the very same interleaving. The crash-free
    run checks [check_integrity ~recovered:false] on the quiesced
    store. *)

val explore :
  ?target:mt_target ->
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?keep_going:bool ->
  ?nested:bool ->
  ?max_schedules:int ->
  ?checkpoint_every:int ->
  seed:int64 ->
  domains:int ->
  workload:string ->
  ?setup:Explore.op list ->
  Explore.op list array ->
  Explore.report
(** {!Explore.sweep} over {!case}; [Array.length scripts] must equal
    [domains]. [nested] (default [false]) re-crashes every crashed
    schedule's single-domain recovery — micro-log replay, bitmap and
    leaf-slot repair must be as atomic-or-absent as the operations they
    repair. *)

val shrink :
  ?target:mt_target ->
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?checkpoint_every:int ->
  ?budget:int ->
  seed:int64 ->
  setup:Explore.op list ->
  Explore.op list array ->
  Explore.shrunk option
(** {!Explore.shrink} over {!case}: the reproducer's scripts are domain
    scripts. *)

val default_workload :
  domains:int -> ops_per_domain:int -> Explore.op list * Explore.op list array
(** [(setup, scripts)] — each domain works a distinct 2-byte key prefix
    (hence a distinct shard on every target), mixing inserts, updates
    and deletes over two pre-seeded keys, so operations genuinely
    overlap at the crash points instead of serializing on one stripe. *)

val collide_workload :
  domains:int -> ops_per_domain:int -> Explore.op list * Explore.op list array
(** [(setup, scripts)] — every domain also mutates keys under one shared
    2-byte prefix, forcing same-stripe collisions: crash points where
    colliding operations wait for one stripe lock while private-prefix
    operations are in flight. Exercises the serialized case of the
    oracle; reports on it should show [contended > 0]. *)

val split_race_workload :
  domains:int -> ops_per_domain:int -> Explore.op list * Explore.op list array
(** [(setup, scripts)] — the setup fills one FPTree leaf to 30 of its
    32 slots under a shared prefix; domain 0 then inserts past capacity
    (every overflowing insert runs a leaf split on the exclusive stripe
    path) while the other domains keep fresh writers in flight on their
    own leaves and occasionally collide into the splitting leaf. Under
    [nested:true] this re-crashes the torn-split repair at each of its
    own flush boundaries. Meaningful on {!fptree_mt} (HART has no leaf
    splits); test_fault pins its schedule-space census. *)

val gen_workload :
  seed:int64 ->
  domains:int ->
  ops_per_domain:int ->
  Explore.op list * Explore.op list array
(** Seeded workload generator: an op mix of 40% insert / 25% update /
    15% delete / 20% search over a key universe mixing per-domain
    private keys with keys shared across all domains. Purely a function
    of [seed] — the same seed always yields the same scripts — so a CI
    sweep over several seeds is replayable. *)
