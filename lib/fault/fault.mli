(** The single-domain crash explorer: one scripted op list against one
    recoverable index, swept by the {!Explore} core, plus the media-fault
    sweep.

    Beyond the core's admissible-set oracle (here: exactly the model
    before or after the in-flight op — no partial application, no damage
    to bystander keys, no resurrection after delete), every schedule
    checks that recovery is {e idempotent} (recovering the recovered
    image again yields the same map) and the store {e usable} (a probe
    insert/delete passes integrity). *)

(** A recoverable index under test. [fresh] formats a brand-new pool;
    [reattach] adopts a (possibly crashed) pool, replaying any pending
    micro-logs — it may itself write and flush PM, which is exactly what
    nested schedules exercise. *)
type instance = {
  pool : Hart_pmem.Pmem.t;
  apply : Explore.op -> unit;
  check : unit -> unit;
      (** structural integrity; post-crash repairable states allowed *)
  dump : unit -> (string * string) list;
      (** all live bindings, sorted by key *)
}

type target = {
  target_name : string;
  fresh : unit -> instance;
  reattach : Hart_pmem.Pmem.t -> instance;
  media_mount :
    (Hart_pmem.Pmem.t -> instance * Hart_core.Hart_error.finding list) option;
      (** fault-tolerant mount for the media sweep: adopt a pool whose
          device ECC may be reporting corruption, repairing or
          quarantining what it can, and report the findings (HART:
          {!Hart_core.Hart.recover}[ ~quarantine:true] followed by
          {!Hart_core.Hart.fsck}). [None] — the index has no repair
          path; {!explore_media} then consults the device ECC itself
          and refuses a corrupt image with a typed error. *)
}

val hart : target
(** HART (Algorithms 1–7), [kh = 2]. *)

val hart_checksummed : target
(** HART formatted with [~checksums:true] — CRC-32 trailers on leaf
    keys, value objects and micro-log words. Same index, second
    detection tier; member of {!media_targets} (not {!all_targets}) so
    the media sweep exercises the deep fsck checksum walk. *)

val hart_parallel_recovery : domains:int -> target
(** HART with every post-crash reattach running
    {!Hart_core.Hart.recover_parallel}[ ~domains] instead of serial
    recovery. The rebuild issues no flushes, so nested
    crash-during-recovery schedules land only in the serial log replay
    and the schedule space matches [hart]'s — sweeping this target clean
    proves parallel recovery is crash-equivalent to serial. *)

val fptree : target
(** The FPTree baseline — same selective-persistence family, so it must
    satisfy the same prefix-consistency oracle. *)

val wort : target

val woart : target

val art_cow : target

val nv_tree : target

val wb_tree : target

val cdds_btree : target

val all_targets : target list
(** All eight indexes of the paper's §II comparison — HART, FPTree and
    the six §II-C baselines ("wort", "woart", "art-cow", "nv-tree",
    "wb-tree", "cdds") — each wired to its own [recover] entry point and
    integrity check, all subject to the same prefix-consistency oracle. *)

val media_targets : target list
(** The media sweep's roster: {!all_targets} plus {!hart_checksummed},
    so both HART detection tiers face the same corruption sites. *)

val find_target : string -> target option
(** Look a target up by its [target_name] (searches {!media_targets},
    a superset of {!all_targets}). *)

val case :
  workload:string -> ?setup:Explore.op list -> target -> Explore.op list -> Explore.case
(** [case ~workload target ops]: [setup] (default empty) is executed
    before the measured phase on every re-execution but is not itself
    swept — use it to build a large precondition (e.g. three full
    chunks) cheaply. Snapshots are pool clones at op boundaries; a
    replay reattaches the clone and continues at the next op. *)

val explore :
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?nested:bool ->
  ?directed:bool ->
  ?setup:Explore.op list ->
  ?checkpoint_every:int ->
  ?keep_going:bool ->
  workload:string ->
  target ->
  Explore.op list ->
  Explore.report
(** {!Explore.sweep} over {!case}, every flush boundary of [ops];
    [nested] defaults to [true] here. *)

val adversarial_passes :
  ?directed:bool ->
  ?subsets:int ->
  ?base_seed:int64 ->
  ?fraction:float ->
  unit ->
  (Hart_pmem.Pmem.crash_mode * bool) list
(** The adversarial torn sweep's (mode, directed) passes, most-directed
    eviction first. [directed] (default [true]) starts with a clean-mode
    pass whose every crashed schedule is re-run with exactly the lines
    its recovery reads torn-evicted. Then a {!Hart_pmem.Pmem.Torn_commit}
    pass — at each crash point, evict exactly the line whose flush the
    crash interrupted, i.e. the suspected commit-point line — then
    [subsets] (default 4) {!Hart_pmem.Pmem.Torn} passes with seeds
    [base_seed + k] and the given [fraction] (default 0.5) as a
    random-subset fallback net for designs whose critical lines are
    neither read by recovery nor being flushed at the crash. *)

val explore_adversarial :
  ?nested:bool ->
  ?directed:bool ->
  ?setup:Explore.op list ->
  ?checkpoint_every:int ->
  ?keep_going:bool ->
  ?subsets:int ->
  ?base_seed:int64 ->
  ?fraction:float ->
  workload:string ->
  target ->
  Explore.op list ->
  Explore.report list
(** One {!explore} per {!adversarial_passes} pass, in that order. *)

val builtin_workloads : (string * Explore.op list * Explore.op list) list
(** [(name, setup, ops)] — the standing correctness gate:

    - ["update-log"]: Algorithm 3 update-log states, including value
      size-class migrations and empty values;
    - ["delete-recycle"]: Algorithm 5 deletes draining leaf and value
      chunks through Algorithm 6's unlink, plus empty-ART directory
      cleanup and reuse after recycling;
    - ["mixed-dense"]: interleaved insert/update/delete over shared
      prefixes with key lengths straddling [kh];
    - ["chunk-unlink"]: three full leaf-chunk (and value-chunk) lists
      built in setup, then the final deletes that unlink chunks at
      head, middle and tail positions of their lists;
    - ["split-chain"]: a leaf filled to capacity in setup, then inserts
      that overflow it twice — on FPTree the sweep crosses every flush
      of two leaf splits, including the torn-split window its recovery
      must repair. *)

val find_workload : string -> (string * Explore.op list * Explore.op list) option

(** {1 Media-fault sweep}

    Crash schedules ask "does recovery survive losing unflushed
    lines?"; the media sweep asks "does the store survive the durable
    lines themselves rotting?". Per corruption site it populates the
    target, powers off cleanly, injects one seeded
    {!Hart_pmem.Pmem.media_fault} into the durable image, mounts
    fault-tolerantly (HART: quarantining recovery + fsck; baselines:
    device-ECC verification that refuses a corrupt image with a typed
    {!Hart_core.Hart_error.Error}), reads everything back, runs a small
    write batch, power-cycles and mounts again — a stuck line that
    silently swallowed a write-back only becomes visible at the second
    mount. The oracle: every key that diverges from the model must be
    named by a finding or absorbed by residual finding capacity, and
    any typed error is itself an accepted outcome. A divergence nothing
    accounts for is a {e silent wrong answer} — the one forbidden
    behaviour, reported as an {!Explore.violation}. *)

type media_outcome =
  | Media_repaired  (** findings, all repaired in place; no data lost *)
  | Media_quarantined  (** damaged objects excised and reported *)
  | Media_detected
      (** typed refusal, or damage reported but not fixable in place *)
  | Media_benign  (** the fault never became observable (e.g. a stuck
                      line no write-back ever hit) *)

val media_outcome_name : media_outcome -> string

type media_site = {
  site_index : int;
  site_fault : string;  (** printable fault coordinates *)
  site_outcome : media_outcome;
  site_findings : int;  (** findings accumulated across both mounts *)
}

type media_report = {
  m_target : string;
  m_workload : string;
  m_seed : int64;
  m_sites : media_site list;
  m_violations : Explore.violation list;  (** collected under [keep_going] *)
}

val explore_media :
  ?sites:int ->
  ?base_seed:int64 ->
  ?setup:Explore.op list ->
  ?keep_going:bool ->
  workload:string ->
  target ->
  Explore.op list ->
  media_report
(** [explore_media ~workload target ops] runs [sites] (default 25)
    seeded corruption sites; site [k] draws its fault from seed
    [base_seed + k], so a report is exactly reproducible. [keep_going]
    collects violations instead of raising on the first.
    @raise Explore.Violation on the first silent wrong answer (unless
    [keep_going]). *)

val media_report_json : media_report -> string
val media_reports_json : media_report list -> string
(** A JSON array with one object per report (site list, outcome
    counts, violations); ["[]\n"] when empty. *)

val media_violations_to_json : media_report list -> string
(** Just the violations of the given reports, in
    {!Explore.violation_list_json} form — CI diffs this against an empty
    baseline. *)

val pp_media_report : Format.formatter -> media_report -> unit
