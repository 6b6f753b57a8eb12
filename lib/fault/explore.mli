(** The crash-exploration core.

    The paper's correctness claim is that Algorithms 1–7 keep the index
    crash-consistent under {e selective persistence}: at any power
    failure the durable image must recover to a state in which every
    completed operation is applied atomically and every in-flight one is
    fully applied or fully absent. Hand-picked [arm_crash] call sites
    only sample that space; this module enumerates it.

    Three front ends drive it: {!Fault} (one op list on one index),
    [Fault_mt] (simulated domains on a striped concurrent index) and
    [Fault_server] (RESP sessions over a simulated network into the KV
    server). Each packages one (target, workload) pair as a {!case}; the
    core then

    + dry-runs the case once to count its flush boundaries [F] (every
      persisted cache line is one potential crash point), checks the
      crash-free result against its model and the quiesced store's
      integrity — any failure here is always fatal;
    + for every flush index [i < F] (or an even stride of them, see
      [max_schedules]) re-executes the case from a fresh pool — or
      replays it from a dry-run snapshot — crashing at flush [i]
      (optionally in a {!Hart_pmem.Pmem.Torn} mode), recovers, and
      checks the {e admissible-set oracle}: the recovered key→value map
      must equal [committed + S] for some subset [S] of the operations
      in flight at the crash. A single-domain crash inside op [j] is the
      one-op case: committed is the model before [j], in flight is
      [[op j]], so the admissible set is exactly {before, after};
    + with [nested], re-crashes the recovery itself at every one of its
      own flush boundaries and checks that a further recovery lands in
      the {e same} admissible set — recovery completes or repairs
      operations but never starts new ones;
    + with [directed], re-runs every crashed schedule with exactly the
      PM lines its recovery reads torn-evicted.

    Any deviation is a {!violation} carrying replay coordinates. *)

type op =
  | Insert of string * string
      (** upsert, like [Hart.insert]: an existing key is updated *)
  | Update of string * string  (** no-op when the key is absent *)
  | Delete of string  (** no-op when the key is absent *)
  | Search of string
      (** pure read; a model no-op, but it takes read admissions (and is a
          GET on the wire), so readers interleave with in-flight writers *)

val apply_model : string Map.Make(String).t -> op -> string Map.Make(String).t
(** The pure oracle: one atomically-applied operation. *)

val pp_op : Format.formatter -> op -> unit
val pp_mode : Format.formatter -> Hart_pmem.Pmem.crash_mode -> unit

type bindings = (string * string) list
(** A store's live bindings, sorted by key. *)

val fresh_pool : unit -> Hart_pmem.Pmem.t
(** The pool every explorer formats: small, with a small simulated LLC,
    since a sweep clones it once per nested schedule. *)

val sorted_dump : ((string -> string -> unit) -> unit) -> bindings
(** The bindings an iterator visits, sorted by key. *)

exception Violation of string
(** A crash schedule broke the oracle (raised on the first one unless
    [keep_going]), or a dry run failed (always). The message carries the
    violation's coordinates. *)

(** {1 Violations} *)

(** A minimal replayable reproducer attached to a violation by
    {!shrink}: seed, scripts and the violating flush boundary name one
    deterministic execution. *)
type repro = {
  r_seed : int64;  (** scheduler seed *)
  r_domains : int;  (** scripts: simulated domains or client sessions *)
  r_schedule : int;  (** violating flush boundary in the shrunk workload *)
  r_setup : op list;
  r_scripts : op list array;  (** one measured script per domain *)
}

val repro_ops : repro -> int
(** Total measured operations across all scripts of the reproducer. *)

val pp_repro : Format.formatter -> repro -> unit

(** One violating schedule: (target, workload, mode, schedule[, nested])
    names a single execution — the mode carries the torn-eviction seed
    when there is one. *)
type violation = {
  v_target : string;
  v_workload : string;
  v_mode : Hart_pmem.Pmem.crash_mode;
  v_schedule : int;  (** outer flush boundary, or a media-sweep site *)
  v_nested : int option;  (** recovery flush index of a nested schedule *)
  v_op : int option;  (** in-flight op index of a single-domain crash *)
  v_detail : string;  (** what check failed, and how *)
  v_repro : repro option;  (** shrunk coordinates, when a shrinker ran *)
}

val pp_violation : Format.formatter -> violation -> unit
val violation_message : violation -> string

val violation :
  target:string ->
  workload:string ->
  mode:Hart_pmem.Pmem.crash_mode ->
  schedule:int ->
  ?nested:int ->
  ?op:int ->
  string ->
  violation
(** A violation without a reproducer. *)

val collect : keep_going:bool -> violation list ref -> violation -> unit
(** Record a violation: prepended to the sink under [keep_going],
    otherwise raised as {!Violation}. *)

val json_escape : string -> string

val violation_list_json : violation list -> string
(** A JSON array with one object per violation (target, workload, mode,
    seed, schedule, nested, op, detail, repro). An empty list yields
    ["[]\n"], so CI can diff the emitted file against an empty
    baseline. *)

(** {1 Cases: what a front end supplies} *)

type kind =
  | Single  (** one op list, one op in flight at any crash *)
  | Concurrent  (** simulated domains; ops in flight are labelled by fiber *)
  | Server  (** RESP sessions; ops in flight are labelled by client *)

(** One execution of a case, stopped at the armed crash or run to
    completion, before any recovery. *)
type execution = {
  crashed : bool;
  flushes : int;  (** measured-phase flushes performed *)
  pool : Hart_pmem.Pmem.t;  (** the crashed (or quiesced) pool *)
  committed : string Map.Make(String).t;
      (** the model folded over every completed operation, in
          linearization (commit) order *)
  in_flight : (int * op) list;
      (** operations that may have touched PM but not completed, each
          labelled (op index, fiber or client): any subset may be
          durable *)
  waiting : (int * op) list;
      (** mutating operations started but holding no write lock: durably
          absent by the serialized-case oracle *)
  errors : string list;
      (** oracle failures observed inside the execution (the server's
          ack⇒durable, reply typing and read linearization) *)
  acked : int;  (** write acknowledgements parsed by clients *)
  dropped : bool;  (** some session was hard-dropped *)
  live : unit -> bindings;
      (** uncrashed run: the quiesced store's integrity check, then its
          bindings *)
}

(** A dry-run snapshot at a quiescent op boundary: a {!Hart_pmem.Pmem.clone}
    plus whatever volatile state the front end needs to resume the very
    same execution (single-domain: the next op index; concurrent: op
    cursors, committed model and scheduler RNG). *)
type snapshot = {
  first_crash : int;
      (** earliest crash schedule this snapshot can stand in for *)
  resume : mode:Hart_pmem.Pmem.crash_mode -> crash_at:int -> execution;
      (** replay from the snapshot, crashing at measured flush [crash_at];
          raises {!Snapshot_unusable} if adoption had PM side effects *)
}

exception Snapshot_unusable

val adopt : Hart_pmem.Pmem.t -> (Hart_pmem.Pmem.t -> 'a) -> 'a
(** [adopt snapshot mount] mounts a clone of [snapshot], verifying the
    mount performed no flush and dirtied no line.
    @raise Snapshot_unusable otherwise, or if the mount raised. *)

type case = {
  kind : kind;
  name : string;  (** target name in reports and violations *)
  workload : string;
  seed : int64;  (** interleaving seed (0 for single-domain cases) *)
  n_ops : int;  (** measured operations *)
  run :
    crash:(Hart_pmem.Pmem.crash_mode * int) option ->
    checkpoint:(int * (snapshot -> unit)) option ->
    execution;
      (** execute from a fresh pool, arming the crash (mode, measured
          flush) if given; with [checkpoint = Some (k, take)], call
          [take] at the first quiescent op boundary after every [k]
          flushes *)
  mount : Hart_pmem.Pmem.t -> unit -> bindings;
      (** recover a crashed image in place (all PM work happens here);
          the returned thunk runs the recovered store's integrity check
          and dumps it *)
  recheck : Hart_pmem.Pmem.t -> bindings -> unit;
      (** checks only this front end runs on the recovered pool
          (single-domain: idempotence and a usability probe); raises on
          failure *)
}

(** {1 The sweep} *)

type report = {
  kind : kind;
  target : string;
  workload : string;
  mode : Hart_pmem.Pmem.crash_mode;
  seed : int64;
  n_ops : int;  (** operations in the measured phase *)
  total_flushes : int;  (** dry-run flush boundaries of the measured phase *)
  schedules : int;
      (** crash schedules explored; [total_flushes] unless subsampled *)
  nested_schedules : int;  (** crash-during-recovery schedules explored *)
  recovery_flushes : int;  (** total recovery flushes observed (= nested bound) *)
  directed_schedules : int;  (** directed [Torn_lines] re-runs performed *)
  checkpoints : int;  (** snapshots taken during the dry run *)
  checkpoint_replays : int;  (** schedules replayed from a snapshot *)
  max_in_flight : int;  (** most ops in flight at any crash *)
  multi_in_flight : int;  (** schedules with >= 2 ops in flight *)
  contended : int;
      (** schedules where some mutating op was waiting for a lock at the
          crash — the serialized same-stripe case *)
  acked_writes : int;  (** write acks parsed across crashed schedules *)
  dropped_sessions : int;  (** schedules where a session hard-dropped *)
  violations : violation list;  (** collected under [keep_going] *)
}

val sweep :
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?nested:bool ->
  ?directed:bool ->
  ?checkpoint_every:int ->
  ?max_schedules:int ->
  ?keep_going:bool ->
  ?stop_after_first:bool ->
  case ->
  report
(** Sweep the crash schedules of a case. [mode] (default [Clean]) is
    the injected failure semantics; [nested] and [directed] (default
    off) add the nested recovery sweep and the directed torn re-run.

    [max_schedules] evenly subsamples the flush boundaries (first
    always included). [checkpoint_every] collects dry-run snapshots and
    replays each schedule from the newest one that can stand in for it,
    turning the sweep's O(F²) flush work into O(F·K). A snapshot is used
    only if adopting it has no PM side effects and the replay still
    crashes; otherwise the sweep falls back to full re-execution for the
    rest of the run, so checkpointing never changes what is checked.

    Any exception from recovery or a check — a typed
    [Hart_core.Hart_error.Error] included — is a violation at that
    schedule; only [Crash_injected], [Stack_overflow] and [Out_of_memory]
    escape. [keep_going] (default [false]) collects violations, one per
    schedule, instead of raising on the first; [stop_after_first] (with
    [keep_going]) ends the sweep after the first violating schedule.
    @raise Violation on the first violation (unless [keep_going]), or if
    the dry run fails. *)

val pp_report : Format.formatter -> report -> unit

val violations_to_json : report list -> string
(** {!violation_list_json} over all violations of the given reports. *)

(** {1 One schedule, unjudged} *)

type probe = {
  p_crashed : bool;
  p_flushes : int;
  p_committed : bindings;
  p_in_flight : (int * op) list;
  p_waiting : (int * op) list;
  p_errors : string list;
  p_state : (bindings, string) result;
      (** after recovery (crashed run) or quiescing (crash-free run) *)
  p_recovery_flushes : int;
      (** flushes the recovery performed — the nested sweep's bound *)
  p_nested : (int * (bindings, string) result) list;
      (** with [nested]: the state after each re-crashed recovery *)
}

val probe :
  ?mode:Hart_pmem.Pmem.crash_mode -> ?nested:bool -> schedule:int -> case -> probe
(** Replay one exact schedule from scratch and return its coordinates
    without judging them. Deterministic: two probes of the same schedule
    are equal. *)

val pp_probe : case -> Format.formatter -> probe -> unit
(** Committed, in-flight, waiting and recovered bindings, one per line,
    then one line per nested boundary. *)

(** {1 Shrinking} *)

type shrunk = {
  s_repro : repro;
  s_detail : string;  (** violation detail at the minimum *)
  s_checks : int;  (** candidate replays evaluated *)
  s_accepted : int;  (** shrink moves that preserved the violation *)
}

val shrink :
  ?budget:int ->
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?checkpoint_every:int ->
  seed:int64 ->
  setup:op list ->
  (seed:int64 -> op list -> op list array -> case) ->
  op list array ->
  shrunk option
(** [shrink ~seed ~setup make scripts] delta-debugs a violating
    multi-script workload to a locally minimal reproducer, or returns
    [None] if it does not violate. Each candidate is built by [make] and
    re-judged by a bounded {!sweep} over its own flush boundaries, so
    the crash coordinate shrinks along with the ops; any dry-run failure
    or exception also counts as violating. Moves, greedy to fixpoint:
    drop whole scripts, remove consecutive op chunks (halving sizes,
    ddmin-style) from each script and the setup, merge the key universe
    onto its smallest key, simplify values to one byte, and finally
    canonicalize the seed towards 0. [budget] (default 400) bounds the
    candidate replays. *)
