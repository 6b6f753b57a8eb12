(** Experiment driver: builds a fresh (pool, meter, index) per grid cell
    and measures operation traces on the simulated clock — the paper's
    emulation methodology (§IV-A), where per-operation time is dominated
    by configured PM latencies charged to counted memory events. *)

type tree = HART | WOART | ART_COW | FPTREE

val tree_name : tree -> string
val all_trees : tree list
(** In the paper's legend order: HART, WOART, ART+CoW, FPTree. *)

val of_tree_name : string -> tree option

type instance = {
  pool : Hart_pmem.Pmem.t;
  meter : Hart_pmem.Meter.t;
  ops : Hart_baselines.Index_intf.ops;
}

val harness_llc_bytes : int
(** Simulated LLC size used for all figure reproductions: scaled down
    with the record counts so dataset ≫ cache holds as it did on the
    paper's testbed (DESIGN.md). *)

val make : tree -> Hart_pmem.Latency.config -> instance
(** Fresh pool + meter + empty index of the given kind. *)

type measurement = {
  n_ops : int;
  sim_ns : float;  (** simulated time for the measured trace *)
  wall_ns : float;  (** host wall-clock, for reference only *)
  counters : Hart_pmem.Meter.counters;  (** event deltas for the trace *)
}

val avg_us : measurement -> float
(** Average simulated microseconds per operation. *)

val measure : instance -> Hart_workloads.Workload.op array -> measurement
(** Apply the trace, measuring simulated time and event deltas. *)

val preload : instance -> string array -> (int -> string) -> unit
(** Insert all keys (measured on the simulated clock too, but callers
    normally diff around {!measure} so preload cost is excluded). *)
