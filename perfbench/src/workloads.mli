(** The benchmark's workloads. All share 20 Mbps / 5 ms access links and
    open-loop Poisson arrivals; the seed is the benchmark's argument and
    the simulator receives only the generated [Workload.config]. Why each
    one was chosen is in [perfbench/README.md]. *)

type t = {
  name : string;
  config : Smapp_workload.Workload.config;
      (** at the shard count the end-to-end metrics are measured at; its
          [seed] is replaced by the benchmark's *)
  twin_shards : int;
      (** the other shard count: the twin run must give the same
          behaviour digest, and the traced leg compares the two *)
  outage : bool;
      (** take the path-0 NIC of the first half of the clients down from
          1.0 s to 2.5 s of simulated time *)
  golden : string;  (** behaviour digest at seed 42 *)
}

val bulk : t
val churn : t
val failover : t
val all : t list
val find : string -> t option

val golden_seed : int
(** The seed whose behaviour digests are recorded (42). *)

val config : t -> seed:int -> shards:int -> Smapp_workload.Workload.config

val perturb : t -> Smapp_netsim.Topology.fabric -> unit
(** The workload's own fault schedule (nothing unless [outage]). *)
