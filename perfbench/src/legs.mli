(** The benchmark's two legs over one workload.

    The untraced leg gives the end-to-end metrics with [Prof], [Metrics]
    and [Trace] all off; the traced leg turns [Prof] and [Metrics] on and
    gives the per-layer metrics. Both check the behaviour digest of every
    run they make: all runs of one seed must agree, the shard-count twin
    included, and at {!Workloads.golden_seed} the digest must equal the
    recorded one. *)

type leg = {
  outcome : Metric.outcome;
  notes : string list;  (** failed checks first, then a summary for humans *)
}

val untraced : Workloads.t -> seed:int -> seconds:float -> leg
(** One cold run (the process's first, which gives [peak_heap_mb]), then
    warm runs until [seconds] have passed since the cold run started and
    at least 2 were made, each followed by [Gc.compact]; [retained_kb] is
    the live heap after the first of them. Then one untimed run of the
    shard-count twin. Timing metrics are medians over the warm runs of
    wall times scaled by {!Hostspeed.around}; [alloc_mb] is the median
    over the warm runs. *)

val traced : ?micro_scale:float -> Workloads.t -> seed:int -> spans_path:string -> leg
(** Untraced warm-up, untraced runs at 1 shard and at the twin's shard
    count, an untimed 1-shard run with host taps, traced runs at 1 shard
    and at the twin's shard count, then the microbenchmarks. The overhead
    ratios use host-scaled run times of runs without taps. The
    benchmark's own spans are written to [spans_path] at the end.
    [micro_scale] (default 1) scales the microbenchmarks' batch sizes; it
    is there only so the self-tests run fast. *)
