(** The one domain pool: persistent lanes that run barrier rounds.

    [Lanes] keeps [domains - 1] worker domains parked on a condition
    variable and runs one {e round} per {!run}: job [s] executes on lane
    [s mod domains] (the caller is lane 0), every lane walks its slice in
    index order, and the caller returns only after all lanes reach the
    barrier. Parking instead of spawning per call is what lets a window
    protocol synchronise thousands of times per run.

    Placement is a pure function of the job index, never of timing, so a
    job is always driven by the same lane and job-local state needs no
    synchronisation beyond the round's mutex-mediated start/finish edges
    (which give the happens-before for the caller to read job results
    after the round). If jobs raise, the exception of the lowest-indexed
    failing job is re-raised on the caller after the barrier, like
    [List.iter] would surface it.

    Two callers: {!Smapp_sim.Shard.run} takes a round per window (its
    [?lanes] argument), and {!Sweep.map} runs a whole sweep as one round.
    Results are identical whether lanes run sequentially or in parallel —
    determinism comes from the job structure, not the schedule. *)

type t

val create : domains:int -> t
(** Spawn [domains - 1] parked workers. Raises [Invalid_argument] if
    [domains < 1]. [domains = 1] spawns nothing: {!run} degenerates to a
    sequential loop on the caller. *)

val domains : t -> int

val run : t -> shards:int -> (int -> unit) -> unit
(** [run t ~shards f] executes [f s] once for every [s] in [[0, shards)]
    across the lanes and returns after the barrier. Raises
    [Invalid_argument] on a shut-down pool, and when called from inside a
    running round's job (nested parallelism, on any pool). *)

val shutdown : t -> unit
(** Wake and join the workers. Idempotent; later {!run} calls raise.
    The workers are real parked domains, so every {!create} needs a
    matching [shutdown]. *)

val is_shut_down : t -> bool
