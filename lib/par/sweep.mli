(** Deterministic multi-seed sweeps.

    [map ?pool f jobs] applies [f] to each job and returns the results in
    submission order. [?pool = None] (the default) is exactly
    [List.map f jobs] on the calling domain — historical sequential
    behaviour, observability side effects included. With a pool, the
    sweep is one {!Lanes.run} round and each job runs in a fresh {!Ctx.t}
    capsule on a statically assigned lane; since a seeded simulation never
    reads ambient observability state, both modes return byte-identical
    values. If jobs raise, the lowest-indexed failure is re-raised after
    the round. Raises [Invalid_argument] on a shut-down pool or when
    called from inside a running job. *)

val map : ?pool:Lanes.t -> ('a -> 'b) -> 'a list -> 'b list

val over_seeds : ?pool:Lanes.t -> f:(int -> 'b) -> int list -> 'b list
(** [over_seeds ?pool ~f seeds] = [map ?pool f seeds]; the conventional
    [(seed -> result)] sweep spelled out. *)
