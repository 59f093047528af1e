(* Multi-seed experiment sweeps.

   [map ?pool f jobs] is the single entry point the experiments go
   through. Without a pool it is literally [List.map f jobs]: same
   domain, same scopes, same observable side effects as the historical
   sequential code (the CLI's [--trace] export keeps seeing the events).
   With a pool, the whole sweep is one [Lanes] round: job [i] runs inside
   a fresh [Ctx] capsule on lane [i mod domains], writes its own slot of a
   per-index array, and the results come back in submission order — so
   the value a sweep returns is byte-identical either way, because a
   seeded simulation is a pure function of its inputs and never reads
   ambient metrics/trace state (the obs determinism test holds tracing to
   exactly that). *)

let map ?pool f jobs =
  match pool with
  | None -> List.map f jobs
  | Some lanes ->
      let jobs = Array.of_list jobs in
      let results = Array.make (Array.length jobs) None in
      Lanes.run lanes ~shards:(Array.length jobs) (fun i ->
          results.(i) <- Some (Ctx.run (Ctx.create ()) (fun () -> f jobs.(i))));
      Array.to_list
        (Array.map
           (function
             | Some v -> v
             | None ->
                 Smapp_sim.Bug.fail
                   "Sweep.map: unwritten slot — Lanes.run returned without \
                    raising, so every job ran to completion")
           results)

let over_seeds ?pool ~f seeds = map ?pool f seeds
