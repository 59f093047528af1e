type t = {
  n_domains : int;
  mutex : Mutex.t;
  work : Condition.t; (* a new round (or shutdown) is ready *)
  done_ : Condition.t; (* a lane finished the current round *)
  mutable round : int;
  mutable job : int -> unit; (* current round's per-shard body *)
  mutable shards : int;
  mutable finished : int; (* lanes through the barrier this round *)
  mutable failures : (int * exn * Printexc.raw_backtrace) list;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* Set while a lane walks its slice. A job that starts another round —
   on its own pool it would wait on a barrier it is holding up, on another
   it would oversubscribe the cores — is rejected eagerly. Per-domain:
   every lane sets its own. *)
let in_round : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Walk lane [lane]'s static slice: shards lane, lane+d, lane+2d, ...
   Failures are collected (not raised) so every lane still reaches the
   barrier; the caller re-raises the lowest shard index afterwards. *)
let run_slice t ~lane ~shards job =
  Domain.DLS.set in_round true;
  let s = ref lane in
  while !s < shards do
    (try job !s
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Mutex.lock t.mutex;
       t.failures <- (!s, e, bt) :: t.failures;
       Mutex.unlock t.mutex);
    s := !s + t.n_domains
  done;
  Domain.DLS.set in_round false

let worker t lane () =
  let my_round = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while t.round = !my_round && not t.closed do
      Condition.wait t.work t.mutex
    done;
    if t.closed then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      my_round := t.round;
      let job = t.job and shards = t.shards in
      Mutex.unlock t.mutex;
      run_slice t ~lane ~shards job;
      Mutex.lock t.mutex;
      t.finished <- t.finished + 1;
      if t.finished = t.n_domains then Condition.broadcast t.done_;
      Mutex.unlock t.mutex
    end
  done

let create ~domains =
  if domains < 1 then invalid_arg "Smapp_par.Lanes.create: domains must be >= 1";
  let t =
    {
      n_domains = domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      round = 0;
      job = ignore;
      shards = 0;
      finished = 0;
      failures = [];
      closed = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (domains - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

let domains t = t.n_domains
let is_shut_down t = t.closed

let run t ~shards job =
  if t.closed then invalid_arg "Smapp_par.Lanes.run: pool is shut down";
  if shards < 0 then invalid_arg "Smapp_par.Lanes.run: negative shard count";
  if Domain.DLS.get in_round then
    invalid_arg "Smapp_par.Lanes.run: nested parallel round";
  Mutex.lock t.mutex;
  t.round <- t.round + 1;
  t.job <- job;
  t.shards <- shards;
  t.finished <- 0;
  t.failures <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  (* the caller is lane 0 *)
  run_slice t ~lane:0 ~shards job;
  Mutex.lock t.mutex;
  t.finished <- t.finished + 1;
  while t.finished < t.n_domains do
    Condition.wait t.done_ t.mutex
  done;
  let failures = t.failures in
  t.job <- ignore;
  Mutex.unlock t.mutex;
  match List.sort (fun (a, _, _) (b, _, _) -> compare a b) failures with
  | [] -> ()
  | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt

let shutdown t =
  if not t.closed then begin
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers
  end
