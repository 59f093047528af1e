(* Tests for the scale-out workload engine: determinism, completion and
   per-connection controller attachment at a small, fast scale. *)

open Smapp_workload.Workload

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let small ?(controller = `Fullmesh) ?(conns = 40) ?(flow_dist = Fixed 50_000)
    ?(seed = 42) () =
  {
    default_config with
    conns;
    arrival_rate = 200.0;
    flow_dist;
    controller;
    clients = 4;
    servers = 2;
    paths = 2;
    seed;
  }

let test_all_flows_complete () =
  let r = run (small ()) in
  checki "launched" 40 r.launched;
  checki "completed" 40 r.completed;
  checki "one fct per flow" 40 (List.length r.fcts);
  checki "fixed sizes sum" (40 * 50_000) r.bytes_total;
  checkb "peak within bounds" true (r.peak_concurrent >= 1 && r.peak_concurrent <= 40);
  checkb "fcts positive" true (List.for_all (fun t -> t > 0.0) r.fcts);
  checkb "goodputs positive" true (List.for_all (fun g -> g > 0.0) r.goodputs)

let test_deterministic_under_seed () =
  let a = run (small ()) and b = run (small ()) in
  checki "same completions" a.completed b.completed;
  checki "same events" a.engine_events b.engine_events;
  checkb "same fcts" true (a.fcts = b.fcts);
  checkb "same goodputs" true (a.goodputs = b.goodputs);
  checki "same bytes" a.bytes_total b.bytes_total;
  checki "same peak" a.peak_concurrent b.peak_concurrent

let test_seed_changes_schedule () =
  let a = run (small ()) and b = run (small ~seed:43 ()) in
  checkb "different seeds, different fcts" true (a.fcts <> b.fcts)

let test_fullmesh_attaches_per_conn () =
  (* two paths -> each connection's fullmesh instance opens one extra subflow *)
  let r = run (small ()) in
  checki "one mesh subflow per connection" 40 r.subflows_created;
  checki "no failovers from fullmesh" 0 r.failovers

let test_backup_controller_runs () =
  let r = run (small ~controller:`Backup ()) in
  checki "completed" 40 r.completed;
  checki "no mesh subflows from backup" 0 r.subflows_created;
  (* congestion-driven RTO spikes may legitimately trip a failover or two;
     each instance has only one spare source, so conns is the ceiling *)
  checkb "failovers bounded by spares" true (r.failovers <= 40)

let test_no_controller_runs () =
  let r = run (small ~controller:`None ~conns:20 ()) in
  checki "completed" 20 r.completed;
  checki "no controller activity" 0 (r.subflows_created + r.failovers)

let test_heavy_tail_sizes () =
  let r = run (small ~flow_dist:(Pareto { xmin = 2_000; alpha = 1.5; cap = 200_000 }) ()) in
  checki "completed" 40 r.completed;
  checkb "sizes within bounds" true
    (r.bytes_total >= 40 * 2_000 && r.bytes_total <= 40 * 200_000)

let test_rejects_bad_config () =
  Alcotest.check_raises "no conns" (Invalid_argument "Workload.run: conns must be >= 1")
    (fun () -> ignore (run { (small ()) with conns = 0 }));
  Alcotest.check_raises "backup needs two paths"
    (Invalid_argument "Workload.run: backup controller needs at least 2 paths") (fun () ->
      ignore (run { (small ~controller:`Backup ()) with paths = 1 }))

(* A finished run must leave nothing reachable: each engine used to keep
   the previous one alive through its saved trace clock, so live words grew
   by a whole engine (~24k words here) per run. *)
let test_runs_retain_nothing () =
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let cfg = small ~conns:10 () in
  ignore (run cfg : result);
  let before = live () in
  for _ = 1 to 6 do
    ignore (run cfg : result)
  done;
  let growth = live () - before in
  if growth > 1_000 then
    Alcotest.failf "live words grew by %d over 6 runs (want <= 1000)" growth

let () =
  Alcotest.run "workload"
    [
      ( "runs",
        [
          Alcotest.test_case "all flows complete" `Quick test_all_flows_complete;
          Alcotest.test_case "deterministic under seed" `Quick test_deterministic_under_seed;
          Alcotest.test_case "seed changes schedule" `Quick test_seed_changes_schedule;
          Alcotest.test_case "fullmesh per conn" `Quick test_fullmesh_attaches_per_conn;
          Alcotest.test_case "backup controller" `Quick test_backup_controller_runs;
          Alcotest.test_case "no controller" `Quick test_no_controller_runs;
          Alcotest.test_case "heavy-tailed sizes" `Quick test_heavy_tail_sizes;
          Alcotest.test_case "rejects bad config" `Quick test_rejects_bad_config;
          Alcotest.test_case "runs retain nothing" `Quick test_runs_retain_nothing;
        ] );
    ]
