open Smapp_netsim
open Smapp_workload
module Prof = Smapp_obs.Prof
module Metrics = Smapp_obs.Metrics
module Segment = Smapp_tcp.Segment

let word_bytes = float_of_int (Sys.word_size / 8)

(* What the legs keep of one [Workload.run]: scalars only, so the result's
   FCT lists are garbage by the time the live heap is measured. *)
type run = {
  setup_s : float;
  run_s : float;
  alloc_bytes : float;
  launched : int;
  completed : int;
  digest : string;
  engine_events : int;
  sim_s : float;
  fct_p50_s : float;
  fct_p99_s : float;
  subflows_created : int;
  failovers : int;
}

let percentile xs p =
  match xs with [] -> 0.0 | _ -> Smapp_stats.Summary.percentile (Array.of_list xs) p

(* [spans] gets bench.setup / bench.simulate for the two phases and
   bench.check around the digest. [hook] runs at the end of set-up. *)
let execute ?spans ?(hook = fun _ -> ()) spec config =
  let t_hook = ref 0L in
  let perturb fabric =
    Workloads.perturb spec fabric;
    hook fabric;
    t_hook := Clock.now_ns ()
  in
  let a0 = Gc.allocated_bytes () in
  let t_entry = Clock.now_ns () in
  let r = Workload.run ~perturb config in
  let t_return = Clock.now_ns () in
  let a1 = Gc.allocated_bytes () in
  let digest =
    match spans with
    | None -> Behaviour.digest r
    | Some s ->
        Spans.record s "bench.setup" ~start_ns:t_entry ~end_ns:!t_hook;
        Spans.record s "bench.simulate" ~start_ns:!t_hook ~end_ns:t_return;
        Spans.span s "bench.check" (fun () -> Behaviour.digest r)
  in
  {
    setup_s = Clock.seconds ~from:t_entry ~until:!t_hook;
    run_s = Clock.seconds ~from:!t_hook ~until:t_return;
    alloc_bytes = a1 -. a0;
    launched = r.Workload.launched;
    completed = r.Workload.completed;
    digest;
    engine_events = r.Workload.engine_events;
    sim_s = r.Workload.sim_duration_s;
    fct_p50_s = percentile r.Workload.fcts 50.0;
    fct_p99_s = percentile r.Workload.fcts 99.0;
    subflows_created = r.Workload.subflows_created;
    failovers = r.Workload.failovers;
  }

let live_bytes_after_compact () =
  Gc.compact ();
  float_of_int (Gc.stat ()).Gc.live_words *. word_bytes

(* Correctness findings of one leg; the leg is correct when none. *)
type checks = { mutable problems : string list }

let expect checks ok what = if not ok then checks.problems <- what :: checks.problems

let check_digests checks spec ~seed runs =
  match runs with
  | [] -> ()
  | (first_label, first) :: rest ->
      List.iter
        (fun (label, r) ->
          expect checks (r.digest = first.digest)
            (Printf.sprintf "%s: behaviour digest of the %s run (%s) differs from the %s run (%s)"
               spec.Workloads.name label r.digest first_label first.digest))
        rest;
      if seed = Workloads.golden_seed then
        expect checks (first.digest = spec.Workloads.golden)
          (Printf.sprintf "%s: behaviour digest %s at seed %d, recorded %s" spec.Workloads.name
             first.digest seed spec.Workloads.golden)

let observability_off () =
  not
    (Atomic.get Prof.enabled || Atomic.get Metrics.enabled
    || Atomic.get Smapp_obs.Trace.enabled)

type leg = { outcome : Metric.outcome; notes : string list }

(* [attempted] and [failed] count the connections of one simulation. The
   leg's other runs repeat it (the digest check makes sure they agree) and
   their number depends on host speed, so they are not counted again. *)
let outcome checks r metrics =
  {
    Metric.correct = checks.problems = [];
    attempted = r.launched;
    failed = r.launched - r.completed;
    metrics;
  }

(* --- untraced leg: the end-to-end metrics ------------------------------- *)

(* at least this many warm runs, however short [seconds] *)
let min_warm = 2

let untraced spec ~seed ~seconds =
  let checks = { problems = [] } in
  expect checks (observability_off ()) "Prof, Metrics or Trace is on in the untraced leg";
  let config = Workloads.config spec ~seed ~shards:spec.Workloads.config.Workload.shards in
  let t_start = Clock.now_ns () in
  (* The process's first run: its major-heap peak is not inflated by any
     earlier run. It is also the warm-up for everything timed below. *)
  let first = execute spec config in
  let peak_heap_bytes = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes in
  let live_first = live_bytes_after_compact () in
  (* The probe's first call allocates its array, which speeds up the next
     major GC slices: make that call here, between the measured runs. *)
  ignore (Hostspeed.probe ());
  (* each warm run: (run, host scale, live bytes after it) *)
  let rec warm acc =
    let r, scale = Hostspeed.around (fun () -> execute spec config) in
    let acc = (r, scale, live_bytes_after_compact ()) :: acc in
    if List.length acc >= min_warm && Clock.since t_start >= seconds then List.rev acc
    else warm acc
  in
  let warm = warm [] in
  let runs = List.map (fun (r, _, _) -> r) warm in
  let twin =
    execute spec (Workloads.config spec ~seed ~shards:spec.Workloads.twin_shards)
  in
  check_digests checks spec ~seed
    ((("first", first) :: List.map (fun r -> ("warm", r)) runs)
    @ [ (Printf.sprintf "%d-shard twin" spec.Workloads.twin_shards, twin) ]);
  let scaled f = List.map (fun (r, scale, _) -> f r *. scale) warm in
  let metrics =
    [
      Metric.make "setup_s" (Metric.median (scaled (fun r -> r.setup_s)));
      Metric.make "run_s" (Metric.median (scaled (fun r -> r.run_s)));
      Metric.make "conns_per_s"
        (Metric.median
           (List.map
              (fun (r, scale, _) ->
                Metric.div ~if_zero:0.0 (float_of_int r.completed) (r.run_s *. scale))
              warm));
      Metric.make "alloc_mb" (Metric.median (List.map (fun r -> r.alloc_bytes) runs) /. 1e6);
      Metric.make "peak_heap_mb" (peak_heap_bytes /. 1e6);
      Metric.make "retained_kb" (List.hd (List.map (fun (_, _, live) -> live) warm) /. 1e3);
      Metric.make "conns_completed_share"
        (Metric.div ~if_zero:1.0 (float_of_int first.completed) (float_of_int first.launched));
    ]
  in
  let floats fmt xs = String.concat " " (List.map (Printf.sprintf fmt) xs) in
  let notes =
    [
      Printf.sprintf "%s seed %d: %d-shard runs, 1 cold + %d warm; digest %s" spec.Workloads.name
        seed config.Workload.shards (List.length runs) first.digest;
      Printf.sprintf "wall run_s: cold %.4f, warm %s" first.run_s
        (floats "%.4f" (List.map (fun r -> r.run_s) runs));
      Printf.sprintf "wall setup_s, warm: %s" (floats "%.5f" (List.map (fun r -> r.setup_s) runs));
      Printf.sprintf "host scale per warm run: %s"
        (floats "%.3f" (List.map (fun (_, scale, _) -> scale) warm));
      Printf.sprintf "live KB after each run and Gc.compact: %s"
        (floats "%.1f"
           (List.map (fun b -> b /. 1e3) (live_first :: List.map (fun (_, _, l) -> l) warm)));
    ]
  in
  {
    outcome = outcome checks first metrics;
    notes = List.rev checks.problems @ notes;
  }

(* --- traced leg: the per-layer metrics ---------------------------------- *)

(* every registered counter, summed over its label sets *)
let counter_totals () =
  let totals = Hashtbl.create 64 in
  List.iter
    (fun (name, _, m) ->
      match m with
      | Metrics.M_counter c ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt totals name) in
          Hashtbl.replace totals name (prev + Metrics.value c)
      | Metrics.M_gauge _ | Metrics.M_histogram _ -> ())
    (Metrics.families ());
  totals

let class_stat (rep : Prof.report) cls =
  List.find_opt (fun c -> c.Prof.c_class = cls) rep.Prof.p_classes

(* (events, ns/event, bytes/event) of one dispatch class *)
let class_costs rep cls =
  match class_stat rep cls with
  | None -> (0.0, 0.0, 0.0)
  | Some c ->
      let n = float_of_int c.Prof.c_events in
      (n, Metric.div ~if_zero:0.0 c.Prof.c_ns n, Metric.div ~if_zero:0.0 c.Prof.c_bytes n)

(* (count, total ns, total bytes) over the outermost frames named [label] *)
let frame_totals (rep : Prof.report) label =
  let rec walk acc f =
    if f.Prof.f_label = label then
      let n, ns, b = acc in
      (n + f.Prof.f_count, ns +. f.Prof.f_total_ns, b +. f.Prof.f_total_bytes)
    else List.fold_left walk acc f.Prof.f_children
  in
  List.fold_left walk (0, 0.0, 0.0) rep.Prof.p_frames

(* Work counters observed from outside the simulator during a traced run. *)
type taps = {
  mutable packets_tx : int;
  mutable bytes_tx : int;
  mutable data_segments_tx : int;
  mutable fabric : Topology.fabric option;
}

let install_taps taps (fabric : Topology.fabric) =
  taps.fabric <- Some fabric;
  let tap (pkt : Packet.t) =
    taps.packets_tx <- taps.packets_tx + 1;
    taps.bytes_tx <- taps.bytes_tx + pkt.Packet.size;
    match Segment.of_packet pkt with
    | Some seg when Segment.payload_len seg > 0 ->
        taps.data_segments_tx <- taps.data_segments_tx + 1
    | _ -> ()
  in
  Array.iter (fun h -> Host.add_tap h tap) fabric.Topology.mm_clients;
  Array.iter (fun h -> Host.add_tap h tap) fabric.Topology.mm_servers

let with_observability f =
  Prof.reset ();
  Metrics.clear ();
  Atomic.set Prof.enabled true;
  Atomic.set Metrics.enabled true;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set Prof.enabled false;
      Atomic.set Metrics.enabled false)
    f

let traced ?(micro_scale = 1.0) spec ~seed ~spans_path =
  let checks = { problems = [] } in
  expect checks (observability_off ()) "Prof, Metrics or Trace is on before the traced leg";
  (* as in [untraced]: the probe's first call stays out of the runs *)
  ignore (Hostspeed.probe ());
  let spans = Spans.create () in
  let main_shards = spec.Workloads.config.Workload.shards in
  let twin_shards = spec.Workloads.twin_shards in
  if min main_shards twin_shards <> 1 then
    invalid_arg "Legs.traced: a workload and its twin must include a 1-shard run";
  let many = max main_shards twin_shards in
  let config shards = Workloads.config spec ~seed ~shards in
  let step label f = Spans.span spans ("bench.run:" ^ label) f in
  let compact () = Spans.span spans "bench.compact" Gc.compact in
  (* run_s scaled by host speed, for the ratios of runs made apart in time *)
  let scaled_run_s f =
    let r, scale = Hostspeed.around f in
    (r, r.run_s *. scale)
  in
  (* GC counts are taken inside the probe brackets, so they count the run alone *)
  let untraced shards =
    step (Printf.sprintf "untraced-%d" shards) (fun () ->
        compact ();
        let (r, q0, q1), scale =
          Hostspeed.around (fun () ->
              let q0 = Gc.quick_stat () in
              let r = execute ~spans spec (config shards) in
              (r, q0, Gc.quick_stat ()))
        in
        (r, r.run_s *. scale, q0, q1))
  in
  let warmup = step "warmup" (fun () -> execute ~spans spec (config main_shards)) in
  (* Slots never put back count as live for good, so only the process's
     first run gives its own segment high-water mark. *)
  let segment_high_water = (Segment.pool_stats ()).Smapp_sim.Arena.high_water in
  let u_main, u_main_s, q0, q1 = untraced main_shards in
  let u_twin, u_twin_s, _, _ = untraced twin_shards in
  let u_1_s, u_many_s = if main_shards = 1 then (u_main_s, u_twin_s) else (u_twin_s, u_main_s) in
  (* The host taps get an untimed run of their own, so that no timed run
     pays for them. *)
  let taps = { packets_tx = 0; bytes_tx = 0; data_segments_tx = 0; fabric = None } in
  let tapped =
    step "taps-1" (fun () ->
        compact ();
        execute ~spans ~hook:(install_taps taps) spec (config 1))
  in
  (* the 1-shard traced run supplies every counter: a sharded run keeps
     [Metrics] in per-shard scopes *)
  let t_1, t_1_s, rep_1, pool0, pool1, counters =
    step "traced-1" (fun () ->
        compact ();
        let pool0 = Segment.pool_stats () in
        with_observability (fun () ->
            let r, run_s = scaled_run_s (fun () -> execute ~spans spec (config 1)) in
            let counters = counter_totals () in
            (r, run_s, Prof.report (), pool0, Segment.pool_stats (), counters)))
  in
  let t_many, t_many_s, rep_many =
    step (Printf.sprintf "traced-%d" many) (fun () ->
        compact ();
        with_observability (fun () ->
            let r, run_s = scaled_run_s (fun () -> execute ~spans spec (config many)) in
            (r, run_s, Prof.report ())))
  in
  let micro =
    List.map
      (fun m ->
        let ns, bytes =
          Spans.span spans ("bench.micro:" ^ m.Micro.name) (fun () ->
              try Micro.measure ~scale:micro_scale m
              with Failure e ->
                expect checks false e;
                (0.0, 0.0))
        in
        [
          Metric.make (m.Micro.name ^ "_ns_per_op") ns;
          Metric.make (m.Micro.name ^ "_bytes_per_op") bytes;
        ])
      Micro.all
  in
  let labelled =
    [
      ("warm-up", warmup);
      (Printf.sprintf "untraced %d-shard" main_shards, u_main);
      (Printf.sprintf "untraced %d-shard" twin_shards, u_twin);
      ("tapped 1-shard", tapped);
      ("traced 1-shard", t_1);
      (Printf.sprintf "traced %d-shard" many, t_many);
    ]
  in
  check_digests checks spec ~seed labelled;
  let counter n =
    match Hashtbl.find_opt counters n with
    | Some v -> float_of_int v
    | None -> invalid_arg ("Legs.traced: no counter " ^ n)
  in
  let fabric = match taps.fabric with Some f -> f | None -> invalid_arg "Legs.traced: no fabric" in
  let hosts = Array.append fabric.Topology.mm_clients fabric.Topology.mm_servers in
  let sum_over arr f = float_of_int (Array.fold_left (fun acc x -> acc + f x) 0 arr) in
  let packets_tx = float_of_int taps.packets_tx in
  let simulate_ns = t_1.run_s *. 1e9 in
  let class_ns = List.fold_left (fun acc c -> acc +. c.Prof.c_ns) 0.0 rep_1.Prof.p_classes in
  let timer_events, timer_ns, timer_bytes = class_costs rep_1 Prof.Timer in
  let link_events, link_ns, link_bytes = class_costs rep_1 Prof.Link_delivery in
  let link_events_many, _, _ = class_costs rep_many Prof.Link_delivery in
  let nl_events, nl_ns, nl_bytes = class_costs rep_1 Prof.Netlink in
  let pm_count, pm_ns, pm_bytes = frame_totals rep_1 "pm:dispatch" in
  let pm_n = float_of_int pm_count in
  let takes = float_of_int (pool1.Smapp_sim.Arena.takes - pool0.Smapp_sim.Arena.takes) in
  let puts = float_of_int (pool1.Smapp_sim.Arena.puts - pool0.Smapp_sim.Arena.puts) in
  let t_main_s = if main_shards = 1 then t_1_s else t_many_s in
  let m = Metric.make in
  let per_layer =
    [
      m "sim.events" (float_of_int t_1.engine_events);
      m "sim.timer_events" timer_events;
      m "sim.timer_ns_per_event" timer_ns;
      m "sim.timer_bytes_per_event" timer_bytes;
      m "sim.outside_dispatch_share"
        (Metric.div ~if_zero:0.0 (simulate_ns -. class_ns) simulate_ns);
      m "sim.shard_overhead_ratio" (Metric.div ~if_zero:1.0 u_many_s u_1_s);
      m "sim.shard_mailbox_deliveries" (link_events -. link_events_many);
      m "netsim.link_delivery_events" link_events;
      m "netsim.link_delivery_ns_per_event" link_ns;
      m "netsim.link_delivery_bytes_per_event" link_bytes;
      m "netsim.packets_tx" packets_tx;
      m "netsim.bytes_tx" (float_of_int taps.bytes_tx);
      m "netsim.router_forwarded" (sum_over fabric.Topology.mm_routers Router.forwarded);
      m "netsim.rx_discarded" (sum_over hosts Host.rx_discarded);
      m "netsim.delivery_ratio"
        (Metric.div ~if_zero:1.0 (counter "tcp_segments_received_total") packets_tx);
      m "tcp.segments_received" (counter "tcp_segments_received_total");
      m "tcp.retransmits" (counter "tcp_retransmits_total");
      m "tcp.rto_fired" (counter "tcp_rto_fired_total");
      m "tcp.rst_sent" (counter "tcp_rst_sent_total");
      m "tcp.retransmit_ratio"
        (Metric.div ~if_zero:0.0 (counter "tcp_retransmits_total")
           (float_of_int taps.data_segments_tx));
      m "tcp.segment_takes" takes;
      m "tcp.segment_fresh"
        (float_of_int (pool1.Smapp_sim.Arena.fresh - pool0.Smapp_sim.Arena.fresh));
      m "tcp.segment_high_water" (float_of_int segment_high_water);
      m "tcp.segment_release_ratio" (Metric.div ~if_zero:1.0 puts takes);
      m "mptcp.subflows_created" (float_of_int t_1.subflows_created);
      m "mptcp.failovers" (float_of_int t_1.failovers);
      m "netlink.events" nl_events;
      m "netlink.ns_per_event" nl_ns;
      m "netlink.bytes_per_event" nl_bytes;
      m "netlink.dropped" (counter "netlink_dropped_total");
      m "core.pm_dispatch_events" pm_n;
      m "core.pm_dispatch_ns_per_event" (Metric.div ~if_zero:0.0 pm_ns pm_n);
      m "core.pm_dispatch_bytes_per_event" (Metric.div ~if_zero:0.0 pm_bytes pm_n);
      m "core.pm_commands" (counter "pm_commands_total");
      m "core.pm_events" (counter "pm_events_total");
      m "core.pm_command_retries" (counter "pm_command_retries_total");
      m "core.pm_command_failures" (counter "pm_command_failures_total");
      m "controllers.subflow_requests" (counter "ctrl_subflow_requests_total");
      m "controllers.reconnects" (counter "ctrl_reconnects_total");
      m "controllers.failovers" (counter "ctrl_failovers_total");
      m "workload.sim_s" t_1.sim_s;
      m "workload.fct_p50_s" t_1.fct_p50_s;
      m "workload.fct_p99_s" t_1.fct_p99_s;
      m "workload.conns_failed_share"
        (Metric.div ~if_zero:0.0
           (float_of_int (t_1.launched - t_1.completed))
           (float_of_int t_1.launched));
      m "obs.trace_overhead_ratio" (Metric.div ~if_zero:1.0 t_main_s u_main_s);
      m "gc.minor_collections" (float_of_int (q1.Gc.minor_collections - q0.Gc.minor_collections));
      m "gc.major_collections" (float_of_int (q1.Gc.major_collections - q0.Gc.major_collections));
      m "gc.promoted_mb" ((q1.Gc.promoted_words -. q0.Gc.promoted_words) *. word_bytes /. 1e6);
    ]
    @ List.concat micro
  in
  (* output in the table's order *)
  let metrics =
    List.map
      (fun (name, _) ->
        match List.find_opt (fun x -> x.Metric.name = name) per_layer with
        | Some x -> x
        | None -> invalid_arg ("Legs.traced: metric not computed: " ^ name))
      Metric.per_layer
  in
  Spans.write spans spans_path;
  let notes =
    [
      Printf.sprintf "%s seed %d traced: digest %s; spans written to %s" spec.Workloads.name seed
        t_1.digest spans_path;
    ]
  in
  {
    outcome = outcome checks t_1 metrics;
    notes = List.rev checks.problems @ notes;
  }
