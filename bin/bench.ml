(* `smapp bench`: regenerates every table and figure of the paper (one
   section per Registry entry: paper-vs-measured, with the ablations and
   shape checks spelled out), then the instrument sections — chaos,
   workload, sharding, parallel sweeps, conformance and observability
   overhead, per-event cost — and a set of Bechamel microbenchmarks of the
   core data structures and the netlink codec. Every section's metrics go
   to BENCH.json, which tools/benchdiff gates against BENCH_BASELINE.json.

   Scale: Quick shrinks the multi-run experiments for a fast smoke pass;
   Default finishes in a few minutes; Full uses paper-scale parameters
   everywhere (100 MB files, 1000 requests). *)

module E = Smapp_experiments
module Registry = E.Registry
module Stats = Smapp_stats

let pick scale ~q ~d ~f =
  match scale with Registry.Quick -> q | Registry.Default -> d | Registry.Full -> f

(* --- machine-readable output (BENCH.json) ------------------------------- *)

let bench_sections : (string * float * (string * float) list) list ref = ref []
let current_metrics : (string * float) list ref = ref []

(* record a key metric of the currently running section *)
let metric name v = current_metrics := (name, v) :: !current_metrics

let section name f =
  current_metrics := [];
  let t0 = Unix.gettimeofday () in
  f ();
  bench_sections :=
    (name, Unix.gettimeofday () -. t0, List.rev !current_metrics) :: !bench_sections

let write_bench_json scale path =
  let open Stats.Json in
  to_file path
    (Obj
       [
         ("scale", String (Registry.scale_name scale));
         ( "sections",
           List
             (List.rev_map
                (fun (name, wall, ms) ->
                  Obj
                    [
                      ("name", String name);
                      ("wall_s", Float wall);
                      ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) ms));
                    ])
                !bench_sections) );
       ]);
  Printf.printf "\nwrote %s\n" path

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ chaos *)

let chaos scale pool () =
  banner "Robustness — control-plane fault injection (chaos harness)";
  Printf.printf
    "the Netlink channel drops/duplicates messages and the daemon crashes;\n\
     the controller's view must reconverge to true kernel state, and under\n\
     total daemon loss the in-kernel watchdog must take over.\n\n";
  let drops = if scale = Registry.Quick then [ 0.05 ] else [ 0.0; 0.02; 0.05; 0.10 ] in
  let seeds = E.Harness.seeds (pick scale ~q:1 ~d:3 ~f:5) in
  List.iter
    (fun r -> print_endline (E.Chaos.convergence_row r))
    (E.Chaos.run_grid ?pool ~seeds ~drops ());
  Printf.printf "\nwatchdog: daemon lost for good at t=5s\n%s\n"
    (E.Chaos.watchdog_summary (E.Chaos.run_watchdog ()));
  Printf.printf "\n--- data-plane chaos: time-varying links, handover churn ---\n";
  Printf.printf
    "four scenarios x three seeds; every cell must deliver byte-exactly,\n\
     stay live within its stall bound while a path is up, and keep its\n\
     controller churn inside the configured caps.\n\n";
  let grid = E.Chaos.run_dataplane_grid ?pool () in
  List.iter (fun r -> print_endline (E.Chaos.dataplane_row r)) grid;
  List.iter
    (fun name ->
      match List.filter (fun r -> r.E.Chaos.dp_scenario = name) grid with
      | [] -> ()
      | rs ->
          metric
            (name ^ "_failover_latency_s")
            (List.fold_left (fun m r -> Float.max m r.E.Chaos.dp_max_stall_s) 0.0 rs);
          metric
            (name ^ "_goodput_mbps")
            (List.fold_left (fun s r -> s +. r.E.Chaos.dp_goodput_bps) 0.0 rs
            /. (1e6 *. float_of_int (List.length rs))))
    [ "mobile"; "degrade"; "dualfade"; "regionfail" ];
  metric "dataplane_cells" (float_of_int (List.length grid));
  metric "dataplane_invariants_ok"
    (if List.for_all E.Chaos.dataplane_invariants_ok grid then 1.0 else 0.0)

(* ------------------------------------------------------------- workload *)

let bulk_config conns =
  {
    Smapp_workload.Workload.default_config with
    Smapp_workload.Workload.conns;
    arrival_rate = float_of_int conns;
    flow_dist = Smapp_workload.Workload.Fixed 200_000;
  }

let workload scale () =
  banner "Scale-out workload — thousands of connections, per-connection controllers";
  let open Smapp_workload in
  let conns = pick scale ~q:500 ~d:2000 ~f:4000 in
  Printf.printf
    "%d MPTCP connections arrive open-loop at %d/s across 8 clients x 4\n\
     servers x 2 paths; every connection gets its own fullmesh controller\n\
     instance through the factory. The events-per-second figure is the\n\
     engine's scheduler throughput over the whole run.\n\n"
    conns conns;
  let r = Workload.run (bulk_config conns) in
  print_endline (Workload.summary r);
  print_endline (Stats.Cdf.quantile_row "flow completion (s)" r.Workload.fcts);
  metric "conns" (float_of_int conns);
  metric "completed" (float_of_int r.Workload.completed);
  metric "peak_concurrent" (float_of_int r.Workload.peak_concurrent);
  metric "engine_events" (float_of_int r.Workload.engine_events);
  metric "events_per_sec" r.Workload.events_per_sec;
  match r.Workload.fcts with
  | [] -> ()
  | samples ->
      let cdf = Stats.Cdf.of_samples samples in
      metric "fct_p50_s" (Stats.Cdf.quantile cdf 0.5);
      metric "fct_p90_s" (Stats.Cdf.quantile cdf 0.9)

(* ------------------------------------------------------------ sharding *)

(* The same scenario on several engines: the workload above at shards
   1/2/4 under the conservative-window executor, windows across parallel
   lanes when the host has the cores. Identity is the acceptance gate —
   every sharded digest must equal the sequential one bit-for-bit; the
   wall columns show what the windows cost (barriers every lookahead) or
   buy (lanes on real cores). Wall times here are wall-clock
   ([Workload.wall_s] is process CPU, which double-counts parallel
   lanes). The regionfail comparison extends the same gate to a chaos
   scenario with live faults. *)
let shard_bench scale () =
  banner "Sharded engine — conservative windows, one scenario, N engines";
  let open Smapp_workload in
  let conns = pick scale ~q:500 ~d:2000 ~f:4000 in
  let config = bulk_config conns in
  let available = Domain.recommended_domain_count () in
  Printf.printf
    "%d conns on the workload fabric at shards 1/2/4; lanes use min(shards,\n\
     %d) domains. Every digest must match shards=1 exactly.\n\n"
    conns available;
  let base, base_wall = timed (fun () -> Workload.run config) in
  let base_digest = Workload.digest base in
  Printf.printf "shards 1: %6.2f s wall, %8.0f events/s  (digest %s)\n" base_wall
    (float_of_int base.Workload.engine_events /. base_wall)
    base_digest;
  metric "conns" (float_of_int conns);
  metric "domains_available" (float_of_int available);
  metric "shard1_wall_s" base_wall;
  metric "shard1_events_per_sec" (float_of_int base.Workload.engine_events /. base_wall);
  let all_identical = ref true in
  List.iter
    (fun shards ->
      let cfg = { config with Workload.shards } in
      let r, wall =
        timed (fun () ->
            Smapp_par.Lanes.with_pool ~domains:(min shards available) (fun lanes ->
                Workload.run ?lanes cfg))
      in
      let identical = Workload.digest r = base_digest in
      if not identical then all_identical := false;
      Printf.printf "shards %d: %6.2f s wall, %8.0f events/s  -> %s\n" shards wall
        (float_of_int r.Workload.engine_events /. wall)
        (if identical then "identical" else "DIVERGED");
      metric (Printf.sprintf "shard%d_wall_s" shards) wall;
      metric
        (Printf.sprintf "shard%d_events_per_sec" shards)
        (float_of_int r.Workload.engine_events /. wall);
      metric (Printf.sprintf "shard%d_identical" shards) (if identical then 1.0 else 0.0))
    [ 2; 4 ];
  (* the chaos-under-shards gate: live NIC faults, sharded, still exact *)
  let rf1 = E.Chaos.run_dataplane ~scenario:`Regionfail ~seed:42 () in
  let rf4 = E.Chaos.run_dataplane ~scenario:`Regionfail ~seed:42 ~shards:4 () in
  let rf_identical = rf1 = rf4 in
  if not rf_identical then all_identical := false;
  Printf.printf "regionfail chaos, shards 4 vs 1: %s\n"
    (if rf_identical then "identical" else "DIVERGED");
  metric "regionfail_shard_identical" (if rf_identical then 1.0 else 0.0);
  metric "identical" (if !all_identical then 1.0 else 0.0)

(* ---------------------------------------------------- parallel sweeps *)

(* The same fig2c refresh sweep, sequentially and across a 4-domain pool:
   the results must be structurally equal (the sweep is deterministic and
   ordered), and the wall-time ratio is the measured speedup. On a
   single-core host the pool still runs correctly but the domains time-slice
   one core, so the honest speedup there is ~1x or below. *)
let par_bench scale jobs () =
  banner "Parallel sweep — deterministic fig2c across domains (Smapp_par)";
  let runs = pick scale ~q:4 ~d:8 ~f:12 in
  let mb = pick scale ~q:4 ~d:15 ~f:40 in
  let seeds = E.Harness.seeds runs in
  let file_bytes = mb * 1_000_000 in
  let domains = max 4 jobs in
  let available = Domain.recommended_domain_count () in
  Printf.printf
    "fig2c refresh sweep: %d seeds x %d MB, sequential vs %d domains\n\
     (host offers %d domain%s; speedup needs real cores)\n\n"
    runs mb domains available
    (if available = 1 then "" else "s");
  let sweep pool () = E.Fig2c.run ?pool ~seeds ~file_bytes ~variant:E.Fig2c.Refresh () in
  let seq_r, seq_s = timed (sweep None) in
  let par_r, par_s = Smapp_par.Lanes.with_pool ~domains (fun pool -> timed (sweep pool)) in
  let identical = seq_r = par_r in
  let speedup = if par_s > 0.0 then seq_s /. par_s else 0.0 in
  Printf.printf "sequential: %.2f s wall\n%d domains:  %.2f s wall -> speedup x%.2f\n"
    seq_s domains par_s speedup;
  Printf.printf "results %s\n"
    (if identical then "byte-identical (ordered merge, isolated scopes)"
     else "DIFFER — determinism broken!");
  metric "seq_wall_s" seq_s;
  metric "par_wall_s" par_s;
  metric "speedup" speedup;
  metric "domains" (float_of_int domains);
  metric "domains_available" (float_of_int available);
  metric "identical" (if identical then 1.0 else 0.0)

(* -------------------------------------------- conformance-hook overhead *)

let small_config conns =
  {
    Smapp_workload.Workload.default_config with
    Smapp_workload.Workload.conns;
    arrival_rate = float_of_int conns;
    flow_dist = Smapp_workload.Workload.Fixed 100_000;
  }

(* The FSM instrumentation in Tcb/Connection is a load-and-branch when the
   hooks are off; this section holds it to that by running the same workload
   with checks off and with the full conformance checker installed. *)
let check_overhead scale () =
  let open Smapp_workload in
  let config = small_config (pick scale ~q:100 ~d:400 ~f:1000) in
  let run () = Workload.run config in
  let off = run () in
  Smapp_check.Fsm.install ();
  let on_ = Fun.protect ~finally:Smapp_check.Fsm.uninstall run in
  let ratio =
    if on_.Workload.events_per_sec > 0.0 then
      off.Workload.events_per_sec /. on_.Workload.events_per_sec
    else 0.0
  in
  Printf.printf "hooks off: %.0f events/s; hooks on: %.0f events/s (x%.3f)\n"
    off.Workload.events_per_sec on_.Workload.events_per_sec ratio;
  Printf.printf "conformance validated %d transitions\n" (Smapp_check.Fsm.transitions_seen ());
  metric "events_per_sec_hooks_off" off.Workload.events_per_sec;
  metric "events_per_sec_hooks_on" on_.Workload.events_per_sec;
  metric "overhead_ratio" ratio;
  (* the typed analyzer is part of the same correctness budget: record how
     long a full pass over the compiled tree takes so a rule that goes
     quadratic shows up here before it shows up in CI wall time *)
  match Smapp_check.Analysis.default_root () with
  | None -> Printf.printf "analysis: no .cmt artifacts here; skipped\n"
  | Some root ->
      let allowlist =
        match Smapp_check.Analysis.load_allowlist "analysis-allowlist.txt" with
        | Ok a -> a
        | Error _ -> Smapp_check.Analysis.empty_allowlist
      in
      let r, wall = timed (fun () -> Smapp_check.Analysis.run ~allowlist ~root ()) in
      Printf.printf "analysis: %d units in %.3f s (%d findings, %d allowlisted)\n"
        r.Smapp_check.Analysis.r_units wall
        (List.length r.Smapp_check.Analysis.r_findings)
        (List.length r.Smapp_check.Analysis.r_allowlisted);
      metric "analysis_wall_s" wall;
      metric "analysis_units" (float_of_int r.Smapp_check.Analysis.r_units);
      metric "analysis_findings" (float_of_int (List.length r.Smapp_check.Analysis.r_findings))

(* ---------------------------------------------------- observability cost *)

(* Smapp_obs follows the same load-and-branch discipline as the conformance
   hooks: every counter bump and span emission starts with a check of an
   atomic flag. Instrumentation is compiled in unconditionally, so the
   "disabled" run below is the same binary as the baseline — the ratio
   between two disabled runs is the run-to-run noise floor, and the gate on
   it is a regression tripwire for anyone who moves work outside the
   enabled-branch. *)
let obs_overhead scale () =
  let open Smapp_workload in
  banner "Observability overhead — metrics+tracing off vs on";
  let config = small_config (pick scale ~q:100 ~d:400 ~f:1000) in
  let run () = Workload.run config in
  let baseline, disabled, enabled_r =
    Smapp_obs.Switch.with_flags ~metrics:false ~trace:false (fun () ->
        let baseline = run () in
        let disabled = run () in
        let enabled_r = Smapp_obs.Switch.with_flags ~metrics:true ~trace:true run in
        (baseline, disabled, enabled_r))
  in
  let ratio a b =
    if b.Workload.events_per_sec > 0.0 then
      a.Workload.events_per_sec /. b.Workload.events_per_sec
    else 0.0
  in
  let disabled_ratio = ratio baseline disabled in
  let enabled_ratio = ratio baseline enabled_r in
  Printf.printf
    "baseline: %.0f events/s; obs disabled: %.0f events/s (x%.3f, noise floor);\n\
     obs enabled: %.0f events/s (x%.3f)\n"
    baseline.Workload.events_per_sec disabled.Workload.events_per_sec disabled_ratio
    enabled_r.Workload.events_per_sec enabled_ratio;
  Printf.printf "trace ring: %d events recorded, %d evicted\n" (Smapp_obs.Trace.recorded ())
    (Smapp_obs.Trace.dropped ());
  Smapp_obs.Trace.export_chrome_file "trace_sample.json";
  Printf.printf "wrote trace_sample.json (Chrome trace_event format)\n";
  metric "events_per_sec_baseline" baseline.Workload.events_per_sec;
  metric "events_per_sec_disabled" disabled.Workload.events_per_sec;
  metric "events_per_sec_enabled" enabled_r.Workload.events_per_sec;
  metric "disabled_overhead_ratio" disabled_ratio;
  metric "enabled_overhead_ratio" enabled_ratio;
  metric "trace_events_recorded" (float_of_int (Smapp_obs.Trace.recorded ()))

(* -------------------------------------------------------- per-event cost *)

(* Per-event wall time, allocation and GC pressure from [Smapp_obs.Prof]'s
   engine dispatch brackets, at the 500- and 5000-conn workloads,
   sequential and sharded 4 ways (windows run sequentially so all
   profiling lands in this domain's scope). These are the metrics
   BENCH_BASELINE.json pins: allocation per event is a property of the
   compiled program and gets a tight benchdiff tolerance, the wall-clock
   columns are host-dependent and only gate blowups. The
   [prof_disabled_ratio] runs hold Prof to the same no-op-when-disabled
   discipline as the [obs] section: all runs have the instrumentation
   compiled in and disabled, so the ratio of best-of-3 throughputs is the
   reproducible noise floor — single runs on a busy host can drift 10%,
   but the best of three interleaved runs per side pins it near 1.0, so
   the <= 1.05 CI gate holds without flaking. *)
let perf_bench scale () =
  let open Smapp_workload in
  banner "Perf — per-event time/allocation/GC under Smapp_obs.Prof";
  let mk conns shards = { (bulk_config conns) with Workload.shards } in
  Smapp_obs.Switch.with_flags ~prof:false @@ fun () ->
  let cfg_small = mk (pick scale ~q:100 ~d:400 ~f:1000) 1 in
  ignore (Workload.run cfg_small : Workload.result) (* warm up *);
  (* interleave the two sides (ABABAB) so a load spike hits both equally *)
  let best1 = ref 0.0 and best2 = ref 0.0 in
  for _ = 1 to 3 do
    let a = Workload.run cfg_small in
    let b = Workload.run cfg_small in
    best1 := Float.max !best1 a.Workload.events_per_sec;
    best2 := Float.max !best2 b.Workload.events_per_sec
  done;
  let disabled_ratio = if !best2 > 0.0 then !best1 /. !best2 else 0.0 in
  Printf.printf
    "prof disabled, best of 3 per side: %.0f vs %.0f events/s (ratio x%.3f, gate <= 1.05)\n\n"
    !best1 !best2 disabled_ratio;
  metric "prof_disabled_ratio" disabled_ratio;
  Smapp_obs.Switch.with_flags ~prof:true @@ fun () ->
  let class_slug c =
    String.map (fun ch -> if ch = '-' then '_' else ch) (Smapp_obs.Prof.class_name c)
  in
  let profile tag conns shards =
    Smapp_obs.Prof.reset ();
    let r = Workload.run (mk conns shards) in
    let rep = Smapp_obs.Prof.report () in
    let events = rep.Smapp_obs.Prof.p_events in
    let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 rep.Smapp_obs.Prof.p_classes in
    let ns = sum (fun c -> c.Smapp_obs.Prof.c_ns) in
    let bytes = sum (fun c -> c.Smapp_obs.Prof.c_bytes) in
    let minor = sum (fun c -> float_of_int c.Smapp_obs.Prof.c_minor_gcs) in
    let major = sum (fun c -> float_of_int c.Smapp_obs.Prof.c_major_gcs) in
    let per x = if events > 0 then x /. float_of_int events else 0.0 in
    Printf.printf
      "%-9s %8d conns, shards %d: %9d events, %7.1f ns/event, %6.1f B/event (%5.2f words), %.0f minor / %.0f major GCs\n"
      tag conns shards events (per ns) (per bytes)
      (per bytes /. 8.0)
      minor major;
    metric (tag ^ "_events") (float_of_int events);
    metric (tag ^ "_ns_per_event") (per ns);
    metric (tag ^ "_bytes_per_event") (per bytes);
    metric (tag ^ "_words_per_event") (per bytes /. 8.0);
    metric (tag ^ "_minor_gcs") minor;
    metric (tag ^ "_major_gcs") major;
    metric (tag ^ "_events_per_sec")
      (if r.Workload.wall_s > 0.0 then float_of_int events /. r.Workload.wall_s else 0.0);
    rep
  in
  let rep500 = profile "w500" 500 1 in
  ignore (profile "w500_s4" 500 4 : Smapp_obs.Prof.report);
  ignore (profile "w5000" 5000 1 : Smapp_obs.Prof.report);
  ignore (profile "w5000_s4" 5000 4 : Smapp_obs.Prof.report);
  (* per-class breakdown of the 500-conn sequential run: which event class
     owns the allocation budget *)
  Printf.printf "\n";
  List.iter
    (fun c ->
      let open Smapp_obs.Prof in
      if c.c_events > 0 then begin
        let slug = class_slug c.c_class in
        metric
          (Printf.sprintf "w500_%s_bytes_per_event" slug)
          (c.c_bytes /. float_of_int c.c_events);
        metric
          (Printf.sprintf "w500_%s_share" slug)
          (float_of_int c.c_events /. float_of_int rep500.p_events)
      end)
    rep500.Smapp_obs.Prof.p_classes;
  (* minor-heap sweep point: the --minor-heap knob at 8M words vs the
     default, same workload — records what GC sizing buys on this host *)
  let saved_gc = Gc.get () in
  Gc.set { saved_gc with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Fun.protect ~finally:(fun () -> Gc.set saved_gc) (fun () ->
      ignore (profile "w500_minor8m" 500 1 : Smapp_obs.Prof.report));
  print_string (Smapp_obs.Prof.render rep500);
  Smapp_obs.Prof.reset ()

(* ------------------------------------------------------- microbenchmarks *)

let microbench () =
  banner "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let netlink_msg =
    Smapp_core.Pm_msg.event_to_msg ~seq:42
      (Smapp_core.Pm_msg.Sub_estab
         {
           token = 0xDEADBEEF;
           sub_id = 3;
           flow =
             Smapp_netsim.Ip.flow
               ~src:(Smapp_netsim.Ip.endpoint (Smapp_netsim.Ip.v4 10 0 0 1) 43211)
               ~dst:(Smapp_netsim.Ip.endpoint (Smapp_netsim.Ip.v4 10 0 0 2) 80);
           backup = false;
         })
  in
  let encoded = Smapp_netlink.Wire.encode netlink_msg in
  let tests =
    [
      Test.make ~name:"netlink encode"
        (Staged.stage (fun () -> ignore (Smapp_netlink.Wire.encode netlink_msg)));
      Test.make ~name:"netlink decode"
        (Staged.stage (fun () -> ignore (Smapp_netlink.Wire.decode encoded)));
      Test.make ~name:"sha1 token"
        (Staged.stage (fun () -> ignore (Smapp_mptcp.Crypto.token 0x0123456789ABCDEFL)));
      Test.make ~name:"engine schedule+run 1k"
        (Staged.stage (fun () ->
             let open Smapp_sim in
             let e = Engine.create () in
             for i = 1 to 1000 do
               ignore (Engine.at e (Time.of_ns i) (fun () -> ()))
             done;
             Engine.run e));
      Test.make ~name:"tcp transfer 100KB (end-to-end)"
        (Staged.stage (fun () ->
             let open Smapp_sim in
             let open Smapp_netsim in
             let open Smapp_tcp in
             let engine = Engine.create ~seed:3 () in
             let d = Topology.direct_link engine ~rate_bps:100e6 () in
             let cstack = Stack.attach d.Topology.client in
             let sstack = Stack.attach d.Topology.server in
             Stack.listen sstack ~port:80 (fun _ ->
                 Some
                   {
                     Stack.acc_config = None;
                     acc_synack_options = [];
                     acc_callbacks = Tcb.null_callbacks;
                     acc_on_created = ignore;
                   });
             let cbs =
               {
                 Tcb.null_callbacks with
                 Tcb.on_established = (fun tcb -> Tcb.enqueue tcb ~dsn:0 ~len:100_000);
               }
             in
             let server_addr = List.hd (Host.addresses d.Topology.server) in
             let client_addr = List.hd (Host.addresses d.Topology.client) in
             ignore (Stack.connect cstack ~src:client_addr ~dst:(Ip.endpoint server_addr 80) cbs);
             Engine.run engine));
    ]
  in
  (* ns/op per test: an OLS fit of the monotonic clock against the run count *)
  List.iter
    (fun test ->
      let name = Test.Elt.name (List.hd (Test.elements test)) in
      let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock raw
      in
      Hashtbl.iter
        (fun _ v ->
          match Analyze.OLS.estimates v with
          | Some [ est ] -> Printf.printf "  %-36s %12.1f ns/op\n" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n" name)
        ols)
    tests

let run ~scale ~jobs pool =
  Printf.printf "SMAPP benchmark harness (%s scale)\n" (Registry.scale_name scale);
  List.iter
    (fun (e : Registry.t) ->
      section e.Registry.name (fun () ->
          let o = e.Registry.run ?pool (Registry.at_scale scale e.Registry.params) in
          print_newline ();
          print_string o.Registry.report;
          List.iter (fun (k, v) -> metric k v) o.Registry.metrics))
    Registry.all;
  section "chaos" (chaos scale pool);
  section "workload" (workload scale);
  section "shard" (shard_bench scale);
  section "par" (par_bench scale jobs);
  section "check" (check_overhead scale);
  section "obs" (obs_overhead scale);
  section "perf" (perf_bench scale);
  section "microbench" microbench;
  write_bench_json scale "BENCH.json";
  Printf.printf "\nDone.\n"
