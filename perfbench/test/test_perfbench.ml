(* Self-tests of the benchmark's own code: ratio arithmetic, the
   behaviour digest's field coverage, the JSON output format, and that
   every named metric comes out of each leg for every workload. *)

open Perfbench
module Json = Smapp_stats.Json
module Workload = Smapp_workload.Workload

let finite x = Float.is_finite x

let test_div_zero () =
  Alcotest.(check (float 0.0)) "plain" 2.5 (Metric.div ~if_zero:9.0 5.0 2.0);
  Alcotest.(check (float 0.0)) "0/0" 1.0 (Metric.div ~if_zero:1.0 0.0 0.0);
  Alcotest.(check (float 0.0)) "n/0" 0.0 (Metric.div ~if_zero:0.0 7.0 0.0);
  Alcotest.(check (float 0.0)) "-0 denominator" 3.0 (Metric.div ~if_zero:3.0 7.0 (-0.0));
  List.iter
    (fun (n, d) -> Alcotest.(check bool) "finite" true (finite (Metric.div ~if_zero:0.0 n d)))
    [ (0.0, 0.0); (1.0, 0.0); (-1.0, 0.0); (1e300, 1e-300 *. 0.0) ]

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Metric.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Metric.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Metric.median: no samples") (fun () ->
      ignore (Metric.median []))

let base : Workload.result =
  {
    launched = 10;
    completed = 9;
    peak_concurrent = 4;
    bytes_total = 12345;
    fcts = [ 0.5; 1.25 ];
    goodputs = [ 1e6; 2e6 ];
    subflows_created = 3;
    failovers = 1;
    sim_duration_s = 4.75;
    wall_s = 0.125;
    engine_events = 1000;
    events_per_sec = 8000.0;
  }

(* One variant per field of [Workload.result]: the ones the digest must
   see and the three it must ignore. *)
let test_digest_coverage () =
  let d0 = Behaviour.digest base in
  let covered =
    [
      ("launched", { base with launched = 11 });
      ("completed", { base with completed = 8 });
      ("peak_concurrent", { base with peak_concurrent = 5 });
      ("bytes_total", { base with bytes_total = 12346 });
      ("fcts value", { base with fcts = [ 0.5; 1.2500000000000002 ] });
      ("fcts order", { base with fcts = [ 1.25; 0.5 ] });
      ("fcts length", { base with fcts = [ 0.5 ] });
      ("goodputs", { base with goodputs = [ 1e6; 2e6 +. 1.0 ] });
      ("subflows_created", { base with subflows_created = 4 });
      ("failovers", { base with failovers = 0 });
      ("sim_duration_s", { base with sim_duration_s = 4.7500001 });
    ]
  in
  List.iter
    (fun (field, r) ->
      Alcotest.(check bool) (field ^ " changes the digest") true (Behaviour.digest r <> d0))
    covered;
  let ignored =
    [
      ("wall_s", { base with wall_s = 99.0 });
      ("engine_events", { base with engine_events = 1 });
      ("events_per_sec", { base with events_per_sec = 1.0 });
    ]
  in
  List.iter
    (fun (field, r) -> Alcotest.(check string) (field ^ " is ignored") d0 (Behaviour.digest r))
    ignored;
  (* fcts and goodputs are separate lists: moving a value across must show *)
  Alcotest.(check bool) "list boundary" true
    (Behaviour.digest { base with fcts = [ 0.5; 1.25; 1e6 ]; goodputs = [ 2e6 ] } <> d0)

let outcome metrics = { Metric.correct = true; attempted = 8000; failed = 2; metrics }

let test_json_roundtrip () =
  let metrics =
    [
      Metric.make "setup_s" 0.000123456789012;
      Metric.make "run_s" 1.83253830612;
      Metric.make "retained_kb" 738.448;
      Metric.make "conns_completed_share" 0.99975;
      Metric.make "sim.events" 878749.0;
    ]
  in
  let text = Json.to_string (Metric.to_json (outcome metrics)) in
  Alcotest.(check bool) "one line" false (String.contains text '\n');
  match Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok json ->
      Alcotest.(check string) "fixpoint" text (Json.to_string json);
      Alcotest.(check (list string)) "keys"
        [ "correct"; "attempted"; "failed"; "metrics" ]
        (match json with Json.Obj kvs -> List.map fst kvs | _ -> []);
      Alcotest.(check bool) "correct" true (Json.member "correct" json = Some (Json.Bool true));
      Alcotest.(check bool) "attempted" true (Json.member "attempted" json = Some (Json.Int 8000));
      Alcotest.(check bool) "failed" true (Json.member "failed" json = Some (Json.Int 2));
      let ms = Option.get (Json.member "metrics" json) in
      List.iter
        (fun m ->
          let entry = Option.get (Json.member m.Metric.name ms) in
          let v = Option.get (Json.to_float_opt (Option.get (Json.member "value" entry))) in
          let eps = 1e-11 *. Float.abs m.Metric.value in
          Alcotest.(check (float eps)) m.Metric.name m.Metric.value v;
          Alcotest.(check bool) (m.Metric.name ^ " unit") true
            (Json.member "unit" entry = Some (Json.String m.Metric.unit)))
        metrics

(* BENCHMARK.json, which declares the benchmark's metrics, names the same
   metrics with the same units as the tables the legs emit from. *)
let test_benchmark_json () =
  match Json.of_file "../../BENCHMARK.json" with
  | Error e -> Alcotest.fail e
  | Ok json ->
      let pairs key =
        match Json.member key json with
        | Some (Json.List entries) ->
            List.map
              (fun e ->
                match (Json.member "name" e, Json.member "unit" e) with
                | Some (Json.String n), Some (Json.String u) -> (n, u)
                | _ -> Alcotest.fail ("malformed entry in " ^ key))
              entries
        | _ -> Alcotest.fail ("no list " ^ key)
      in
      let pairs_t = Alcotest.(list (pair string string)) in
      Alcotest.check pairs_t "end_to_end" Metric.end_to_end (pairs "end_to_end");
      Alcotest.check pairs_t "per_layer" Metric.per_layer (pairs "per_layer");
      let workloads =
        match Json.member "workloads" json with
        | Some (Json.List ws) ->
            List.filter_map
              (fun w -> match Json.member "name" w with Some (Json.String n) -> Some n | _ -> None)
              ws
        | _ -> []
      in
      Alcotest.(check (list string)) "workloads"
        (List.map (fun w -> w.Workloads.name) Workloads.all)
        workloads

(* Each workload's shape at a handful of connections, so both legs run in
   well under a second. Seed 7 has no recorded digest, so correctness
   rests on the digest agreeing across every run and the shard twin. *)
let tiny (w : Workloads.t) = { w with config = { w.config with conns = 12 } }
let seed = 7

let names_units metrics = List.map (fun m -> (m.Metric.name, m.Metric.unit)) metrics

let check_leg what expected (leg : Legs.leg) =
  let o = leg.Legs.outcome in
  let notes = String.concat "; " leg.Legs.notes in
  Alcotest.(check bool) (what ^ " correct: " ^ notes) true o.Metric.correct;
  Alcotest.(check (list (pair string string)))
    (what ^ " metrics") expected (names_units o.Metric.metrics);
  List.iter
    (fun m ->
      Alcotest.(check bool) (what ^ " " ^ m.Metric.name ^ " finite") true (finite m.Metric.value))
    o.Metric.metrics;
  Alcotest.(check bool) (what ^ " attempted") true (o.Metric.attempted >= 1)

let test_untraced_emits w () =
  let leg = Legs.untraced (tiny w) ~seed ~seconds:0.0 in
  check_leg "untraced" Metric.end_to_end leg

let test_traced_emits w () =
  let path = Printf.sprintf "spans-%s.json" w.Workloads.name in
  let leg = Legs.traced ~micro_scale:0.001 (tiny w) ~seed ~spans_path:path in
  check_leg "traced" Metric.per_layer leg;
  match Json.of_file path with
  | Error e -> Alcotest.fail e
  | Ok json ->
      let names =
        match Json.member "traceEvents" json with
        | Some (Json.List evs) ->
            List.filter_map
              (fun e -> match Json.member "name" e with Some (Json.String n) -> Some n | _ -> None)
              evs
        | _ -> []
      in
      List.iter
        (fun span -> Alcotest.(check bool) ("span " ^ span) true (List.mem span names))
        ([ "bench.setup"; "bench.simulate"; "bench.check"; "bench.compact" ]
        @ List.map (fun m -> "bench.micro:" ^ m.Micro.name) Micro.all)

let test_golden_mismatch () =
  (* at the recorded seed a tiny run cannot match the full-size digest *)
  let leg =
    Legs.untraced (tiny Workloads.bulk) ~seed:Workloads.golden_seed ~seconds:0.0
  in
  Alcotest.(check bool) "mismatch is incorrect" false leg.Legs.outcome.Metric.correct

let test_spans_nesting () =
  let s = Spans.create () in
  Spans.span s "outer" (fun () ->
      Spans.record s "inner" ~start_ns:(Clock.now_ns ()) ~end_ns:(Clock.now_ns ());
      Spans.span s "inner2" ignore);
  match Spans.to_json s with
  | Json.Obj [ ("traceEvents", Json.List evs) ] ->
      let field e k = Option.bind (Json.member "args" e) (Json.member k) in
      let names = List.map (fun e -> Json.member "name" e) evs in
      Alcotest.(check bool) "start order" true
        (names = List.map (fun n -> Some (Json.String n)) [ "outer"; "inner"; "inner2" ]);
      let outer = List.hd evs in
      Alcotest.(check bool) "outer at top" true (field outer "parent" = Some (Json.Int 0));
      List.iter
        (fun e -> Alcotest.(check bool) "child of outer" true (field e "parent" = field outer "id"))
        (List.tl evs)
  | _ -> Alcotest.fail "trace shape"

let () =
  let per_workload f =
    List.map (fun w -> Alcotest.test_case w.Workloads.name `Quick (f w)) Workloads.all
  in
  Alcotest.run "perfbench"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "div by zero" `Quick test_div_zero;
          Alcotest.test_case "median" `Quick test_median;
        ]
      );
      ("digest", [ Alcotest.test_case "field coverage" `Quick test_digest_coverage ]);
      ( "output",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
          Alcotest.test_case "spans nest" `Quick test_spans_nesting;
        ] );
      ("untraced emits", per_workload test_untraced_emits);
      ("traced emits", per_workload test_traced_emits);
      ("checks", [ Alcotest.test_case "golden mismatch" `Quick test_golden_mismatch ]);
    ]
