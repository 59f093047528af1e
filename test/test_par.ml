(* Tests for Smapp_par: pool lifecycle, ordered deterministic merge,
   exception propagation, nested-round rejection, Ctx scope isolation, and
   the property the experiment sweeps lean on — [Sweep.map] over a [Lanes]
   pool agrees with [List.map] on every input. *)

module Lanes = Smapp_par.Lanes
module Ctx = Smapp_par.Ctx
module Sweep = Smapp_par.Sweep
module Metrics = Smapp_obs.Metrics
module Trace = Smapp_obs.Trace

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let check_ints = Alcotest.check (Alcotest.list Alcotest.int)

(* === lifecycle =============================================================== *)

let test_create () =
  let p = Lanes.create ~domains:3 in
  checki "domains" 3 (Lanes.domains p);
  checkb "fresh pool is live" false (Lanes.is_shut_down p);
  Lanes.shutdown p;
  Alcotest.check_raises "domains must be >= 1"
    (Invalid_argument "Smapp_par.Lanes.create: domains must be >= 1") (fun () ->
      ignore (Lanes.create ~domains:0))

let test_shutdown () =
  let p = Lanes.create ~domains:2 in
  Lanes.shutdown p;
  checkb "shut down" true (Lanes.is_shut_down p);
  Lanes.shutdown p;
  (* idempotent *)
  checkb "still shut down" true (Lanes.is_shut_down p);
  Alcotest.check_raises "map after shutdown raises"
    (Invalid_argument "Smapp_par.Lanes.run: pool is shut down") (fun () ->
      ignore (Sweep.map ~pool:p (fun x -> x) [ 1; 2; 3 ]))

(* === ordered merge =========================================================== *)

let test_ordered_merge () =
  let p = Lanes.create ~domains:4 in
  let xs = List.init 37 (fun i -> i) in
  check_ints "results in submission order" (List.map (fun i -> i * i) xs)
    (Sweep.map ~pool:p (fun i -> i * i) xs);
  check_ints "empty input" [] (Sweep.map ~pool:p (fun i -> i) []);
  check_ints "fewer jobs than lanes" [ 10 ] (Sweep.map ~pool:p (fun i -> i * 10) [ 1 ]);
  Lanes.shutdown p

let test_single_domain_pool () =
  (* domains:1 degenerates to the caller walking the list — still ordered *)
  let p = Lanes.create ~domains:1 in
  check_ints "single lane" [ 2; 4; 6 ] (Sweep.map ~pool:p (fun i -> 2 * i) [ 1; 2; 3 ]);
  Lanes.shutdown p

(* === exception propagation =================================================== *)

exception Boom of int

let test_exception_propagation () =
  let p = Lanes.create ~domains:4 in
  (* jobs 3 and 9 both fail on different lanes: the lowest submission
     index must win, deterministically *)
  (match Sweep.map ~pool:p (fun i -> if i = 3 || i = 9 then raise (Boom i) else i)
           (List.init 12 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> checki "first failure by submission index" 3 i);
  (* the pool survives a failed map *)
  check_ints "pool usable after failure" [ 0; 1 ] (Sweep.map ~pool:p (fun i -> i) [ 0; 1 ]);
  Lanes.shutdown p

let test_nested_map_rejected () =
  let p = Lanes.create ~domains:2 in
  (match Sweep.map ~pool:p (fun i -> Sweep.map ~pool:p (fun x -> x) [ i ]) [ 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "expected nested map to be rejected"
  | exception Invalid_argument msg ->
      checkb "nested rejection message"
        true
        (msg = "Smapp_par.Lanes.run: nested parallel round"));
  (* the guard is per round, not sticky: the pool still maps afterwards *)
  check_ints "pool usable after rejection" [ 1 ] (Sweep.map ~pool:p (fun i -> i) [ 1 ]);
  Lanes.shutdown p

(* === ctx isolation =========================================================== *)

let test_ctx_isolates_obs () =
  let saved = Atomic.get Metrics.enabled in
  Atomic.set Metrics.enabled true;
  Fun.protect
    ~finally:(fun () -> Atomic.set Metrics.enabled saved)
    (fun () ->
      let c = Metrics.counter "t_par_ctx_total" in
      Metrics.incr c;
      let inside =
        Ctx.run (Ctx.create ()) (fun () ->
            (* fresh scope: the counter reads 0 here, and increments stay
               behind when the capsule is discarded *)
            let before = Metrics.value c in
            Metrics.add c 100;
            (before, Metrics.value c))
      in
      checkb "capsule starts clean" true (fst inside = 0);
      checkb "capsule sees its own writes" true (snd inside = 100);
      checki "caller scope untouched" 1 (Metrics.value c))

let test_sweep_matches_list_map () =
  let p = Lanes.create ~domains:3 in
  let f i = (i, i * 7) in
  let xs = List.init 23 (fun i -> i) in
  checkb "Sweep.map ?pool:None is List.map" true (Sweep.map f xs = List.map f xs);
  checkb "pooled sweep agrees" true (Sweep.map ~pool:p f xs = List.map f xs);
  Lanes.shutdown p

(* === property: Sweep.map over Lanes = List.map =============================== *)

let prop_map_agrees =
  QCheck.Test.make ~count:200 ~name:"Sweep.map agrees with List.map"
    QCheck.(pair (int_range 1 6) (small_list int))
    (fun (domains, xs) ->
      let p = Lanes.create ~domains in
      let f x = (2 * x) + 1 in
      let r = Sweep.map ~pool:p f xs = List.map f xs in
      Lanes.shutdown p;
      r)

let () =
  Alcotest.run "smapp_par"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
        ] );
      ( "map",
        [
          Alcotest.test_case "ordered merge" `Quick test_ordered_merge;
          Alcotest.test_case "single domain" `Quick test_single_domain_pool;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "nested map rejected" `Quick test_nested_map_rejected;
        ] );
      ( "ctx",
        [
          Alcotest.test_case "scope isolation" `Quick test_ctx_isolates_obs;
          Alcotest.test_case "sweep = list map" `Quick test_sweep_matches_list_map;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest ~long:false prop_map_agrees ] );
    ]
