open Smapp_sim
open Smapp_netsim
open Smapp_tcp
open Smapp_mptcp
module Wire = Smapp_netlink.Wire
module Pm_msg = Smapp_core.Pm_msg

type t = { name : string; ops : int; run : int -> unit }

let check what ok = if not ok then failwith ("micro: wrong output from " ^ what)

(* Events land at 1..1000 ns ahead in a scrambled order, so the wheel
   sees same-slot ties and out-of-order inserts like a datapath does. *)
let schedule_run =
  let fired = ref 0 in
  let tick () = incr fired in
  let run n =
    let engine = Engine.create () in
    fired := 0;
    let now = Engine.now engine in
    for i = 1 to n do
      Engine.schedule engine (Time.add now (Time.span_ns (1 + (i * 7919 mod 1000)))) tick
    done;
    Engine.run engine;
    Engine.retire engine;
    check "Engine.run" (!fired = n)
  in
  { name = "sim.micro_schedule_run"; ops = 200_000; run }

let flow =
  Ip.flow
    ~src:(Ip.endpoint (Ip.v4 10 1 0 1) 40000)
    ~dst:(Ip.endpoint (Ip.v4 10 2 0 1) 8080)

let segment_cycle =
  let run n =
    for i = 1 to n do
      let seg =
        Segment.stamp ~flow ~syn:false ~ack:true ~fin:false ~rst:false
          ~seq:(Seq32.of_int (i * 1448)) ~ack_seq:(Seq32.of_int 1) ~window:65535 ~sack:[]
          ~dsn:(i * 1448) ~len:1448 ~options:[]
      in
      Segment.release seg
    done
  in
  { name = "tcp.micro_segment_cycle"; ops = 500_000; run }

let event =
  Pm_msg.Sub_estab { token = 0x1234_5678; sub_id = 3; flow; backup = false }

let wire_roundtrip =
  let msg = Pm_msg.event_to_msg ~seq:7 event in
  let run n =
    for _ = 1 to n do
      match Wire.decode (Wire.encode msg) with
      | Ok m -> check "Wire.decode" (m.Wire.header.Wire.msg_type = msg.Wire.header.Wire.msg_type)
      | Error e -> failwith ("micro: Wire.decode: " ^ e)
    done
  in
  { name = "netlink.micro_wire_roundtrip"; ops = 100_000; run }

let pm_msg_roundtrip =
  let run n =
    for i = 1 to n do
      match Pm_msg.event_of_msg (Pm_msg.event_to_msg ~seq:i event) with
      | Ok (Pm_msg.Sub_estab { sub_id; _ }) -> check "Pm_msg.event_of_msg" (sub_id = 3)
      | Ok _ -> failwith "micro: Pm_msg.event_of_msg changed the event"
      | Error e -> failwith ("micro: Pm_msg.event_of_msg: " ^ e)
    done
  in
  { name = "core.micro_pm_msg_roundtrip"; ops = 100_000; run }

let token =
  let run n =
    let acc = ref 0 in
    for i = 1 to n do
      acc := !acc lxor Crypto.token (Int64.of_int i)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  { name = "mptcp.micro_token"; ops = 50_000; run }

let join_hmac =
  let run n =
    for i = 1 to n do
      let mac =
        Crypto.join_hmac ~local_key:(Int64.of_int i) ~remote_key:0x5eed_5eedL
          ~local_nonce:(Int64.of_int (i * 31)) ~remote_nonce:17L
      in
      check "Crypto.join_hmac" (String.length mac = 20)
    done
  in
  { name = "mptcp.micro_join_hmac"; ops = 20_000; run }

let all = [ schedule_run; segment_cycle; wire_roundtrip; pm_msg_roundtrip; token; join_hmac ]

let batches = 5

let measure ?(scale = 1.0) t =
  let n = max 1 (int_of_float (scale *. float_of_int t.ops)) in
  t.run n;
  let one () =
    let a0 = Gc.allocated_bytes () in
    let t0 = Clock.now_ns () in
    t.run n;
    let t1 = Clock.now_ns () in
    let a1 = Gc.allocated_bytes () in
    let per x = x /. float_of_int n in
    (per (Clock.seconds ~from:t0 ~until:t1 *. 1e9), per (a1 -. a0))
  in
  let samples = List.init batches (fun _ -> one ()) in
  let fastest = List.fold_left Float.min Float.infinity (List.map fst samples) in
  (fastest, Metric.median (List.map snd samples))
