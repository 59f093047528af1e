(* The hygiene and order rules, one binding per case: test_analysis
   asserts the exact key each flagged binding produces and that every
   clean binding produces none. Never called; module initialization
   allocates nothing. *)

module Seq32 = Smapp_tcp.Seq32

(* --- naked-failwith ---------------------------------------------------- *)

let fail_now () = failwith "boom"
let fail_piped x = x |> failwith
let unreachable () = assert false

(* an assertion on a real condition documents itself *)
let checked x = assert (x > 0)

(* --- naked-print ------------------------------------------------------- *)

let warn_stderr () = Printf.eprintf "oops %d" 3
let say_hi () = Printf.printf "hi"
let shout s = print_endline s
let shout_err s = s |> prerr_endline

(* building a string is not printing it *)
let render x = Printf.sprintf "%d" x

(* printing to a channel the caller handed over is deliberate *)
let row oc = Printf.fprintf oc "row\n"

(* Log is the sanctioned route *)
let slow () = Smapp_obs.Log.warn (fun () -> "slow")

(* --- hashtbl-order ----------------------------------------------------- *)

let visit t = Hashtbl.iter (fun _ _ -> ()) t
let gather t = Hashtbl.fold (fun _ v acc -> v :: acc) t []

(* the insertion-ordered replacement, and order-free lookups *)
let visit_ordered t = Smapp_sim.Otable.iter (fun _ _ -> ()) t
let lookup t k = Hashtbl.find_opt t k

(* --- poly-compare-seq -------------------------------------------------- *)

type hdr = { ack_seq : Seq32.t }

let ack_order a b = compare a.ack_seq b.ack_seq
let at_zero x = x = Seq32.zero
let before (x : Seq32.t) y = x < y

(* the module's own wrap-aware operations are the fix, not a finding *)
let seq_le a b = Seq32.le a b && Seq32.compare a b <= 0

(* comparisons not involving sequence numbers stay silent *)
type stat = { count : int; name : string }

let stat_order a b = a.count = b.count && compare a.name b.name < 0

(* --- a seeded violation in otherwise-clean code: both caught ------------ *)

type seg = { seq : Seq32.t }

let retry_all pending = Hashtbl.iter (fun _ p -> p ()) pending
let guard seg limit = seg.seq <= limit
