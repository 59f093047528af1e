let reference_s = 0.1
let words = 1 lsl 21
let cells = lazy (Bigarray.Array1.create Bigarray.int Bigarray.c_layout words)

let pass (a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) r x =
  for i = 0 to words - 1 do
    let j = (i * 7919 + r) land (words - 1) in
    x := !x + Bigarray.Array1.unsafe_get a j;
    Bigarray.Array1.unsafe_set a i !x
  done

let probe () =
  let a = Lazy.force cells in
  let x = ref 0 in
  (* untimed: bring the array back into cache whatever the run before it
     evicted, so the probe does not depend on the program's footprint *)
  pass a 0 x;
  let t0 = Clock.now_ns () in
  for r = 1 to 6 do
    pass a r x
  done;
  let acc = ref !x in
  for i = 1 to 6_000_000 do
    acc := (!acc * 31 + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity !acc);
  Clock.since t0

let around f =
  let before = probe () in
  let r = f () in
  let after = probe () in
  (r, reference_s /. ((before +. after) /. 2.0))
