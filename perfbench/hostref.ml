(* The host's memory speed, as a yardstick for wall times.

   On a shared host the simulator's wall time swings by up to a fifth
   from run to run, and it swings with the memory system, not with the
   CPU: a pure arithmetic loop keeps its speed while a random walk over
   a large array slows down in step with the simulator. So the runner
   times a short fixed random walk right before every driver run, and
   the benchmark reports each pass's wall time rescaled by how much
   slower than nominal those walks ran. The walk is the benchmark's own
   code, identical on every commit, so a change to the simulator still
   moves the rescaled time one for one. *)

let words = 1 lsl 22  (* 32 MB of ints, outside the OCaml heap *)
let steps = 500_000

(* One walk's duration on an unloaded 2-core Xeon host, in seconds. *)
let nominal_s = 0.0075

let table = lazy (
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  Bigarray.Array1.fill a 0;
  a)

let walk_s () =
  let a = Lazy.force table in
  let t0 = Clock.now_ns () in
  let x = ref 12345 in
  for i = 1 to steps do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (words - 1) in
    Bigarray.Array1.unsafe_set a j (Bigarray.Array1.unsafe_get a j + i)
  done;
  Clock.seconds_since t0

(* [wall_s] rescaled by [walks] walks that took [walked_s] in all. *)
let rescale ~walks ~walked_s wall_s = wall_s *. float_of_int walks *. nominal_s /. walked_s
