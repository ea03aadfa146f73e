(* Microkernels that drive one layer's public functions directly, sized
   after a cell: the engine with as many delaying fibers as the cell has
   simulated threads, and a machine mutex on the cell's machine, once
   uncontended and once handed between two threads. Each returns host
   ns per operation, the median of [repeats] timings. *)

module E = Core.Engine
module M = Core.Machine

let repeats = 5

let timed_ns f =
  let t0 = Clock.now_ns () in
  f ();
  float_of_int (Clock.now_ns () - t0)

(* Fibers delay by different amounts so their events interleave in the
   queue the way a cell's threads do. *)
let engine_ns_per_event ~fibers ~events =
  let per = max 1 (events / fibers) in
  let once () =
    let e = E.create () in
    for i = 0 to fibers - 1 do
      let step = float_of_int (1 + (i mod 7)) in
      ignore
        (E.spawn e (fun () ->
             for _ = 1 to per do
               E.delay step
             done)
          : E.pid)
    done;
    timed_ns (fun () -> E.run e) /. float_of_int (per * fibers)
  in
  Report.median (List.init repeats (fun _ -> once ()))

(* [hold] cycles of work inside the critical section and a tenth of it
   outside; two threads with a long hold keep the mutex contended. *)
let mutex_run config ~threads ~per_thread ~hold =
  let m = M.create ~seed:1 config in
  let proc = M.create_proc m ~name:"probe" () in
  let mu = M.Mutex.create m ~name:"probe" () in
  for _ = 1 to threads do
    ignore
      (M.spawn proc (fun ctx ->
           for _ = 1 to per_thread do
             M.Mutex.lock mu ctx;
             if hold > 0 then M.work ctx hold;
             M.Mutex.unlock mu ctx;
             if hold > 0 then M.work ctx (hold / 10)
           done)
        : M.thread)
  done;
  timed_ns (fun () -> M.run m) /. float_of_int (threads * per_thread)

(* Host ns per lock/unlock pair by one thread (never contended). *)
let ns_per_lock config ~ops =
  Report.median (List.init repeats (fun _ -> mutex_run config ~threads:1 ~per_thread:ops ~hold:0))

(* Host ns per acquisition with two threads contending for the mutex. *)
let ns_per_handoff config ~ops =
  Report.median (List.init repeats (fun _ -> mutex_run config ~threads:2 ~per_thread:(ops / 2) ~hold:400))

type t = { engine_ns : float; lock_ns : float; handoff_ns : float }

(* All three probes, sized and configured after one cell. *)
let for_cell (c : Cells.cell) =
  { engine_ns = engine_ns_per_event ~fibers:c.Cells.threads ~events:200_000;
    lock_ns = ns_per_lock c.Cells.machine ~ops:50_000;
    handoff_ns = ns_per_handoff c.Cells.machine ~ops:50_000;
  }
