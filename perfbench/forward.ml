(* Allocator timing from outside the allocator.

   A simulated allocator call may suspend the calling simulated thread
   (a lock wait, a modelled delay), and while it is suspended the engine
   runs other threads' host code. To bill a call only for its own host
   work, every call runs under a deep effect handler that re-performs
   each effect to the engine unchanged and stops the host clock and the
   [Gc.minor_words] count until the engine resumes it. Re-performing
   leaves the engine's view of the thread untouched, so the schedule --
   and every simulated result -- is the same as an unwrapped run. *)

open Effect.Deep
module M = Core.Machine
module A = Core.Allocator

(* Per-op totals. All-float, so updates are unboxed stores. *)
type acc = {
  mutable calls : float;
  mutable self_ns : float;  (* host time with suspensions removed *)
  mutable words : float;    (* host minor words with suspensions removed *)
  mutable sim_ns : float;   (* simulated latency, lock waits included *)
}

let acc () = { calls = 0.; self_ns = 0.; words = 0.; sim_ns = 0. }

let add_into ~into a =
  into.calls <- into.calls +. a.calls;
  into.self_ns <- into.self_ns +. a.self_ns;
  into.words <- into.words +. a.words;
  into.sim_ns <- into.sim_ns +. a.sim_ns

(* One call's suspension bookkeeping. A call suspends at most once at a
   time, so one [since] pair is enough. *)
type pause = {
  mutable paused_ns : float;
  mutable paused_words : float;
  mutable since_ns : float;
  mutable since_words : float;
}

let resumed p =
  p.paused_ns <- p.paused_ns +. (float_of_int (Clock.now_ns ()) -. p.since_ns);
  p.paused_words <- p.paused_words +. (Gc.minor_words () -. p.since_words)

let timed (acc : acc) (f : M.ctx -> 'a -> 'b) (ctx : M.ctx) (x : 'a) : 'b =
  let p = { paused_ns = 0.; paused_words = 0.; since_ns = 0.; since_words = 0. } in
  let body () = f ctx x in
  let handler =
    { retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type c) (eff : c Effect.t) ->
          (* Stop the meters before allocating the continuation closure. *)
          p.since_ns <- float_of_int (Clock.now_ns ());
          p.since_words <- Gc.minor_words ();
          Some
            (fun (k : (c, _) continuation) ->
              match Effect.perform eff with
              | v ->
                  resumed p;
                  continue k v
              | exception e ->
                  resumed p;
                  discontinue k e));
    }
  in
  let sim0 = M.now ctx in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let result = match_with body () handler in
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  acc.calls <- acc.calls +. 1.;
  acc.self_ns <- acc.self_ns +. (float_of_int (t1 - t0) -. p.paused_ns);
  acc.words <- acc.words +. (w1 -. w0 -. p.paused_words);
  acc.sim_ns <- acc.sim_ns +. (M.now ctx -. sim0);
  result

(* The two entry points every allocator has; calloc, realloc and the
   aligned calls are built on them and so are billed through them. *)
type ops = { malloc : acc; free : acc }

let ops () = { malloc = acc (); free = acc () }

(* Both ops of every cell in one total. *)
let merged (os : ops list) =
  let a = acc () in
  List.iter
    (fun o ->
      add_into ~into:a o.malloc;
      add_into ~into:a o.free)
    os;
  a

let wrap (o : ops) (a : A.t) =
  { a with
    A.malloc = (fun ctx n -> timed o.malloc a.A.malloc ctx n);
    free = (fun ctx addr -> timed o.free a.A.free ctx addr);
  }

(* The wrapper's own cost per call -- handler set-up and the clock
   reads -- measured around a call that does nothing, so it can be
   subtracted from the allocator's bill. *)
let overhead ~calls =
  let a = acc () in
  let m = M.create ~seed:1 Core.Configs.uni_k6 in
  let proc = M.create_proc m () in
  ignore
    (M.spawn proc (fun ctx ->
         for i = 1 to calls do
           ignore (timed a (fun _ n -> n) ctx i : int)
         done)
      : M.thread);
  M.run m;
  (a.self_ns /. a.calls, a.words /. a.calls)
