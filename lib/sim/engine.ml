module Obs = Mb_obs.Recorder
module Eq = Event_queue

type pid = int

(* Pending events live in one {!Event_queue}, ordered by (time key,
   packed tie-break). The tie-break carries a global sequence number in
   its high bits, so equal times fire in scheduling order. The engine
   stores each event's payload — a bare continuation for a suspended
   process, a thunk for [at]/[spawn] — in its own arena and files only a
   small integer in the tie-break's low [vbits] bits:

       v = (arena slot lsl 1) lor tag      tag 1 = thunk, 0 = continuation

   The [Obj.t] arena replaces the old two-word [Thunk]/[Resume] variant
   around every event: the hot Delay path now allocates nothing beyond
   the runtime's continuation, and its only barriered store is parking
   the payload in its slot. The tag bit keeps the decode honest — it is
   the single source of truth for what each slot holds, and the only
   two writers ([at]/[spawn] vs the Delay/Park handlers) each stamp
   their own kind. *)

(* Low bits of the tie-break carry the payload value; the sequence
   number gets the 63 - vbits = 42 bits above — engine lifetimes are
   nowhere near either bound. *)
let vbits = 21
let v_mask = (1 lsl vbits) - 1

(* 2^slot_bits bounds the number of *pending* events. slot_bits + 1
   (the tag) must stay <= vbits. *)
let slot_bits = 20
let max_slots = 1 lsl slot_bits

(* A single-float record: all-float records store their fields
   unboxed, so writing one allocates nothing — a [float] argument or
   return crossing a non-inlined call would be boxed. *)
type cell = { mutable cell_time : float }

type t = {
  clock : cell;  (* all-float cell: advancing the clock never boxes *)
  scratch : cell;  (* resume-time scratch for the Delay hot path *)
  queue : Eq.t;
  (* Key of the queue head, [max_int] when empty: the delay fast path
     compares against it with no emptiness branch. *)
  mutable head_key : int;
  mutable next_seq : int;  (* also the number of pushes so far *)
  (* Event payload arena + free-list stack: popped slots are not
     cleared — the write costs more than the bounded retention it
     avoids — and are reused by the next push. *)
  mutable slots : Obj.t array;
  mutable free : int array;
  mutable free_top : int;
  mutable next_pid : int;
  mutable live : int;
  (* Processes currently suspended, indexed by pid: a flat array beats a
     Hashtbl on the park/resume hot path (no hashing, no bucket walk). *)
  mutable parked : bool array;
  mutable parked_count : int;
  (* Process names, indexed by pid; "" means "never named", and the
     default "proc-<pid>" is materialized only when something actually
     needs the string (a trace lane, an error message) — unobserved runs
     skip the Printf entirely. *)
  mutable names : string array;
  (* Wait-for bookkeeping, indexed by pid and meaningful only while
     parked: what the process is waiting for (free-form, set by the
     layer that parked it) and which pid it waits on (-1 when the
     target is not a process, e.g. a cpu). Feeds the structured
     [Stalled] report; costs one store per park on layers that opt in. *)
  mutable whys : string array;
  mutable waits : int array;
  (* Hand-off slot between [effc] and the preallocated Park handler
     closure (see [start]); holds [no_register] outside a perform. *)
  mutable pending_register : (unit -> unit) -> unit;
  obs : Obs.t;  (* trace sink; Obs.null unless the run is observed *)
}

let no_register : (unit -> unit) -> unit = fun _ -> ()

type waiter = {
  wpid : pid;
  wname : string;
  wwhy : string;
  wwaits_on : pid;
}

type stall = {
  waiters : waiter list;
  cycle : waiter list;
}

exception Stalled of stall

let stall_message st =
  let b = Buffer.create 256 in
  Printf.bprintf b "simulation stalled: %d process(es) parked with no runnable event"
    (List.length st.waiters);
  List.iter
    (fun w ->
      Printf.bprintf b "\n  %s (pid %d): %s" w.wname w.wpid w.wwhy;
      if w.wwaits_on >= 0 then Printf.bprintf b " [waits on pid %d]" w.wwaits_on)
    st.waiters;
  (match st.cycle with
  | [] -> ()
  | first :: _ as c ->
      Printf.bprintf b "\n  deadlock cycle: %s"
        (String.concat " -> " (List.map (fun w -> w.wname) c @ [ first.wname ])));
  Buffer.contents b

let () =
  Printexc.register_printer (function
    | Stalled st -> Some ("Engine.Stalled: " ^ stall_message st)
    | _ -> None)

type _ Effect.t += Delay : float -> unit Effect.t
type _ Effect.t += Park : ((unit -> unit) -> unit) -> unit Effect.t

(* Constant-constructor twin of [Delay]: the duration travels through
   the engine's [scratch] cell instead of the effect value, so a
   perform allocates no effect block and no float box. This is the
   machine layer's hot path — see [delay_cell]/[delay_pending]. *)
type _ Effect.t += Tick : unit Effect.t

(* Constant-constructor twin of [Park] for engine-level pollers: the
   register callback travels through [pending_register] (a store, not
   an effect-block allocation), and the handler does none of Park's
   bookkeeping — no parked flags, no trace instants. The resume it
   hands out re-enters the process with a direct [continue], so it must
   be called exactly once, from an event context (a queued thunk). *)
type _ Effect.t += Suspend : unit Effect.t

let create ?(obs = Obs.null) () =
  { clock = { cell_time = 0. };
    scratch = { cell_time = 0. };
    queue = Eq.create ();
    head_key = max_int;
    next_seq = 0;
    slots = [||];
    free = [||];
    free_top = 0;
    next_pid = 0;
    live = 0;
    parked = Array.make 16 false;
    parked_count = 0;
    names = Array.make 16 "";
    whys = Array.make 16 "";
    waits = Array.make 16 (-1);
    pending_register = no_register;
    obs;
  }

let observer t = t.obs

let now t = t.clock.cell_time

let name_of t pid =
  let n = t.names.(pid) in
  if n = "" then Printf.sprintf "proc-%d" pid else n

(* --- event payload arena ---------------------------------------------- *)

let grow_arena t =
  let cap = Array.length t.slots in
  let ncap = if cap = 0 then 16 else 2 * cap in
  if ncap > max_slots then invalid_arg "Engine: too many pending events";
  let nslots = Array.make ncap (Obj.repr 0) in
  Array.blit t.slots 0 nslots 0 cap;
  (* Every slot below cap is live or on the free stack, so the fresh
     slots cap .. ncap-1 extend the surviving free stack. *)
  let nfree = Array.make ncap 0 in
  Array.blit t.free 0 nfree 0 t.free_top;
  for s = cap to ncap - 1 do
    nfree.(t.free_top + s - cap) <- s
  done;
  t.slots <- nslots;
  t.free <- nfree;
  t.free_top <- t.free_top + (ncap - cap)

let alloc_slot t payload =
  if t.free_top = 0 then grow_arena t;
  let ft = t.free_top - 1 in
  t.free_top <- ft;
  let slot = Array.unsafe_get t.free ft in
  Array.unsafe_set t.slots slot payload;
  slot

(* --- event queue ------------------------------------------------------ *)

(* One push per simulated event: the queue's record is exposed so the
   ring fast-path test and all bookkeeping are direct field accesses,
   with a single call into {!Event_queue} to do the actual insert.
   Head maintenance is analytic — the sequence counter makes the fresh
   tie-break strictly greater than every one already queued, so the new
   item is the head iff [key < head_key]; no peek needed. *)
let push_key t key v =
  let q = t.queue in
  let pk = (t.next_seq lsl vbits) lor v in
  t.next_seq <- t.next_seq + 1;
  if key < q.Eq.gate || (q.Eq.hsize = 0 && q.Eq.rsize < Eq.ring_target) then begin
    q.Eq.ring_hits <- q.Eq.ring_hits + 1;
    Eq.ring_insert q key pk
  end
  else Eq.push_overflow q key pk;
  if key < t.head_key then t.head_key <- key

(* The key conversion is spelled out here rather than calling
   {!Event_queue.key_of_time}: a float crossing a non-inlined call
   boundary is boxed, and this is one push per simulated event. *)
let push_cell t cell v =
  push_key t (Int64.to_int (Int64.bits_of_float cell.cell_time) lxor min_int) v

(* Remove the head: write its time into the clock (an unboxed store —
   a float returned from a non-inlined helper would be boxed first) and
   return its payload value. The head of a non-empty queue always sits
   in the ring ([refill] restores that whenever the ring drains), so
   retiring it and reading the next head are plain field/array
   accesses. Precondition: not empty. *)
let pop t =
  t.clock.cell_time <-
    Int64.float_of_bits (Int64.logand (Int64.of_int (t.head_key lxor min_int)) 0x7FFF_FFFF_FFFF_FFFFL);
  let q = t.queue in
  let h = q.Eq.rhead in
  let v = Array.unsafe_get q.Eq.rpks h land v_mask in
  let rsize = q.Eq.rsize - 1 in
  q.Eq.rhead <- (h + 1) land (Array.length q.Eq.rkeys - 1);
  q.Eq.rsize <- rsize;
  if rsize = 0 && q.Eq.hsize > 0 then Eq.refill q;
  t.head_key <- (if q.Eq.rsize = 0 then max_int else Array.unsafe_get q.Eq.rkeys q.Eq.rhead);
  v

(* --- scheduling entry points ------------------------------------------ *)

let at t time thunk =
  if not (time >= t.clock.cell_time) then invalid_arg "Engine.at: time in the past or NaN";
  let slot = alloc_slot t (Obj.repr (thunk : unit -> unit)) in
  push_key t (Int64.to_int (Int64.bits_of_float time) lxor min_int) ((slot lsl 1) lor 1)

(* Cancellation is lazy: the event stays queued and checks its armed
   flag when it fires, so cancelling is O(1) and the queue never
   learns about removal. The closure pair costs two small allocations —
   cancellable timers are cold compared to delays. *)
let at_cancel t time thunk =
  let armed = ref true in
  at t time (fun () -> if !armed then thunk ());
  fun () -> armed := false

let delay d = Effect.perform (Delay d)

let delay_cell t = t.scratch

(* Immediate-resume fast path: if the delayed process would be the next
   event popped anyway — its wake-up time is strictly earlier than
   everything queued — the suspend/enqueue/pop/resume round trip is pure
   overhead: nothing else runs in between and no per-event observation
   exists, so advancing the clock and returning is observationally
   identical (a tie must go through the queue: the queued event's lower
   sequence number wins FIFO order). Skipping the push leaves sequence
   numbers smaller than they would have been, which is invisible — seqs
   only order events relative to each other and stay monotonic. This
   skips the effect perform and the runtime's continuation capture, by
   far the most expensive parts of a simulated delay.

   The comparison runs on integer time keys: the key image of floats
   is strictly monotone (see {!Event_queue.key_of_time}), [head_key]
   is already a key, and [max_int] — the empty sentinel — is above
   every real key, so one branchless int compare covers the empty-queue
   case too. *)
let delay_pending t =
  let clock = t.clock.cell_time in
  let nt = clock +. t.scratch.cell_time in
  let key = Int64.to_int (Int64.bits_of_float nt) lxor min_int in
  if key < t.head_key then begin
    if not (nt >= clock) then invalid_arg "Engine.delay: negative delay or NaN";
    t.clock.cell_time <- nt
  end
  else Effect.perform Tick

let park register = Effect.perform (Park register)

let suspend t register =
  t.pending_register <- register;
  Effect.perform Suspend

(* [at] relative to now, with the duration taken from the scratch cell:
   the caller stores it there (an unboxed float write) so none crosses
   the call boundary boxed. Built for self-re-arming poller thunks (see
   [suspend]); the duration must be non-negative — pollers step time
   forward by construction, so no past check on this path. *)
let after_pending t thunk =
  t.scratch.cell_time <- t.clock.cell_time +. t.scratch.cell_time;
  let slot = alloc_slot t (Obj.repr (thunk : unit -> unit)) in
  push_cell t t.scratch ((slot lsl 1) lor 1)

let yield () = delay 0.

let set_parked t pid =
  if not t.parked.(pid) then begin
    t.parked_count <- t.parked_count + 1;
    t.parked.(pid) <- true
  end

let clear_parked t pid =
  if t.parked.(pid) then begin
    t.parked.(pid) <- false;
    t.parked_count <- t.parked_count - 1;
    t.whys.(pid) <- "";
    t.waits.(pid) <- -1
  end

let set_wait t pid ~why ~waits_on =
  t.whys.(pid) <- why;
  t.waits.(pid) <- waits_on

(* Run one step of a process body under the engine's effect handler. The
   handler is installed once per process; continuations captured by Delay
   and Park re-enter it automatically (deep handlers).

   Allocation discipline: a simulated thread performs Delay on every
   work item and memory access, so the per-perform cost here is the
   hottest path in the whole simulator. The [effc] callback therefore
   returns closures preallocated once per process ([on_delay]/[on_park]
   below) instead of building a [Some (fun k -> ...)] per perform; the
   effect's payload is handed from [effc] to the closure through the
   engine's unboxed [scratch] cell ([Delay]) or the [pending_register]
   field ([Park]) — both stores, not allocations. A Delay perform thus
   allocates only the effect value itself and the runtime's
   continuation; the continuation is filed in the event arena with no
   wrapper. *)
let start t pid body =
  let open Effect.Deep in
  let finish () =
    t.live <- t.live - 1;
    clear_parked t pid;
    if Obs.tracing t.obs then
      Obs.instant t.obs ~lane:pid ~name:"exit" ~ts_ns:t.clock.cell_time ()
  in
  let on_delay : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        (* scratch already holds clock + d (written by effc below). *)
        if not (t.scratch.cell_time >= t.clock.cell_time) then
          discontinue k (Invalid_argument "Engine.delay: negative delay or NaN")
        else begin
          let slot = alloc_slot t (Obj.repr k) in
          push_cell t t.scratch (slot lsl 1)
        end)
  in
  let on_park : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        let register = t.pending_register in
        t.pending_register <- no_register;
        set_parked t pid;
        if Obs.tracing t.obs then
          Obs.instant t.obs ~lane:pid ~name:"park" ~ts_ns:t.clock.cell_time ();
        let resumed = ref false in
        let resume () =
          if !resumed then
            invalid_arg (Printf.sprintf "Engine: process %s resumed twice" (name_of t pid));
          resumed := true;
          clear_parked t pid;
          if Obs.tracing t.obs then
            Obs.instant t.obs ~lane:pid ~name:"unpark" ~ts_ns:t.clock.cell_time ();
          let slot = alloc_slot t (Obj.repr k) in
          push_cell t t.clock (slot lsl 1)
        in
        register resume)
  in
  let on_suspend : ((unit, unit) continuation -> unit) option =
    Some
      (fun k ->
        (* Park minus all bookkeeping: the process is only ever gone
           for the lifetime of its own pending poller events, so the
           stall/trace machinery never needs to know. *)
        let register = t.pending_register in
        t.pending_register <- no_register;
        register (fun () -> Effect.Deep.continue k ()))
  in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    fun eff ->
     match eff with
     | Tick ->
         (* scratch holds the duration, written by the performer. *)
         t.scratch.cell_time <- t.clock.cell_time +. t.scratch.cell_time;
         on_delay
     | Delay d ->
         t.scratch.cell_time <- t.clock.cell_time +. d;
         on_delay
     | Park register ->
         t.pending_register <- register;
         on_park
     | Suspend -> on_suspend
     | _ -> None
  in
  match_with
    (fun () ->
      body ();
      finish ())
    ()
    { retc = (fun () -> ());
      exnc =
        (fun e ->
          let bt = Printexc.get_raw_backtrace () in
          finish ();
          Printexc.raise_with_backtrace e bt);
      effc
    }

let spawn t ?name body =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let cap = Array.length t.parked in
  if pid >= cap then begin
    let ncap = max (pid + 1) (2 * cap) in
    let nparked = Array.make ncap false in
    Array.blit t.parked 0 nparked 0 cap;
    t.parked <- nparked;
    let nnames = Array.make ncap "" in
    Array.blit t.names 0 nnames 0 cap;
    t.names <- nnames;
    let nwhys = Array.make ncap "" in
    Array.blit t.whys 0 nwhys 0 cap;
    t.whys <- nwhys;
    let nwaits = Array.make ncap (-1) in
    Array.blit t.waits 0 nwaits 0 cap;
    t.waits <- nwaits
  end;
  (match name with Some n -> t.names.(pid) <- n | None -> ());
  t.live <- t.live + 1;
  if Obs.tracing t.obs then begin
    Obs.set_lane t.obs pid (name_of t pid);
    Obs.instant t.obs ~lane:pid ~name:"spawn" ~ts_ns:t.clock.cell_time ()
  end;
  at t t.clock.cell_time (fun () -> start t pid body);
  pid

(* Build the structured stall report: every parked process with its
   recorded reason, plus one cycle of the wait-for graph if there is
   one. The graph has out-degree <= 1 (each parked process waits on at
   most one pid), so a stamped walk from each unvisited node finds a
   cycle in linear time: revisiting a node carrying the current walk's
   stamp means the chain bit its own tail. *)
let stall_report t =
  let n = Array.length t.parked in
  let waiter_of pid =
    { wpid = pid;
      wname = name_of t pid;
      wwhy = (let w = t.whys.(pid) in if w = "" then "parked" else w);
      wwaits_on = t.waits.(pid);
    }
  in
  let waiters = ref [] in
  for pid = n - 1 downto 0 do
    if t.parked.(pid) then waiters := waiter_of pid :: !waiters
  done;
  let mark = Array.make n 0 in
  let stamp = ref 0 in
  let cycle = ref [] in
  List.iter
    (fun w ->
      if !cycle = [] && mark.(w.wpid) = 0 then begin
        incr stamp;
        let s = !stamp in
        let rec walk pid =
          if pid >= 0 && pid < n && t.parked.(pid) then begin
            if mark.(pid) = s then begin
              (* [pid] starts the cycle: follow the chain back around. *)
              let rec collect p acc =
                let acc = waiter_of p :: acc in
                let next = t.waits.(p) in
                if next = pid then List.rev acc else collect next acc
              in
              cycle := collect pid []
            end
            else if mark.(pid) = 0 then begin
              mark.(pid) <- s;
              walk t.waits.(pid)
            end
            (* A positive foreign stamp means this chain merges into one
               already explored without finding a cycle: stop. *)
          end
        in
        walk w.wpid
      end)
    !waiters;
  { waiters = !waiters; cycle = !cycle }

(* Run one decoded event: the value carries (arena slot, tag); the slot
   returns to the free stack before the payload runs, so the event's
   own pushes can reuse it. *)
let[@inline] exec_event t v =
  let slot = v lsr 1 in
  let payload = Array.unsafe_get t.slots slot in
  Array.unsafe_set t.free t.free_top slot;
  t.free_top <- t.free_top + 1;
  if v land 1 = 0 then
    Effect.Deep.continue (Obj.obj payload : (unit, unit) Effect.Deep.continuation) ()
  else (Obj.obj payload : unit -> unit) ()

let run t =
  let rec loop () =
    if t.queue.Eq.rsize = 0 then begin
      if t.parked_count > 0 then raise (Stalled (stall_report t))
    end
    else begin
      exec_event t (pop t);
      loop ()
    end
  in
  loop ()

let live t = t.live

(* Snapshot scheduler counters into the recorder — called by the layer
   that owns the run (Machine.flush_observations), mirroring its
   discipline: everything here is maintained by the simulation anyway,
   so metering adds no hot-path cost. The names predate the single
   queue and are kept so existing consumers keep reading them. *)
let flush_observations t =
  if Obs.metering t.obs then begin
    Obs.set t.obs "sched.shard.pushes" t.next_seq;
    Obs.set t.obs "sched.shard.ring_hits" (Eq.ring_hits t.queue);
    (* No wheel levels remain; perfbench still reads this counter. *)
    Obs.set t.obs "sched.shard.wheel_hits" 0;
    Obs.set t.obs "sched.shard.heap_spills" (Eq.heap_spills t.queue)
  end
