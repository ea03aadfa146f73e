(* Tests for the SMP machine: scheduling, mutexes, paging charges. *)

module M = Core.Machine

let two_cpu = { M.default_config with M.cpus = 2; op_jitter = 0. }

let uni = { M.default_config with M.cpus = 1; op_jitter = 0. }

let run_workers ?(config = two_cpu) ?(seed = 1) n body =
  let m = M.create ~seed config in
  let p = M.create_proc m ~name:"t" () in
  let threads = List.init n (fun i -> M.spawn p ~name:(Printf.sprintf "w%d" i) (body i)) in
  M.run m;
  (m, p, threads)

let cycles config n = M.cycles_to_ns (M.create config) (float_of_int n)

let test_single_thread_work_time () =
  let _, _, threads = run_workers 1 (fun _ ctx -> M.work_exact ctx 100_000) in
  let elapsed = M.elapsed_ns (List.hd threads) in
  let expected = cycles two_cpu (100_000 + M.default_config.M.ctx_switch_cycles) in
  (* plus thread startup: spawn cycles + stack fault *)
  Alcotest.(check bool) "close to work + startup" true
    (elapsed >= expected && elapsed < expected *. 1.2)

let test_parallel_speedup () =
  let _, _, two = run_workers 2 (fun _ ctx -> M.work_exact ctx 200_000) in
  let _, _, four = run_workers 4 (fun _ ctx -> M.work_exact ctx 200_000) in
  let mean ths = List.fold_left (fun a t -> a +. M.elapsed_ns t) 0. ths /. float_of_int (List.length ths) in
  let r = mean four /. mean two in
  (* 4 threads on 2 CPUs: each CPU runs two of the threads back to back
     (the work fits in one quantum), so mean elapsed is about 1.5x the
     2-thread case and the last finishers take 2x. *)
  Alcotest.(check bool) "T/P scaling" true (r > 1.3 && r < 2.3)

let test_round_robin_fairness () =
  let _, _, threads = run_workers ~config:uni 3 (fun _ ctx -> M.work_exact ctx 300_000) in
  let times = List.map M.elapsed_ns threads in
  let mx = List.fold_left max 0. times and mn = List.fold_left min infinity times in
  Alcotest.(check bool) "within 25%" true (mx /. mn < 1.25)

let test_work_conservation () =
  let m, _, _ = run_workers ~config:uni 3 (fun _ ctx -> M.work_exact ctx 100_000) in
  (* All work must be accounted as busy cycles (plus switches/startup). *)
  Alcotest.(check bool) "busy >= total work" true (M.busy_cycles m >= 300_000.)

let test_mutual_exclusion () =
  let m = M.create ~seed:3 two_cpu in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m () in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let ths =
    List.init 4 (fun i ->
        M.spawn p ~name:(string_of_int i) (fun ctx ->
            for _ = 1 to 200 do
              M.Mutex.lock mu ctx;
              incr inside;
              if !inside > !max_inside then max_inside := !inside;
              M.work ctx 50;
              decr inside;
              M.Mutex.unlock mu ctx;
              M.work ctx 30
            done))
  in
  ignore ths;
  M.run m;
  Alcotest.(check int) "never two inside" 1 !max_inside;
  Alcotest.(check int) "all acquisitions" 800 (M.Mutex.acquisitions mu)

let test_mutual_exclusion_handoff () =
  let config = { two_cpu with M.spin_cycles = 0; mutex_handoff = true } in
  let m = M.create ~seed:3 config in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m () in
  let inside = ref 0 and bad = ref false in
  let ths =
    List.init 3 (fun i ->
        M.spawn p ~name:(string_of_int i) (fun ctx ->
            for _ = 1 to 100 do
              M.Mutex.lock mu ctx;
              incr inside;
              if !inside > 1 then bad := true;
              M.work ctx 50;
              decr inside;
              M.Mutex.unlock mu ctx
            done))
  in
  ignore ths;
  M.run m;
  Alcotest.(check bool) "exclusion holds under handoff" false !bad

let test_trylock () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m () in
  let observed = ref [] in
  ignore
    (M.spawn p (fun ctx ->
         Alcotest.(check bool) "free trylock succeeds" true (M.Mutex.try_lock mu ctx);
         Alcotest.(check bool) "held trylock fails" false (M.Mutex.try_lock mu ctx);
         observed := [ M.Mutex.contentions mu ];
         M.Mutex.unlock mu ctx));
  M.run m;
  Alcotest.(check (list int)) "contention counted" [ 1 ] !observed

let test_unlock_not_owner () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m () in
  ignore
    (M.spawn p (fun ctx ->
         Alcotest.check_raises "unlock unowned" (Invalid_argument "Mutex.unlock: not the owner")
           (fun () -> M.Mutex.unlock mu ctx)));
  M.run m

let test_blocking_and_wakeup () =
  let config = { two_cpu with M.spin_cycles = 0 } in
  let m = M.create config in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m () in
  let order = ref [] in
  let a =
    M.spawn p ~name:"a" (fun ctx ->
        M.Mutex.lock mu ctx;
        M.work_exact ctx 50_000;
        order := "a-unlock" :: !order;
        M.Mutex.unlock mu ctx)
  in
  ignore a;
  let b =
    M.spawn p ~name:"b" (fun ctx ->
        M.work_exact ctx 100;  (* lose the race for the lock *)
        M.Mutex.lock mu ctx;
        order := "b-locked" :: !order;
        M.Mutex.unlock mu ctx)
  in
  M.run m;
  Alcotest.(check (list string)) "blocked until unlock" [ "a-unlock"; "b-locked" ] (List.rev !order);
  Alcotest.(check bool) "b blocked" true ((M.thread_stats b).M.blocks >= 1)

let test_join () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let child = M.spawn p ~name:"child" (fun ctx -> M.work_exact ctx 70_000) in
  let joined_at = ref 0. in
  ignore
    (M.spawn p ~name:"parent" (fun ctx ->
         M.join ctx child;
         joined_at := M.now ctx));
  M.run m;
  Alcotest.(check bool) "join waited" true (!joined_at >= M.elapsed_ns child)

let test_join_finished_thread () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let child = M.spawn p (fun _ -> ()) in
  ignore
    (M.spawn p (fun ctx ->
         M.work_exact ctx 500_000;
         (* child long gone: join must not block *)
         M.join ctx child));
  M.run m;
  Alcotest.(check bool) "completed" true true

let test_latch () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let latch = M.Latch.create m in
  let woke = ref 0. in
  ignore
    (M.spawn p (fun ctx ->
         M.Latch.wait latch ctx;
         woke := M.now ctx));
  ignore
    (M.spawn p (fun ctx ->
         M.work_exact ctx 90_000;
         M.Latch.signal latch ctx;
         (* idempotent and non-blocking after set *)
         M.Latch.signal latch ctx;
         M.Latch.wait latch ctx));
  M.run m;
  Alcotest.(check bool) "latch released waiter" true (!woke > 0.);
  Alcotest.(check bool) "set" true (M.Latch.is_set latch)

let test_multithreaded_flag () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  Alcotest.(check bool) "fresh proc single-threaded" false (M.proc_multithreaded p);
  ignore (M.spawn p (fun _ -> ()));
  Alcotest.(check bool) "one thread still single" false (M.proc_multithreaded p);
  ignore (M.spawn p (fun _ -> ()));
  Alcotest.(check bool) "two threads multi" true (M.proc_multithreaded p);
  M.run m;
  (* sticky even after both exit *)
  Alcotest.(check bool) "sticky" true (M.proc_multithreaded p)

let test_stub_vs_atomic_lock_cost () =
  let time_locked multi =
    let m = M.create two_cpu in
    let p = M.create_proc m () in
    if multi then ignore (M.spawn p (fun _ -> ()));
    let mu = M.Mutex.create m () in
    let th =
      M.spawn p (fun ctx ->
          for _ = 1 to 1000 do
            M.Mutex.lock mu ctx;
            M.Mutex.unlock mu ctx
          done)
    in
    M.run m;
    M.elapsed_ns th
  in
  Alcotest.(check bool) "atomic locks cost more than stubs" true (time_locked true > time_locked false)

let test_spawn_faults_stack_page () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let base = Core.Address_space.minor_faults (M.proc_vm p) in
  let th = M.spawn p (fun _ -> ()) in
  M.run m;
  Alcotest.(check int) "one stack page" 1 (Core.Address_space.minor_faults (M.proc_vm p) - base);
  Alcotest.(check int) "charged to the thread" 1 (M.thread_stats th).M.page_faults

let test_mem_ops_fault_and_cost () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  ignore
    (M.spawn p (fun ctx ->
         let addr = Option.get (M.mmap ctx ~len:4096) in
         let t0 = M.now ctx in
         M.write_mem ctx addr;  (* page fault + cache miss *)
         let t1 = M.now ctx in
         M.write_mem ctx addr;  (* pure cache hit *)
         let t2 = M.now ctx in
         Alcotest.(check bool) "first access much dearer" true (t1 -. t0 > 10. *. (t2 -. t1))));
  M.run m

let test_asid_isolation () =
  (* Two processes using the same virtual address must not create
     coherence traffic between each other. *)
  let m = M.create two_cpu in
  let body _ ctx =
    let addr = Option.get (M.sbrk ctx 4096) in
    for _ = 1 to 100 do
      M.write_mem ctx addr
    done
  in
  let p1 = M.create_proc m ~name:"p1" () in
  let p2 = M.create_proc m ~name:"p2" () in
  ignore (M.spawn p1 (body 1));
  ignore (M.spawn p2 (body 2));
  M.run m;
  Alcotest.(check int) "no cross-process transfers" 0 (Core.Coherence.transfers (M.cache m))

let test_touch_range_counts () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let th =
    M.spawn p (fun ctx ->
        let addr = Option.get (M.mmap ctx ~len:(8 * 4096)) in
        M.touch_range ctx addr ~len:(8 * 4096))
  in
  M.run m;
  Alcotest.(check bool) "8 pages + stack" true ((M.thread_stats th).M.page_faults >= 8)

let test_elapsed_requires_finish () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let th = M.spawn p (fun _ -> ()) in
  Alcotest.check_raises "unfinished" (Invalid_argument "Machine.elapsed_ns: thread still running")
    (fun () -> ignore (M.elapsed_ns th));
  M.run m;
  Alcotest.(check bool) "finished now" true (M.elapsed_ns th >= 0.)

let test_exit_hook_runs () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let ran = ref [] in
  ignore
    (M.spawn p (fun ctx ->
         M.exit_hook ctx (fun () -> ran := "first" :: !ran);
         M.exit_hook ctx (fun () -> ran := "second" :: !ran)));
  M.run m;
  Alcotest.(check (list string)) "registration order" [ "first"; "second" ] (List.rev !ran)

(* Waiters leave a wait queue in arrival order, and a released waiter
   can queue again at once: [wake_all] unlinks each waiter before the
   ready queue reuses its link. *)
let test_waitq_fifo_and_requeue () =
  let m = M.create ~seed:2 { two_cpu with M.cpus = 4 } in
  let p = M.create_proc m () in
  let q = M.Waitq.create m ~name:"q" () in
  let woke = ref [] in
  let waiter i =
    M.spawn p ~name:(Printf.sprintf "w%d" i) (fun ctx ->
        M.work_exact ctx (1_000 * (i + 1));
        for round = 1 to 2 do
          M.Waitq.wait q ctx;
          woke := (round, i) :: !woke
        done)
  in
  let ws = List.init 3 waiter in
  let counts = ref [] in
  ignore
    (M.spawn p ~name:"waker" (fun ctx ->
         M.work_exact ctx 20_000;
         counts := M.Waitq.waiting q :: !counts;
         ignore (M.Waitq.wake_one q ctx : bool);
         counts := M.Waitq.wake_all q ctx :: !counts;
         M.work_exact ctx 20_000;
         counts := M.Waitq.wake_all q ctx :: !counts;
         counts := M.Waitq.waiting q :: !counts));
  M.run m;
  ignore ws;
  Alcotest.(check (list int)) "waiting, woken, woken, left" [ 3; 2; 3; 0 ] (List.rev !counts);
  Alcotest.(check (list (pair int int))) "arrival order, then again"
    [ (1, 0); (1, 1); (1, 2); (2, 0); (2, 1); (2, 2) ]
    (List.rev !woke)

(* Scheduler conservation laws under random workloads. *)
let prop_conservation =
  QCheck.Test.make ~name:"elapsed >= own work; busy >= total work; makespan >= work/cpus" ~count:40
    QCheck.(triple (int_range 1 4) (int_range 1 6) (list_of_size Gen.(int_range 1 6) (int_range 1_000 80_000)))
    (fun (cpus, extra_threads, works) ->
      let works = works @ List.init extra_threads (fun i -> 10_000 + (i * 1_000)) in
      let cfg = { M.default_config with M.cpus; op_jitter = 0. } in
      let m = M.create ~seed:9 cfg in
      let p = M.create_proc m () in
      let threads = List.map (fun w -> (w, M.spawn p (fun ctx -> M.work_exact ctx w))) works in
      M.run m;
      let cycle_ns = M.cycles_to_ns m 1.0 in
      let total_work = float_of_int (List.fold_left ( + ) 0 works) in
      let own_ok =
        List.for_all
          (fun (w, th) -> M.elapsed_ns th >= (float_of_int w *. cycle_ns) -. 1e-6)
          threads
      in
      let busy_ok = M.busy_cycles m >= total_work -. 1e-6 in
      let makespan = M.now_ns m /. cycle_ns in
      let makespan_ok = makespan >= (total_work /. float_of_int cpus) -. 1e-6 in
      own_ok && busy_ok && makespan_ok)

let prop_exclusion_both_policies =
  QCheck.Test.make ~name:"mutual exclusion under random contention (both unlock policies)" ~count:20
    QCheck.(triple bool (int_range 2 5) (int_range 1 60))
    (fun (handoff, nthreads, iters) ->
      let cfg =
        { M.default_config with
          M.cpus = 2;
          op_jitter = 0.;
          mutex_handoff = handoff;
          spin_cycles = (if handoff then 0 else 200);
        }
      in
      let m = M.create ~seed:11 cfg in
      let p = M.create_proc m () in
      let mu = M.Mutex.create m () in
      let inside = ref 0 and bad = ref false in
      let ths =
        List.init nthreads (fun i ->
            M.spawn p ~name:(string_of_int i) (fun ctx ->
                for _ = 1 to iters do
                  M.Mutex.lock mu ctx;
                  incr inside;
                  if !inside > 1 then bad := true;
                  M.work ctx 40;
                  decr inside;
                  M.Mutex.unlock mu ctx;
                  M.work ctx 25
                done))
      in
      ignore ths;
      M.run m;
      (not !bad) && M.Mutex.acquisitions mu = nthreads * iters)

let prop_deterministic_replay =
  QCheck.Test.make ~name:"identical seeds give identical simulations" ~count:10
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, threads) ->
      let run () =
        let m = M.create ~seed { M.default_config with M.cpus = 2 } in
        let p = M.create_proc m () in
        let mu = M.Mutex.create m () in
        let ths =
          List.init threads (fun i ->
              M.spawn p ~name:(string_of_int i) (fun ctx ->
                  for _ = 1 to 40 do
                    M.Mutex.lock mu ctx;
                    M.work ctx 120;
                    M.Mutex.unlock mu ctx;
                    M.work ctx 60
                  done))
        in
        M.run m;
        (M.now_ns m, List.map M.elapsed_ns ths)
      in
      run () = run ())

(* The machine takes its whole configuration from its arguments: the
   environment variables that once tuned the event queue and a parallel
   executor are not read, so even malformed values cannot break it. *)
let test_create_ignores_retired_env () =
  let names = List.map (( ^ ) "MALLOC_REPRO_") [ "SHARDS"; "DOMAINS"; "WINDOW_BATCH" ] in
  let prev = List.map (fun n -> (n, Sys.getenv_opt n)) names in
  List.iter (fun n -> Unix.putenv n "x") names;
  Fun.protect
    ~finally:(fun () ->
      (* no unsetenv in Unix: an empty value stands for "unset" *)
      List.iter (fun (n, v) -> Unix.putenv n (Option.value v ~default:"")) prev)
    (fun () ->
      let m = M.create two_cpu in
      let p = M.create_proc m () in
      let th = M.spawn p (fun ctx -> M.work ctx 1000) in
      M.run m;
      Alcotest.(check bool) "ran to completion" true (M.elapsed_ns th > 0.))

(* --- spinner oracle ------------------------------------------------------ *)

(* A random contention program: per thread, a list of (mutex, hold,
   gap) critical sections. Two families, matching what the lazy spinner
   promises (see the comment above [spin_step_account] in machine.ml):

   - jittered: 2-5 threads on 2-4 CPUs with jittered work, each thread
     starting after a jittered prelude of its own length, and quanta
     short enough that spins straddle them and take the step loop;
   - exact: 2 threads with exact cycle costs on a clock whose cycle is
     a binary fraction of a ns and a quantum that never expires, so
     releases land exactly on probe and expiry boundaries all the time.

   Lock ops always exceed the 8-cycle probe step. *)
type contention = {
  c_cpus : int;
  c_mhz : float;
  c_quantum_us : float;
  c_spin : int;
  c_handoff : bool;
  c_atomic : int;
  c_jitter : bool;
  c_mutexes : int;
  c_threads : (int * int * int) list list;
}

let contention_gen =
  QCheck.Gen.(
    let* c_jitter = bool in
    let* c_cpus = int_range 2 4 in
    let* c_mhz = if c_jitter then oneofl [ 200.; 333.; 400.; 500. ] else oneofl [ 200.; 400.; 500. ] in
    let* c_quantum_us =
      if c_jitter then oneof [ float_range 1. 6.; float_range 6. 40. ] else return 1e6
    in
    let* c_spin = oneof [ int_range 1 40; int_range 40 700 ] in
    let* c_handoff = bool in
    let* c_atomic = int_range 9 30 in
    let* c_mutexes = int_range 1 3 in
    let section =
      triple (int_bound (c_mutexes - 1))
        (oneof [ int_range 1 60; int_range 60 900 ])
        (oneof [ int_range 0 40; int_range 40 600 ])
    in
    let* nthreads = if c_jitter then int_range 2 5 else return 2 in
    let* c_threads = list_repeat nthreads (list_size (int_range 1 25) section) in
    return
      { c_cpus; c_mhz; c_quantum_us; c_spin; c_handoff; c_atomic; c_jitter; c_mutexes; c_threads })

let print_contention c =
  Printf.sprintf
    "cpus %d mhz %g quantum %gus spin %d handoff %b atomic %d jitter %b mutexes %d\n%s" c.c_cpus
    c.c_mhz c.c_quantum_us c.c_spin c.c_handoff c.c_atomic c.c_jitter c.c_mutexes
    (String.concat "\n"
       (List.mapi
          (fun i secs ->
            Printf.sprintf "t%d: %s" i
              (String.concat " "
                 (List.map (fun (mu, h, g) -> Printf.sprintf "m%d/%d/%d" mu h g) secs)))
          c.c_threads))

(* Run [c] and fingerprint it: every lock acquisition in order (thread,
   mutex, simulated time) and, per thread, finish time, CPU cycles,
   spin wins, blocks and context switches. *)
let run_contention ~reference c =
  let cfg =
    { M.default_config with
      M.cpus = c.c_cpus;
      mhz = c.c_mhz;
      quantum_us = c.c_quantum_us;
      spin_cycles = c.c_spin;
      mutex_handoff = c.c_handoff;
      atomic_cycles = c.c_atomic;
      op_jitter = (if c.c_jitter then 0.02 else 0.);
    }
  in
  let m = M.create ~seed:5 ~reference cfg in
  let p = M.create_proc m () in
  let mus = Array.init c.c_mutexes (fun i -> M.Mutex.create m ~name:(string_of_int i) ()) in
  let log = Buffer.create 1024 in
  let ths =
    List.mapi
      (fun i secs ->
        M.spawn p ~name:(string_of_int i) (fun ctx ->
            if c.c_jitter then M.work ctx (50 + (i * 173));
            List.iter
              (fun (mu, hold, gap) ->
                M.Mutex.lock mus.(mu) ctx;
                Printf.bprintf log "%d:%d@%h " i mu (M.now ctx);
                M.work ctx hold;
                M.Mutex.unlock mus.(mu) ctx;
                M.work ctx gap)
              secs))
      c.c_threads
  in
  M.run m;
  List.iter
    (fun th ->
      let st = M.thread_stats th in
      Printf.bprintf log "\n%s finish %h cycles %h spins %d blocks %d switches %d"
        (M.thread_name th) (M.elapsed_ns th) st.M.cpu_cycles st.M.spins st.M.blocks
        st.M.ctx_switches)
    ths;
  Buffer.contents log

let prop_spinner_oracle =
  QCheck.Test.make ~name:"lazy spinners match the probe-chain reference" ~count:300
    (QCheck.make ~print:print_contention contention_gen)
    (fun c ->
      let lazy_ = run_contention ~reference:false c in
      let chain = run_contention ~reference:true c in
      if lazy_ <> chain then
        QCheck.Test.fail_reportf "schedules diverge:\n  lazy : %s\n  chain: %s" lazy_ chain;
      true)

(* The two ties at the end of a spin, deterministically: a holder
   releases exactly on the spinner's expiry boundary, or inside the
   last probe step, so that a release-driven wake and the expiry land
   on one boundary and the wake outlives the registration it was
   queued for. Exact costs put every event on a 5 ns grid; a dry run
   finds the hold that releases exactly at the expiry boundary, and a
   sweep around it must match the probe chain hold by hold. *)
let test_spin_expiry_ties () =
  let cfg =
    { two_cpu with M.mhz = 200.; quantum_us = 1e6; spin_cycles = 400; atomic_cycles = 14 }
  in
  let cycle = 5. in
  let run ~reference hold =
    let m = M.create ~seed:3 ~reference cfg in
    let p = M.create_proc m () in
    let mu = M.Mutex.create m () in
    let acquired = ref nan and released = ref nan and attempt = ref nan in
    let a =
      M.spawn p ~name:"holder" (fun ctx ->
          M.Mutex.lock mu ctx;
          acquired := M.now ctx;
          M.work_exact ctx hold;
          M.Mutex.unlock mu ctx;
          released := M.now ctx)
    in
    let b =
      M.spawn p ~name:"spinner" (fun ctx ->
          M.work_exact ctx 100;
          attempt := M.now ctx;
          M.Mutex.lock mu ctx;
          M.Mutex.unlock mu ctx)
    in
    M.run m;
    let fp th =
      let st = M.thread_stats th in
      Printf.sprintf "%h %h %d %d %d" (M.elapsed_ns th) st.M.cpu_cycles st.M.spins st.M.blocks
        st.M.ctx_switches
    in
    (* registration one lock op after the attempt, expiry 400 cycles on *)
    let t_end = !attempt +. (float_of_int (14 + 400) *. cycle) in
    (fp a ^ " | " ^ fp b, !acquired, !released, t_end, M.thread_stats b)
  in
  let _, acquired, _, t_end, _ = run ~reference:false 2000 in
  (* release = acquire + hold + one lock op *)
  let h0 = int_of_float ((t_end -. acquired) /. cycle) - 14 in
  let on_expiry = ref false and in_last_step = ref false in
  for hold = h0 - 10 to h0 + 2 do
    let lazy_, _, released, t_end, st = run ~reference:false hold in
    let chain, _, _, _, _ = run ~reference:true hold in
    Alcotest.(check string) (Printf.sprintf "hold %d: lazy = chain" hold) chain lazy_;
    if released = t_end then begin
      on_expiry := true;
      Alcotest.(check (pair int int)) "released on the expiry boundary: won by spinning" (1, 0)
        (st.M.spins, st.M.blocks)
    end;
    if released < t_end && released > t_end -. (8. *. cycle) then in_last_step := true
  done;
  Alcotest.(check bool) "a release hit the expiry boundary" true !on_expiry;
  Alcotest.(check bool) "a release fell inside the last probe step" true !in_last_step

(* --- allocation budget ---------------------------------------------------- *)

(* Host words allocated per contended acquisition: two threads take
   turns on one mutex 10k times each with a 400-cycle hold and a
   200-cycle gap, and
   everything the run allocates (machine set-up included) is divided
   by the contended acquisitions. On the quad Xeon the waiter spins
   (the lazy spinner's branch); on the dual UltraSPARC it blocks at
   once and is handed the lock. *)
let words_per_contended_acquisition config =
  let m = M.create ~seed:7 config in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m () in
  let body ctx =
    for _ = 1 to 10_000 do
      M.Mutex.lock mu ctx;
      M.work_exact ctx 400;
      M.Mutex.unlock mu ctx;
      M.work_exact ctx 200
    done
  in
  let w0 = Gc.minor_words () in
  let a = M.spawn p body and b = M.spawn p body in
  M.run m;
  let words = Gc.minor_words () -. w0 in
  let contended = M.Mutex.contentions mu in
  let sa = M.thread_stats a and sb = M.thread_stats b in
  (words /. float_of_int contended, contended, sa.M.spins + sb.M.spins, sa.M.blocks + sb.M.blocks)

let test_alloc_budget_spin () =
  let w, contended, spins, _ = words_per_contended_acquisition Core.Configs.quad_xeon in
  Alcotest.(check bool) "mostly contended" true (contended > 10_000);
  Alcotest.(check bool) "won by spinning" true (spins * 10 > contended * 9);
  if w > 32. then Alcotest.failf "%.1f words per contended acquisition (budget 32)" w

let test_alloc_budget_block () =
  let w, contended, _, blocks = words_per_contended_acquisition Core.Configs.dual_ultrasparc in
  Alcotest.(check bool) "mostly contended" true (contended > 10_000);
  Alcotest.(check int) "every contended acquisition blocked" contended blocks;
  if w > 24. then Alcotest.failf "%.1f words per contended acquisition (budget 24)" w

let suite =
  [ Alcotest.test_case "single thread work time" `Quick test_single_thread_work_time;
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_exclusion_both_policies;
    QCheck_alcotest.to_alcotest prop_deterministic_replay;
    QCheck_alcotest.to_alcotest prop_spinner_oracle;
    Alcotest.test_case "spin expiry ties match the probe chain" `Quick test_spin_expiry_ties;
    Alcotest.test_case "allocation budget: spinning waiter" `Quick test_alloc_budget_spin;
    Alcotest.test_case "allocation budget: blocking waiter" `Quick test_alloc_budget_block;
    Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "round-robin fairness" `Quick test_round_robin_fairness;
    Alcotest.test_case "work conservation" `Quick test_work_conservation;
    Alcotest.test_case "mutual exclusion (barging)" `Quick test_mutual_exclusion;
    Alcotest.test_case "mutual exclusion (handoff)" `Quick test_mutual_exclusion_handoff;
    Alcotest.test_case "trylock" `Quick test_trylock;
    Alcotest.test_case "unlock not owner" `Quick test_unlock_not_owner;
    Alcotest.test_case "blocking and wakeup" `Quick test_blocking_and_wakeup;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "join finished thread" `Quick test_join_finished_thread;
    Alcotest.test_case "latch" `Quick test_latch;
    Alcotest.test_case "wait queue order and requeue" `Quick test_waitq_fifo_and_requeue;
    Alcotest.test_case "multithreaded flag" `Quick test_multithreaded_flag;
    Alcotest.test_case "stub vs atomic lock cost" `Quick test_stub_vs_atomic_lock_cost;
    Alcotest.test_case "spawn faults stack page" `Quick test_spawn_faults_stack_page;
    Alcotest.test_case "memory access costs" `Quick test_mem_ops_fault_and_cost;
    Alcotest.test_case "asid isolation" `Quick test_asid_isolation;
    Alcotest.test_case "touch_range counts" `Quick test_touch_range_counts;
    Alcotest.test_case "elapsed requires finish" `Quick test_elapsed_requires_finish;
    Alcotest.test_case "exit hooks" `Quick test_exit_hook_runs;
    Alcotest.test_case "create ignores retired env knobs" `Quick test_create_ignores_retired_env;
  ]
