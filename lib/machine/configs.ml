(* Cycle-cost calibration notes:

   - ctx_switch_cycles + wake_cycles set the cost of a blocking handoff;
     they are what turn a single contended lock into the Table 2 collapse.
   - atomic_cycles vs stub_lock_cycles set the thread-vs-process gap of
     Tables 1 and 3 (glibc stubs its locks until a process goes
     multithreaded).
   - The cache transfer cost sets benchmark 3's false-sharing penalty;
     32-byte lines match the P6 and UltraSPARC II L1 of the era. *)

let line32 cache = { cache with Mb_cache.Coherence.line_size = 32 }

let base = Machine.default_config

let dual_pentium_pro =
  { base with
    Machine.cpus = 2;
    mhz = 200.;
    quantum_us = 2000.;
    ctx_switch_cycles = 900;
    atomic_cycles = 14;
    stub_lock_cycles = 2;
    spin_cycles = 400;
    mutex_handoff = false;
    wake_cycles = 300;
    syscall_cycles = 700;
    vm_syscalls_take_bkl = true;
    minor_fault_cycles = 800;
    thread_spawn_cycles = 1500;
    cache = line32 Mb_cache.Coherence.default_config;
  }

let quad_xeon =
  { base with
    Machine.cpus = 4;
    mhz = 500.;
    quantum_us = 2000.;
    ctx_switch_cycles = 1600;
    atomic_cycles = 26;
    stub_lock_cycles = 2;
    spin_cycles = 600;
    mutex_handoff = false;
    wake_cycles = 500;
    syscall_cycles = 1100;
    vm_syscalls_take_bkl = true;
    minor_fault_cycles = 1400;
    thread_spawn_cycles = 2500;
    cache =
      { Mb_cache.Coherence.line_size = 32;
        hit_cycles = 1;
        miss_cycles = 40;
        transfer_cycles = 55;
        upgrade_cycles = 14;
        ping_pong_burst = 4;
      };
  }

let dual_ultrasparc =
  { base with
    Machine.cpus = 2;
    mhz = 400.;
    quantum_us = 2000.;
    ctx_switch_cycles = 330;
    atomic_cycles = 12;
    stub_lock_cycles = 2;
    (* Solaris 2.6's default process-private mutex parks the caller in the
       kernel without an adaptive spin — the root of Table 2. *)
    spin_cycles = 0;
    mutex_handoff = true;
    wake_cycles = 120;
    syscall_cycles = 900;
    vm_syscalls_take_bkl = true;
    minor_fault_cycles = 1000;
    thread_spawn_cycles = 2000;
    cache = line32 Mb_cache.Coherence.default_config;
  }

let uni_k6 =
  { base with
    Machine.cpus = 1;
    mhz = 400.;
    (* Sized against benchmark 2's ~2.3 ms replacement rounds so that a
       round is preempted with probability well below 1 — heap-leak
       events must be occasional to reproduce Figure 6's variance. *)
    quantum_us = 4180.;
    ctx_switch_cycles = 1000;
    atomic_cycles = 18;
    stub_lock_cycles = 2;
    (* Spinning is pointless on a uniprocessor, and glibc 2.x LinuxThreads
       (pre-futex) parked contended lockers via signals — slow wakeups that
       keep a contended mutex effectively owned across the switch, i.e.
       handoff semantics. This is what lets benchmark 2's arena collisions
       snowball for a while once one occurs, producing Figure 6's leak
       variance. *)
    spin_cycles = 300;
    mutex_handoff = true;
    wake_cycles = 350;
    syscall_cycles = 900;
    vm_syscalls_take_bkl = true;
    minor_fault_cycles = 1000;
    thread_spawn_cycles = 1800;
    cache = line32 Mb_cache.Coherence.default_config;
  }

let table =
  [ ("dual_pentium_pro", dual_pentium_pro);
    ("quad_xeon", quad_xeon);
    ("dual_ultrasparc", dual_ultrasparc);
    ("uni_k6", uni_k6);
  ]

let by_name name = List.assoc_opt name table

let names = List.map fst table
