(* The repository benchmark's driver.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 is the timed run: it sets the workload up several times,
   then repeats passes over its cells for S seconds with observation off
   and reports the end-to-end metrics. --trace 1 is the traced run: the
   same cells with the same seed, timed bare and under the allocator
   timer in alternation, plus one metered pass and the layer probes; it
   reports the per-layer metrics. Either way every cell is checked on
   every pass, the last stdout line is the JSON result, and the exit
   code is non-zero when a cell failed. *)

open Perfbench_lib
module R = Runner
module Obs = Core.Obs

(* The yardstick's table is the benchmark's own set-up, not the
   workload's: build it before the clock starts. *)
let () = ignore (Lazy.force Hostref.table)

let process_start = Clock.now_ns ()

type args = { workload : string; seed : int; seconds : float; trace : bool }

let min_passes = 3

(* Set-ups per timed run; [setup_s] is their median. *)
let setups = 5

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let names = List.map (fun w -> w.Cells.wname) Cells.workloads in
  let specs =
    [ ("--workload", Arg.Symbol (names, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N seed the workload inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S how long the timed passes run");
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced per-layer run (1)");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !workload = "" then begin
    prerr_endline "perfbench: --workload is required";
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* --- reporting helpers --------------------------------------------------- *)

let secs ns = float_of_int ns /. 1e9

(* One line per cell: its reference digest, the median host time of its
   timed runs, and the shape relation with its numbers. *)
let print_cells (reference : R.pass) (passes : R.pass list) =
  List.iteri
    (fun i (r : R.cell_run) ->
      let times = List.map (fun p -> secs (List.nth p.R.runs i).R.host_ns) passes in
      let shape =
        match r.R.outcome with
        | Ok o -> (match o.Cells.shape with Ok s -> s | Error s -> "MISSED " ^ s)
        | Error e -> "raised " ^ e
      in
      Printf.printf "cell %-32s digest %s host_s %.4f | %s\n" r.R.cell.Cells.name (R.digest r)
        (Report.median times) shape)
    reference.R.runs

(* Tally of every cell run, with the first failure reason per cell. *)
type tally = { mutable attempted : int; mutable failed : int; mutable reasons : (string * string) list }

let tally () = { attempted = 0; failed = 0; reasons = [] }

let count t (p : R.pass) =
  List.iter
    (fun (r : R.cell_run) ->
      t.attempted <- t.attempted + 1;
      match r.R.verdict with
      | Ok () -> ()
      | Error why ->
          t.failed <- t.failed + 1;
          let name = r.R.cell.Cells.name in
          if not (List.mem_assoc name t.reasons) then t.reasons <- t.reasons @ [ (name, why) ])
    p.R.runs

let print_tally t =
  List.iter (fun (name, why) -> Printf.printf "FAIL %s: %s\n" name why) t.reasons;
  Printf.printf "cells run %d, failed %d (failed_frac %.4f)\n" t.attempted t.failed
    (float_of_int t.failed /. float_of_int t.attempted)

let print_metric (m : Report.metric) note =
  Printf.printf "metric %-30s %16.6g %-7s %s\n" m.Report.name m.Report.value m.Report.unit note

let finish t metrics =
  print_tally t;
  print_endline
    (Report.result_line ~correct:(t.failed = 0) ~attempted:t.attempted ~failed:t.failed
       (List.map fst metrics));
  exit (if t.failed = 0 then 0 else 1)

(* Passes until [seconds] have gone by, at least [min_passes]. *)
let passes_for ~seconds run =
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc n =
    if n >= min_passes && Clock.now_ns () >= deadline then List.rev acc else go (run () :: acc) (n + 1)
  in
  go [] 0

let quartile_note xs =
  Printf.sprintf "(median of %d; q1 %.6g, q3 %.6g)" (List.length xs) (Report.quantile 0.25 xs)
    (Report.quantile 0.75 xs)

(* --- the timed run ------------------------------------------------------- *)

let timed a (w : Cells.workload) =
  let t = tally () in
  (* Set-up: build the cells (calibration included) and run the warm-up
     pass that records each cell's reference digest. The first set-up is
     timed from process start. Every duration is rescaled by the host's
     memory speed (Hostref). *)
  let setup i references =
    let t0 = if i = 0 then process_start else Clock.now_ns () in
    let cells = w.Cells.build ~seed:a.seed in
    let warm = R.run_pass ?references cells in
    count t warm;
    (cells, warm, R.rescale_around warm (Clock.seconds_since t0))
  in
  let cells, warm, s0 = setup 0 None in
  let references = R.digests warm in
  let later = List.init (setups - 1) (fun i -> let _, _, s = setup (i + 1) (Some references) in s) in
  let setup_times = s0 :: later in
  (* The set-ups are a fixed amount of work, so the heap peak they leave
     repeats exactly for a seed; the time-bounded passes would not. *)
  let top_heap = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let passes =
    passes_for ~seconds:a.seconds (fun () ->
        let p = R.run_pass ~references cells in
        (p, R.rescaled_wall_s p))
  in
  List.iter (fun (p, _) -> count t p) passes;
  print_cells warm (List.map fst passes);
  let raw = List.map (fun (p, _) -> secs p.R.wall_ns) passes in
  Printf.printf "raw pass wall %s\n" (quartile_note raw);
  let walks, walked = R.yardstick (List.concat_map (fun (p, _) -> p.R.runs) passes) in
  Printf.printf "yardstick %d walks, mean %.3f ms (nominal %.3f ms)\n" walks
    (walked *. 1e3 /. float_of_int walks) (Hostref.nominal_s *. 1e3);
  let walls = List.map snd passes in
  let words = List.map (fun (p, _) -> p.R.pass_words /. 1e6) passes in
  let metrics =
    [ ( { Report.name = "setup_s"; value = Report.median setup_times; unit = "s" },
        quartile_note setup_times );
      ({ Report.name = "wall_s"; value = Report.median walls; unit = "s" }, quartile_note walls);
      ( { Report.name = "host_alloc_mwords"; value = Report.median words; unit = "Mwords" },
        quartile_note words );
      ( { Report.name = "peak_heap_mb"; value = top_heap; unit = "MB" },
        "(Gc.top_heap_words after the set-ups)" );
      ( { Report.name = "pass_frac";
          value = float_of_int (t.attempted - t.failed) /. float_of_int t.attempted;
          unit = "ratio";
        },
        Printf.sprintf "(%d of %d cell runs passed)" (t.attempted - t.failed) t.attempted );
    ]
  in
  List.iter (fun (m, note) -> print_metric m note) metrics;
  finish t metrics

(* --- the traced run ------------------------------------------------------ *)

let counter totals cell key =
  match List.assoc_opt key totals with
  | Some v -> float_of_int v
  | None -> failwith (Printf.sprintf "cell %s: source counter %s is missing" cell key)

(* Sum of every per-mutex counter ending in [suffix]; a cell whose
   machine recorded no mutex at all is an error. *)
let lock_sum totals cell suffix =
  let xs =
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix:"lock." k && String.ends_with ~suffix k then Some v else None)
      totals
  in
  if xs = [] then failwith (Printf.sprintf "cell %s: no lock.*%s counters" cell suffix);
  float_of_int (List.fold_left ( + ) 0 xs)

type cell_counts = {
  events : float;
  overflow : float;
  ctx_switches : float;
  lock_acquired : float;
  lock_contended : float;
  frees : float;
  foreign_frees : float;
  arenas : float;
  cache_accesses : float;
  cache_transfers : float;
  vm_syscalls : float;
}

let counts_of name totals =
  let c = counter totals name in
  { events = c "sched.shard.pushes";
    overflow = c "sched.shard.wheel_hits" +. c "sched.shard.heap_spills";
    ctx_switches = c "sched.ctx_switches";
    lock_acquired = lock_sum totals name ".acquired";
    lock_contended = lock_sum totals name ".contended";
    frees = c "alloc.frees";
    foreign_frees = c "alloc.free.foreign";
    arenas = c "alloc.arena.created";
    cache_accesses =
      c "cache.hits" +. c "cache.misses" +. c "cache.line_transfers" +. c "cache.upgrades";
    cache_transfers = c "cache.line_transfers";
    vm_syscalls = c "vm.sbrk_calls" +. c "vm.mmap_calls" +. c "vm.munmap_calls";
  }

let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs

let ratio a b = if b > 0. then a /. b else 0.

let write_spans path body =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  output_string oc body;
  output_char oc '\n';
  close_out oc

let traced a (w : Cells.workload) =
  let t = tally () in
  let cells = w.Cells.build ~seed:a.seed in
  let warm = R.run_pass cells in
  count t warm;
  let references = R.digests warm in
  let ovh_ns, ovh_words = Forward.overhead ~calls:100_000 in
  (* Bare and timer-wrapped passes alternate, so host drift hits both.
     [per_cell] accumulates every wrapped pass's timer totals per cell. *)
  let per_cell = List.map (fun _ -> Forward.ops ()) cells in
  let bare = ref [] and wrapped = ref [] and last_pass = ref (Forward.acc ()) in
  ignore
    (passes_for ~seconds:a.seconds (fun () ->
         let p = R.run_pass ~references cells in
         count t p;
         bare := (p, R.rescaled_wall_s p) :: !bare;
         let fresh = List.map (fun _ -> Forward.ops ()) cells in
         let by_cell = List.combine cells fresh in
         let q =
           R.run_pass ~references ~instrument_for:(fun c -> Forward.wrap (List.assq c by_cell)) cells
         in
         count t q;
         List.iter2
           (fun (into : Forward.ops) (o : Forward.ops) ->
             Forward.add_into ~into:into.Forward.malloc o.Forward.malloc;
             Forward.add_into ~into:into.Forward.free o.Forward.free)
           per_cell fresh;
         let pass = Forward.merged fresh in
         last_pass := pass;
         let self_s = (pass.Forward.self_ns -. (pass.Forward.calls *. ovh_ns)) /. 1e9 in
         let raw = secs q.R.wall_ns in
         (* (allocator self s, traced wall s, host rescale factor) *)
         wrapped := (self_s, raw, R.rescaled_wall_s q /. raw) :: !wrapped)
      : unit list);
  (* One metered pass for the exact counts, drained cell by cell. *)
  Obs.Ctl.set { Obs.Ctl.trace = false; metrics = true };
  let metered =
    List.map2
      (fun (c : Cells.cell) reference ->
        let r = R.run_cell ~reference c in
        (r, counts_of c.Cells.name (Obs.Recorder.totals (Obs.Collect.drain ()))))
      cells references
  in
  Obs.Ctl.set Obs.Ctl.off;
  count t { R.runs = List.map fst metered; wall_ns = 0; pass_words = 0. };
  print_cells warm (List.map fst !bare);
  let counts = List.map snd metered in
  let outcomes = List.filter_map (fun ((r : R.cell_run), _) -> Result.to_option r.R.outcome) metered in
  let probes = List.map Probes.for_cell cells in
  (* A probe's price for the workload: each cell's probe weighted by how
     much of that work the cell does. *)
  let weighted price weight =
    ratio
      (sum Fun.id (List.map2 (fun p k -> price p *. weight k) probes counts))
      (sum weight counts)
  in
  let total f = sum f counts in
  let events = total (fun k -> k.events) in
  let bare_wall = Report.median (List.map snd !bare) in
  let traced_wall = Report.median (List.map (fun (_, raw, scale) -> raw *. scale) !wrapped) in
  (* Host costs over every wrapped pass; exact counts from one pass, as
     every pass repeats them. *)
  let timer = Forward.merged per_cell in
  let calls = timer.Forward.calls and one = !last_pass in
  let requests = List.concat_map (fun (o : Cells.outcome) -> o.Cells.requests) outcomes in
  let server = requests <> [] in
  let na = "(n/a: no open-loop runs, reported 0)" in
  let m name value unit note = ({ Report.name; value; unit }, note) in
  let metrics =
    [ m "sim.events" events "count" "(queue pushes per pass)";
      m "sim.host_ns_per_event" (bare_wall *. 1e9 /. events) "ns" "(untraced wall / events)";
      m "sim.probe_ns_per_event"
        (weighted (fun p -> p.Probes.engine_ns) (fun k -> k.events))
        "ns" "(engine probe, event-weighted over cells)";
      m "sim.queue_overflow_frac" (ratio (total (fun k -> k.overflow)) events) "ratio"
        "(wheel hits + heap spills per push)";
      m "machine.ctx_switches" (total (fun k -> k.ctx_switches)) "count" "";
      m "machine.lock_acquired" (total (fun k -> k.lock_acquired)) "count" "";
      m "machine.lock_contended_frac"
        (ratio (total (fun k -> k.lock_contended)) (total (fun k -> k.lock_acquired)))
        "ratio" "(contended attempts per acquisition)";
      m "machine.probe_ns_per_lock"
        (weighted (fun p -> p.Probes.lock_ns) (fun k -> k.lock_acquired))
        "ns" "(uncontended lock+unlock, acquisition-weighted)";
      m "machine.probe_ns_per_handoff"
        (weighted (fun p -> p.Probes.handoff_ns) (fun k -> 1. +. k.lock_contended))
        "ns" "(two threads contending, contention-weighted)";
      m "alloc.calls" one.Forward.calls "count" "(malloc + free calls per pass)";
      m "alloc.host_ns_per_call"
        ((timer.Forward.self_ns /. calls) -. ovh_ns)
        "ns"
        (Printf.sprintf "(self time, the timer's own %.1f ns/call removed)" ovh_ns);
      m "alloc.host_words_per_call"
        ((timer.Forward.words /. calls) -. ovh_words)
        "words"
        (Printf.sprintf "(the timer's own %.1f words/call removed)" ovh_words);
      m "alloc.host_share"
        (Report.median (List.map (fun (self, raw, _) -> self /. raw) !wrapped))
        "ratio" "(allocator self time / traced wall)";
      m "alloc.sim_ns_per_call" (one.Forward.sim_ns /. one.Forward.calls) "ns"
        "(simulated, lock waits included)";
      m "alloc.foreign_free_frac"
        (ratio (total (fun k -> k.foreign_frees)) (total (fun k -> k.frees)))
        "ratio" "";
      m "alloc.arenas" (total (fun k -> k.arenas)) "count" "";
      m "cache.accesses" (total (fun k -> k.cache_accesses)) "count" "";
      m "cache.transfer_frac"
        (ratio (total (fun k -> k.cache_transfers)) (total (fun k -> k.cache_accesses)))
        "ratio" "";
      m "vm.syscalls" (total (fun k -> k.vm_syscalls)) "count" "(sbrk + mmap + munmap)";
      m "workload.host_s_outside_alloc"
        (Report.median (List.map (fun (self, raw, scale) -> (raw -. self) *. scale) !wrapped))
        "s" "(traced wall - allocator self time, rescaled)";
      m "workload.sim_s" (sum (fun (o : Cells.outcome) -> o.Cells.sim_s) outcomes) "s"
        "(summed simulated makespan)";
      m "server.req.p99_sim_ns"
        (ratio (sum (fun (r : Cells.request_summary) -> r.Cells.p99_ns) requests)
           (float_of_int (List.length requests)))
        "ns"
        (if server then "(mean p99 over open-loop runs)" else na);
      m "server.req.shed_frac"
        (let dropped = sum (fun (r : Cells.request_summary) -> float_of_int r.Cells.dropped) requests in
         let served = sum (fun (r : Cells.request_summary) -> float_of_int r.Cells.completed) requests in
         ratio dropped (dropped +. served))
        "ratio"
        (if server then "(dropped / arrivals)" else na);
      m "trace.overhead_frac" ((traced_wall /. bare_wall) -. 1.) "ratio"
        (Printf.sprintf "(traced %.4g s / untraced %.4g s - 1)" traced_wall bare_wall);
    ]
  in
  List.iter (fun (m, note) -> print_metric m note) metrics;
  let spans_path = Printf.sprintf ".perfbench-out/spans-%s-seed%d.json" a.workload a.seed in
  write_spans spans_path
    (Spans.render ~workload:a.workload ~seed:a.seed ~host:(Report.host_block ())
       ~overhead:(ovh_ns, ovh_words)
       ~bare:(List.rev_map snd !bare)
       ~wrapped:(List.rev_map (fun (_, raw, scale) -> raw *. scale) !wrapped)
       ~cells:(List.combine cells per_cell)
       ~probes:(List.combine (List.map (fun (c : Cells.cell) -> c.Cells.name) cells) probes));
  Printf.printf "spans written to %s\n" spans_path;
  finish t metrics

let () =
  let a = parse_args () in
  match Cells.find a.workload with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ a.workload);
      exit 2
  | Some w -> (
      Printf.printf "host %s\n" (Report.host_block ());
      Printf.printf "workload %s seed %d seconds %g trace %d\n%!" w.Cells.wname a.seed a.seconds
        (if a.trace then 1 else 0);
      try if a.trace then traced a w else timed a w
      with Failure msg ->
        prerr_endline ("perfbench: " ^ msg);
        exit 2)
