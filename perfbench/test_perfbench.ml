(* Tests for the benchmark's own code: the allocator timer must not change
   what a cell computes, and every failure kind must be counted. *)

open Perfbench_lib
module R = Runner

let seed = 7

let digest_of (r : R.cell_run) =
  match r.R.outcome with
  | Ok o -> o.Cells.digest
  | Error e -> Alcotest.failf "cell %s raised %s" r.R.cell.Cells.name e

let check_ok (r : R.cell_run) =
  match r.R.verdict with
  | Ok () -> ()
  | Error why -> Alcotest.failf "cell %s failed: %s" r.R.cell.Cells.name why

let check_failed (r : R.cell_run) =
  Alcotest.(check bool) "counted as failed" true (Result.is_error r.R.verdict)

(* A deliberately failing copy of a cell: "digest" corrupts its result
   digest, "degraded" reports one degraded operation. *)
let inject kind (c : Cells.cell) =
  let alter (o : Cells.outcome) =
    match kind with
    | `Digest -> { o with Cells.digest = Digest.to_hex (Digest.string ("injected" ^ o.Cells.digest)) }
    | `Degraded -> { o with Cells.degraded_ops = o.Cells.degraded_ops + 1 }
  in
  { c with Cells.run = (fun ~wrap -> alter (c.Cells.run ~wrap)) }

(* One cell per driver: Bench1 in both modes, Bench2, and the open-loop
   server with its timer wakes and parked threads. *)
let sample_cells () =
  let server = Cells.server_cells ~seed in
  [ Cells.table1 ~seed; Cells.fig7 ~seed; List.nth server (List.length server - 1) ]

let wrapper_keeps_digest () =
  List.iter
    (fun cell ->
      let bare = R.run_cell cell in
      check_ok bare;
      let ops = Forward.ops () in
      let timed = R.run_cell ~instrument:(Forward.wrap ops) ~reference:(digest_of bare) cell in
      check_ok timed;
      Alcotest.(check string) cell.Cells.name (digest_of bare) (digest_of timed);
      Alcotest.(check bool) "calls were timed" true (ops.Forward.malloc.Forward.calls > 0.);
      Alcotest.(check bool) "self time is positive" true (ops.Forward.free.Forward.self_ns > 0.))
    (sample_cells ())

let metering_keeps_digest () =
  let cell = Cells.table2 ~seed in
  let bare = R.run_cell cell in
  Core.Obs.Ctl.set { Core.Obs.Ctl.trace = false; metrics = true };
  let metered = Fun.protect ~finally:(fun () -> Core.Obs.Ctl.set Core.Obs.Ctl.off)
      (fun () -> R.run_cell ~reference:(digest_of bare) cell) in
  let totals = Core.Obs.Recorder.totals (Core.Obs.Collect.drain ()) in
  check_ok metered;
  Alcotest.(check bool) "events counted" true (List.assoc "sched.shard.pushes" totals > 0)

let injected_digest_fails () =
  let cell = Cells.table1 ~seed in
  let reference = digest_of (R.run_cell cell) in
  check_failed (R.run_cell ~reference (inject `Digest cell))

let injected_degraded_fails () = check_failed (R.run_cell (inject `Degraded (Cells.table1 ~seed)))

let stub ?(shape = Ok "fine") () =
  { Cells.name = "stub";
    machine = Core.Configs.uni_k6;
    threads = 1;
    run =
      (fun ~wrap:_ ->
        { Cells.digest = "d"; shape; degraded_ops = 0; sim_s = 0.; requests = [] });
  }

let raising_cell_fails () =
  check_failed (R.run_cell { (stub ()) with Cells.run = (fun ~wrap:_ -> failwith "boom") })

let shape_miss_fails () = check_failed (R.run_cell (stub ~shape:(Error "off the band") ()))

let invalid_heap_fails () =
  let outcome = Ok ((stub ()).Cells.run ~wrap:Fun.id) in
  Alcotest.(check bool) "validation failure" true
    (Result.is_error (R.judge ~validation:(Error "bad tag") outcome));
  Alcotest.(check bool) "clean run passes" true (Result.is_ok (R.judge ~validation:(Ok ()) outcome))

let pass_counts_failures () =
  let cells = [ stub (); inject `Degraded (stub ()); stub ~shape:(Error "x") () ] in
  let failed = List.filter (fun (r : R.cell_run) -> Result.is_error r.R.verdict) (R.run_pass cells).R.runs in
  Alcotest.(check int) "two of three failed" 2 (List.length failed)

let () =
  Alcotest.run "perfbench"
    [ ( "timer",
        [ Alcotest.test_case "wrapper keeps every digest" `Quick wrapper_keeps_digest;
          Alcotest.test_case "metering keeps the digest" `Quick metering_keeps_digest;
        ] );
      ( "failures",
        [ Alcotest.test_case "injected digest is failed" `Quick injected_digest_fails;
          Alcotest.test_case "injected degraded op is failed" `Quick injected_degraded_fails;
          Alcotest.test_case "raising cell is failed" `Quick raising_cell_fails;
          Alcotest.test_case "shape miss is failed" `Quick shape_miss_fails;
          Alcotest.test_case "invalid heap is failed" `Quick invalid_heap_fails;
          Alcotest.test_case "a pass counts its failures" `Quick pass_counts_failures;
        ] );
    ]
