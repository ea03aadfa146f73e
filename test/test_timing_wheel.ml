(* Property tests for the hierarchical timing wheel and the engine
   queue built on it: pop order must be exactly (time, seq) — identical
   to a sorted-list reference — under random push/pop interleavings
   that cross bucket boundaries, cascade L2 epochs, and spill to the
   far-future heap; the engine must execute events in (time, issue
   order) however they were issued; and engine-level cancellation must
   skip exactly the cancelled events without disturbing the rest. *)

module Tw = Mb_sim.Timing_wheel
module Pqueue = Mb_sim.Pqueue
module Engine = Mb_sim.Engine

(* Times that stress every layer: heavy ties, exact L1 (2^10 ns) and
   L2 (2^18 ns) bucket edges and their neighbours, multi-epoch wraps,
   far-heap spills, and the 2^52 precision cliff. *)
let time_gen =
  QCheck.Gen.(
    oneof
      [ map float_of_int (int_bound 50);
        map (fun k -> float_of_int (k * 1024)) (int_bound 600);
        map (fun k -> float_of_int ((k * 1024) + 1)) (int_bound 600);
        map (fun k -> float_of_int ((k * 1024) - 1)) (int_range 1 600);
        map (fun k -> float_of_int (k * 262144)) (int_bound 600);
        map (fun k -> float_of_int ((k * 262144) + 1)) (int_bound 600);
        map (fun k -> float_of_int k *. 1048576.) (int_bound 2000);
        map (fun k -> float_of_int k *. 1e8) (int_bound 100);
        map (fun k -> 4503599627370496. +. (float_of_int k *. 1e10)) (int_bound 10);
        map (fun f -> Float.of_int (int_of_float (f *. 1e7))) (float_bound_inclusive 1.);
      ])

let time_arb = QCheck.make ~print:string_of_float time_gen

(* --- timing wheel vs sorted (key, pk) list --------------------------- *)

let wheel_ops_gen =
  (* true -> push at the given time; false -> pop (time ignored) *)
  QCheck.(list_of_size Gen.(int_range 0 500) (pair bool time_arb))

let prop_wheel_fuzz_vs_model =
  QCheck.Test.make ~name:"wheel push/pop fuzz matches sorted model" ~count:300 wheel_ops_gen
    (fun ops ->
      let w = Tw.create () in
      let model = ref [] in
      let seq = ref 0 in
      List.for_all
        (fun (is_push, time) ->
          if is_push then begin
            let key = Tw.key_of_time time and pk = !seq in
            incr seq;
            Tw.push w key pk;
            let rec insert = function
              | [] -> [ (key, pk) ]
              | ((k, p) as hd) :: tl ->
                  if key < k || (key = k && pk < p) then (key, pk) :: hd :: tl
                  else hd :: insert tl
            in
            model := insert !model;
            Tw.length w = List.length !model
          end
          else
            match !model with
            | [] -> Tw.is_empty w && Tw.peek_key w = max_int && Tw.peek_pk w = max_int
            | (k, p) :: tl ->
                let ok = Tw.peek_key w = k && Tw.peek_pk w = p in
                Tw.pop w;
                model := tl;
                ok)
        ops)

let prop_wheel_drain_sorted =
  QCheck.Test.make ~name:"wheel full drain is (time, seq) sorted" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 400) time_arb)
    (fun times ->
      let w = Tw.create () in
      List.iteri (fun i time -> Tw.push w (Tw.key_of_time time) i) times;
      let expected =
        List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
          (List.mapi (fun i time -> (time, i)) times)
      in
      let rec drain acc =
        if Tw.is_empty w then List.rev acc
        else begin
          let k = Tw.peek_key w and p = Tw.peek_pk w in
          Tw.pop w;
          drain ((Tw.time_of_key k, p) :: acc)
        end
      in
      drain [] = expected)

(* Counters split pushes into exactly three destinations: ascending
   appends fill the ring to its target size, then overflow into the
   wheels; a far-future time spills to the heap. *)
let test_wheel_counters () =
  let w = Tw.create () in
  let n = Tw.ring_target + 16 in
  for i = 0 to n - 1 do
    Tw.push w (Tw.key_of_time (float_of_int (i * 1024))) i
  done;
  Tw.push w (Tw.key_of_time (4503599627370496. +. 1e10)) n;
  Alcotest.(check int) "all pushes counted" (n + 1)
    (Tw.ring_hits w + Tw.wheel_hits w + Tw.heap_spills w);
  Alcotest.(check int) "ring absorbed up to its target" Tw.ring_target (Tw.ring_hits w);
  Alcotest.(check bool) "overflow went to the wheels" true (Tw.wheel_hits w >= 1);
  Alcotest.(check bool) "far time spilled to heap" true (Tw.heap_spills w >= 1);
  let rec drain n = if Tw.is_empty w then n else (Tw.pop w; drain (n + 1)) in
  Alcotest.(check int) "drains fully" (n + 1) (drain 0)

(* --- engine execution order vs a list-based reference ------------------ *)

(* A random program: [At (d, kids)] is a thunk scheduled [d] ns after
   its issuer's time, which issues [kids] when it fires; [Spawn ds] is
   a process that starts now and then delays by each of [ds] in turn.
   Small integer delays make equal times common. *)
type node = At of int * node list | Spawn of int list

let node_gen =
  QCheck.Gen.(
    sized_size (int_bound 3) @@ fix (fun self depth ->
        let spawn = map (fun ds -> Spawn ds) (list_size (int_bound 4) (int_bound 4)) in
        if depth = 0 then spawn
        else
          frequency
            [ (1, spawn);
              (2, map2 (fun d kids -> At (d, kids)) (int_bound 4)
                    (list_size (int_bound 3) (self (depth - 1)))) ]))

let rec print_node = function
  | At (d, kids) -> Printf.sprintf "At(%d,[%s])" d (String.concat ";" (List.map print_node kids))
  | Spawn ds -> Printf.sprintf "Spawn[%s]" (String.concat ";" (List.map string_of_int ds))

let program_arb =
  QCheck.make
    ~print:(fun roots -> String.concat " " (List.map print_node roots))
    QCheck.Gen.(list_size (int_range 1 8) node_gen)

(* Every issuing call (an [at], a [spawn], a delay) takes the next issue
   number, and every executed event logs the number it was issued
   under — so the log pins the execution order, and a wrong pick shows
   as a divergent log. Delays alternate between [Engine.delay] and the
   [delay_pending] fast path. *)
let engine_log roots =
  let e = Engine.create () in
  let log = ref [] and issued = ref 0 in
  let issue () = let n = !issued in incr issued; n in
  let rec schedule = function
    | At (d, kids) ->
        let id = issue () in
        Engine.at e (Engine.now e +. float_of_int d) (fun () ->
            log := id :: !log;
            List.iter schedule kids)
    | Spawn ds ->
        let id = issue () in
        ignore
          (Engine.spawn e (fun () ->
               log := id :: !log;
               List.iteri
                 (fun i d ->
                   let id = issue () in
                   if i mod 2 = 0 then Engine.delay (float_of_int d)
                   else begin
                     (Engine.delay_cell e).Pqueue.cell_time <- float_of_int d;
                     Engine.delay_pending e
                   end;
                   log := id :: !log)
                 ds))
  in
  List.iter schedule roots;
  Engine.run e;
  List.rev !log

(* The reference: a pending list stably sorted by time, so equal times
   keep issue order, and always run its head. *)
let model_log roots =
  let pending = ref [] and now = ref 0 in
  let log = ref [] and issued = ref 0 in
  let add time act =
    let id = !issued in
    incr issued;
    pending := List.stable_sort (fun (t1, _, _) (t2, _, _) -> compare t1 t2)
        (!pending @ [ (time, id, act) ])
  in
  let proc = function [] -> () | d :: rest -> add (!now + d) (`Proc rest) in
  let schedule = function
    | At (d, kids) -> add (!now + d) (`Fire kids)
    | Spawn ds -> add !now (`Proc ds)
  in
  List.iter schedule roots;
  let rec go () =
    match !pending with
    | [] -> ()
    | (time, id, act) :: rest ->
        pending := rest;
        now := time;
        log := id :: !log;
        (match act with `Fire kids -> List.iter schedule kids | `Proc ds -> proc ds);
        go ()
  in
  go ();
  List.rev !log

let prop_engine_order_vs_model =
  QCheck.Test.make ~name:"engine runs (time, issue) order" ~count:300 program_arb
    (fun roots -> engine_log roots = model_log roots)

(* --- engine-level: cancellation ----------------------------------------- *)

let test_at_cancel () =
  let e = Engine.create () in
  let log = ref [] in
  let fire tag = fun () -> log := tag :: !log in
  Engine.at e 10. (fire "a");
  let cancel_b = Engine.at_cancel e 20. (fire "b") in
  let cancel_c = Engine.at_cancel e 30. (fire "c") in
  Engine.at e 40. (fire "d");
  cancel_b ();
  cancel_b ();  (* idempotent *)
  Engine.run e;
  cancel_c ();  (* after firing: harmless no-op *)
  Alcotest.(check (list string)) "cancelled event skipped, rest fire in order"
    [ "a"; "c"; "d" ] (List.rev !log)

let prop_engine_cancel_fuzz =
  (* Events at random times; a random subset is cancellable and
     cancelled up front. Fired order must equal the (time, insertion)
     order of the survivors. *)
  QCheck.Test.make ~name:"random cancellations leave survivors' schedule intact" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (pair bool (map float_of_int (int_bound 20))))
    (fun events ->
      let e = Engine.create () in
      let log = ref [] in
      let cancels = ref [] in
      List.iteri
        (fun i (cancelled, time) ->
          if cancelled then
            cancels := Engine.at_cancel e time (fun () -> log := i :: !log) :: !cancels
          else Engine.at e time (fun () -> log := i :: !log))
        events;
      List.iter (fun cancel -> cancel ()) !cancels;
      Engine.run e;
      let expected =
        List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
          (List.filteri (fun _ (c, _) -> not c) (List.mapi (fun i (c, t) -> (c, (t, i))) events)
          |> List.map snd)
        |> List.map snd
      in
      List.rev !log = expected)

let suite =
  [ QCheck_alcotest.to_alcotest prop_wheel_fuzz_vs_model;
    QCheck_alcotest.to_alcotest prop_wheel_drain_sorted;
    Alcotest.test_case "push counters cover all destinations" `Quick test_wheel_counters;
    QCheck_alcotest.to_alcotest prop_engine_order_vs_model;
    Alcotest.test_case "at_cancel skips exactly the cancelled" `Quick test_at_cancel;
    QCheck_alcotest.to_alcotest prop_engine_cancel_fuzz;
  ]
