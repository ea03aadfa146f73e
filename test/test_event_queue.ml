(* Property tests for the event queue (a sorted ring with a heap
   overflow) and the engine built on it: pop order must be exactly
   (time, seq) — identical to a sorted-list reference — under random
   push/pop interleavings that overflow the ring, refill it from the
   heap, and tie on equal times; the engine must execute events in
   (time, issue order) however they were issued; and engine-level
   cancellation must skip exactly the cancelled events without
   disturbing the rest. *)

module Eq = Mb_sim.Event_queue
module Engine = Mb_sim.Engine

(* Times that stress ordering: heavy ties, clustered times on 2^10 and
   2^18 ns grids and their neighbours, spreads wide enough to overflow
   the ring, and far times up to and past 2^52 ns. *)
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

(* --- event queue vs sorted (key, pk) list ----------------------------- *)

let queue_ops_gen =
  (* true -> push at the given time; false -> pop (time ignored) *)
  QCheck.(list_of_size Gen.(int_range 0 500) (pair bool time_arb))

let prop_queue_fuzz_vs_model =
  QCheck.Test.make ~name:"queue push/pop fuzz matches sorted model" ~count:300 queue_ops_gen
    (fun ops ->
      let w = Eq.create () in
      let model = ref [] in
      let seq = ref 0 in
      List.for_all
        (fun (is_push, time) ->
          if is_push then begin
            let key = Eq.key_of_time time and pk = !seq in
            incr seq;
            Eq.push w key pk;
            let rec insert = function
              | [] -> [ (key, pk) ]
              | ((k, p) as hd) :: tl ->
                  if key < k || (key = k && pk < p) then (key, pk) :: hd :: tl
                  else hd :: insert tl
            in
            model := insert !model;
            Eq.length w = List.length !model
          end
          else
            match !model with
            | [] -> Eq.is_empty w && Eq.peek_key w = max_int && Eq.peek_pk w = max_int
            | (k, p) :: tl ->
                let ok = Eq.peek_key w = k && Eq.peek_pk w = p in
                Eq.pop w;
                model := tl;
                ok)
        ops)

let prop_queue_drain_sorted =
  QCheck.Test.make ~name:"queue full drain is (time, seq) sorted" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 400) time_arb)
    (fun times ->
      let w = Eq.create () in
      List.iteri (fun i time -> Eq.push w (Eq.key_of_time time) i) times;
      let expected =
        List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
          (List.mapi (fun i time -> (time, i)) times)
      in
      let rec drain acc =
        if Eq.is_empty w then List.rev acc
        else begin
          let k = Eq.peek_key w and p = Eq.peek_pk w in
          Eq.pop w;
          drain ((Eq.time_of_key k, p) :: acc)
        end
      in
      drain [] = expected)

(* Counters split pushes into exactly two destinations: ascending
   appends fill the ring to its target size, then spill to the heap,
   and so does a push at +infinity. *)
let test_queue_counters () =
  let w = Eq.create () in
  let n = Eq.ring_target + 16 in
  for i = 0 to n - 1 do
    Eq.push w (Eq.key_of_time (float_of_int (i * 1024))) i
  done;
  Eq.push w (Eq.key_of_time Float.infinity) n;
  Alcotest.(check int) "ring absorbed up to its target" Eq.ring_target (Eq.ring_hits w);
  Alcotest.(check int) "every push counted" (n + 1) (Eq.ring_hits w + Eq.heap_spills w);
  let rec drain n = if Eq.is_empty w then n else (Eq.pop w; drain (n + 1)) in
  Alcotest.(check int) "drains fully" (n + 1) (drain 0)

(* Pushes below the ring's tail must go into the ring even while the
   heap holds items, so the ring grows past its target. A group of
   equal times larger than the target must survive the refill that
   straddles it: a later push at that time still sorts after the whole
   group. The pop sequence must match a stable sort of every push. *)
let test_below_tail_grows_ring () =
  let w = Eq.create () in
  let seq = ref 0 and pushed = ref [] and popped = ref [] in
  let push time =
    Eq.push w (Eq.key_of_time time) !seq;
    pushed := (time, !seq) :: !pushed;
    incr seq
  in
  let pop () =
    popped := (Eq.time_of_key (Eq.peek_key w), Eq.peek_pk w) :: !popped;
    Eq.pop w
  in
  let far = float_of_int (10 * Eq.ring_target) +. 1000. in
  for i = 0 to Eq.ring_target - 1 do
    push (float_of_int (10 * i))
  done;
  for _ = 0 to Eq.ring_target + 7 do
    push far
  done;
  push (far +. 10.);
  for i = 0 to 15 do
    push (float_of_int ((10 * i) + 5))
  done;
  Alcotest.(check bool) "heap holds the overflow" true (w.Eq.hsize > 0);
  Alcotest.(check bool) "ring grew past its target" true (w.Eq.rsize > Eq.ring_target);
  for _ = 1 to w.Eq.rsize do
    pop ()
  done;
  push far;
  push (far +. 5.);
  while not (Eq.is_empty w) do
    pop ()
  done;
  let expected = List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) (List.rev !pushed) in
  Alcotest.(check (list (pair (float 0.) int))) "pops are (time, seq) sorted" expected
    (List.rev !popped)

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
                     (Engine.delay_cell e).Engine.cell_time <- float_of_int d;
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
  [ QCheck_alcotest.to_alcotest prop_queue_fuzz_vs_model;
    QCheck_alcotest.to_alcotest prop_queue_drain_sorted;
    Alcotest.test_case "push counters cover all destinations" `Quick test_queue_counters;
    Alcotest.test_case "below-tail pushes grow the ring" `Quick test_below_tail_grows_ring;
    QCheck_alcotest.to_alcotest prop_engine_order_vs_model;
    Alcotest.test_case "at_cancel skips exactly the cancelled" `Quick test_at_cancel;
    QCheck_alcotest.to_alcotest prop_engine_cancel_fuzz;
  ]
