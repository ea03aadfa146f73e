(* Running cells and judging them. A cell fails on an exception, on any
   degraded operation, on an allocator that fails [validate] at the end
   of the cell, on a miss of its paper-shape relation, or on a digest
   that differs from the cell's reference run. *)

module A = Core.Allocator
module F = Core.Factory

type cell_run = {
  cell : Cells.cell;
  outcome : (Cells.outcome, string) result;  (* [Error] when the cell raised *)
  verdict : (unit, string) result;
  host_ns : int;     (* wall time of the driver calls *)
  words : float;     (* host minor words of the driver calls *)
  walks : int;       (* host yardstick walks, one before each driver run *)
  walked_s : float;  (* their total duration, not part of [host_ns] *)
}

let validate_all allocators =
  List.fold_left
    (fun acc (a : A.t) ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match a.A.validate () with
          | Ok () -> Ok ()
          | Error msg -> Error (Printf.sprintf "%s heap invalid: %s" a.A.name msg)))
    (Ok ()) allocators

let judge ?reference ~validation outcome =
  match outcome with
  | Error exn -> Error ("raised " ^ exn)
  | Ok (o : Cells.outcome) -> (
      if o.Cells.degraded_ops > 0 then Error (Printf.sprintf "%d degraded ops" o.Cells.degraded_ops)
      else
        match validation with
        | Error _ as e -> e
        | Ok () -> (
            match o.Cells.shape with
            | Error msg -> Error ("shape: " ^ msg)
            | Ok _ -> (
                match reference with
                | Some d when d <> o.Cells.digest ->
                    Error (Printf.sprintf "digest %s differs from reference %s" o.Cells.digest d)
                | _ -> Ok ())))

(* [instrument] is applied to every allocator the cell creates (the
   traced run's timer); the untraced run passes the identity. *)
let run_cell ?(instrument = Fun.id) ?reference (cell : Cells.cell) =
  let created = ref [] and walks = ref 0 and walked_ns = ref 0 in
  (* A cell wraps each factory right before handing it to a driver, so
     this samples the host once per driver run (see Hostref). *)
  let wrap (f : F.t) =
    let t0 = Clock.now_ns () in
    ignore (Hostref.walk_s () : float);
    incr walks;
    walked_ns := !walked_ns + (Clock.now_ns () - t0);
    { f with
      F.create =
        (fun proc ->
          let a = f.F.create proc in
          created := a :: !created;
          instrument a);
    }
  in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let outcome = try Ok (cell.Cells.run ~wrap) with e -> Error (Printexc.to_string e) in
  let host_ns = Clock.now_ns () - t0 - !walked_ns in
  let words = Gc.minor_words () -. w0 in
  let verdict = judge ?reference ~validation:(validate_all !created) outcome in
  (* Collect the cell's garbage now and bill it to the cell, so every cell
     starts from a clean heap whatever ran before it. *)
  created := [];
  let g0 = Clock.now_ns () in
  Gc.full_major ();
  let host_ns = host_ns + (Clock.now_ns () - g0) in
  { cell; outcome; verdict; host_ns; words; walks = !walks; walked_s = float_of_int !walked_ns /. 1e9 }

type pass = {
  runs : cell_run list;
  wall_ns : int;
  pass_words : float;
}

(* Walks and their total duration over some cell runs. *)
let yardstick runs =
  (List.fold_left (fun a r -> a + r.walks) 0 runs, List.fold_left (fun a r -> a +. r.walked_s) 0. runs)

(* [seconds] measured around a pass, its walks included, rescaled by
   those walks. *)
let rescale_around p seconds =
  let walks, walked_s = yardstick p.runs in
  Hostref.rescale ~walks ~walked_s (seconds -. walked_s)

(* The pass's driver wall time, rescaled by its walks. *)
let rescaled_wall_s p =
  let walks, walked_s = yardstick p.runs in
  Hostref.rescale ~walks ~walked_s (float_of_int p.wall_ns /. 1e9)

(* One pass over every cell. [references] gives each cell's expected
   digest by position; [instrument_for] picks the per-cell wrapper. *)
let run_pass ?(instrument_for = fun _ -> Fun.id) ?references cells =
  let runs =
    List.mapi
      (fun i cell ->
        let reference = Option.map (fun refs -> List.nth refs i) references in
        run_cell ~instrument:(instrument_for cell) ?reference cell)
      cells
  in
  { runs;
    wall_ns = List.fold_left (fun a r -> a + r.host_ns) 0 runs;
    pass_words = List.fold_left (fun a r -> a +. r.words) 0. runs;
  }

let digest r = match r.outcome with Ok o -> o.Cells.digest | Error _ -> "raised"

let digests pass = List.map digest pass.runs
