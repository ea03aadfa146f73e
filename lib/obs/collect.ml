let lock = Mutex.create ()

let published : (string * Recorder.t) list ref = ref []  (* reversed arrival order *)

let publish ~label r =
  if Recorder.enabled r then begin
    Mutex.lock lock;
    published := (label, r) :: !published;
    Mutex.unlock lock
  end

(* Different runs can share a label (the same bench configuration inside
   two experiments), and pool tasks publish in completion order, so ties
   are broken by the recorded counters: runs that still tie print
   identical metrics, and the output is the same at any pool width. *)
let drain () =
  Mutex.lock lock;
  let runs = !published in
  published := [];
  Mutex.unlock lock;
  List.map (fun (label, r) -> ((label, Recorder.counters r), r)) runs
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun ((label, _), r) -> (label, r))

let pending () =
  Mutex.lock lock;
  let n = List.length !published in
  Mutex.unlock lock;
  n
