let lock = Mutex.create ()

let published : (string * Injector.t) list ref = ref []  (* reversed arrival order *)

let publish ~label inj =
  if Injector.armed inj then begin
    Mutex.lock lock;
    published := (label, inj) :: !published;
    Mutex.unlock lock
  end

(* Different runs can share a label (the same bench configuration inside
   two experiments), and pool tasks publish in completion order, so ties
   are broken by the reported counts: runs that still tie print
   identical lines, and the output is the same at any pool width. *)
let counts inj =
  Injector.
    [ injected inj; injected_reserve inj; injected_preempt inj; injected_slowlock inj;
      survived inj; degraded inj ]

let drain () =
  Mutex.lock lock;
  let runs = !published in
  published := [];
  Mutex.unlock lock;
  List.sort
    (fun (a, ia) (b, ib) ->
      match String.compare a b with 0 -> compare (counts ia) (counts ib) | c -> c)
    runs

let pending () =
  Mutex.lock lock;
  let n = List.length !published in
  Mutex.unlock lock;
  n
