(* Host monotonic clock in nanoseconds. Declared here rather than called
   through [Monotonic_clock.now] so the read is an unboxed, allocation-free
   external call: the forwarding wrapper reads it around every allocator
   call and must not bill its own boxing to the allocator. *)

external now_raw : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (now_raw ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
