(* Tests for the dlmalloc-style heap: boundary tags, bins, top chunk,
   growth, trim, the mmap threshold, and structural invariants. *)

module M = Core.Machine
module Dlheap = Core.Dlheap
module As = Core.Address_space

let config = { M.default_config with M.cpus = 1; op_jitter = 0. }

(* Run [body] in a fresh machine with a fresh main heap. *)
let with_heap ?(params = Dlheap.default_params) body =
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  let stats = Core.Astats.create () in
  let heap = Dlheap.create_main p ~costs:Core.Costs.glibc ~params ~stats in
  ignore (M.spawn p (fun ctx -> body heap stats ctx p));
  M.run m

let alloc heap ctx size =
  match Dlheap.malloc heap ctx size with
  | Some user -> user
  | None -> Alcotest.fail "unexpected allocation failure"

let check_valid heap =
  match Dlheap.validate heap with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant violation: " ^ msg)

let test_basic_alloc_free () =
  with_heap (fun heap _ ctx _ ->
      let a = alloc heap ctx 100 in
      let b = alloc heap ctx 100 in
      Alcotest.(check bool) "distinct" true (a <> b);
      Alcotest.(check bool) "aligned" true (a mod 8 = 0 && b mod 8 = 0);
      Alcotest.(check bool) "usable >= request" true (Dlheap.usable_size heap a >= 100);
      Dlheap.free heap ctx a;
      Dlheap.free heap ctx b;
      check_valid heap;
      Alcotest.(check int) "all coalesced into top" 0 (Dlheap.live_chunks heap))

let test_exact_reuse () =
  with_heap (fun heap _ ctx _ ->
      let a = alloc heap ctx 256 in
      let _pin = alloc heap ctx 64 in
      Dlheap.free heap ctx a;
      let b = alloc heap ctx 256 in
      Alcotest.(check int) "free chunk reused exactly" a b)

let test_split_and_remainder () =
  with_heap (fun heap _ ctx _ ->
      let big = alloc heap ctx 1000 in
      let _pin = alloc heap ctx 16 in
      Dlheap.free heap ctx big;
      (* A smaller request splits the binned 1008-byte chunk. *)
      let small = alloc heap ctx 100 in
      Alcotest.(check int) "reuses the front" big small;
      check_valid heap;
      Alcotest.(check bool) "remainder binned" true (Dlheap.free_bytes heap > 0))

let test_coalesce_three_way () =
  with_heap (fun heap _ ctx _ ->
      let a = alloc heap ctx 64 in
      let b = alloc heap ctx 64 in
      let c = alloc heap ctx 64 in
      let _pin = alloc heap ctx 64 in
      Dlheap.free heap ctx a;
      Dlheap.free heap ctx c;
      check_valid heap;
      (* freeing b must merge with both neighbours *)
      Dlheap.free heap ctx b;
      check_valid heap;
      let merged = alloc heap ctx 200 in
      Alcotest.(check int) "merged region starts at a" a merged)

let test_no_adjacent_free_chunks () =
  with_heap (fun heap _ ctx _ ->
      let blocks = List.init 20 (fun _ -> alloc heap ctx 48) in
      List.iteri (fun i u -> if i mod 2 = 0 then Dlheap.free heap ctx u) blocks;
      check_valid heap;
      List.iteri (fun i u -> if i mod 2 = 1 then Dlheap.free heap ctx u) blocks;
      check_valid heap)

let test_double_free_raises () =
  with_heap (fun heap _ ctx _ ->
      let a = alloc heap ctx 32 in
      let _pin = alloc heap ctx 32 in
      Dlheap.free heap ctx a;
      Alcotest.check_raises "double free" (Invalid_argument "Dlheap.free: double free") (fun () ->
          Dlheap.free heap ctx a))

let test_bad_free_raises () =
  with_heap (fun heap _ ctx _ ->
      let _a = alloc heap ctx 32 in
      Alcotest.check_raises "wild pointer"
        (Invalid_argument "Dlheap.free: address not owned by this heap") (fun () ->
          Dlheap.free heap ctx 0xDEAD00))

let test_top_growth_uses_sbrk () =
  with_heap (fun heap _ ctx p ->
      let before = As.sbrk_calls (M.proc_vm p) in
      let _a = alloc heap ctx 512 in
      Alcotest.(check bool) "sbrk called" true (As.sbrk_calls (M.proc_vm p) > before);
      let before2 = As.sbrk_calls (M.proc_vm p) in
      let _b = alloc heap ctx 512 in
      (* top_pad means nearby allocations reuse the grown top *)
      Alcotest.(check int) "no extra sbrk" before2 (As.sbrk_calls (M.proc_vm p)))

let test_trim_returns_memory () =
  let params = { Dlheap.default_params with Dlheap.trim_threshold = 16 * 1024 } in
  with_heap ~params (fun heap _ ctx p ->
      let blocks = List.init 64 (fun _ -> alloc heap ctx 1024) in
      let high = As.brk (M.proc_vm p) in
      List.iter (fun u -> Dlheap.free heap ctx u) blocks;
      check_valid heap;
      Alcotest.(check bool) "brk released" true (As.brk (M.proc_vm p) < high);
      Alcotest.(check bool) "top under threshold" true (Dlheap.top_bytes heap <= 16 * 1024))

let test_mmap_threshold () =
  with_heap (fun heap stats ctx p ->
      let big = alloc heap ctx (Dlheap.default_params.Dlheap.mmap_threshold + 100) in
      Alcotest.(check int) "mmapped chunk counted" 1 stats.Core.Astats.mmapped_chunks;
      Alcotest.(check bool) "usable covers request" true
        (Dlheap.usable_size heap big >= Dlheap.default_params.Dlheap.mmap_threshold + 100);
      let mmaps = As.munmap_calls (M.proc_vm p) in
      Dlheap.free heap ctx big;
      Alcotest.(check bool) "munmapped on free" true (As.munmap_calls (M.proc_vm p) > mmaps);
      check_valid heap)

let test_live_chunks_counts_mmapped () =
  with_heap (fun heap _ ctx _ ->
      let big = alloc heap ctx (Dlheap.default_params.Dlheap.mmap_threshold + 100) in
      Alcotest.(check int) "one direct-mmapped chunk" 1 (Dlheap.live_chunks heap);
      Dlheap.free heap ctx big;
      Alcotest.(check int) "none after free" 0 (Dlheap.live_chunks heap))

(* Chunk metadata is kept per 16-byte slot, and a chunk may start at
   either half of one; addresses 8 bytes off a live chunk (sharing its
   slot, or the previous chunk's) and addresses inside a chunk are
   nobody's. *)
let test_off_chunk_addresses_rejected () =
  with_heap (fun heap _ ctx _ ->
      (* 24-byte chunks: a starts a slot, b starts 8 bytes into one *)
      let a = alloc heap ctx 16 in
      let b = alloc heap ctx 16 in
      let c = alloc heap ctx 200 in
      let _pin = alloc heap ctx 16 in
      List.iter
        (fun user ->
          Alcotest.check_raises "free"
            (Invalid_argument "Dlheap.free: address not owned by this heap") (fun () ->
              Dlheap.free heap ctx user);
          Alcotest.check_raises "usable_size" (Invalid_argument "Dlheap.usable_size: unknown address")
            (fun () -> ignore (Dlheap.usable_size heap user)))
        [ a + 8; b - 8; b + 8; c + 8; c + 16; c + 104; c + 4 ];
      check_valid heap;
      Alcotest.(check int) "a untouched" 16 (Dlheap.usable_size heap a);
      Alcotest.(check int) "b untouched" 16 (Dlheap.usable_size heap b);
      Dlheap.free heap ctx b;
      Alcotest.(check int) "one freed, three live" 3 (Dlheap.live_chunks heap);
      check_valid heap)

let test_sbrk_blocked_falls_back_to_mmap () =
  (* Squeeze the brk zone so growth hits the ceiling immediately. *)
  let vm =
    { As.linux_x86 with
      As.brk_base = 0x0810_0000;
      brk_ceiling = 0x0810_0000 + (16 * 4096);
    }
  in
  let m = M.create ~seed:1 { config with M.vm } in
  let p = M.create_proc m () in
  let stats = Core.Astats.create () in
  let heap = Dlheap.create_main p ~costs:Core.Costs.glibc ~params:Dlheap.default_params ~stats in
  ignore
    (M.spawn p (fun ctx ->
         (* Exhaust the sixteen brk pages, then keep allocating. *)
         let blocks = ref [] in
         for _ = 1 to 40 do
           blocks := alloc heap ctx 4000 :: !blocks
         done;
         Alcotest.(check bool) "grow failures recorded" true (stats.Core.Astats.grow_failures > 0);
         Alcotest.(check bool) "mmap fallback used" true (stats.Core.Astats.mmapped_chunks > 0);
         List.iter (fun u -> Dlheap.free heap ctx u) !blocks;
         check_valid heap));
  M.run m

let test_sub_heap_bounded () =
  let params = { Dlheap.default_params with Dlheap.sub_heap_bytes = 64 * 1024 } in
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  let stats = Core.Astats.create () in
  ignore
    (M.spawn p (fun ctx ->
         let heap = Option.get (Dlheap.create_sub ctx ~costs:Core.Costs.glibc ~params ~stats) in
         Alcotest.(check bool) "is sub" true (Dlheap.is_sub heap);
         let rec fill acc =
           match Dlheap.malloc heap ctx 4096 with
           | Some u -> fill (u :: acc)
           | None -> acc
         in
         let blocks = fill [] in
         Alcotest.(check bool) "held about 64KB worth" true
           (List.length blocks >= 13 && List.length blocks <= 16);
         check_valid heap;
         List.iter (fun u -> Dlheap.free heap ctx u) blocks;
         check_valid heap;
         (* after freeing everything it can serve again *)
         Alcotest.(check bool) "reusable after drain" true (Dlheap.malloc heap ctx 4096 <> None)));
  M.run m

let test_giant_coalesced_chunk_binned () =
  (* Regression: freeing adjacent blocks can coalesce into a region
     larger than the mmap threshold; it must land in the catch-all bin,
     not outside the bin array. *)
  with_heap (fun heap _ ctx _ ->
      let blocks = List.init 40 (fun _ -> alloc heap ctx 4096) in
      let pin = alloc heap ctx 64 in
      List.iter (fun u -> Dlheap.free heap ctx u) blocks;
      check_valid heap;
      Alcotest.(check bool) "giant chunk binned" true (Dlheap.free_bytes heap > 128 * 1024);
      (* and it is reusable *)
      let again = alloc heap ctx 100_000 in
      Dlheap.free heap ctx again;
      Dlheap.free heap ctx pin;
      check_valid heap)

let test_owns () =
  with_heap (fun heap _ ctx _ ->
      let a = alloc heap ctx 64 in
      Alcotest.(check bool) "owns its block" true (Dlheap.owns heap a);
      Alcotest.(check bool) "does not own wild" false (Dlheap.owns heap 0x7777_0000))

let test_segment_bounds () =
  with_heap (fun heap _ ctx _ ->
      let base0, end0 = Dlheap.segment_bounds heap in
      Alcotest.(check int) "empty before first alloc" 0 (end0 - base0);
      let _a = alloc heap ctx 64 in
      let base, stop = Dlheap.segment_bounds heap in
      Alcotest.(check bool) "covers the allocation" true (base <= _a - 8 && _a + 64 <= stop))

(* Property: random malloc/free interleavings preserve every invariant
   and never hand out overlapping live blocks. *)
let prop_random_ops =
  let gen =
    QCheck.make
      ~print:(fun ops -> String.concat ";" (List.map (fun (a, s) -> Printf.sprintf "%b/%d" a s) ops))
      QCheck.Gen.(list_size (int_range 1 120) (pair bool (int_range 1 3000)))
  in
  QCheck.Test.make ~name:"random op sequences keep heap invariants" ~count:60 gen (fun ops ->
      let result = ref true in
      with_heap (fun heap _ ctx _ ->
          let live = ref [] in
          List.iter
            (fun (do_alloc, size) ->
              if do_alloc || !live = [] then begin
                let u = alloc heap ctx size in
                (* no overlap with any live block *)
                let ulen = Dlheap.usable_size heap u in
                if
                  List.exists
                    (fun v ->
                      let vlen = Dlheap.usable_size heap v in
                      not (u + ulen <= v - 8 || v + vlen <= u - 8))
                    !live
                then result := false;
                live := u :: !live
              end
              else begin
                match !live with
                | u :: rest ->
                    Dlheap.free heap ctx u;
                    live := rest
                | [] -> ()
              end;
              match Dlheap.validate heap with Ok () -> () | Error _ -> result := false)
            ops;
          List.iter (fun u -> Dlheap.free heap ctx u) !live;
          (match Dlheap.validate heap with Ok () -> () | Error _ -> result := false);
          if Dlheap.live_chunks heap <> 0 then result := false);
      !result)

(* Property: random malloc/free/mallopt programs, on the main heap and
   on a sub-heap, keep every invariant, and the page walk accounts for
   the whole segment — allocated plus binned free plus top bytes are
   exactly its extent, and the live count (fastbin-parked chunks
   included, as they stay marked in use) matches the model. *)
type heap_op = Op_malloc of int | Op_free of int | Op_mallopt of (Dlheap.params -> Dlheap.params)

let heap_op_gen =
  QCheck.Gen.(
    let size = oneof [ int_range 1 500; int_range 1 3000; int_range 3000 40000 ] in
    let tune =
      oneofl
        [ ("mmap_threshold=4096", fun p -> { p with Dlheap.mmap_threshold = 4096 });
          ("mmap_threshold=default", fun p -> { p with Dlheap.mmap_threshold = 32 * 4096 });
          ("trim_threshold=0", fun p -> { p with Dlheap.trim_threshold = 0 });
          ("trim_threshold=16K", fun p -> { p with Dlheap.trim_threshold = 16 * 1024 });
          ("top_pad=0", fun p -> { p with Dlheap.top_pad = 0 });
          ("top_pad=64K", fun p -> { p with Dlheap.top_pad = 64 * 1024 });
          ("fastbins on", fun p -> { p with Dlheap.use_fastbins = true });
          ("fastbins off", fun p -> { p with Dlheap.use_fastbins = false });
        ]
    in
    frequency
      [ (6, map (fun n -> (Printf.sprintf "malloc %d" n, Op_malloc n)) size);
        (5, map (fun i -> (Printf.sprintf "free #%d" i, Op_free i)) (int_bound 1000));
        (1, map (fun (name, f) -> ("mallopt " ^ name, Op_mallopt f)) tune);
      ])

let prop_segment_accounting =
  let gen =
    QCheck.make
      ~print:(fun (sub, ops) ->
        (if sub then "sub: " else "main: ") ^ String.concat "; " (List.map fst ops))
      QCheck.Gen.(pair bool (list_size (int_range 1 150) heap_op_gen))
  in
  QCheck.Test.make ~name:"random malloc/free/mallopt programs account for the segment" ~count:80
    gen (fun (sub, ops) ->
      let fail = ref None in
      let check cond msg = if !fail = None && not cond then fail := Some msg in
      let m = M.create ~seed:1 config in
      let p = M.create_proc m () in
      let stats = Core.Astats.create () in
      let params = { Dlheap.default_params with Dlheap.sub_heap_bytes = 256 * 1024 } in
      ignore
        (M.spawn p (fun ctx ->
             let heap =
               if sub then Option.get (Dlheap.create_sub ctx ~costs:Core.Costs.glibc ~params ~stats)
               else Dlheap.create_main p ~costs:Core.Costs.glibc ~params ~stats
             in
             let live = ref [] in
             let audit () =
               (match Dlheap.validate heap with Ok () -> () | Error msg -> check false msg);
               let base, stop = Dlheap.segment_bounds heap in
               check
                 (Dlheap.used_bytes heap + Dlheap.free_bytes heap + Dlheap.top_bytes heap = stop - base)
                 "used + free + top <> segment extent";
               check
                 (Dlheap.live_chunks heap = List.length !live + Dlheap.fastbin_chunks heap)
                 "live_chunks disagrees with the model"
             in
             List.iter
               (fun (_, op) ->
                 (match op with
                 | Op_malloc n -> (
                     match Dlheap.malloc heap ctx n with
                     | Some u -> live := u :: !live
                     | None -> check sub "main heap refused a request")
                 | Op_free i ->
                     if !live <> [] then begin
                       let u = List.nth !live (i mod List.length !live) in
                       live := List.filter (fun v -> v <> u) !live;
                       Dlheap.free heap ctx u
                     end
                 | Op_mallopt f -> Dlheap.set_params heap (f (Dlheap.params heap)));
                 audit ())
               ops;
             List.iter (fun u -> Dlheap.free heap ctx u) !live;
             live := [];
             audit ()));
      M.run m;
      match !fail with Some msg -> QCheck.Test.fail_reportf "%s" msg | None -> true)

let prop_usable_size_covers_request =
  QCheck.Test.make ~name:"usable_size >= request, bounded overhead" ~count:60
    QCheck.(int_range 1 200_000)
    (fun size ->
      let out = ref true in
      with_heap (fun heap _ ctx _ ->
          let u = alloc heap ctx size in
          let usable = Dlheap.usable_size heap u in
          (* never less than asked; never more than a page of slack + 16 *)
          out := usable >= size && usable <= size + 4096 + 16;
          Dlheap.free heap ctx u);
      !out)

(* Golden address stream: the digest below was captured from this exact
   op sequence while the heap still indexed chunks with [Hashtbl], i.e.
   before the open-addressing [Int_table] swap. The allocator's
   placement decisions never consult index iteration order, so the
   malloc/free address stream must be bit-for-bit unchanged by the swap
   (and by any future index change). *)
let test_index_swap_stream () =
  let stream = Buffer.create 256 in
  let final_live = ref (-1) in
  with_heap (fun heap _ ctx _ ->
      let lcg = ref 12345 in
      let next_size () =
        lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
        1 + (!lcg mod 3000)
      in
      let live = ref [] in
      for i = 0 to 199 do
        if i mod 3 <> 2 || !live = [] then begin
          let size = next_size () in
          match Dlheap.malloc heap ctx size with
          | Some u ->
              Buffer.add_string stream (Printf.sprintf "a%x;" u);
              live := u :: !live
          | None -> Buffer.add_string stream "a!;"
        end
        else begin
          match !live with
          | u :: rest ->
              Dlheap.free heap ctx u;
              Buffer.add_string stream (Printf.sprintf "f%x;" u);
              live := rest
          | [] -> ()
        end
      done;
      (* One mmapped chunk through the threshold path, so the stream also
         pins the mm_chunks index behaviour. *)
      (match Dlheap.malloc heap ctx 200_000 with
      | Some u ->
          Buffer.add_string stream (Printf.sprintf "a%x;" u);
          Dlheap.free heap ctx u;
          Buffer.add_string stream (Printf.sprintf "f%x;" u)
      | None -> Buffer.add_string stream "a!;");
      List.iter
        (fun u ->
          Dlheap.free heap ctx u;
          Buffer.add_string stream (Printf.sprintf "f%x;" u))
        !live;
      final_live := Dlheap.live_chunks heap);
  let s = Buffer.contents stream in
  Alcotest.(check int) "stream length" 2432 (String.length s);
  Alcotest.(check string) "stream digest" "4aa7f5505159bdae6f3e0862a4b99a17"
    (Digest.to_hex (Digest.string s));
  Alcotest.(check int) "all freed" 0 !final_live

let suite =
  [ Alcotest.test_case "basic alloc/free" `Quick test_basic_alloc_free;
    Alcotest.test_case "index swap keeps address stream" `Quick test_index_swap_stream;
    Alcotest.test_case "exact reuse" `Quick test_exact_reuse;
    Alcotest.test_case "split and remainder" `Quick test_split_and_remainder;
    Alcotest.test_case "coalesce three-way" `Quick test_coalesce_three_way;
    Alcotest.test_case "no adjacent free chunks" `Quick test_no_adjacent_free_chunks;
    Alcotest.test_case "double free raises" `Quick test_double_free_raises;
    Alcotest.test_case "bad free raises" `Quick test_bad_free_raises;
    Alcotest.test_case "top growth uses sbrk" `Quick test_top_growth_uses_sbrk;
    Alcotest.test_case "trim returns memory" `Quick test_trim_returns_memory;
    Alcotest.test_case "mmap threshold" `Quick test_mmap_threshold;
    Alcotest.test_case "live_chunks counts direct-mmapped" `Quick test_live_chunks_counts_mmapped;
    Alcotest.test_case "off-chunk addresses rejected" `Quick test_off_chunk_addresses_rejected;
    Alcotest.test_case "sbrk blocked -> mmap fallback" `Quick test_sbrk_blocked_falls_back_to_mmap;
    Alcotest.test_case "sub heap bounded" `Quick test_sub_heap_bounded;
    Alcotest.test_case "giant coalesced chunk binned" `Quick test_giant_coalesced_chunk_binned;
    Alcotest.test_case "owns" `Quick test_owns;
    Alcotest.test_case "segment bounds" `Quick test_segment_bounds;
    QCheck_alcotest.to_alcotest prop_random_ops;
    QCheck_alcotest.to_alcotest prop_usable_size_covers_request;
    QCheck_alcotest.to_alcotest prop_segment_accounting;
  ]
