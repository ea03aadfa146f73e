module M = Mb_machine.Machine
module Int_table = Mb_sim.Int_table

type params = {
  mmap_threshold : int;
  trim_threshold : int;
  top_pad : int;
  sub_heap_bytes : int;
  use_fastbins : bool;
  defer_coalescing : bool;
  exact_fit : bool;
  mmap_fallback : bool;
}

let default_params =
  { mmap_threshold = 32 * 4096;
    trim_threshold = 128 * 1024;
    top_pad = 4096;
    sub_heap_bytes = 1024 * 1024;
    use_fastbins = false;
    defer_coalescing = false;
    exact_fit = true;
    mmap_fallback = true;
  }

let header_bytes = 8

let min_chunk_bytes = 16

let align = 8

(* Chunk metadata lives in flat int arrays indexed by address, the way
   dlmalloc keeps its boundary tags in the heap itself and reaches them
   by address arithmetic. A chunk is named by its address; user data
   starts at [addr + header_bytes]; [nil] is "no chunk".

   The segment is cut into 16-byte slots ([min_chunk_bytes]), so no two
   chunks ever start in the same slot. Slot [(addr - seg_base) / 16]
   holds four ints for the chunk starting in it:

     tag        size lsl 10 | (bin + 1) lsl 3 | odd lsl 2 | fastbin lsl 1 | free
     prev_size  the boundary tag: size of the chunk just below (0 at the base)
     fd, bk     bin links ([fd] alone for fastbins), [nil] at the ends

   [odd] tells a chunk at the slot's first byte from one 8 bytes in;
   [bin + 1] is 0 when the chunk is not binned; a tag of 0 marks a slot
   no chunk starts in. Slots are grouped into pages covering
   [1 lsl page_shift] bytes of the segment, allocated on first write
   through a directory indexed by [(addr - seg_base) lsr page_shift].
   A page covers 2 KB: its 512 ints are over the minor heap's size
   limit, so it is allocated straight into the major heap rather than
   copied there on promotion, and a heap of sparse large chunks pays
   4 KB of metadata per occupied page, not more. *)

let nil = -1

let page_shift = 11

let page_mask = (1 lsl page_shift) - 1

let slot_ints = 4

let page_ints = (1 lsl (page_shift - 4)) * slot_ints

let free_bit = 1

let fast_bit = 2

let odd_bit = 4

let bin_shift = 3

let bin_bits = 0x7F lsl bin_shift

let size_shift = 10

let f_tag = 0

let f_prev = 1

let f_fd = 2

let f_bk = 3

(* The directory's placeholder for a page never written. *)
let no_page : int array = [||]

type kind =
  | Main                                      (* grows at the process break *)
  | Sub of { region_base : int; region_len : int; mutable sub_brk : int }

type t = {
  proc : M.proc;
  costs : Costs.t;
  mutable params : params;
  stats : Astats.t;
  kind : kind;
  bins : int array;            (* head chunk of each bin, [nil] when empty *)
  mutable binmap_small : int;  (* bit i set iff bins.(i) is non-empty, for
                                  the 62 exact-spacing small bins — the
                                  first-fit scan is a ctz instead of a
                                  walk over empty slots *)
  mutable binmap_large : int;  (* same, bit (i - 62) for bins 62..95 *)
  fastbins : int array;        (* glibc-2.3-style no-coalesce caches, opt-in *)
  mutable pages : int array array;  (* chunk metadata, see above *)
  mm_chunks : int Int_table.t; (* direct-mmapped: chunk addr -> mapped len *)
  mutable top_addr : int;      (* the wilderness chunk, kept out of the
                                  bins and the pages *)
  mutable top_size : int;
  mutable top_prev : int;
  mutable seg_base : int;      (* -1 until the first growth *)
  mutable initialized : bool;
}

let nbins = 96

let small_limit = 512

(* Small bins: exact 8-byte spacing for chunk sizes 16..511 -> indexes
   0..61. Large bins: four per size doubling, dlmalloc style. *)
let bin_index size =
  if size < small_limit then (size - min_chunk_bytes) / align
  else begin
    let rec find idx lo width =
      if idx >= nbins - 1 then nbins - 1
      else begin
        (* Bins [idx .. idx+3] cover [lo, 2*lo) in four steps of [width];
           clamp at the catch-all last bin (giant coalesced regions). *)
        let doubling_end = 2 * lo in
        if size < doubling_end then min (nbins - 1) (idx + ((size - lo) / width))
        else find (idx + 4) doubling_end (width * 2)
      end
    in
    find 62 small_limit (small_limit / 4)
  end

let is_small size = size < small_limit

let small_bin_count = (small_limit - min_chunk_bytes) / align  (* bins 0..61 *)

(* Fastbins: chunk sizes 16..80, 8-byte spacing (glibc 2.3's fast path,
   modelled here as the opt-in evolution the ablate-fastbins bench
   studies). Fastbin chunks stay marked in use so neighbours never
   coalesce with them; consolidation happens in bulk when the heap must
   otherwise grow. *)
let fastbin_limit = 80

let nfastbins = ((fastbin_limit - min_chunk_bytes) / align) + 1

let fastbin_index size = (size - min_chunk_bytes) / align

let fastbin_cycles = 85

let chunk_size_for request = max min_chunk_bytes ((request + header_bytes + align - 1) / align * align)

let make proc ~costs ~params ~stats ~kind =
  let base, initialized = match kind with Main -> (-1, false) | Sub s -> (s.region_base, true) in
  { proc;
    costs;
    params;
    stats;
    kind;
    bins = Array.make nbins nil;
    binmap_small = 0;
    binmap_large = 0;
    fastbins = Array.make nfastbins nil;
    pages = Array.make 16 no_page;
    mm_chunks = Int_table.create ~initial:16 ();
    top_addr = base;
    top_size = 0;
    top_prev = 0;
    seg_base = base;
    initialized;
  }

let create_main proc ~costs ~params ~stats =
  make proc ~costs ~params ~stats ~kind:Main

let create_sub ctx ~costs ~params ~stats =
  match M.mmap ctx ~len:params.sub_heap_bytes with
  | None -> None
  | Some region_base ->
      let region_len = params.sub_heap_bytes in
      let t =
        make (M.proc ctx) ~costs ~params ~stats
          ~kind:(Sub { region_base; region_len; sub_brk = region_base })
      in
      stats.Astats.arenas_created <- stats.Astats.arenas_created + 1;
      Some t

(* --- chunk metadata ------------------------------------------------------ *)

(* Field [f] of the chunk at [c], which must exist. *)
let[@inline] get t c f =
  let rel = c - t.seg_base in
  t.pages.(rel lsr page_shift).((((rel land page_mask) lsr 4) * slot_ints) + f)

let[@inline] set t c f v =
  let rel = c - t.seg_base in
  t.pages.(rel lsr page_shift).((((rel land page_mask) lsr 4) * slot_ints) + f) <- v

let[@inline] size t c = get t c f_tag lsr size_shift

let[@inline] is_free t c = get t c f_tag land free_bit <> 0

let[@inline] bin_of t c = ((get t c f_tag land bin_bits) lsr bin_shift) - 1

let[@inline] fd t c = get t c f_fd

let[@inline] set_size t c size = set t c f_tag ((get t c f_tag land ((1 lsl size_shift) - 1)) lor (size lsl size_shift))

let[@inline] set_flag t c bit = set t c f_tag (get t c f_tag lor bit)

let[@inline] clear_flags t c bits = set t c f_tag (get t c f_tag land lnot bits)

let[@inline] set_bin t c idx = set t c f_tag ((get t c f_tag land lnot bin_bits) lor ((idx + 1) lsl bin_shift))

(* Whether a chunk starts exactly at [addr]; safe on any address. *)
let chunk_at t addr =
  let rel = addr - t.seg_base in
  t.initialized && rel >= 0
  && rel land (align - 1) = 0
  && rel lsr page_shift < Array.length t.pages
  &&
  let page = t.pages.(rel lsr page_shift) in
  page != no_page
  &&
  let tag = page.(((rel land page_mask) lsr 4) * slot_ints) in
  tag <> 0 && (tag land odd_bit <> 0) = (rel land 8 <> 0)

(* Write a fresh unlinked chunk at [c], allocating its page (and room
   in the directory) on first use. *)
let new_chunk t c ~size ~prev_size ~free =
  let rel = c - t.seg_base in
  let pi = rel lsr page_shift in
  let n = Array.length t.pages in
  if pi >= n then begin
    let dir = Array.make (max (pi + 1) (2 * n)) no_page in
    Array.blit t.pages 0 dir 0 n;
    t.pages <- dir
  end;
  let page =
    let p = t.pages.(pi) in
    if p != no_page then p
    else begin
      let p = Array.make page_ints 0 in
      t.pages.(pi) <- p;
      p
    end
  in
  let o = ((rel land page_mask) lsr 4) * slot_ints in
  page.(o + f_tag) <-
    (size lsl size_shift) lor (if rel land 8 <> 0 then odd_bit else 0) lor if free then free_bit else 0;
  page.(o + f_prev) <- prev_size;
  page.(o + f_fd) <- nil;
  page.(o + f_bk) <- nil

(* The chunk at [c] stops existing (merged into a neighbour or the top). *)
let[@inline] drop_chunk t c = set t c f_tag 0

(* Fold [f] over the tag of every chunk in the segment. *)
let fold_tags t f init =
  let acc = ref init in
  Array.iter
    (fun page ->
      let o = ref 0 in
      while !o < Array.length page do
        let tag = page.(!o) in
        if tag <> 0 then acc := f tag !acc;
        o := !o + slot_ints
      done)
    t.pages;
  !acc

(* --- bin list management ------------------------------------------------ *)

(* Occupancy bitmap over the bins, split small/large because 96 bins
   exceed one OCaml int. Maintained at the only two places a bin's
   emptiness can change ([bin_insert], [unlink]); [search_bins] and the
   exact-fit fast path read it so a first-fit scan never visits an
   empty slot. *)

let binmap_set t idx =
  if idx < small_bin_count then t.binmap_small <- t.binmap_small lor (1 lsl idx)
  else t.binmap_large <- t.binmap_large lor (1 lsl (idx - small_bin_count))

let binmap_clear_if_empty t idx =
  if t.bins.(idx) = nil then
    if idx < small_bin_count then t.binmap_small <- t.binmap_small land lnot (1 lsl idx)
    else t.binmap_large <- t.binmap_large land lnot (1 lsl (idx - small_bin_count))

(* Count trailing zeros of a non-zero word (62 bits used at most). *)
let ctz v =
  let n = ref 0 and v = ref v in
  if !v land 0xFFFFFFFF = 0 then begin n := 32; v := !v lsr 32 end;
  if !v land 0xFFFF = 0 then begin n := !n + 16; v := !v lsr 16 end;
  if !v land 0xFF = 0 then begin n := !n + 8; v := !v lsr 8 end;
  if !v land 0xF = 0 then begin n := !n + 4; v := !v lsr 4 end;
  if !v land 0x3 = 0 then begin n := !n + 2; v := !v lsr 2 end;
  if !v land 0x1 = 0 then incr n;
  !n

let unlink t c =
  let idx = bin_of t c in
  let f = get t c f_fd and b = get t c f_bk in
  if b <> nil then set t b f_fd f else t.bins.(idx) <- f;
  if f <> nil then set t f f_bk b;
  set t c f_fd nil;
  set t c f_bk nil;
  clear_flags t c bin_bits;
  binmap_clear_if_empty t idx

(* Insert into its bin: small bins are LIFO; large bins are kept sorted
   ascending by size so the first fitting chunk is the best fit. Returns
   the number of list nodes examined (charged by the caller). *)
let bin_insert t c =
  let csize = size t c in
  let idx = bin_index csize in
  set_bin t c idx;
  binmap_set t idx;
  if is_small csize then begin
    let head = t.bins.(idx) in
    if head <> nil then set t head f_bk c;
    set t c f_fd head;
    set t c f_bk nil;
    t.bins.(idx) <- c;
    1
  end
  else begin
    let rec walk probes prev cur =
      if cur <> nil && size t cur < csize then walk (probes + 1) cur (fd t cur)
      else begin
        set t c f_fd cur;
        set t c f_bk prev;
        if cur <> nil then set t cur f_bk c;
        if prev <> nil then set t prev f_fd c else t.bins.(idx) <- c;
        probes
      end
    in
    walk 1 nil t.bins.(idx)
  end

(* --- boundary-tag helpers ---------------------------------------------- *)

let top_end t = t.top_addr + t.top_size

(* Record that the chunk starting at [addr] now follows one of [size]
   bytes. [addr] may be the top chunk or beyond the segment end. *)
let set_prev_size t addr size =
  if addr = t.top_addr then t.top_prev <- size
  else if chunk_at t addr then set t addr f_prev size

let prev_chunk t c =
  let ps = get t c f_prev in
  if ps = 0 || not (chunk_at t (c - ps)) then nil else c - ps

(* --- growth -------------------------------------------------------------- *)

(* Extend the top chunk by at least [need] bytes; false when this heap's
   backing cannot grow further. *)
let grow_top t ctx need =
  match t.kind with
  | Main -> begin
      let request = (need + t.params.top_pad + 4095) / 4096 * 4096 in
      match M.sbrk ctx request with
      | Some base ->
          if not t.initialized then begin
            t.seg_base <- base;
            t.top_addr <- base;
            t.top_size <- 0;
            t.initialized <- true
          end;
          (* sbrk growth is contiguous with the previous break. *)
          t.top_size <- t.top_size + request;
          true
      | None ->
          t.stats.Astats.grow_failures <- t.stats.Astats.grow_failures + 1;
          false
    end
  | Sub s ->
      let limit = s.region_base + s.region_len in
      let request = min (limit - s.sub_brk) (max need t.params.top_pad) in
      if request < need then begin
        t.stats.Astats.grow_failures <- t.stats.Astats.grow_failures + 1;
        false
      end
      else begin
        s.sub_brk <- s.sub_brk + request;
        t.top_size <- t.top_size + request;
        true
      end

(* Give back an oversized main-heap top via a negative sbrk; sub-heaps
   keep their reservation (as early ptmalloc did). *)
let maybe_trim t ctx =
  match t.kind with
  | Sub _ -> ()
  | Main ->
      if t.initialized && t.top_size > t.params.trim_threshold then begin
        let keep = t.params.top_pad in
        let release = (t.top_size - keep) / 4096 * 4096 in
        if release > 0 then
          match M.sbrk ctx (-release) with
          | Some _ -> t.top_size <- t.top_size - release
          | None -> ()
      end

(* --- malloc -------------------------------------------------------------- *)

let charge_probes t ctx probes = if probes > 0 then M.work ctx (Costs.apply t.costs (t.costs.Costs.bin_probe * probes))

(* Split [size] bytes off the front of a free (unlinked) chunk; the
   remainder goes back to a bin. *)
let split_chunk t ctx c csize =
  let rem_size = size t c - csize in
  if rem_size >= min_chunk_bytes then begin
    let rem = c + csize in
    set_size t c csize;
    new_chunk t rem ~size:rem_size ~prev_size:csize ~free:true;
    set_prev_size t (rem + rem_size) rem_size;
    let probes = bin_insert t rem in
    M.work ctx (Costs.apply t.costs t.costs.Costs.split);
    charge_probes t ctx probes;
    M.write_mem ctx rem
  end

(* Take [size] bytes from the bottom of the wilderness. *)
let carve_top t ctx size =
  let c = t.top_addr in
  new_chunk t c ~size ~prev_size:t.top_prev ~free:false;
  t.top_addr <- c + size;
  t.top_size <- t.top_size - size;
  t.top_prev <- size;
  M.write_mem ctx c;
  c

(* Accounting convention: live/requested bytes are counted as usable
   bytes (chunk size minus header) on both malloc and free, so the two
   sides always balance. *)
let malloc_mmapped t ctx csize =
  let len = (csize + 4095) / 4096 * 4096 in
  match M.mmap ctx ~len with
  | None -> None
  | Some addr ->
      Int_table.set t.mm_chunks addr len;
      t.stats.Astats.mmapped_chunks <- t.stats.Astats.mmapped_chunks + 1;
      M.write_mem ctx addr;
      Astats.record_malloc t.stats (len - header_bytes);
      Some (addr + header_bytes)

(* Coalesce a newly freed chunk with its neighbours and bin it (or merge
   it into the wilderness). The chunk's free flag must already be set. *)
let coalesce_and_bin t ctx c =
  (* Coalesce backward. *)
  let c =
    let p = prev_chunk t c in
    if p <> nil && is_free t p then begin
      unlink t p;
      let merged = size t p + size t c in
      drop_chunk t c;
      set_size t p merged;
      set_prev_size t (p + merged) merged;
      M.work ctx (Costs.apply t.costs t.costs.Costs.coalesce);
      M.write_mem ctx p;
      p
    end
    else c
  in
  (* Coalesce forward, possibly into the wilderness. *)
  let csize = size t c in
  let next = c + csize in
  if next = t.top_addr then begin
    let prev = get t c f_prev in
    drop_chunk t c;
    t.top_addr <- c;
    t.top_size <- t.top_size + csize;
    t.top_prev <- prev;
    M.work ctx (Costs.apply t.costs t.costs.Costs.coalesce);
    M.write_mem ctx c;
    maybe_trim t ctx
  end
  else begin
    if chunk_at t next && is_free t next then begin
      unlink t next;
      let merged = csize + size t next in
      drop_chunk t next;
      set_size t c merged;
      set_prev_size t (c + merged) merged;
      M.work ctx (Costs.apply t.costs t.costs.Costs.coalesce)
    end;
    let probes = bin_insert t c in
    charge_probes t ctx probes;
    M.write_mem ctx c
  end

(* Merge every binned free chunk with its free neighbours — the bulk
   companion to [defer_coalescing]: frees skip the merge work, and this
   pass performs it wholesale when the heap would otherwise grow.
   Returns the number of chunks that went through the coalescing path.
   Chunks absorbed by an earlier merge in the same pass are recognized
   by their cleared tag and skipped. *)
let consolidate_deferred t ctx =
  let pending = ref [] in
  for i = nbins - 1 downto 0 do
    let node = ref t.bins.(i) in
    while !node <> nil do
      pending := !node :: !pending;
      node := fd t !node
    done
  done;
  let merged = ref 0 in
  List.iter
    (fun c ->
      if chunk_at t c && is_free t c && bin_of t c >= 0 then begin
        incr merged;
        unlink t c;
        coalesce_and_bin t ctx c
      end)
    !pending;
  t.stats.Astats.consolidations <- t.stats.Astats.consolidations + 1;
  !merged

(* Drain every fastbin through the normal coalescing path — what glibc's
   malloc_consolidate does before growing the heap. Returns the number
   of chunks consolidated. *)
let consolidate_fastbins t ctx =
  let drained = ref 0 in
  for i = 0 to nfastbins - 1 do
    let node = ref t.fastbins.(i) in
    while !node <> nil do
      let c = !node in
      node := fd t c;
      set t c f_fd nil;
      clear_flags t c fast_bit;
      set_flag t c free_bit;
      incr drained;
      coalesce_and_bin t ctx c
    done;
    t.fastbins.(i) <- nil
  done;
  !drained

(* Scan bins at [idx] and above for the first chunk of at least [csize]
   and charge the probes; large bins are sorted so the first fit within
   a bin is best. The occupancy bitmaps drive the scan, so only
   non-empty bins are visited — exactly the bins the plain walk charged
   probes for, so the simulated cost (and the chunk chosen) is identical
   to a linear scan. *)
let search_bins t ctx idx csize =
  let probes = ref 0 in
  let found = ref nil in
  if idx < small_bin_count then begin
    let bits = t.binmap_small land ((-1) lsl idx) in
    if bits <> 0 then begin
      let head = t.bins.(ctz bits) in
      incr probes;
      (* Exact-spacing bin: the head always fits if the bin is right. *)
      if size t head >= csize then found := head
    end
  end;
  if !found = nil then begin
    let start = if idx < small_bin_count then 0 else idx - small_bin_count in
    let bits = ref (t.binmap_large land ((-1) lsl start)) in
    while !found = nil && !bits <> 0 do
      let i = small_bin_count + ctz !bits in
      bits := !bits land (!bits - 1);
      incr probes;
      let node = ref t.bins.(i) in
      while !node <> nil do
        incr probes;
        if size t !node >= csize then begin
          found := !node;
          node := nil
        end
        else node := fd t !node
      done
    done
  end;
  charge_probes t ctx !probes;
  !found

(* Hand out the free chunk [c], found by a bin search. *)
let take_binned t ctx c csize =
  unlink t c;
  clear_flags t c free_bit;
  split_chunk t ctx c csize;
  M.write_mem ctx c;
  Astats.record_malloc t.stats (size t c - header_bytes);
  Some (c + header_bytes)

let take_top t ctx csize =
  let c = carve_top t ctx csize in
  Astats.record_malloc t.stats (csize - header_bytes);
  Some (c + header_bytes)

let malloc t ctx request =
  if request <= 0 then invalid_arg "Dlheap.malloc: size <= 0";
  let csize = chunk_size_for request in
  if
    t.params.use_fastbins && csize <= fastbin_limit && t.fastbins.(fastbin_index csize) <> nil
  then begin
    (* glibc fast path: exact-size LIFO pop, no unlink or split work —
       charged instead of, not on top of, the regular malloc path. *)
    let idx = fastbin_index csize in
    let c = t.fastbins.(idx) in
    t.fastbins.(idx) <- fd t c;
    set t c f_fd nil;
    clear_flags t c fast_bit;
    M.work ctx (Costs.apply t.costs fastbin_cycles);
    M.write_mem ctx c;
    Astats.record_malloc t.stats (size t c - header_bytes);
    Some (c + header_bytes)
  end
  else if csize >= t.params.mmap_threshold then begin
    M.work ctx (Costs.apply t.costs t.costs.Costs.malloc_base);
    malloc_mmapped t ctx csize
  end
  else if
    t.params.exact_fit && is_small csize
    && t.binmap_small land (1 lsl ((csize - min_chunk_bytes) / align)) <> 0
  then begin
    (* Exact-fit fast path: the request's own small bin is occupied, so
       the answer is its LIFO head — same chunk, same charges (base +
       one probe; a zero-remainder split charges nothing) as the general
       scan would produce, without the scan, the general unlink or the
       split bookkeeping. *)
    M.work ctx (Costs.apply t.costs t.costs.Costs.malloc_base);
    let idx = (csize - min_chunk_bytes) / align in
    let c = t.bins.(idx) in
    (* exact spacing: the head's size is the bin's size *)
    assert (size t c = csize);
    charge_probes t ctx 1;
    let f = fd t c in
    if f <> nil then begin
      set t f f_bk nil;
      t.bins.(idx) <- f
    end
    else begin
      t.bins.(idx) <- nil;
      t.binmap_small <- t.binmap_small land lnot (1 lsl idx)
    end;
    set t c f_fd nil;
    clear_flags t c (bin_bits lor free_bit);
    M.write_mem ctx c;
    Astats.record_malloc t.stats (csize - header_bytes);
    Some (c + header_bytes)
  end
  else begin
    M.work ctx (Costs.apply t.costs t.costs.Costs.malloc_base);
    let idx = bin_index csize in
    let c = search_bins t ctx idx csize in
    if c <> nil then take_binned t ctx c csize
    else if
      (* Nothing binned fits: use the wilderness, growing it if needed. *)
      t.top_size >= csize + min_chunk_bytes
    then take_top t ctx csize
    else if
      (t.params.use_fastbins && consolidate_fastbins t ctx > 0)
      || (t.params.defer_coalescing && consolidate_deferred t ctx > 0)
    then begin
      (* glibc consolidates the fastbins (and, with coalescing
         deferred, the binned free chunks) before growing the heap;
         retry the bins with the coalesced chunks available. *)
      let c = search_bins t ctx idx csize in
      if c <> nil then take_binned t ctx c csize
      else if t.top_size >= csize + min_chunk_bytes || grow_top t ctx (csize + min_chunk_bytes)
      then take_top t ctx csize
      else begin
        match t.kind with
        | Main -> malloc_mmapped t ctx csize
        | Sub _ -> None
      end
    end
    else if grow_top t ctx (csize + min_chunk_bytes) then take_top t ctx csize
    else begin
      match t.kind with
      | Main when t.params.mmap_fallback ->
          (* The brk hit a mapping: fall back to mmap for this
             request, as glibc does after 2.1.3. *)
          malloc_mmapped t ctx csize
      | Main | Sub _ -> None
    end
  end

(* --- free ---------------------------------------------------------------- *)

(* Direct-mmapped chunks never lie in the segment, so the segment lookup
   (a few loads) goes first and the hashed one only runs when it fails. *)
let free t ctx user =
  let c = user - header_bytes in
  if not (chunk_at t c) then begin
    match Int_table.find_exn t.mm_chunks c with
    | len ->
        M.work ctx (Costs.apply t.costs t.costs.Costs.free_base);
        Int_table.remove t.mm_chunks c;
        M.munmap ctx c ~len;
        Astats.record_free t.stats (len - header_bytes)
    | exception Not_found -> invalid_arg "Dlheap.free: address not owned by this heap"
  end
  else begin
    let tag = get t c f_tag in
    if tag land free_bit <> 0 then invalid_arg "Dlheap.free: double free";
    if tag land fast_bit <> 0 then invalid_arg "Dlheap.free: double free (fastbin)";
    let csize = tag lsr size_shift in
    M.read_mem ctx c;
    Astats.record_free t.stats (csize - header_bytes);
    if t.params.use_fastbins && csize <= fastbin_limit then begin
      (* Fast path: no coalescing, the chunk stays marked in use. *)
      M.work ctx (Costs.apply t.costs fastbin_cycles);
      let idx = fastbin_index csize in
      set_flag t c fast_bit;
      set t c f_fd t.fastbins.(idx);
      t.fastbins.(idx) <- c;
      M.write_mem ctx c
    end
    else if t.params.defer_coalescing && is_small csize then begin
      (* Deferred coalescing: tag the chunk free and LIFO-push it into
         its exact-spacing bin, leaving the neighbour merges to a bulk
         [consolidate_deferred] pass when the heap would otherwise
         grow. The chunk is immediately reusable through the exact-fit
         fast path. *)
      M.work ctx (Costs.apply t.costs t.costs.Costs.deferred_free);
      t.stats.Astats.deferred_frees <- t.stats.Astats.deferred_frees + 1;
      set_flag t c free_bit;
      let probes = bin_insert t c in
      charge_probes t ctx probes;
      M.write_mem ctx c
    end
    else begin
      M.work ctx (Costs.apply t.costs t.costs.Costs.free_base);
      set_flag t c free_bit;
      coalesce_and_bin t ctx c
    end
  end

(* --- queries -------------------------------------------------------------- *)

let owns t user =
  let caddr = user - header_bytes in
  (match t.kind with
  | Main -> t.initialized && caddr >= t.seg_base && caddr < top_end t
  | Sub s -> caddr >= s.region_base && caddr < s.region_base + s.region_len)
  || Int_table.mem t.mm_chunks caddr

let usable_size t user =
  let c = user - header_bytes in
  if chunk_at t c then size t c - header_bytes
  else
    match Int_table.find_exn t.mm_chunks c with
    | len -> len - header_bytes
    | exception Not_found -> invalid_arg "Dlheap.usable_size: unknown address"

let is_sub t = match t.kind with Main -> false | Sub _ -> true

let segment_bounds t = if t.initialized then (t.seg_base, top_end t) else (0, 0)

let top_bytes t = t.top_size

let free_bytes t =
  fold_tags t (fun tag acc -> if tag land free_bit <> 0 then acc + (tag lsr size_shift) else acc) 0

let live_chunks t =
  fold_tags t (fun tag acc -> if tag land free_bit <> 0 then acc else acc + 1) (Int_table.length t.mm_chunks)

let used_bytes t =
  fold_tags t (fun tag acc -> if tag land free_bit <> 0 then acc else acc + (tag lsr size_shift)) 0

let mmapped_bytes t = Int_table.fold (fun _ len acc -> acc + len) t.mm_chunks 0

let mmapped_count t = Int_table.length t.mm_chunks

let set_params t params = t.params <- params

(* Length of the list starting at [head], linked through [fd]. *)
let list_length t head =
  let n = ref 0 and node = ref head in
  while !node <> nil do
    incr n;
    node := fd t !node
  done;
  !n

let fastbin_chunks t = Array.fold_left (fun acc head -> acc + list_length t head) 0 t.fastbins

let consolidate = consolidate_fastbins

let params t = t.params

(* --- validation ------------------------------------------------------------ *)

let validate t =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  (* The segment walk counts the chunks it visits, so [check_counts] can
     tell a stale slot from a chunk. *)
  let walked = ref 0 in
  let check_segment () =
    if not t.initialized then Ok ()
    else begin
      let rec walk addr prev_size prev_free =
        if addr = t.top_addr then
          if t.top_prev <> prev_size then
            fail "top.prev_size=%d but previous chunk has size %d" t.top_prev prev_size
          else Ok ()
        else if addr > t.top_addr then fail "chunk walk overshot top at 0x%x" addr
        else if not (chunk_at t addr) then fail "segment hole at 0x%x" addr
        else begin
          incr walked;
          let csize = size t addr and free = is_free t addr and bin = bin_of t addr in
          if csize < min_chunk_bytes then fail "undersized chunk at 0x%x" addr
          else if csize mod align <> 0 then fail "misaligned size at 0x%x" addr
          else if get t addr f_prev <> prev_size then
            fail "bad boundary tag at 0x%x: prev_size=%d, actual=%d" addr (get t addr f_prev) prev_size
          else if free && prev_free && not t.params.defer_coalescing then
            fail "adjacent free chunks at 0x%x" addr
          else if free && bin < 0 then fail "free chunk at 0x%x not in a bin" addr
          else if (not free) && bin >= 0 then fail "live chunk at 0x%x still binned" addr
          else walk (addr + csize) csize free
        end
      in
      walk t.seg_base 0 false
    end
  in
  let check_bins () =
    let rec check_bin idx =
      if idx >= nbins then Ok ()
      else begin
        let rec walk prev node last_size =
          if node = nil then Ok ()
          else if not (chunk_at t node) then fail "bin %d links to 0x%x, not a chunk" idx node
          else begin
            let csize = size t node in
            if not (is_free t node) then fail "bin %d holds live chunk 0x%x" idx node
            else if bin_of t node <> idx then
              fail "chunk 0x%x in bin %d but tagged %d" node idx (bin_of t node)
            else if bin_index csize <> idx then
              fail "chunk 0x%x (size %d) misfiled in bin %d" node csize idx
            else if get t node f_bk <> prev then fail "broken back link at 0x%x in bin %d" node idx
            else if (not (is_small csize)) && csize < last_size then
              fail "large bin %d unsorted at 0x%x" idx node
            else walk node (fd t node) csize
          end
        in
        match walk nil t.bins.(idx) 0 with
        | Error _ as e -> e
        | Ok () -> check_bin (idx + 1)
      end
    in
    check_bin 0
  in
  let check_counts () =
    let binned = Array.fold_left (fun acc head -> acc + list_length t head) 0 t.bins in
    let free_chunks = fold_tags t (fun tag acc -> if tag land free_bit <> 0 then acc + 1 else acc) 0 in
    let slots = fold_tags t (fun _ acc -> acc + 1) 0 in
    if binned <> free_chunks then fail "%d free chunks but %d binned" free_chunks binned
    else if slots <> !walked then fail "%d chunk slots but %d chunks in the segment" slots !walked
    else Ok ()
  in
  let check_binmap () =
    let rec check idx =
      if idx >= nbins then Ok ()
      else begin
        let bit =
          if idx < small_bin_count then t.binmap_small land (1 lsl idx)
          else t.binmap_large land (1 lsl (idx - small_bin_count))
        in
        if t.bins.(idx) <> nil && bit = 0 then fail "bin %d occupied but binmap bit clear" idx
        else if t.bins.(idx) = nil && bit <> 0 then fail "bin %d empty but binmap bit set" idx
        else check (idx + 1)
      end
    in
    check 0
  in
  let check_fastbins () =
    let bad = ref None in
    Array.iteri
      (fun i head ->
        let node = ref head in
        while !bad = None && !node <> nil do
          let c = !node in
          if not (chunk_at t c) then bad := Some (Printf.sprintf "fastbin %d links to 0x%x, not a chunk" i c)
          else begin
            if get t c f_tag land fast_bit = 0 then
              bad := Some (Printf.sprintf "fastbin %d holds untagged chunk 0x%x" i c)
            else if is_free t c then bad := Some (Printf.sprintf "fastbin chunk 0x%x marked free" c)
            else if size t c > fastbin_limit then
              bad := Some (Printf.sprintf "oversized fastbin chunk 0x%x" c)
            else if fastbin_index (size t c) <> i then
              bad := Some (Printf.sprintf "fastbin chunk 0x%x misfiled" c);
            node := fd t c
          end
        done)
      t.fastbins;
    match !bad with Some m -> Error m | None -> Ok ()
  in
  match check_segment () with
  | Error _ as e -> e
  | Ok () -> (
      match check_bins () with
      | Error _ as e -> e
      | Ok () -> (
          match check_counts () with
          | Error _ as e -> e
          | Ok () -> (
              match check_binmap () with Error _ as e -> e | Ok () -> check_fastbins ())))
