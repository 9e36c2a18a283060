(* HdrHistogram-style log-linear buckets over non-negative ints.

   Layout: values in [0, n_sub) land in bucket [v] exactly.  For larger
   values let [msb] be the index of the highest set bit (>= sub_bits);
   the bucket is

     (msb - sub_bits + 1) * n_sub  +  ((v lsr (msb - sub_bits)) land (n_sub - 1))

   i.e. one row of [n_sub] linear sub-buckets per power-of-two range,
   sharing row 0 with the exact small values.  With sub_bits = 4 and
   62 usable ranges the table is a flat array of ~1k ints — cheap to
   allocate per worker and to merge element-wise. *)

let sub_bits = 4

let n_sub = 1 lsl sub_bits

(* 63-bit ints: msb index ranges over 0..62 *)
let n_buckets = (63 - sub_bits + 1) * n_sub

type t = {
  counts : int array;
  mutable n : int;
  mutable total : int;
  mutable vmin : int;
  mutable vmax : int;
}

let create () =
  { counts = Array.make n_buckets 0; n = 0; total = 0; vmin = max_int; vmax = 0 }

let msb_index v =
  (* index of the highest set bit; v >= 1 *)
  let i = ref 0 and v = ref v in
  if !v land 0x7fffffff00000000 <> 0 then (i := !i + 32; v := !v lsr 32);
  if !v land 0xffff0000 <> 0 then (i := !i + 16; v := !v lsr 16);
  if !v land 0xff00 <> 0 then (i := !i + 8; v := !v lsr 8);
  if !v land 0xf0 <> 0 then (i := !i + 4; v := !v lsr 4);
  if !v land 0xc <> 0 then (i := !i + 2; v := !v lsr 2);
  if !v land 0x2 <> 0 then i := !i + 1;
  !i

let bucket_of v =
  if v < n_sub then v
  else
    let msb = msb_index v in
    let shift = msb - sub_bits in
    ((shift + 1) * n_sub) + ((v lsr shift) land (n_sub - 1))

(* inclusive upper bound of a bucket: the largest value mapping to it *)
let bucket_upper b =
  if b < n_sub then b
  else
    let row = (b / n_sub) - 1 and sub = b mod n_sub in
    let shift = row in
    (* values v with msb = shift + sub_bits and the top linear slice = sub *)
    ((((1 lsl sub_bits) lor sub) + 1) lsl shift) - 1

let record t v =
  let v = if v < 0 then 0 else v in
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.n <- t.n + 1;
  t.total <- t.total + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.n

let sum t = t.total

let min_value t = if t.n = 0 then 0 else t.vmin

let max_value t = t.vmax

let mean t = if t.n = 0 then 0. else float_of_int t.total /. float_of_int t.n

let percentile t q =
  if t.n = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.n))) in
    let acc = ref 0 and b = ref 0 and res = ref t.vmax in
    (try
       while !b < n_buckets do
         acc := !acc + t.counts.(!b);
         if !acc >= rank then begin
           (* the topmost ranges overflow the int on [bucket_upper];
              clamp through vmax, which is exact *)
           let u = bucket_upper !b in
           res := (if u < 0 then t.vmax else min t.vmax u);
           raise Exit
         end;
         incr b
       done
     with Exit -> ());
    !res
  end

let merge ~into src =
  for b = 0 to n_buckets - 1 do
    into.counts.(b) <- into.counts.(b) + src.counts.(b)
  done;
  into.n <- into.n + src.n;
  into.total <- into.total + src.total;
  if src.n > 0 then begin
    if src.vmin < into.vmin then into.vmin <- src.vmin;
    if src.vmax > into.vmax then into.vmax <- src.vmax
  end

let copy t =
  {
    counts = Array.copy t.counts;
    n = t.n;
    total = t.total;
    vmin = t.vmin;
    vmax = t.vmax;
  }

let clear t =
  Array.fill t.counts 0 n_buckets 0;
  t.n <- 0;
  t.total <- 0;
  t.vmin <- max_int;
  t.vmax <- 0

let bucket_total t = Array.fold_left ( + ) 0 t.counts

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("bucket_total", Json.Int (bucket_total t));
      ("sum", Json.Int t.total);
      ("min", Json.Int (min_value t));
      ("mean", Json.Float (mean t));
      ("p50", Json.Int (percentile t 0.50));
      ("p90", Json.Int (percentile t 0.90));
      ("p95", Json.Int (percentile t 0.95));
      ("p99", Json.Int (percentile t 0.99));
      ("max", Json.Int t.vmax);
    ]

module Sync = struct
  type histogram = t

  type t = { lock : Mutex.t; h : histogram }

  let create () = { lock = Mutex.create (); h = create () }

  let record t v = Mutex.protect t.lock (fun () -> record t.h v)

  let snapshot t = Mutex.protect t.lock (fun () -> copy t.h)
end
