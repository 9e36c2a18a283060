(* serve: a closed loop against a separate `ndsim serve` process in its
   default config.  nproc connections from this process each keep a
   pipeline window of requests in flight.  Keys follow a Zipf law over
   more workload instances than the server's program cache (32) and
   result caches (256) hold: hits exercise codec, queue hop, dispatch
   and lookup; misses compile and analyze a small program. *)

open Common
module Json = Nd_util.Json
module Prng = Nd_util.Prng
module P = Nd_serve.Protocol
module Client = Nd_serve.Client

let name = "serve"

(* --------------------------- traffic model -------------------------- *)

(* families and the small (n, base) shapes a key may take *)
let families =
  [|
    ("mm", [| (8, 2); (16, 4) |]);
    ("mm8", [| (8, 2); (16, 4) |]);
    ("trs", [| (8, 2); (16, 4) |]);
    ("cholesky", [| (8, 2); (16, 4) |]);
    ("lu", [| (8, 2); (16, 4) |]);
    ("apsp", [| (8, 2); (16, 4) |]);
    ("fw1d", [| (16, 2); (32, 4) |]);
    ("lcs", [| (16, 2); (32, 4) |]);
  |]

let n_keys = function Full -> 1024 | Tiny -> 64

(* steep enough that hits set p50 and throughput: with s = 1.2 the
   single-worker analyze pool spent most of its time on misses, so hits
   queued behind them and p50 followed the queueing, not the hit path *)
let zipf_s = 1.5

let mix = [| ("lint", 2); ("race", 1); ("analyze", 1); ("simulate", 1) |]

let pipeline = 2

let warmup_per_conn = function Full -> 400 | Tiny -> 10

(* Rank r (0 = most popular) maps to a key whose family cycles with r,
   so every family gets the same share of popularity under any seed;
   the instance seed is what the workload seed varies. *)
let key_of_rank ~seed r : P.workload_key =
  let fam, shapes = families.(r mod Array.length families) in
  let n, base = shapes.(r / Array.length families mod Array.length shapes) in
  { P.algo = fam; n = Some n; base = Some base; seed = (seed * 7919) + r; np = false }

let top = 1

let input scale =
  Printf.sprintf "%d Zipf(s=%g) keys over %d small-n families, mix lint=2 race=1 analyze=1 simulate=1, %d connections x window %d"
    (n_keys scale) zipf_s (Array.length families) (nproc ()) pipeline

let request_of ~seed (kind, rank) =
  let wk = key_of_rank ~seed rank in
  match kind with
  | "lint" -> P.Lint wk
  | "race" -> P.Race wk
  | "analyze" -> P.Analyze { wk; top }
  | _ -> P.Simulate { wk; top; fine = false }

(* The request stream of connection [conn]: a pure function of the
   workload seed, so two runs with one seed send identical traffic. *)
type stream = { rng : Prng.t; cdf : float array }

let stream ~scale ~seed ~conn =
  let n = n_keys scale in
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  { rng = Prng.create ((seed * 1_000_003) + conn); cdf }

let next_request s =
  let weight = Array.fold_left (fun a (_, k) -> a + k) 0 mix in
  let pick = ref (Prng.int s.rng weight) and kind = ref "" in
  Array.iter
    (fun (k, wt) ->
      if !kind = "" then if !pick < wt then kind := k else pick := !pick - wt)
    mix;
  let u = Prng.float s.rng in
  let lo = ref 0 and hi = ref (Array.length s.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  (!kind, !lo)

(* ------------------------------ server ------------------------------ *)

type env = {
  pid : int;
  sock : string;
  streams : stream array;  (* one per connection, advanced by use *)
  seed : int;
}

let addr env = P.Unix_path env.sock

let connect_retry sock =
  let deadline = now_ns () + 30_000_000_000 in
  let rec go () =
    match Client.connect (P.Unix_path sock) with
    | c -> c
    | exception (Unix.Unix_error _ as e) ->
      if now_ns () > deadline then raise e;
      Unix.sleepf 0.01;
      go ()
  in
  go ()

type reply = { kind : string; rank : int; sent_ns : int; recv_ns : int; ok : bool; payload : Json.t }

(* One closed-loop connection: keep [pipeline] requests in flight until
   [deadline_ns] (or [budget] requests are sent), then drain.  Returns
   the completed requests and the number lost to a broken connection. *)
let drive ~seed conn s ~deadline_ns ~budget =
  let inflight = Hashtbl.create 16 and done_ = ref [] and sent = ref 0 in
  let send () =
    let kr = next_request s in
    let t0 = now_ns () in
    let id = Client.send conn (request_of ~seed kr) in
    incr sent;
    Hashtbl.replace inflight id (kr, t0)
  in
  let more () = !sent < budget && now_ns () < deadline_ns in
  let lost = ref 0 in
  (try
     for _ = 1 to pipeline do
       if more () then send ()
     done;
     while Hashtbl.length inflight > 0 do
       let r = Client.recv conn in
       let t1 = now_ns () in
       match Hashtbl.find_opt inflight r.P.id with
       | None ->
         report_failure "serve: response with unknown id %d" r.P.id;
         incr lost
       | Some ((kind, rank), sent_ns) ->
         Hashtbl.remove inflight r.P.id;
         let ok, payload =
           match r.P.result with
           | Ok j -> (true, j)
           | Error e ->
             report_failure "serve: %s request failed: %s" kind e;
             (false, Json.Null)
         in
         done_ := { kind; rank; sent_ns; recv_ns = t1; ok; payload } :: !done_;
         if more () then send ()
     done
   with e ->
     report_failure "serve: connection broke: %s" (Printexc.to_string e);
     lost := !lost + Hashtbl.length inflight);
  (List.rev !done_, !lost)

let call env req =
  let c = Client.connect (addr env) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.call_exn c req)

let release env =
  (try ignore (call env P.Shutdown) with _ -> (try Unix.kill env.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] env.pid);
  try Unix.unlink env.sock with Unix.Unix_error _ -> ()

let setup (o : opts) =
  let sock = Filename.concat o.workdir (Printf.sprintf "perfbench-%d.sock" (Unix.getpid ())) in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let pid =
    Unix.create_process o.ndsim [| o.ndsim; "serve"; "-s"; sock; "--quiet" |] Unix.stdin Unix.stderr Unix.stderr
  in
  let env =
    { pid; sock; seed = o.seed; streams = Array.init (nproc ()) (fun conn -> stream ~scale:o.scale ~seed:o.seed ~conn) }
  in
  (* warm-up: the head of each connection's stream fills the caches *)
  let warm_up () =
    let conns = Array.map (fun _ -> connect_retry sock) env.streams in
    let threads =
      Array.mapi
        (fun i conn ->
          Thread.create
            (fun () ->
              ignore (drive ~seed:o.seed conn env.streams.(i) ~deadline_ns:max_int ~budget:(warmup_per_conn o.scale)))
            ())
        conns
    in
    Array.iter Thread.join threads;
    Array.iter Client.close conns
  in
  match warm_up () with
  | () -> env
  | exception e ->
    release env;
    raise e

(* --------------------------- measurement ---------------------------- *)

let member path j =
  List.fold_left (fun j k -> match j with Some j -> Json.member k j | None -> None) (Some j) path

let num path j = match member path j with Some v -> Json.to_number v | None -> nan

let cache_names = [ "programs"; "lint"; "race"; "analyze"; "simulate" ]

let cache_counters stats cname =
  match Json.member "caches" stats with
  | None -> (nan, nan, nan)
  | Some l -> (
    match List.find_opt (fun c -> Json.member "name" c = Some (Json.String cname)) (Json.to_list l) with
    | None -> (nan, nan, nan)
    | Some c -> (num [ "hits" ] c, num [ "misses" ] c, num [ "evictions" ] c))

(* the workload's request sequence as wire frames, for the in-process
   codec timings *)
let codec_ns (o : opts) =
  let s = stream ~scale:o.scale ~seed:o.seed ~conn:0 in
  let reqs = Array.init 2000 (fun i -> { P.id = i + 1; req = request_of ~seed:o.seed (next_request s) }) in
  let reps = 5 in
  let per_req ns = float_of_int ns /. float_of_int (Array.length reqs) in
  let encode () = Array.map (fun e -> Json.Frame.encode (P.request_to_json e)) reqs in
  let frames = encode () in
  let enc = List.init reps (fun _ -> per_req (snd (timed encode))) in
  let wire = String.concat "" (Array.to_list frames) in
  let decode () =
    let d = Json.Frame.decoder () in
    Json.Frame.feed_string d wire;
    let rec drain k = match Json.Frame.next d with Some _ -> drain (k + 1) | None -> k in
    drain 0
  in
  let dec =
    List.init reps (fun _ ->
        let k, ns = timed decode in
        assert (k = Array.length reqs);
        per_req ns)
  in
  (median enc, median dec)

(* A seeded sample of analyze replies must match Cost computed in this
   process on the same key. *)
let check_analyze_sample (o : opts) replies =
  let ranks = List.sort_uniq compare (List.map fst replies) in
  let rng = Prng.create (o.seed + 17) in
  let sample = List.filter (fun _ -> Prng.int rng 4 = 0) ranks in
  let sample = if sample = [] then List.filteri (fun i _ -> i = 0) ranks else sample in
  List.fold_left
    (fun bad rank ->
      let wk = key_of_rank ~seed:o.seed rank in
      let w =
        Nd_experiments.Workloads.build ?n:wk.n ?base:wk.base (Nd_experiments.Workloads.find wk.algo) ~seed:wk.seed
      in
      let r = Nd_analyze.Cost.report (Nd_analyze.Cost.of_program (Nd_algos.Workload.compile w)) in
      let r = if o.corrupt then { r with work = r.work + 1 } else r in
      let expected = Json.to_string (Nd_analyze.Cost.report_to_json r) in
      let mismatches =
        List.length
          (List.filter
             (fun (rk, reply) ->
               rk = rank && Option.map Json.to_string (Json.member "report" reply) <> Some expected)
             replies)
      in
      if mismatches > 0 then report_failure "serve: %d analyze replies for %s differ from Cost" mismatches wk.algo;
      bad + mismatches)
    0 (List.filteri (fun i _ -> i < 8) sample)

(* The host's speed drifts in phases of seconds, and a closed loop
   amplifies a slow phase through queueing.  So serve summarizes each
   one-second slice of the window (requests by arrival of the response)
   and reports the median over slices: the typical second, not the luck
   of the phases one run happened to hit.  Responses after the last full
   slice (the drain) count as attempted but not in the summaries; a
   window under a second is one slice.  Each slice is scaled by its
   unstolen share, as batch jobs are (see Common.Steal). *)
let slice_ns = 1_000_000_000

let n_slices seconds = int_of_float (seconds *. 1e9) / slice_ns

(* The stolen share of each slice, sampled by the calling thread at the
   slice boundaries while the connections run. *)
let steal_by_slice ~t0 ~seconds =
  let n = max 1 (n_slices seconds) in
  let span = if n_slices seconds = 0 then int_of_float (seconds *. 1e9) else slice_ns in
  let marks = Array.make (n + 1) (Steal.read ()) in
  for k = 1 to n do
    let wait = t0 + (k * span) - now_ns () in
    if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
    marks.(k) <- Steal.read ()
  done;
  Array.init n (fun k -> Steal.share marks.(k) marks.(k + 1))

(* Each slice as (seconds of unstolen time, latencies scaled by the
   unstolen share); with [stolen] all zero, plain wall time. *)
let by_slice ~t0 ~seconds ~stolen reqs =
  let n = n_slices seconds in
  if n = 0 then
    let last = List.fold_left (fun a r -> max a r.recv_ns) t0 reqs and keep = 1. -. stolen.(0) in
    [ (float_of_int (last - t0) /. 1e9 *. keep, List.map (fun r -> ms (r.recv_ns - r.sent_ns) *. keep) reqs) ]
  else begin
    let buckets = Array.make n [] in
    List.iter
      (fun r ->
        let k = (r.recv_ns - t0) / slice_ns in
        if k < n then buckets.(k) <- (ms (r.recv_ns - r.sent_ns) *. (1. -. stolen.(k))) :: buckets.(k))
      reqs;
    Array.to_list (Array.mapi (fun k l -> (1. -. stolen.(k), l)) buckets)
  end

let measure (o : opts) env ~seconds =
  let stats0 = call env P.Stats in
  let s0 = Steal.read () and t0 = now_ns () in
  let deadline_ns = t0 + int_of_float (seconds *. 1e9) in
  let results = Array.make (Array.length env.streams) ([], 0) in
  let threads =
    Array.mapi
      (fun i s ->
        Thread.create
          (fun () ->
            let conn = Client.connect (addr env) in
            results.(i) <- drive ~seed:env.seed conn s ~deadline_ns ~budget:max_int;
            Client.close conn)
          ())
      env.streams
  in
  let stolen = steal_by_slice ~t0 ~seconds in
  Array.iter Thread.join threads;
  let steal_share = Steal.share s0 (Steal.read ()) in
  let peak_rss_mb = peak_rss_mb (Some env.pid) in
  let stats1 = call env P.Stats in
  let reqs = List.concat_map fst (Array.to_list results) in
  let lost = Array.fold_left (fun a (_, l) -> a + l) 0 results in
  let errors = List.length (List.filter (fun r -> not r.ok) reqs) in
  let analyze_replies = List.filter_map (fun r -> if r.ok && r.kind = "analyze" then Some (r.rank, r.payload) else None) reqs in
  let mismatched = check_analyze_sample o analyze_replies in
  if !Span.enabled then
    List.iteri
      (fun i r ->
        Span.add
          {
            Span.id = Span.fresh_id ();
            parent = -1;
            job = i;
            wl = name;
            name = "client." ^ r.kind;
            prog = "";
            start_ns = r.sent_ns;
            stop_ns = r.recv_ns;
            alloc_w = 0.;
          })
      reqs;
  let layers =
    if not !Span.enabled then []
    else begin
      let kinds = Array.to_list (Array.map fst mix) in
      let client =
        List.concat_map
          (fun k ->
            let l =
              List.map (fun s -> ms (s.Span.stop_ns - s.Span.start_ns)) (Span.select ~wl:name ("client." ^ k))
            in
            [
              metric (Printf.sprintf "client.%s.p50_ms" k) "ms" (percentile 0.5 l);
              metric (Printf.sprintf "client.%s.p99_ms" k) "ms" (percentile 0.99 l);
            ])
          kinds
      in
      let server =
        List.map
          (fun k -> metric (Printf.sprintf "server.%s.p50_ms" k) "ms" (num [ "latency_ns"; k; "p50" ] stats1 /. 1e6))
          kinds
      in
      let caches =
        List.concat_map
          (fun c ->
            let h0, m0, e0 = cache_counters stats0 c and h1, m1, e1 = cache_counters stats1 c in
            let dh = h1 -. h0 and dm = m1 -. m0 in
            [
              metric (Printf.sprintf "cache.%s.hit_ratio" c) "ratio" (dh /. (dh +. dm));
              metric (Printf.sprintf "cache.%s.evictions" c) "count" (e1 -. e0);
            ])
          cache_names
      in
      let enc, dec = codec_ns o in
      client @ server @ caches
      @ [ metric "protocol.request_encode_ns" "ns" enc; metric "frame.decode_ns" "ns" dec ]
    end
  in
  let latency q slices =
    median (List.filter_map (fun (_, l) -> if l = [] then None else Some (percentile q l)) slices)
  in
  let slices = by_slice ~t0 ~seconds ~stolen reqs in
  {
    samples = List.length reqs;
    throughput = median (List.map (fun (secs, l) -> float_of_int (List.length l) /. secs) slices);
    p50_ms = latency 0.5 slices;
    p99_ms = latency 0.99 slices;
    attempted = List.length reqs + lost;
    failed = errors + lost + mismatched;
    peak_rss_mb;
    wall_p50_ms = latency 0.5 (by_slice ~t0 ~seconds ~stolen:(Array.map (fun _ -> 0.) stolen) reqs);
    steal_share;
    layers;
  }
