(* Nd_serve: framing, protocol codec, keyed LRU caches, the latency
   histogram, the thread-safety of the shared decompose memo, and an
   end-to-end daemon round-trip over a unix socket. *)

module Json = Nd_util.Json
module Histogram = Nd_util.Histogram
module P = Nd_serve.Protocol
module Cache = Nd_serve.Cache
module Server = Nd_serve.Server
module Client = Nd_serve.Client

(* --------------------------- histogram ----------------------------- *)

let test_hist_exact_small () =
  let h = Histogram.create () in
  for v = 0 to 15 do
    Histogram.record h v
  done;
  Alcotest.(check int) "count" 16 (Histogram.count h);
  Alcotest.(check int) "sum" 120 (Histogram.sum h);
  Alcotest.(check int) "min" 0 (Histogram.min_value h);
  Alcotest.(check int) "max" 15 (Histogram.max_value h);
  (* small values are bucketed exactly *)
  Alcotest.(check int) "p100 exact" 15 (Histogram.percentile h 1.0);
  Alcotest.(check int) "p50 exact" 7 (Histogram.percentile h 0.5)

let test_hist_log_bucket_bound () =
  (* a percentile never under-reports and over-reports by < 1/16
     relative (one sub-bucket), clamped by the exact max *)
  let prng = Nd_util.Prng.create 7 in
  for _ = 1 to 200 do
    let v = 1 + Nd_util.Prng.int prng 1_000_000_000 in
    let h = Histogram.create () in
    Histogram.record h v;
    let p = Histogram.percentile h 0.5 in
    Alcotest.(check bool) "upper bound and clamped" true (p = v)
  done

let test_hist_merge () =
  let h1 = Histogram.create () and h2 = Histogram.create () in
  let all = Histogram.create () in
  let prng = Nd_util.Prng.create 11 in
  for i = 1 to 500 do
    let v = Nd_util.Prng.int prng 100_000 in
    Histogram.record (if i mod 2 = 0 then h1 else h2) v;
    Histogram.record all v
  done;
  let m = Histogram.create () in
  Histogram.merge ~into:m h1;
  Histogram.merge ~into:m h2;
  Alcotest.(check int) "count" (Histogram.count all) (Histogram.count m);
  Alcotest.(check int) "sum" (Histogram.sum all) (Histogram.sum m);
  Alcotest.(check int) "max" (Histogram.max_value all) (Histogram.max_value m);
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "p%g" (q *. 100.))
        (Histogram.percentile all q) (Histogram.percentile m q))
    [ 0.5; 0.9; 0.95; 0.99; 1.0 ]

(* regression for the stats_json race: worker domains used to record
   into bare histograms while the stats reader merged them unlocked, so
   a snapshot could catch a bucket increment before the count increment
   and report count <> sum of buckets.  With Histogram.Sync every
   snapshot must be internally consistent, and the final tally exact. *)
let test_hist_sync_hammer () =
  let n_writers = 4 and per = 20_000 in
  let h = Histogram.Sync.create () in
  let stop = Atomic.make false in
  let writers =
    List.init n_writers (fun w ->
        Domain.spawn (fun ()  ->
            let prng = Nd_util.Prng.create (0xbeef + w) in
            for _ = 1 to per do
              Histogram.Sync.record h (Nd_util.Prng.int prng 1_000_000)
            done))
  in
  let reader =
    Domain.spawn (fun () ->
        let checked = ref 0 in
        let check_once () =
          let s = Histogram.Sync.snapshot h in
          if Histogram.count s <> Histogram.bucket_total s then
            Alcotest.failf "torn snapshot: count %d <> bucket total %d"
              (Histogram.count s) (Histogram.bucket_total s);
          incr checked
        in
        (* at least one snapshot unconditionally: on a single-core host
           the writers can finish (and [stop] be set) before this domain
           is first scheduled, which used to fail the progress check *)
        check_once ();
        while not (Atomic.get stop) do
          check_once ()
        done;
        !checked)
  in
  List.iter Domain.join writers;
  Atomic.set stop true;
  let checked = Domain.join reader in
  Alcotest.(check bool) "reader made progress" true (checked > 0);
  let final = Histogram.Sync.snapshot h in
  Alcotest.(check int) "exact count" (n_writers * per) (Histogram.count final);
  Alcotest.(check int) "count = bucket total" (Histogram.count final)
    (Histogram.bucket_total final)

(* -------------------------- protocol codec -------------------------- *)

let contains ~sub s =
  let ls = String.length sub and l = String.length s in
  let rec scan i = i + ls <= l && (String.sub s i ls = sub || scan (i + 1)) in
  scan 0

let wk : P.workload_key =
  { algo = "mm"; n = Some 16; base = Some 4; seed = 42; np = false }

let wk_min : P.workload_key =
  { algo = "fw1d"; n = None; base = None; seed = 7; np = true }

let all_requests : P.envelope list =
  [
    { id = 1; req = P.Ping };
    { id = 2; req = P.Lint wk };
    { id = 3; req = P.Lint wk_min };
    { id = 4; req = P.Race wk };
    { id = 5; req = P.Simulate { wk; top = 2; fine = true } };
    { id = 10; req = P.Analyze { wk; top = 2 } };
    { id = 11; req = P.Analyze { wk = wk_min; top = 1 } };
    { id = 6; req = P.Fuzz { count = 5; seed = 99; max_depth = 4 } };
    { id = 7; req = P.Suite { exp = "overview" } };
    { id = 8; req = P.Stats };
    { id = 9; req = P.Shutdown };
  ]

let all_responses : P.response list =
  [
    { id = 1; result = Ok (Json.Obj [ ("pong", Json.Bool true) ]) };
    { id = 2; result = Ok (Json.List [ Json.Int 1; Json.String "x" ]) };
    { id = 3; result = Error "unknown algorithm zz" };
  ]

let test_protocol_roundtrip () =
  List.iter
    (fun env ->
      let env' = P.request_of_json (P.request_to_json env) in
      Alcotest.(check bool)
        (Printf.sprintf "request %d round-trips" env.P.id)
        true (env = env'))
    all_requests;
  List.iter
    (fun r ->
      let r' = P.response_of_json (P.response_to_json r) in
      Alcotest.(check bool)
        (Printf.sprintf "response %d round-trips" r.P.id)
        true (r = r'))
    all_responses

let test_protocol_rejects () =
  let bad j =
    match P.request_of_json j with
    | exception P.Protocol_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing id" true
    (bad (Json.Obj [ ("kind", Json.String "ping") ]));
  Alcotest.(check bool) "unknown kind" true
    (bad (Json.Obj [ ("id", Json.Int 1); ("kind", Json.String "frobnicate") ]));
  Alcotest.(check bool) "non-object" true (bad (Json.List []));
  Alcotest.(check bool) "ill-typed field" true
    (bad
       (Json.Obj
          [
            ("id", Json.Int 1);
            ("kind", Json.String "lint");
            ("algo", Json.Int 3);
          ]))

(* regression: a negative fuzz [count] used to decode and come back as
   [cases: -5]; sign bounds are now checked at decode, and the error
   names the offending field *)
let test_protocol_sign_bounds () =
  let req fields = Json.Obj (("id", Json.Int 1) :: fields) in
  let wk_req kind extra =
    req ([ ("kind", Json.String kind); ("algo", Json.String "mm") ] @ extra)
  in
  let rejects name field j =
    match P.request_of_json j with
    | exception P.Protocol_error msg ->
      let quoted = Printf.sprintf "%S" field in
      if not (contains ~sub:quoted msg) then
        Alcotest.failf "%s: message does not name %s: %s" name quoted msg
    | _ -> Alcotest.failf "%s: decoded" name
  in
  let fuzz extra =
    req ([ ("kind", Json.String "fuzz"); ("count", Json.Int 3) ] @ extra)
  in
  rejects "negative count" "count"
    (req [ ("kind", Json.String "fuzz"); ("count", Json.Int (-5)) ]);
  rejects "negative max_depth" "max_depth"
    (fuzz [ ("max_depth", Json.Int (-1)) ]);
  rejects "zero top (analyze)" "top" (wk_req "analyze" [ ("top", Json.Int 0) ]);
  rejects "zero top (simulate)" "top"
    (wk_req "simulate" [ ("top", Json.Int 0) ]);
  rejects "zero n" "n" (wk_req "lint" [ ("n", Json.Int 0) ]);
  rejects "negative base" "base" (wk_req "race" [ ("base", Json.Int (-4)) ]);
  (* the boundary values themselves are valid *)
  List.iter
    (fun j -> ignore (P.request_of_json j))
    [
      req [ ("kind", Json.String "fuzz"); ("count", Json.Int 0) ];
      fuzz [ ("max_depth", Json.Int 0) ];
      wk_req "simulate" [ ("top", Json.Int 1); ("n", Json.Int 1) ];
      wk_req "lint" [ ("base", Json.Int 1) ];
    ]

(* ----------------------------- framing ------------------------------ *)

(* feed a byte string to a fresh decoder in chunks of [chunk] bytes and
   collect every decoded frame *)
let decode_chunked ?max_frame ~chunk s =
  let dec = Json.Frame.decoder ?max_frame () in
  let out = ref [] in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let k = min chunk (n - !i) in
    Json.Frame.feed dec (Bytes.of_string s) !i k;
    (* feed takes (bytes, off, len) against the full buffer *)
    i := !i + k;
    let rec drain () =
      match Json.Frame.next dec with
      | Some v ->
        out := v :: !out;
        drain ()
      | None -> ()
    in
    drain ()
  done;
  (List.rev !out, dec)

let test_frame_roundtrip_all_kinds () =
  let msgs =
    List.map P.request_to_json all_requests
    @ List.map P.response_to_json all_responses
  in
  let wire = String.concat "" (List.map Json.Frame.encode msgs) in
  List.iter
    (fun chunk ->
      let decoded, dec = decode_chunked ~chunk wire in
      Alcotest.(check int)
        (Printf.sprintf "all frames decode (chunk=%d)" chunk)
        (List.length msgs) (List.length decoded);
      Alcotest.(check int) "no leftover bytes" 0 (Json.Frame.pending dec);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "frame payload" (Json.to_string a)
            (Json.to_string b))
        msgs decoded)
    [ 1; 3; 4096 ]

let test_frame_truncated () =
  let s = Json.Frame.encode (Json.Obj [ ("x", Json.Int 1) ]) in
  for cut = 0 to String.length s - 1 do
    let dec = Json.Frame.decoder () in
    Json.Frame.feed_string dec (String.sub s 0 cut);
    Alcotest.(check bool)
      (Printf.sprintf "truncated at %d yields no frame" cut)
      true
      (Json.Frame.next dec = None)
  done

let test_frame_oversized () =
  (* the header alone must trigger the limit, before any payload *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 1024l;
  let dec = Json.Frame.decoder ~max_frame:512 () in
  Json.Frame.feed dec hdr 0 4;
  Alcotest.check_raises "oversized header rejected"
    (Json.Frame.Error "frame length 1024 exceeds limit 512") (fun () ->
      ignore (Json.Frame.next dec))

let test_frame_malformed_payload () =
  let payload = "this is not json" in
  let b = Bytes.create (4 + String.length payload) in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
  Bytes.blit_string payload 0 b 4 (String.length payload);
  let dec = Json.Frame.decoder () in
  Json.Frame.feed dec b 0 (Bytes.length b);
  Alcotest.(check bool) "malformed payload raises" true
    (match Json.Frame.next dec with
    | exception Json.Frame.Error _ -> true
    | _ -> false)

let test_frame_random_bytes_no_crash =
  QCheck.Test.make ~count:500 ~name:"frame decoder total on random bytes"
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      let dec = Json.Frame.decoder ~max_frame:64 () in
      Json.Frame.feed_string dec s;
      (* the decoder must either produce frames, want more bytes, or
         raise Frame.Error — nothing else, and it must terminate *)
      let rec drain n =
        if n > String.length s + 1 then false
        else
          match Json.Frame.next dec with
          | Some _ -> drain (n + 1)
          | None -> true
          | exception Json.Frame.Error _ -> true
      in
      drain 0)

(* ------------------------------ cache ------------------------------- *)

let test_cache_lru () =
  let c = Cache.create ~name:"t" ~cap:2 () in
  let computes = ref 0 in
  let get k =
    Cache.find_or_compute c k (fun () ->
        incr computes;
        k * 10)
  in
  Alcotest.(check int) "a" 10 (get 1);
  Alcotest.(check int) "b" 20 (get 2);
  Alcotest.(check int) "a cached" 10 (get 1);
  Alcotest.(check int) "computes" 2 !computes;
  (* inserting a third evicts the LRU entry, which is 2 *)
  ignore (get 3);
  Alcotest.(check bool) "2 evicted" true (Cache.find_opt c 2 = None);
  Alcotest.(check bool) "1 kept" true (Cache.find_opt c 1 = Some 10);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 3 (Cache.misses c);
  Alcotest.(check int) "evictions" 1 (Cache.evictions c)

(* single-flight: two domains racing find_or_compute on the same key
   must run the compute exactly once — the loser blocks on the in-flight
   marker and reads the winner's value. *)
let test_cache_single_flight_same_key () =
  let c = Cache.create ~name:"t" ~cap:4 () in
  let computes = Atomic.make 0 in
  let entered = Atomic.make 0 in
  let f () =
    Atomic.incr computes;
    (* a slow compute: give the second domain ample time to arrive and
       observe the Pending slot rather than racing past it *)
    Unix.sleepf 0.05;
    42
  in
  let worker () =
    Domain.spawn (fun () ->
        Atomic.incr entered;
        (* rendezvous so both domains request the key together *)
        while Atomic.get entered < 2 do
          Domain.cpu_relax ()
        done;
        Cache.find_or_compute c 7 f)
  in
  let a = worker () and b = worker () in
  let va = Domain.join a and vb = Domain.join b in
  Alcotest.(check int) "both read the value" 84 (va + vb);
  Alcotest.(check int) "compute ran once" 1 (Atomic.get computes);
  Alcotest.(check int) "one hit" 1 (Cache.hits c);
  Alcotest.(check int) "one miss" 1 (Cache.misses c)

(* distinct keys must not serialize behind each other's computes: the
   whole-cache lock is released while f runs, so two computes on
   different keys can be in flight at once.  Each side waits (bounded)
   for the other to enter its compute — under the old
   hold-the-lock-while-computing scheme this deadlocks the rendezvous
   and the assertion fails. *)
let test_cache_distinct_keys_overlap () =
  let c = Cache.create ~name:"t" ~cap:4 () in
  let in_flight = Atomic.make 0 in
  let saw_overlap = Atomic.make false in
  let compute k () =
    Atomic.incr in_flight;
    let deadline = Unix.gettimeofday () +. 2.0 in
    let rec wait () =
      if Atomic.get in_flight >= 2 then Atomic.set saw_overlap true
      else if Unix.gettimeofday () < deadline then begin
        Domain.cpu_relax ();
        wait ()
      end
    in
    wait ();
    Atomic.decr in_flight;
    k * 10
  in
  let run k = Domain.spawn (fun () -> Cache.find_or_compute c k (compute k)) in
  let a = run 1 and b = run 2 in
  Alcotest.(check int) "key 1" 10 (Domain.join a);
  Alcotest.(check int) "key 2" 20 (Domain.join b);
  Alcotest.(check bool) "computes overlapped" true (Atomic.get saw_overlap)

(* a compute that raises must clear the in-flight marker so the key is
   retryable (and waiters are not stranded) *)
let test_cache_failed_compute_retries () =
  let c = Cache.create ~name:"t" ~cap:4 () in
  Alcotest.(check bool) "first compute raises" true
    (match Cache.find_or_compute c 1 (fun () -> failwith "boom") with
    | exception Failure _ -> true
    | _ -> false);
  Alcotest.(check int) "retry succeeds" 11
    (Cache.find_or_compute c 1 (fun () -> 11));
  Alcotest.(check bool) "cached after retry" true
    (Cache.find_opt c 1 = Some 11)

(* ---------------------- decompose thread-safety --------------------- *)

let test_decompose_hammer () =
  let w = Nd_algos.Matmul.workload ~n:32 ~base:4 ~seed:3 () in
  let p = Nd_algos.Workload.compile w in
  let ms = [ 1; 4; 16; 64; 256; 1024 ] in
  (* hammer the shared memo from several domains at once; single-flight
     memoization must hand every caller the same physical record *)
  let results =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init 50 (fun _ ->
                List.map (fun m -> (m, Nd.Program.decompose p ~m)) ms)))
    |> List.concat_map Domain.join
    |> List.concat
  in
  List.iter
    (fun (m, d) ->
      let canonical = Nd.Program.decompose p ~m in
      if not (d == canonical) then
        Alcotest.failf "decompose m=%d returned a non-memoized copy" m;
      Alcotest.(check int) "m recorded" m d.Nd.Program.m)
    results;
  (* sanity: every decomposition covers all leaves *)
  List.iter
    (fun m ->
      let d = Nd.Program.decompose p ~m in
      Alcotest.(check bool)
        (Printf.sprintf "m=%d has tasks" m)
        true
        (Array.length d.Nd.Program.tasks > 0))
    ms

(* --------------------------- end-to-end ----------------------------- *)

(* each test gets its own socket in a fresh private directory, so tests
   (and concurrently running test processes) can never collide on a
   shared, pid-keyed path *)
let fresh_sock_path tag =
  let dir = Filename.temp_dir "ndsim-test" "" in
  Filename.concat dir (tag ^ ".sock")

let wait_for_socket path =
  let rec go n =
    if n = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists path) then begin
      Unix.sleepf 0.05;
      go (n - 1)
    end
  in
  go 200

let member_exn name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string j)

let int_exn name j =
  match member_exn name j with
  | Json.Int i -> i
  | v -> Alcotest.failf "%S is not an int: %s" name (Json.to_string v)

(* A pooled request's latency is recorded right after its response is
   written, so a client can see the response first; poll [stats] until
   every earlier request is in a histogram.  [requests] also counts the
   [stats] call in flight, whose own latency is not recorded yet. *)
let settled_stats conn =
  let sum_counts stats =
    match member_exn "latency_ns" stats with
    | Json.Obj kinds ->
      List.fold_left (fun acc (_, h) -> acc + int_exn "count" h) 0 kinds
    | j -> Alcotest.failf "latency_ns is not an object: %s" (Json.to_string j)
  in
  let rec go tries =
    let stats = Client.call_exn conn P.Stats in
    if sum_counts stats = int_exn "requests" stats - 1 then stats
    else if tries = 0 then
      Alcotest.failf "per-kind latency counts sum to %d, requests - 1 = %d"
        (sum_counts stats)
        (int_exn "requests" stats - 1)
    else begin
      Unix.sleepf 0.01;
      go (tries - 1)
    end
  in
  go 200

(* the default configuration, with every pooled request running as a
   fiber on the one shared pool *)
let test_server_end_to_end () =
  let sock_path = fresh_sock_path "e2e" in
  let cfg =
    {
      (Server.default_config (P.Unix_path sock_path)) with
      Server.workers = 2;
      quiet = true;
    }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  wait_for_socket sock_path;
  let conn = Client.connect (P.Unix_path sock_path) in
  (* ping *)
  let pong = Client.call_exn conn P.Ping in
  Alcotest.(check bool) "pong" true (member_exn "pong" pong = Json.Bool true);
  (* a stats reply counts itself among the requests; the fiber pool has
     not spawned its domains yet *)
  let stats0 = Client.call_exn conn P.Stats in
  Alcotest.(check int) "requests so far" 2 (int_exn "requests" stats0);
  Alcotest.(check bool) "fiber pool idle" true
    (member_exn "started" (member_exn "fiber_pool" stats0) = Json.Bool false);
  (* lint a clean workload, twice: the second hit must come from cache *)
  let lint1 = Client.call_exn conn (P.Lint wk) in
  Alcotest.(check bool) "lint clean" true
    (member_exn "errors" lint1 = Json.Int 0);
  let lint2 = Client.call_exn conn (P.Lint wk) in
  Alcotest.(check string) "lint deterministic" (Json.to_string lint1)
    (Json.to_string lint2);
  (* race verdict *)
  let race = Client.call_exn conn (P.Race wk) in
  Alcotest.(check bool) "race-free" true
    (member_exn "race_free" race = Json.Bool true);
  (* SB simulation *)
  let sim = Client.call_exn conn (P.Simulate { wk; top = 1; fine = false }) in
  (match member_exn "time" sim with
  | Json.Int t when t > 0 -> ()
  | j -> Alcotest.failf "bad simulate time: %s" (Json.to_string j));
  (* structural cost analysis: report + Theorem-1 certification *)
  let ana = Client.call_exn conn (P.Analyze { wk; top = 1 }) in
  let report = member_exn "report" ana in
  (match member_exn "work" report with
  | Json.Int w when w > 0 -> ()
  | j -> Alcotest.failf "bad analyze work: %s" (Json.to_string j));
  (match member_exn "certified" (member_exn "certification" ana) with
  | Json.Bool true -> ()
  | j -> Alcotest.failf "mm not certified: %s" (Json.to_string j));
  let ana2 = Client.call_exn conn (P.Analyze { wk; top = 1 }) in
  Alcotest.(check string) "analyze deterministic" (Json.to_string ana)
    (Json.to_string ana2);
  (* errors come back as error responses, not dead connections, and the
     pool stays intact for the next request *)
  (match
     (Client.call conn (P.Lint { wk with algo = "nope" })).P.result
   with
  | Error msg ->
    Alcotest.(check bool) "unknown algo mentions name" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "lint of unknown algorithm succeeded");
  Alcotest.(check bool) "pool alive after error" true
    (member_exn "race_free" (Client.call_exn conn (P.Race wk)) = Json.Bool true);
  (* pipelined bursts through the shared pool and the reader thread:
     every id answered *)
  let lint_ids = List.init 50 (fun _ -> Client.send conn (P.Lint wk)) in
  let got = List.init 50 (fun _ -> (Client.recv conn).P.id) in
  Alcotest.(check bool) "lint burst ids all answered" true
    (List.sort compare lint_ids = List.sort compare got);
  let ping_ids = List.init 20 (fun _ -> Client.send conn P.Ping) in
  let got = List.init 20 (fun _ -> (Client.recv conn).P.id) in
  Alcotest.(check bool) "pipelined ids all answered" true
    (List.sort compare ping_ids = List.sort compare got);
  (* 58 pooled requests so far: 53 lints, 2 races, 1 simulate,
     2 analyzes *)
  let pooled = 58 in
  let stats = settled_stats conn in
  (* caches: the repeated lint and analyze calls must have hit *)
  let cache_hits name =
    Json.to_list (member_exn "caches" stats)
    |> List.find (fun c -> member_exn "name" c = Json.String name)
    |> int_exn "hits"
  in
  Alcotest.(check bool) "lint cache hit" true (cache_hits "lint" >= 1);
  Alcotest.(check bool) "analyze cache hit" true (cache_hits "analyze" >= 1);
  Alcotest.(check int) "one error response" 1 (int_exn "errors" stats);
  let fp = member_exn "fiber_pool" stats in
  Alcotest.(check bool) "fiber pool started" true
    (member_exn "started" fp = Json.Bool true);
  Alcotest.(check int) "fiber pool size" 2 (int_exn "workers" fp);
  Alcotest.(check int) "one fiber per pooled request" pooled
    (int_exn "fibers" fp);
  (* handler errors are protocol-level responses, not fiber errors *)
  Alcotest.(check int) "no fiber-level errors" 0 (int_exn "errors" fp);
  (* one histogram family: pooled and inline kinds alike, every snapshot
     consistent *)
  let lat = member_exn "latency_ns" stats in
  List.iter
    (fun (kind, want) ->
      let h = member_exn kind lat in
      Alcotest.(check int) (kind ^ " latency count") want (int_exn "count" h))
    [
      ("ping", 21); ("lint", 53); ("race", 2); ("simulate", 1); ("analyze", 2);
      ("stats", int_exn "requests" stats - 1 - pooled - 21);
    ];
  (match lat with
  | Json.Obj kinds ->
    List.iter
      (fun (kind, h) ->
        Alcotest.(check int)
          (kind ^ " count = bucket_total")
          (int_exn "count" h) (int_exn "bucket_total" h))
      kinds
  | j -> Alcotest.failf "latency_ns is not an object: %s" (Json.to_string j));
  (* shutdown: acknowledged, then the daemon exits and cleans up *)
  let bye = Client.call_exn conn P.Shutdown in
  Alcotest.(check bool) "stopping" true
    (member_exn "stopping" bye = Json.Bool true);
  Client.close conn;
  Thread.join server;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock_path)

(* regression for the shared-socket-path isolation bug: two servers in
   the same process (or two test processes on one machine) must be able
   to run side by side, each on its own temp-dir socket, without one
   accepting the other's clients or unlinking the other's socket *)
let test_two_servers_coexist () =
  let start tag =
    let path = fresh_sock_path tag in
    let cfg =
      {
        (Server.default_config (P.Unix_path path)) with
        Server.workers = 1;
        quiet = true;
      }
    in
    let thread = Thread.create (fun () -> Server.run cfg) () in
    wait_for_socket path;
    (path, thread)
  in
  let path_a, thread_a = start "a" in
  let path_b, thread_b = start "b" in
  Alcotest.(check bool) "distinct sockets" false (path_a = path_b);
  let conn_a = Client.connect (P.Unix_path path_a) in
  let conn_b = Client.connect (P.Unix_path path_b) in
  Alcotest.(check bool) "a pongs" true
    (member_exn "pong" (Client.call_exn conn_a P.Ping) = Json.Bool true);
  Alcotest.(check bool) "b pongs" true
    (member_exn "pong" (Client.call_exn conn_b P.Ping) = Json.Bool true);
  (* shutting down a must leave b serving on its own socket *)
  ignore (Client.call_exn conn_a P.Shutdown);
  Client.close conn_a;
  Thread.join thread_a;
  Alcotest.(check bool) "a unlinked" false (Sys.file_exists path_a);
  Alcotest.(check bool) "b still listening" true (Sys.file_exists path_b);
  Alcotest.(check bool) "b still pongs" true
    (member_exn "pong" (Client.call_exn conn_b P.Ping) = Json.Bool true);
  ignore (Client.call_exn conn_b P.Shutdown);
  Client.close conn_b;
  Thread.join thread_b;
  Alcotest.(check bool) "b unlinked" false (Sys.file_exists path_b)

(* --------------------- server: the one fiber pool -------------------- *)

(* start a daemon on a fresh socket with [workers] pool domains, run
   [f] against one client connection, then shut it down and check the
   clean exit *)
let with_server ?(workers = 2) tag f =
  let path = fresh_sock_path tag in
  let cfg =
    {
      (Server.default_config (P.Unix_path path)) with
      Server.workers;
      quiet = true;
    }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  wait_for_socket path;
  let conn = Client.connect (P.Unix_path path) in
  let v = f conn path in
  ignore (Client.call_exn conn P.Shutdown);
  Client.close conn;
  Thread.join server;
  Alcotest.(check bool) (tag ^ ": socket unlinked") false (Sys.file_exists path);
  v

let is_ok (r : P.response) = Result.is_ok r.P.result

(* the default pool size is the executors' default, so NDSIM_WORKERS
   sizes the daemon too; a value that is not a positive integer is
   ignored.  The stdlib cannot unset a variable, so an unset one is
   restored as empty, which reads the same. *)
let test_server_default_workers () =
  let prev = Sys.getenv_opt "NDSIM_WORKERS" in
  let workers_with v =
    Unix.putenv "NDSIM_WORKERS" v;
    (Server.default_config (P.Unix_path "unused.sock")).Server.workers
  in
  let fallback = max 1 (min 8 (Domain.recommended_domain_count ())) in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "NDSIM_WORKERS" (Option.value prev ~default:""))
    (fun () ->
      Alcotest.(check int) "NDSIM_WORKERS=3" 3 (workers_with "3");
      Alcotest.(check int) "NDSIM_WORKERS=0 ignored" fallback
        (workers_with "0");
      Alcotest.(check int) "NDSIM_WORKERS=x ignored" fallback
        (workers_with "x");
      Alcotest.(check int) "empty reads as unset" fallback (workers_with ""))

(* a handler that raises yields an error response for that id only;
   the error is counted by the server, not as a fiber failure, and the
   pool keeps serving *)
let test_server_handler_errors () =
  with_server ~workers:2 "errors" (fun conn _ ->
      let bad = { wk with algo = "nope" } in
      let failing =
        [
          ("lint", P.Lint bad, "nope");
          ("race", P.Race bad, "nope");
          ("analyze", P.Analyze { wk = bad; top = 1 }, "nope");
          ("simulate", P.Simulate { wk = bad; top = 1; fine = false }, "nope");
          ("suite", P.Suite { exp = "e99" }, "e99");
        ]
      in
      List.iter
        (fun (kind, req, name) ->
          match (Client.call conn req).P.result with
          | Ok j ->
            Alcotest.failf "%s of an unknown name succeeded: %s" kind
              (Json.to_string j)
          | Error msg ->
            if not (contains ~sub:name msg) then
              Alcotest.failf "%s: error does not name %s: %s" kind name msg)
        failing;
      Alcotest.(check bool) "pool alive" true
        (member_exn "race_free" (Client.call_exn conn (P.Race wk))
        = Json.Bool true);
      let stats = settled_stats conn in
      Alcotest.(check int) "error responses" (List.length failing)
        (int_exn "errors" stats);
      let fp = member_exn "fiber_pool" stats in
      Alcotest.(check int) "no fiber errors" 0 (int_exn "errors" fp);
      Alcotest.(check bool) "no last_error" true
        (member_exn "last_error" fp = Json.Null);
      Alcotest.(check int) "every pooled request ran as a fiber"
        (List.length failing + 1)
        (int_exn "fibers" fp))

(* raw frames over a plain socket, for requests the client cannot
   encode *)
let raw_connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  (* a lost response fails the test instead of hanging it *)
  Unix.setsockopt_float fd SO_RCVTIMEO 30.;
  (fd, Json.Frame.decoder ())

let raw_send (fd, _) j =
  let s = Json.Frame.encode j in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let raw_recv (fd, dec) =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Json.Frame.next dec with
    | Some j -> P.response_of_json j
    | None ->
      let k = Unix.read fd buf 0 (Bytes.length buf) in
      if k = 0 then Alcotest.fail "server closed the connection";
      Json.Frame.feed dec buf 0 k;
      go ()
  in
  go ()

(* requests that fail to decode — the sign bounds included — are
   answered on the wire with the salvaged id and never reach a handler
   (pre-fix, count -5 came back as [cases: -5]); the connection stays
   usable *)
let test_server_decode_errors () =
  with_server ~workers:1 "decode" (fun conn path ->
      let raw = raw_connect path in
      let expect_error id field j =
        raw_send raw j;
        let r = raw_recv raw in
        Alcotest.(check int) (field ^ ": salvaged id") id r.P.id;
        match r.P.result with
        | Ok v ->
          Alcotest.failf "%s: answered %s" field (Json.to_string v)
        | Error msg ->
          if not (contains ~sub:(Printf.sprintf "%S" field) msg) then
            Alcotest.failf "%s: error does not name it: %s" field msg
      in
      expect_error 7 "count"
        (Json.Obj
           [
             ("id", Json.Int 7);
             ("kind", Json.String "fuzz");
             ("count", Json.Int (-5));
           ]);
      expect_error 8 "base"
        (Json.Obj
           [
             ("id", Json.Int 8);
             ("kind", Json.String "lint");
             ("algo", Json.String "mm");
             ("base", Json.Int 0);
           ]);
      expect_error 0 "id" (Json.Obj [ ("kind", Json.String "ping") ]);
      raw_send raw (Json.Obj [ ("id", Json.Int 9); ("kind", Json.String "ping") ]);
      let pong = raw_recv raw in
      Alcotest.(check int) "ping id" 9 pong.P.id;
      Alcotest.(check bool) "connection still serves" true (is_ok pong);
      Unix.close (fst raw);
      let stats = Client.call_exn conn P.Stats in
      (* decode failures are errors but not requests *)
      Alcotest.(check int) "errors" 3 (int_exn "errors" stats);
      Alcotest.(check int) "requests: ping + stats" 2
        (int_exn "requests" stats);
      Alcotest.(check bool) "no handler ran" true
        (member_exn "started" (member_exn "fiber_pool" stats)
        = Json.Bool false))

(* several connections, each its own reader thread, feed the one pool
   at once: every request answered exactly once, with the right
   payload, and the per-kind tallies exact *)
let test_server_concurrent_clients () =
  let n_clients = 4 and per = 10 in
  with_server ~workers:2 "clients" (fun conn path ->
      let client c =
        let k = Client.connect (P.Unix_path path) in
        for i = 1 to per do
          let w = { wk with seed = (c * per) + i } in
          if i mod 2 = 0 then begin
            let r = Client.call_exn k (P.Race w) in
            if member_exn "race_free" r <> Json.Bool true then
              Alcotest.failf "client %d: race %d not race-free" c i
          end
          else begin
            let r = Client.call_exn k (P.Lint w) in
            if member_exn "errors" r <> Json.Int 0 then
              Alcotest.failf "client %d: lint %d has errors" c i
          end
        done;
        Client.close k
      in
      List.iter Thread.join
        (List.init n_clients (fun c -> Thread.create client c));
      let stats = settled_stats conn in
      let lat = member_exn "latency_ns" stats in
      let half = n_clients * per / 2 in
      Alcotest.(check int) "lint count" half
        (int_exn "count" (member_exn "lint" lat));
      Alcotest.(check int) "race count" half
        (int_exn "count" (member_exn "race" lat));
      Alcotest.(check int) "no errors" 0 (int_exn "errors" stats);
      Alcotest.(check int) "one fiber each" (n_clients * per)
        (int_exn "fibers" (member_exn "fiber_pool" stats)))

(* a fuzz request runs the schedule explorer, which installs deque and
   fiber yield hooks for its exploration; lints served meanwhile by the
   pool's other worker run deque operations on another domain and must
   not see those hooks (pre-fix the hooks were process-global: the
   other worker performed the explorer's effect outside any handler,
   its domain died and shutdown re-raised, leaving the socket behind) *)
let test_server_fuzz_beside_lints () =
  with_server ~workers:2 "fuzz" (fun conn path ->
      let fuzz_id =
        Client.send conn (P.Fuzz { count = 40; seed = 1; max_depth = 4 })
      in
      let fuzz_reply = ref None in
      let waiter =
        Thread.create (fun () -> fuzz_reply := Some (Client.recv conn)) ()
      in
      (* keep the other worker cycling through its deque for as long
         as the exploration runs: cached lints, pipelined in bursts *)
      let k = Client.connect (P.Unix_path path) in
      let lints = ref 0 in
      while Option.is_none !fuzz_reply do
        let ids = List.init 20 (fun _ -> Client.send k (P.Lint wk)) in
        List.iter
          (fun _ ->
            let r = Client.recv k in
            if not (is_ok r) then Alcotest.failf "lint %d failed" r.P.id)
          ids;
        lints := !lints + 20
      done;
      Client.close k;
      Thread.join waiter;
      let r = Option.get !fuzz_reply in
      Alcotest.(check int) "fuzz id" fuzz_id r.P.id;
      (match r.P.result with
      | Ok j -> Alcotest.(check int) "no fuzz failures" 0 (int_exn "failures" j)
      | Error msg -> Alcotest.failf "fuzz failed: %s" msg);
      let fp = member_exn "fiber_pool" (settled_stats conn) in
      Alcotest.(check int) "no fiber errors" 0 (int_exn "errors" fp);
      Alcotest.(check int) "fuzz + lints ran as fibers" (1 + !lints)
        (int_exn "fibers" fp))

(* fuzz and suite run at most [workers - 1] at a time: two long fuzz
   requests queued ahead of a lint on two workers leave it a worker, so
   the lint is answered first; the second fuzz parks its fiber, not a
   worker, and runs when the first one releases its slot *)
let test_server_heavy_gate () =
  with_server ~workers:2 "gate" (fun conn _ ->
      let fuzz seed =
        Client.send conn (P.Fuzz { count = 50; seed; max_depth = 4 })
      in
      let f1 = fuzz 1 in
      let f2 = fuzz 5000 in
      let lint = Client.send conn (P.Lint { wk with seed = 77 }) in
      let got = List.init 3 (fun _ -> Client.recv conn) in
      List.iter
        (fun (r : P.response) ->
          if not (is_ok r) then Alcotest.failf "request %d failed" r.P.id)
        got;
      Alcotest.(check (list int)) "lint first, then the fuzzes in order"
        [ lint; f1; f2 ]
        (List.map (fun (r : P.response) -> r.P.id) got);
      let fp = member_exn "fiber_pool" (settled_stats conn) in
      Alcotest.(check bool) "the second fuzz parked" true
        (int_exn "peak_blocked" fp >= 1);
      Alcotest.(check int) "nothing left parked" 0 (int_exn "blocked" fp))

(* pooled requests already submitted when [shutdown] arrives are
   finished and answered before the daemon exits *)
let test_server_shutdown_drains () =
  let path = fresh_sock_path "drain" in
  let cfg =
    {
      (Server.default_config (P.Unix_path path)) with
      Server.workers = 1;
      quiet = true;
    }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  wait_for_socket path;
  let conn = Client.connect (P.Unix_path path) in
  let pooled =
    List.init 12 (fun i ->
        Client.send conn (P.Lint { wk with seed = 100 + i }))
  in
  let bye = Client.send conn P.Shutdown in
  let got = List.init 13 (fun _ -> Client.recv conn) in
  List.iter
    (fun (r : P.response) ->
      if not (is_ok r) then Alcotest.failf "request %d failed" r.P.id)
    got;
  Alcotest.(check (list int)) "every id answered once"
    (List.sort compare (bye :: pooled))
    (List.sort compare (List.map (fun (r : P.response) -> r.P.id) got));
  Thread.join server;
  Client.close conn;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

(* a connection that outlives the daemon's shutdown still gets one
   answer per request: pooled kinds are refused once the pool has
   closed, inline kinds are still served *)
let test_server_requests_after_shutdown () =
  let path = fresh_sock_path "late" in
  let cfg =
    {
      (Server.default_config (P.Unix_path path)) with
      Server.workers = 1;
      quiet = true;
    }
  in
  let server = Thread.create (fun () -> Server.run cfg) () in
  wait_for_socket path;
  let conn = Client.connect (P.Unix_path path) in
  let late = raw_connect path in
  let ping id =
    Json.Obj [ ("id", Json.Int id); ("kind", Json.String "ping") ]
  in
  (* the reader thread of [late] is running before the shutdown *)
  raw_send late (ping 1);
  Alcotest.(check bool) "pong before shutdown" true (is_ok (raw_recv late));
  ignore (Client.call_exn conn P.Shutdown);
  Thread.join server;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
  let ids = List.init 8 (fun i -> 10 + i) in
  List.iter
    (fun id ->
      raw_send late
        (P.request_to_json
           { P.id; req = P.Race { wk with seed = 200 + id } }))
    ids;
  raw_send late (ping 99);
  let got = List.init 9 (fun _ -> raw_recv late) in
  Alcotest.(check (list int)) "every id answered once" (ids @ [ 99 ])
    (List.sort compare (List.map (fun (r : P.response) -> r.P.id) got));
  List.iter
    (fun (r : P.response) ->
      match r.P.result with
      | Ok _ when r.P.id = 99 -> ()
      | Error "server shutting down" when r.P.id <> 99 -> ()
      | Ok j -> Alcotest.failf "request %d: served %s" r.P.id (Json.to_string j)
      | Error msg -> Alcotest.failf "request %d: error %s" r.P.id msg)
    got;
  Unix.close (fst late);
  Client.close conn

let () =
  Alcotest.run "nd_serve"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact small values" `Quick test_hist_exact_small;
          Alcotest.test_case "log-bucket bound" `Quick
            test_hist_log_bucket_bound;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "sync hammer" `Quick test_hist_sync_hammer;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "round-trip all kinds" `Quick
            test_protocol_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_protocol_rejects;
          Alcotest.test_case "sign bounds at decode" `Quick
            test_protocol_sign_bounds;
        ] );
      ( "framing",
        [
          Alcotest.test_case "round-trip chunked" `Quick
            test_frame_roundtrip_all_kinds;
          Alcotest.test_case "truncated" `Quick test_frame_truncated;
          Alcotest.test_case "oversized" `Quick test_frame_oversized;
          Alcotest.test_case "malformed payload" `Quick
            test_frame_malformed_payload;
          QCheck_alcotest.to_alcotest test_frame_random_bytes_no_crash;
        ] );
      ( "cache",
        [
          Alcotest.test_case "keyed lru" `Quick test_cache_lru;
          Alcotest.test_case "single-flight same key" `Quick
            test_cache_single_flight_same_key;
          Alcotest.test_case "distinct keys overlap" `Quick
            test_cache_distinct_keys_overlap;
          Alcotest.test_case "failed compute retries" `Quick
            test_cache_failed_compute_retries;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "multi-domain hammer" `Quick test_decompose_hammer;
        ] );
      ( "server",
        [
          Alcotest.test_case "end-to-end" `Quick test_server_end_to_end;
          Alcotest.test_case "two servers coexist" `Quick
            test_two_servers_coexist;
          Alcotest.test_case "default workers honour NDSIM_WORKERS" `Quick
            test_server_default_workers;
          Alcotest.test_case "handler errors are responses" `Quick
            test_server_handler_errors;
          Alcotest.test_case "decode errors keep the connection" `Quick
            test_server_decode_errors;
          Alcotest.test_case "concurrent clients" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "fuzz beside lints" `Quick
            test_server_fuzz_beside_lints;
          Alcotest.test_case "heavy kinds leave a worker free" `Quick
            test_server_heavy_gate;
          Alcotest.test_case "shutdown drains submitted work" `Quick
            test_server_shutdown_drains;
          Alcotest.test_case "requests after shutdown refused" `Quick
            test_server_requests_after_shutdown;
        ] );
    ]
