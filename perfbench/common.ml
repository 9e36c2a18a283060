(* Plumbing shared by the four workloads: clock, options, the span
   recorder, summary statistics and the per-window result record. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms ns = float_of_int ns /. 1e6

(* Full is the benchmark; Tiny shrinks every input so the benchmark's
   own tests finish in seconds. *)
type scale = Full | Tiny

type opts = {
  seed : int;
  seconds : float;
  scale : scale;
  corrupt : bool;
      (* tests only: every checker compares against a wrong expected
         value, so a correct program must be reported as failing *)
  ndsim : string;  (* the ndsim executable the serve workload spawns *)
  workdir : string;  (* where the server socket lives *)
}

let nproc () = Domain.recommended_domain_count ()

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* ------------------------------ spans ------------------------------ *)

(* One record per timed call into a layer.  Spans are kept in memory and
   written out when the run ends; when tracing is off [with_] is a
   plain call. *)
module Span = struct
  type t = {
    id : int;
    parent : int;  (* -1 at the root *)
    job : int;  (* shared by every span of one job or request *)
    wl : string;
    name : string;
    prog : string;
    start_ns : int;
    stop_ns : int;
    alloc_w : float;  (* words allocated by the calling domain *)
  }

  let enabled = ref false

  let lock = Mutex.create ()

  let all : t list ref = ref []

  let next_id = Atomic.make 0

  (* the open span of the main thread; serve client threads only add
     root spans through [add] *)
  let current = ref (-1)

  let alloc_words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted

  let add s = Mutex.protect lock (fun () -> all := s :: !all)

  let fresh_id () = Atomic.fetch_and_add next_id 1

  let with_ ~wl ~job ?(prog = "") name f =
    if not !enabled then f ()
    else begin
      let id = fresh_id () and parent = !current in
      current := id;
      let a0 = alloc_words () and t0 = now_ns () in
      let finish () =
        let t1 = now_ns () and a1 = alloc_words () in
        current := parent;
        add
          {
            id;
            parent;
            job;
            wl;
            name;
            prog;
            start_ns = t0;
            stop_ns = t1;
            alloc_w = a1 -. a0;
          }
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  let select ~wl ?prog name =
    List.filter
      (fun s ->
        s.wl = wl && s.name = name
        && match prog with None -> true | Some p -> s.prog = p)
      !all

  (* Self time: the span minus the part of its interval that its child
     spans cover. *)
  let self_ns s =
    let kids =
      List.filter (fun c -> c.parent = s.id) !all
      |> List.map (fun c -> (max c.start_ns s.start_ns, min c.stop_ns s.stop_ns))
      |> List.sort compare
    in
    let covered, _ =
      List.fold_left
        (fun (acc, upto) (a, b) ->
          let a = max a upto in
          if b > a then (acc + (b - a), b) else (acc, upto))
        (0, min_int) kids
    in
    s.stop_ns - s.start_ns - covered

  let to_json s =
    Printf.sprintf
      {|{"id":%d,"parent":%d,"job":%d,"workload":%S,"name":%S,"program":%S,"start_ns":%d,"end_ns":%d,"alloc_words":%.0f}|}
      s.id s.parent s.job s.wl s.name s.prog s.start_ns s.stop_ns s.alloc_w

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        output_string oc (to_json s);
        output_char oc '\n')
      (List.rev !all);
    close_out oc
end

(* ---------------------------- statistics --------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest-rank percentile, [q] in (0, 1] *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let span_median_ms ~wl ?prog name =
  median (List.map (fun s -> ms (s.Span.stop_ns - s.Span.start_ns)) (Span.select ~wl ?prog name))

let span_median_alloc_mw ~wl ?prog name =
  median (List.map (fun s -> s.Span.alloc_w /. 1e6) (Span.select ~wl ?prog name))

let span_median_self_ms ~wl name =
  median (List.map (fun s -> ms (Span.self_ns s)) (Span.select ~wl name))

(* VmHWM of a process, in MB *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------ steal ------------------------------ *)

(* On a shared virtual machine the hypervisor runs other guests on this
   machine's vCPUs, and /proc/stat counts that time as steal.  Steal
   comes and goes over minutes, and in a heavy minute it can stretch a
   CPU-bound job by a third, while the CPU time of this process does not
   grow (the kernel leaves steal out of it).  So batch job latencies,
   serve slices and set-up times are scaled by the share of vCPU time
   that was not stolen.  Over an interval, a vCPU wanted busy + steal of
   time and got busy of it; the stolen share is averaged over the vCPUs,
   weighted by busy, so a vCPU that did none of the work adds none of
   its steal. *)
module Steal = struct
  (* per vCPU: (steal, busy) in ms *)
  type t = (float * float) list

  (* The per-vCPU lines of /proc/stat: cpuN user nice system idle iowait
     irq softirq steal ..., in USER_HZ (100) ticks.  Empty where it
     cannot be read, which turns the correction off. *)
  let read () : t =
    let parse line =
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | cpu :: user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _
        when String.length cpu > 3 && String.sub cpu 0 3 = "cpu" -> (
        match List.map float_of_string [ user; nice; system; irq; softirq; steal ] with
        | [ u; n; s; i; si; st ] -> Some (10. *. st, 10. *. (u +. n +. s +. i +. si))
        | _ -> None
        | exception Failure _ -> None)
      | _ -> None
    in
    match In_channel.with_open_text "/proc/stat" In_channel.input_all with
    | text -> List.filter_map parse (String.split_on_char '\n' text)
    | exception Sys_error _ -> []

  (* the stolen share of the vCPU time between [a] and [b] *)
  let share (a : t) (b : t) =
    if List.length a <> List.length b then 0.
    else begin
      let stolen = ref 0. and busy = ref 0. in
      List.iter2
        (fun (st0, b0) (st1, b1) ->
          let st = st1 -. st0 and bu = b1 -. b0 in
          if st > 0. && bu > 0. then stolen := !stolen +. (bu *. st /. (bu +. st));
          if bu > 0. then busy := !busy +. bu)
        a b;
      if !busy > 0. then !stolen /. !busy else 0.
    end
end

(* [net f] — f's result, its duration in ns, and the stolen share of
   that duration *)
let net f =
  let s0 = Steal.read () and t0 = now_ns () in
  let v = f () in
  let wall_ns = now_ns () - t0 in
  (v, wall_ns, Steal.share s0 (Steal.read ()))

(* ------------------------- batch programs -------------------------- *)

(* A batch workload's inputs: (label, family, n, base). *)
type program = string * string * int * int

let describe (programs : program list) =
  String.concat " + " (List.map (fun (_, fam, n, base) -> Printf.sprintf "%s n=%d base=%d" fam n base) programs)

let build ~wl ~seed ((label, fam, n, base) : program) =
  Span.with_ ~wl ~job:(-1) ~prog:label "workloads.build" (fun () ->
      Nd_experiments.Workloads.build ~n ~base (Nd_experiments.Workloads.find fam) ~seed)

let compile ~wl ~label w = Span.with_ ~wl ~job:(-1) ~prog:label "program.compile" (fun () -> Nd_algos.Workload.compile w)

(* ----------------------------- windows ----------------------------- *)

(* What one measured window produced. *)
type window = {
  samples : int;  (* completed jobs (batch) or requests (serve) *)
  throughput : float;  (* jobs or requests per second *)
  p50_ms : float;
  p99_ms : float;
  attempted : int;
  failed : int;
  peak_rss_mb : float;  (* VmHWM of the working process, before any check *)
  wall_p50_ms : float;  (* p50 before the steal correction *)
  steal_share : float;  (* stolen share of the window's vCPU time *)
  layers : metric list;  (* per-layer metrics; filled on traced windows *)
}

(* Failure log: one line per failed job, on stderr. *)
let report_failure fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: FAILED " ^ s)) fmt

(* [groups k xs] — xs cut into k consecutive groups of near-equal
   length, or one group when there are under 4k elements *)
let groups k xs =
  let n = List.length xs in
  let k = if n < 4 * k then 1 else k in
  List.init k (fun g -> List.filteri (fun i _ -> i * k / n = g) xs)

(* A batch run's jobs are cut into this many consecutive slices, and
   throughput and latency_p99_ms are medians over slices: the host's
   speed drifts in phases of seconds, and a single slow phase would
   otherwise set the tail of a whole run.  Serve does the same with
   one-second slices. *)
let batch_slices = 5

(* The batch loop.  Job 0 is a warm-up: it runs untraced and unmeasured
   (its failures still count), and the peak RSS is read after it, since
   the heap keeps growing a little over later jobs and a later reading
   would depend on how many jobs fit the window.  Then [job i], i >= 1,
   runs while the next job's midpoint, judged by the last job's length,
   still falls inside the [seconds] window, and always at least once; so
   the window holds about [seconds] of jobs without a long job overrunning
   it.  [job] returns the nanoseconds it spent inside timed calls, so
   untimed resets and checks between the calls stay out of the latency;
   that time is scaled by one minus the stolen share of the whole job
   (see [Steal]).  A job that raises counts as failed.  A slice's throughput
   is its jobs per second of timed work. *)
let batch_loop ~seconds job =
  let raised = ref 0 in
  (* a job's timed ns and the stolen share of the whole job *)
  let attempt i =
    match net (fun () -> job i) with
    | ns, _, stolen -> Some (ns, stolen)
    | exception e ->
      incr raised;
      report_failure "job %d raised %s" i (Printexc.to_string e);
      None
  in
  let tracing = !Span.enabled in
  Span.enabled := false;
  ignore (attempt 0);
  Span.enabled := tracing;
  let rss = peak_rss_mb None in
  let s0 = Steal.read () and t0 = now_ns () in
  let window = int_of_float (seconds *. 1e9) in
  let lat = ref [] and wall = ref [] and n = ref 0 and last = ref 0 in
  while !n = 0 || now_ns () - t0 + (!last / 2) < window do
    let start = now_ns () in
    incr n;
    Option.iter
      (fun (ns, stolen) ->
        wall := ms ns :: !wall;
        lat := (ms ns *. (1. -. stolen)) :: !lat)
      (attempt !n);
    last := now_ns () - start
  done;
  let steal_share = Steal.share s0 (Steal.read ()) in
  let lat = List.rev !lat in
  let slices = groups batch_slices lat in
  let rate l =
    let total_s = List.fold_left ( +. ) 0. l /. 1e3 in
    if total_s > 0. then float_of_int (List.length l) /. total_s else nan
  in
  {
    samples = List.length lat;
    throughput = median (List.map rate slices);
    p50_ms = median lat;
    p99_ms = median (List.map (percentile 0.99) slices);
    attempted = !n + 1;
    failed = !raised;
    peak_rss_mb = rss;
    wall_p50_ms = median !wall;
    steal_share;
    layers = [];
  }

(* [timed f] — f's result and its duration in ns *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)

(* [layer_call spent ~wl ~job ~prog name f] — one timed call into a
   layer, inside its span; its duration is added to [spent] *)
let layer_call spent ~wl ~job ~prog name f =
  let v, ns = timed (fun () -> Span.with_ ~wl ~job ~prog name f) in
  spent := !spent + ns;
  v
