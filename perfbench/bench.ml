(* The benchmark's entry point: set up one workload, measure it for a fixed
   window, check its outputs, and print every metric by name with its
   unit.  The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  See README.md. *)

open Perfbench
open Common

module type WORKLOAD = sig
  val name : string

  val input : scale -> string

  type env

  val setup : opts -> env

  val measure : opts -> env -> seconds:float -> window

  val release : env -> unit
end

let workloads : (module WORKLOAD) list =
  [ (module Wl_analyze); (module Wl_simulate); (module Wl_execute); (module Wl_serve) ]

let find_workload n = List.find_opt (fun (module W : WORKLOAD) -> W.name = n) workloads

(* setup_s is the median of this many set-ups, each scaled by its
   unstolen share (see Common.Steal); the last one is kept *)
let n_setups = 5

let fmt_value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failed metrics =
  List.iter
    (fun m -> if not (Float.is_finite m.value) then Printf.eprintf "perfbench: %s is not a number; printed as 0\n" m.name)
    metrics;
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} (failed = 0) attempted failed
    (String.concat ", "
       (List.map (fun m -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (fmt_value m.value) m.unit) metrics));
  print_newline ()

let context o ~git_rev ~samples ~input wl =
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g input=[%s] samples=%d git_rev=%s nproc=%d ocaml=%s\n%!" wl
    o.seed o.seconds input samples git_rev (nproc ()) Sys.ocaml_version

(* --trace 0: the end-to-end metrics of one workload *)
let untraced o ~git_rev (module W : WORKLOAD) =
  let rec setups k acc =
    let env, wall_ns, stolen = net (fun () -> W.setup o) in
    let s = float_of_int wall_ns /. 1e9 *. (1. -. stolen) in
    if k = n_setups then (env, s :: acc)
    else begin
      W.release env;
      (* free the discarded set-up's arrays before the next one *)
      Gc.compact ();
      setups (k + 1) (s :: acc)
    end
  in
  let env, setup_s = setups 1 [] in
  let w = Fun.protect ~finally:(fun () -> W.release env) (fun () -> W.measure o env ~seconds:o.seconds) in
  let e2e =
    [
      metric "throughput_per_s" "1/s" w.throughput;
      metric "latency_p50_ms" "ms" w.p50_ms;
      metric "latency_p99_ms" "ms" w.p99_ms;
      metric "peak_rss_mb" "MB" w.peak_rss_mb;
      metric "setup_s" "s" (median setup_s);
    ]
  in
  context o ~git_rev ~samples:w.samples ~input:(W.input o.scale) W.name;
  List.iter (fun m -> Printf.printf "e2e %s %s %s %s\n" W.name m.name (fmt_value m.value) m.unit) e2e;
  Printf.printf "e2e %s error_ratio %s ratio\n" W.name
    (fmt_value (float_of_int w.failed /. float_of_int (max 1 w.attempted)));
  Printf.printf "e2e %s wall_latency_p50_ms %s ms\n" W.name (fmt_value w.wall_p50_ms);
  Printf.printf "e2e %s steal_share %s ratio\n" W.name (fmt_value w.steal_share);
  print_result ~attempted:w.attempted ~failed:w.failed e2e;
  w.failed

(* --trace 1: every workload, set up once, then measured for a quarter
   of the window untraced and a quarter traced (a batch measurement
   starts with its own untraced warm-up job); per-layer metrics come
   from the traced part and the tracing overhead is traced minus
   untraced. *)
let traced o ~git_rev ~spans first =
  let order = first :: List.filter (fun w -> w != first) workloads in
  let part = o.seconds /. 4. in
  let attempted = ref 0 and failed = ref 0 in
  let layers =
    List.concat_map
      (fun (module W : WORKLOAD) ->
        Span.enabled := true;
        let env = W.setup o in
        let plain, w =
          Fun.protect
            ~finally:(fun () -> W.release env)
            (fun () ->
              Span.enabled := false;
              let plain = W.measure o env ~seconds:part in
              Span.enabled := true;
              let w = W.measure o env ~seconds:part in
              Span.enabled := false;
              (plain, w))
        in
        attempted := !attempted + plain.attempted + w.attempted;
        failed := !failed + plain.failed + w.failed;
        context o ~git_rev ~samples:w.samples ~input:(W.input o.scale) W.name;
        let job_self =
          if Span.select ~wl:W.name "job" = [] then []
          else [ metric ("job.self_ms." ^ W.name) "ms" (span_median_self_ms ~wl:W.name "job") ]
        in
        let ms =
          w.layers @ job_self
          @ [
              metric ("trace.overhead_p50_ms." ^ W.name) "ms" (w.p50_ms -. plain.p50_ms);
              metric ("trace.overhead_throughput_per_s." ^ W.name) "1/s" (w.throughput -. plain.throughput);
            ]
        in
        List.iter (fun m -> Printf.printf "layer %s %s %s %s\n%!" W.name m.name (fmt_value m.value) m.unit) ms;
        ms)
      order
  in
  Span.write spans;
  Printf.printf "# spans written to %s\n" spans;
  print_result ~attempted:!attempted ~failed:!failed layers;
  !failed

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let scale = ref Full and corrupt = ref false and ndsim = ref "ndsim" and workdir = ref "." in
  let git_rev = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME analyze | simulate | execute | serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--scale", Arg.String (fun s -> scale := if s = "tiny" then Tiny else Full), "full|tiny input sizes");
      ("--corrupt", Arg.Set corrupt, " check against wrong expected values (tests)");
      ("--ndsim", Arg.Set_string ndsim, "PATH ndsim executable for the serve workload");
      ("--workdir", Arg.Set_string workdir, "DIR directory for the server socket and the spans file");
      ("--git-rev", Arg.Set_string git_rev, "REV revision to state in the output");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench --workload NAME [options]";
  let w =
    match find_workload !workload with
    | Some w -> w
    | None ->
      prerr_endline "perfbench: --workload must be analyze, simulate, execute or serve";
      exit 2
  in
  let o =
    { seed = !seed; seconds = !seconds; scale = !scale; corrupt = !corrupt; ndsim = !ndsim; workdir = !workdir }
  in
  let spans = Filename.concat !workdir "perfbench-spans.jsonl" in
  let failed = if !trace = 0 then untraced o ~git_rev:!git_rev w else traced o ~git_rev:!git_rev ~spans w in
  exit (if failed = 0 then 0 else 1)
