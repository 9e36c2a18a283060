(* execute: real execution by the serial executor and every backend at
   workers = nproc.  mm is dense with many dependency counters; lcs is
   a 4096-leaf wavefront of small leaves where fibers park. *)

open Common
module Workload = Nd_algos.Workload
module Fiber_exec = Nd_runtime.Fiber_exec

let name = "execute"

let programs = function
  | Full -> [ ("mm", "mm", 128, 16); ("lcs", "lcs", 512, 8) ]
  | Tiny -> [ ("mm", "mm", 32, 8); ("lcs", "lcs", 256, 16) ]

let input scale = describe (programs scale) ^ Printf.sprintf ", workers=%d" (nproc ())

(* max-abs deviation from the serial reference that still passes *)
let tolerance = 1e-6

type env = (string * Workload.t * Nd.Program.t) list

let setup o =
  List.map
    (fun ((label, _, _, _) as p) ->
      let w = build ~wl:name ~seed:o.seed p in
      (label, w, compile ~wl:name ~label w))
    (programs o.scale)

let release (_ : env) = ()

let measure o (env : env) ~seconds =
  let workers = nproc () in
  let failed_jobs = Hashtbl.create 8 in
  let fiber_stats = ref [] in
  let job i =
    let spent = ref 0 in
    Span.with_ ~wl:name ~job:i "job" (fun () ->
        List.iter
          (fun (label, (w : Workload.t), p) ->
            (* reset before and check after each run, both untimed *)
            let run lname f =
              w.reset ();
              (* a second run on un-reset operands breaks the result
                 (mm accumulates into C), which the check must catch *)
              if o.corrupt && lname = "serial_exec.run" then Nd.Serial_exec.run p;
              let v = layer_call spent ~wl:name ~job:i ~prog:label lname f in
              let err = w.check () in
              if not (err <= tolerance) then begin
                report_failure "execute job %d %s %s: max error %g > %g" i label lname err tolerance;
                Hashtbl.replace failed_jobs i ()
              end;
              v
            in
            run "serial_exec.run" (fun () -> Nd.Serial_exec.run p);
            List.iter
              (fun (module B : Nd_runtime.Backend.S) ->
                if B.name = "fiber" then
                  fiber_stats :=
                    (label, run "backend.fiber" (fun () -> Fiber_exec.run_program ~workers p)) :: !fiber_stats
                else run ("backend." ^ B.name) (fun () -> B.run ~workers p))
              Nd_runtime.Backend.all)
          env);
    !spent
  in
  let w = batch_loop ~seconds job in
  let layers =
    if not !Span.enabled then []
    else
      List.concat_map
        (fun (label, _, _) ->
          let t l = span_median_ms ~wl:name ~prog:label l in
          let serial = t "serial_exec.run" in
          let stats = List.filter_map (fun (l, s) -> if l = label then Some s else None) !fiber_stats in
          let fiber f = metric (Printf.sprintf "fiber_exec.%s.%s" f label) "count" in
          let med g = median (List.map (fun s -> float_of_int (g s)) stats) in
          (metric ("serial_exec.run_ms." ^ label) "ms" serial
          :: List.concat_map
               (fun b ->
                 let bt = t ("backend." ^ b) in
                 [
                   metric (Printf.sprintf "backend.%s_ms.%s" b label) "ms" bt;
                   metric (Printf.sprintf "backend.%s_speedup.%s" b label) "x" (serial /. bt);
                 ])
               Nd_runtime.Backend.names)
          @ [
              fiber "suspensions" (med (fun s -> s.Fiber_exec.suspensions));
              fiber "steals" (med (fun s -> s.Fiber_exec.steals));
              fiber "peak_blocked" (med (fun s -> s.Fiber_exec.peak_blocked));
            ])
        env
  in
  { w with failed = w.failed + Hashtbl.length failed_jobs; layers }
