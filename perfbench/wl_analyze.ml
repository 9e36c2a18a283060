(* analyze: the static toolchain (DRS compile, Cost, Lint, ESP-bags) on
   two programs.  mm at n/base = 8 is dense in fire edges; lcs at
   n/base = 32 has 2047 subtree shapes, none shared, the worst case for
   Cost's shape memoization.  One job takes about 0.4 s, so a run holds
   dozens of jobs. *)

open Common
module Workload = Nd_algos.Workload
module Cost = Nd_analyze.Cost

let name = "analyze"

let programs = function
  | Full -> [ ("mm", "mm", 32, 4); ("lcs", "lcs", 512, 16) ]
  | Tiny -> [ ("mm", "mm", 16, 4); ("lcs", "lcs", 256, 16) ]

let input scale = describe (programs scale)

type env = {
  ws : (string * Workload.t) list;
  exact : (string * Nd.Analysis.report) list Lazy.t;
      (* the oracle: exact DAG analysis of a fresh compile, made once,
         outside every window *)
}

let setup o =
  let ws = List.map (fun ((label, _, _, _) as p) -> (label, build ~wl:name ~seed:o.seed p)) (programs o.scale) in
  { ws; exact = lazy (List.map (fun (label, w) -> (label, Nd.Analysis.analyze (Workload.compile w))) ws) }

let release (_ : env) = ()

type outcome = { job : int; label : string; work : int; span : int; race_free : bool; lint_errors : bool }

let measure o env ~seconds =
  let outcomes = ref [] and fire_edges = ref [] and shapes = ref [] in
  let job i =
    let spent = ref 0 in
    Span.with_ ~wl:name ~job:i "job" (fun () ->
        List.iter
          (fun (label, (w : Workload.t)) ->
            let call lname f = layer_call spent ~wl:name ~job:i ~prog:label lname f in
            let p = call "program.compile" (fun () -> Workload.compile w) in
            let cost = call "cost.of_program" (fun () -> Cost.of_program p) in
            let findings =
              call "lint.lint_all" (fun () -> Nd_analyze.Lint.lint_all ~registry:w.registry w.tree)
            in
            let race_free = call "esp_bags.race_free" (fun () -> Nd_analyze.Esp_bags.race_free p) in
            if !Span.enabled then begin
              fire_edges := (label, List.length (Nd.Program.fire_edges p)) :: !fire_edges;
              shapes := (label, (Cost.report cost).n_shapes) :: !shapes
            end;
            outcomes :=
              {
                job = i;
                label;
                work = Cost.work cost;
                span = Cost.span cost;
                race_free;
                lint_errors = Nd_analyze.Lint.has_errors findings;
              }
              :: !outcomes)
          env.ws);
    !spent
  in
  let w = batch_loop ~seconds job in
  let failed_jobs = Hashtbl.create 8 in
  List.iter
    (fun (label, (exact : Nd.Analysis.report)) ->
      let expected_span = if o.corrupt then exact.span + 1 else exact.span in
      List.iter
        (fun r ->
          if r.label = label then
            if r.work <> exact.work || r.span <> expected_span || not r.race_free || r.lint_errors then begin
              report_failure "analyze job %d %s: cost work/span %d/%d vs exact %d/%d, race_free=%b lint_errors=%b" r.job
                label r.work r.span exact.work expected_span r.race_free r.lint_errors;
              Hashtbl.replace failed_jobs r.job ()
            end)
        !outcomes)
    (Lazy.force env.exact);
  let layers =
    if not !Span.enabled then []
    else
      List.concat_map
        (fun (label, _) ->
          let per l = metric (Printf.sprintf "%s_ms.%s" l label) "ms" (span_median_ms ~wl:name ~prog:label l)
          and alloc l =
            metric (Printf.sprintf "%s_alloc_mw.%s" l label) "Mwords" (span_median_alloc_mw ~wl:name ~prog:label l)
          in
          let layer_names = [ "program.compile"; "cost.of_program"; "lint.lint_all"; "esp_bags.race_free" ] in
          List.map per layer_names @ List.map alloc layer_names
          @ [
              metric ("program.fire_edges." ^ label) "count" (float_of_int (List.assoc label !fire_edges));
              metric ("cost.n_shapes." ^ label) "count" (float_of_int (List.assoc label !shapes));
            ])
        env.ws
  in
  { w with failed = w.failed + Hashtbl.length failed_jobs; layers }
