(* simulate: the PMH simulator.  Programs are compiled in setup, so the
   scheduler and cache-simulator loops do the measured work and the DRS
   shows only in setup_s. *)

open Common
module Sb = Nd_sched.Sb_sched
module Cost = Nd_analyze.Cost

let name = "simulate"

let programs = function
  | Full -> [ ("mm", "mm", 128, 32); ("fw1d", "fw1d", 256, 16) ]
  | Tiny -> [ ("mm", "mm", 32, 8); ("fw1d", "fw1d", 64, 8) ]

let input scale = describe (programs scale) ^ " on the standard machine, top=1"

type env = {
  progs : (string * Nd.Program.t) list;
  machine : Nd_pmh.Pmh.t;
  serial : (string * Nd_mem.Miss_table.t option) list Lazy.t;
      (* the serial replay every sharded table must equal bit for bit,
         made once, outside every window *)
}

let setup o =
  let progs =
    List.map
      (fun ((label, _, _, _) as p) -> (label, compile ~wl:name ~label (build ~wl:name ~seed:o.seed p)))
      (programs o.scale)
  in
  let machine = Nd_serve.Server.standard_machine ~top:1 in
  let serial = lazy (List.map (fun (label, p) -> (label, (Sb.run ~sim_workers:1 p machine).miss_table)) progs) in
  { progs; machine; serial }

let release (_ : env) = ()

(* the 1/3 of Lemma 6, as Sb_sched and certify_theorem1 default it *)
let sigma = 1. /. 3.

type outcome = { rho : Sb.stats; lru : Sb.stats; sharded : Nd_mem.Miss_table.t option; certified : bool }

let same_stats (a : Sb.stats) (b : Sb.stats) = a.time = b.time && a.miss_cost = b.miss_cost && a.misses = b.misses && a.work = b.work

let same_table a b = match (a, b) with Some a, Some b -> Nd_mem.Miss_table.equal a b | _ -> false

let measure o env ~seconds =
  (* the first job's outcome per program; every later job is checked
     against it as it ends, untimed, so no job's tables are kept *)
  let first = Hashtbl.create 4 and failed_jobs = Hashtbl.create 8 in
  let check i label r =
    match Hashtbl.find_opt first label with
    | None -> Hashtbl.replace first label r
    | Some f ->
      let expected_rho = if o.corrupt then { f.rho with time = f.rho.time + 1 } else f.rho in
      let sharded_ok = same_table r.sharded f.sharded in
      if not (sharded_ok && r.certified && same_stats r.rho expected_rho && same_stats r.lru f.lru) then begin
        report_failure "simulate job %d %s: sharded stable %b certified %b rho stable %b lru stable %b" i label
          sharded_ok r.certified (same_stats r.rho expected_rho) (same_stats r.lru f.lru);
        Hashtbl.replace failed_jobs i ()
      end
  in
  let zoo = List.filter (fun (n, _) -> n <> "sb") Nd_sched.Zoo.all in
  let job i =
    let spent = ref 0 in
    Span.with_ ~wl:name ~job:i "job" (fun () ->
        List.iter
          (fun (label, p) ->
            let m = env.machine in
            let call lname f = layer_call spent ~wl:name ~job:i ~prog:label lname f in
            let rho = call "sb_sched.rho" (fun () -> Sb.run ~accounting:Sb.Rho p m) in
            let lru = call "sb_sched.lru" (fun () -> Sb.run ~accounting:Sb.Lru p m) in
            let sharded = call "sb_sched.sharded" (fun () -> Sb.run ~sim_workers:(nproc ()) p m) in
            List.iter
              (fun (zname, (module S : Nd_sched.Scheduler.S)) ->
                ignore (call ("zoo." ^ zname) (fun () -> S.run ~seed:o.seed p m)))
              zoo;
            let cert = call "cost.certify" (fun () -> Cost.certify_theorem1 p m) in
            call "program.decompose" (fun () ->
                for level = 1 to Nd_pmh.Pmh.n_levels m do
                  let size = float_of_int (Nd_pmh.Pmh.size m ~level) in
                  ignore (Nd.Program.decompose p ~m:(max 1 (int_of_float (sigma *. size))))
                done);
            check i label { rho; lru; sharded = sharded.miss_table; certified = cert.certified })
          env.progs);
    !spent
  in
  let w = batch_loop ~seconds job in
  (* every job matched the first, so the first alone is held to the
     serial replay *)
  List.iter
    (fun (label, serial) ->
      match Hashtbl.find_opt first label with
      | None -> ()
      | Some f ->
        if not (same_table f.sharded serial && f.certified) then begin
          report_failure "simulate first job %s: sharded=serial %b certified %b" label (same_table f.sharded serial)
            f.certified;
          Hashtbl.replace failed_jobs 0 ()
        end)
    (Lazy.force env.serial);
  let layers =
    if not !Span.enabled then []
    else
      List.concat_map
        (fun (label, _) ->
          let rho = (Hashtbl.find first label).rho in
          List.map
            (fun l -> metric (Printf.sprintf "%s_ms.%s" l label) "ms" (span_median_ms ~wl:name ~prog:label l))
            ([ "sb_sched.rho"; "sb_sched.lru"; "sb_sched.sharded" ]
            @ List.map (fun (z, _) -> "zoo." ^ z) zoo
            @ [ "cost.certify"; "program.decompose" ])
          @ [
              metric ("sb_sched.miss_cost." ^ label) "count" (float_of_int rho.miss_cost);
              metric ("sb_sched.time." ^ label) "count" (float_of_int rho.time);
            ])
        env.progs
  in
  { w with failed = w.failed + Hashtbl.length failed_jobs; layers }
