(* The benchmark's own tests, at tiny input sizes. *)

module Json = Nd_util.Json
module Serve = Perfbench.Wl_serve

let bench, ndsim, spec =
  match Sys.argv with
  | [| _; b; n; s |] -> (b, n, s)
  | _ -> failwith "usage: test_perfbench BENCH_EXE NDSIM_EXE BENCHMARK_JSON"

let workloads = [ "analyze"; "simulate"; "execute"; "serve" ]

(* (name, unit) of every metric of one BENCHMARK.json section *)
let declared section =
  let ic = open_in_bin spec in
  let j = Json.parse (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  match Json.member section j with
  | Some l ->
    List.map
      (fun m ->
        let field k = Json.to_string_exn (Option.get (Json.member k m)) in
        (field "name", field "unit"))
      (Json.to_list l)
  | None -> Alcotest.failf "BENCHMARK.json has no %s" section

(* run bench.exe; its exit code and stdout lines *)
let run args =
  let out_r, out_w = Unix.pipe () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv =
    Array.of_list
      ([ bench; "--scale"; "tiny"; "--seconds"; "0.2"; "--seed"; "7"; "--ndsim"; ndsim; "--workdir"; "." ] @ args)
  in
  let pid = Unix.create_process bench argv Unix.stdin out_w null in
  Unix.close out_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr out_r in
  let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc in
  let out = lines [] in
  close_in ic;
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> -1 in
  (code, out)

let result out =
  match List.rev out with
  | last :: _ -> Json.parse last
  | [] -> Alcotest.fail "no output"

let field k j = Option.get (Json.member k j)

let check_metrics section res =
  let metrics = field "metrics" res in
  List.iter
    (fun (name, unit) ->
      match Json.member name metrics with
      | None -> Alcotest.failf "metric %s missing" name
      | Some m ->
        Alcotest.(check string) (name ^ " unit") unit (Json.to_string_exn (field "unit" m));
        ignore (Json.to_number (field "value" m)))
    (declared section)

let test_e2e wl () =
  let code, out = run [ "--workload"; wl ] in
  Alcotest.(check int) "exit code" 0 code;
  let res = result out in
  Alcotest.(check bool) "correct" true (field "correct" res = Json.Bool true);
  Alcotest.(check bool) "no failures" true (field "failed" res = Json.Int 0);
  check_metrics "end_to_end" res;
  let line = Printf.sprintf "e2e %s error_ratio 0 ratio" wl in
  Alcotest.(check bool) line true (List.mem line out)

let test_corrupt wl () =
  let code, out = run [ "--workload"; wl; "--corrupt" ] in
  Alcotest.(check int) "exit code" 1 code;
  let res = result out in
  Alcotest.(check bool) "correct" true (field "correct" res = Json.Bool false);
  Alcotest.(check bool) "failures counted" true (Json.to_number (field "failed" res) > 0.)

let test_traced () =
  let code, out = run [ "--workload"; "analyze"; "--trace"; "1" ] in
  Alcotest.(check int) "exit code" 0 code;
  check_metrics "per_layer" (result out)

let test_serve_traffic () =
  let take seed conn =
    let s = Serve.stream ~scale:Perfbench.Common.Full ~seed ~conn in
    List.init 500 (fun _ -> Serve.next_request s)
  in
  Alcotest.(check bool) "same seed, same traffic" true (take 3 0 = take 3 0);
  Alcotest.(check bool) "connections differ" true (take 3 0 <> take 3 1);
  Alcotest.(check bool) "seeds differ" true (take 3 0 <> take 4 0)

let test_groups () =
  let groups k n = Perfbench.Common.groups k (List.init n Fun.id) in
  Alcotest.(check (list int)) "five groups of 20" [ 20; 20; 20; 20; 20 ] (List.map List.length (groups 5 100));
  Alcotest.(check (list int)) "near-equal" [ 5; 4; 4; 4; 4 ] (List.map List.length (groups 5 21));
  Alcotest.(check (list int)) "order kept" (List.init 23 Fun.id) (List.concat (groups 5 23));
  Alcotest.(check (list int)) "one group under 4k" [ 19 ] (List.map List.length (groups 5 19))

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ("e2e", List.map (fun wl -> Alcotest.test_case wl `Quick (test_e2e wl)) workloads);
      ("corrupt", List.map (fun wl -> Alcotest.test_case wl `Quick (test_corrupt wl)) workloads);
      ("traced", [ Alcotest.test_case "per-layer metrics" `Quick test_traced ]);
      ("serve", [ Alcotest.test_case "traffic is a function of the seed" `Quick test_serve_traffic ]);
      ("slices", [ Alcotest.test_case "batch jobs cut into consecutive groups" `Quick test_groups ]);
    ]
