(* The DRS rewriter, pinned.  For every shipped workload family at its
   smallest size (ND and NP) and a fixed block of generated specs, the
   golden table below records what the rewriting produces: the number of
   fire edges and an MD5 of their full sorted content, the compiled
   DAG's vertex and edge counts, an MD5 of the program's whole structure
   (vertex numbering, successor order, node layout) and an MD5 of the
   ND002/ND006/ND007 findings (the lint rules that read the rewriting's walk).  Any change
   to how fire arrows are resolved, deduplicated or attached shows up
   here as a row mismatch; the failure message prints the actual row in
   the table's own syntax. *)

module Gen = Nd_check.Gen
module Lint = Nd_analyze.Lint
module Dag = Nd_dag.Dag
module Workloads = Nd_experiments.Workloads
module Workload = Nd_algos.Workload
open Nd

type row = {
  case : string;
  n_fire : int;  (** [-1] when compilation refuses the program *)
  edges_md5 : string;
  n_vertices : int;
  n_edges : int;
  structure_md5 : string;
  findings_md5 : string;  (** ["-"] when there are none *)
}

let pp_row r =
  Printf.sprintf "{ case = %S; n_fire = %d; edges_md5 = %S; n_vertices = %d; \
                  n_edges = %d; structure_md5 = %S; findings_md5 = %S };"
    r.case r.n_fire r.edges_md5 r.n_vertices r.n_edges r.structure_md5
    r.findings_md5

let md5 s = Digest.to_hex (Digest.string s)

(* Everything a consumer can read off the compiled program besides the
   fire edges: each vertex's label, work and successor list in insertion
   order (schedulers and executors walk them in that order), and each
   node's parent, leaf range, begin/end vertices, size and work, plus the
   vertex owners. *)
let structure p =
  let dag = Program.dag p in
  let buf = Buffer.create 4096 in
  for v = 0 to Dag.n_vertices dag - 1 do
    Printf.bprintf buf "v%d %s %d>%s|%d\n" v (Dag.label dag v)
      (Dag.work_of dag v)
      (String.concat "," (List.map string_of_int (Dag.succs dag v)))
      (Program.vertex_owner p v)
  done;
  for n = 0 to Program.n_nodes p - 1 do
    let lo, hi = Program.leaf_range p n in
    Printf.bprintf buf "n%d %d [%d,%d) %d %d %d %d\n" n (Program.parent p n)
      lo hi (Program.begin_vertex p n) (Program.end_vertex p n)
      (Program.size p n) (Program.work_of_node p n)
  done;
  Buffer.contents buf

let row_of ~case p =
  let edges = Program.fire_edges p in
  let buf = Buffer.create (16 * (List.length edges + 1)) in
  List.iter (fun (a, b) -> Printf.bprintf buf "%d,%d;" a b) edges;
  let findings =
    List.filter_map
      (fun f ->
        if List.mem f.Lint.id [ "ND002"; "ND006"; "ND007" ] then
          Some (String.concat "|" [ f.Lint.id; f.Lint.subject; f.Lint.message ])
        else None)
      (Lint.lint_program p)
  in
  let dag = Program.dag p in
  {
    case;
    n_fire = List.length edges;
    edges_md5 = md5 (Buffer.contents buf);
    n_vertices = Dag.n_vertices dag;
    n_edges = Dag.n_edges dag;
    structure_md5 = md5 (structure p);
    findings_md5 =
      (if findings = [] then "-"
       else md5 (String.concat "\n" (List.sort compare findings)));
  }

let refused case =
  {
    case;
    n_fire = -1;
    edges_md5 = "refused";
    n_vertices = 0;
    n_edges = 0;
    structure_md5 = "refused";
    findings_md5 = "-";
  }

let family_rows () =
  List.concat_map
    (fun fam ->
      let n = List.hd fam.Workloads.sizes in
      let w = Workloads.build ~n fam ~seed:7 in
      List.map
        (fun mode ->
          let case =
            Printf.sprintf "%s n=%d %s" fam.Workloads.name n
              (Workload.mode_name mode)
          in
          row_of ~case (Workload.compile ~mode w))
        [ Workload.ND; Workload.NP ])
    Workloads.all

let seed_base = 60_000

let n_seeds = 200

let seed_rows () =
  List.init n_seeds (fun i ->
      let seed = seed_base + i in
      let case = Printf.sprintf "seed %d" seed in
      let inst = Gen.build (Gen.generate ~seed ()) in
      match Program.compile ~registry:inst.Gen.registry inst.Gen.tree with
      | exception Invalid_argument _ -> refused case
      | p -> row_of ~case p)

let check_rows golden actual =
  let bad =
    if List.length golden <> List.length actual then List.map pp_row actual
    else
      List.filter_map
        (fun (g, a) -> if g = a then None else Some (pp_row a))
        (List.combine golden actual)
  in
  if bad <> [] then
    Alcotest.failf "%d of %d rows differ from the golden table; actual:\n%s"
      (List.length bad) (List.length golden) (String.concat "\n" bad)

(* Captured from the three separate walks that Program, Cost and Lint ran
   before Nd.Drs. *)
let golden_families =
  [
    { case = "mm n=8 ND"; n_fire = 315; edges_md5 = "7f0ce1339a7aa9c1a961f56e60a6f88d"; n_vertices = 190; n_edges = 567; structure_md5 = "366d32f50c39a7382818ab31c1aa8964"; findings_md5 = "d809cbb0a8217f106d54833ba20b8b06" };
    { case = "mm n=8 NP"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 172; n_edges = 225; structure_md5 = "b01695ef1e7c08217e08fb0e2c2f4164"; findings_md5 = "-" };
    { case = "mm8 n=8 ND"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 156; n_edges = 257; structure_md5 = "b5eb5cf63f3c2dac90f20baf269026ab"; findings_md5 = "-" };
    { case = "mm8 n=8 NP"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 156; n_edges = 257; structure_md5 = "b5eb5cf63f3c2dac90f20baf269026ab"; findings_md5 = "-" };
    { case = "trs n=8 ND"; n_fire = 58; edges_md5 = "eed8f8a0bc89cc78bc5f5178e27c0a73"; n_vertices = 118; n_edges = 214; structure_md5 = "70871d46df943bdedaf1a01efc14dc01"; findings_md5 = "-" };
    { case = "trs n=8 NP"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 84; n_edges = 105; structure_md5 = "04151bca31cfa03d3132371a6f733c2c"; findings_md5 = "-" };
    { case = "cholesky n=8 ND"; n_fire = 40; edges_md5 = "4d8a6798cd66f81c857c0df6d63bc106"; n_vertices = 64; n_edges = 124; structure_md5 = "39165fcf6f45cc616df6ff5799ba3d83"; findings_md5 = "-" };
    { case = "cholesky n=8 NP"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 38; n_edges = 45; structure_md5 = "0b1663227d5f9a14cfc7655bca02b3db"; findings_md5 = "-" };
    { case = "lu n=8 ND"; n_fire = 13; edges_md5 = "8c3ee643806d8d1a3aaa96842f1a9dc9"; n_vertices = 77; n_edges = 103; structure_md5 = "1c9688570007bda40ef9363e025b6f3c"; findings_md5 = "066a55460fce4268e3b9f78fc8e161ae" };
    { case = "lu n=8 NP"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 69; n_edges = 78; structure_md5 = "6f48904c5c6f3af0b79edbaa31507eee"; findings_md5 = "-" };
    { case = "apsp n=8 ND"; n_fire = 50; edges_md5 = "4eada59654872d92c701278077bd054f"; n_vertices = 160; n_edges = 257; structure_md5 = "3f691c78a6717b75aebb5a6ba2a7dc67"; findings_md5 = "4669d25e2124d46a23aaa64c54082c73" };
    { case = "apsp n=8 NP"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 124; n_edges = 153; structure_md5 = "b96ccf490cfac5ce29eaf089cf85c608"; findings_md5 = "-" };
    { case = "fw1d n=32 ND"; n_fire = 480; edges_md5 = "8f0e38300b9ce40783a4e3c5639b0b42"; n_vertices = 766; n_edges = 1500; structure_md5 = "197e73342954b01400c8cbe9673e9272"; findings_md5 = "-" };
    { case = "fw1d n=32 NP"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 536; n_edges = 675; structure_md5 = "2d65d6dcd219c7acc8387765e0014f16"; findings_md5 = "-" };
    { case = "stencil n=32 ND"; n_fire = 162; edges_md5 = "37de2422e39d902f331a5347c739a977"; n_vertices = 193; n_edges = 418; structure_md5 = "039162503fe89e8526bcff3ff1696228"; findings_md5 = "fe678d06284ed26dd0b0b12c5e3598b1" };
    { case = "stencil n=32 NP"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 177; n_edges = 232; structure_md5 = "4bd4091339a0a5292af1d00b2ace376b"; findings_md5 = "-" };
    { case = "gotoh n=32 ND"; n_fire = 480; edges_md5 = "8d7399c35028763be9d4b138f9a33983"; n_vertices = 766; n_edges = 1500; structure_md5 = "8e8153197aa548c088b9d578b356a2c3"; findings_md5 = "-" };
    { case = "gotoh n=32 NP"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 426; n_edges = 510; structure_md5 = "a663c6ac0b7a52b971875f6f5a2c1b59"; findings_md5 = "-" };
    { case = "lcs n=32 ND"; n_fire = 480; edges_md5 = "8d7399c35028763be9d4b138f9a33983"; n_vertices = 766; n_edges = 1500; structure_md5 = "cfa9431bb53b63c819c4e8b51edf82d6"; findings_md5 = "-" };
    { case = "lcs n=32 NP"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 426; n_edges = 510; structure_md5 = "1787f1d04f76b4c8b65020dd3923bf61"; findings_md5 = "-" };
  ]

let golden_seeds =
  [
    { case = "seed 60000"; n_fire = 10; edges_md5 = "45cb906ad70db48795f1ac0b6ba89080"; n_vertices = 49; n_edges = 71; structure_md5 = "6b81dbdf3e63b6632271e298981ae8fc"; findings_md5 = "b32fa00f2df74db3babc0c6799391ffc" };
    { case = "seed 60001"; n_fire = 2; edges_md5 = "fc502f0fd0c2d458fcf631a7a7251782"; n_vertices = 48; n_edges = 64; structure_md5 = "d4337d1941894e42208a26f871ba207d"; findings_md5 = "-" };
    { case = "seed 60002"; n_fire = 17; edges_md5 = "f4fd8413bbf6def381d97f2509e931df"; n_vertices = 43; n_edges = 74; structure_md5 = "060aa39e684d7bcdb0d575c9c4de8cd5"; findings_md5 = "605fae09312b1234e2615d163d26528f" };
    { case = "seed 60003"; n_fire = 3; edges_md5 = "a4de36d6fe3bc0cc91f7640bbf707941"; n_vertices = 27; n_edges = 37; structure_md5 = "eea31fd0753841fa576c9438ee533c60"; findings_md5 = "7247b220ef559a422c37ee2f73936720" };
    { case = "seed 60004"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "4486c96f8a9fc88772288368c8fddbcc"; findings_md5 = "-" };
    { case = "seed 60005"; n_fire = 1; edges_md5 = "6ab5b5c98d81a5f6a6f456142183e262"; n_vertices = 33; n_edges = 42; structure_md5 = "a57fdb54908717ca53f6436f06836422"; findings_md5 = "-" };
    { case = "seed 60006"; n_fire = 14; edges_md5 = "761290227e5d588b6e68a1c9a7b5f895"; n_vertices = 54; n_edges = 84; structure_md5 = "19d558bf053ff4609450226fe2d5b450"; findings_md5 = "20c4a2023ff73d0c6c9f8fd59e665c3f" };
    { case = "seed 60007"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "9467a44455a70e1b641f2a3c64cc2bea"; findings_md5 = "-" };
    { case = "seed 60008"; n_fire = 2; edges_md5 = "1c5639e8d34bd57cac582d49f40868ea"; n_vertices = 54; n_edges = 74; structure_md5 = "1d966308f9b7b5e0975aded43006e55b"; findings_md5 = "7fb1bf74d1a1cf2af0fe750dbc0a309a" };
    { case = "seed 60009"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "49dc6b06eefbfdbaf1f128c7cde7ec05"; findings_md5 = "-" };
    { case = "seed 60010"; n_fire = 4; edges_md5 = "993d3aa57a352021dc1602eb787410de"; n_vertices = 45; n_edges = 63; structure_md5 = "102e2cc1de0a0d48bba8ceb336ee7e99"; findings_md5 = "f40e36082350461be3a99b1c34e5c540" };
    { case = "seed 60011"; n_fire = 14; edges_md5 = "2291dcc0a0a61cf2f97c27643111452f"; n_vertices = 59; n_edges = 88; structure_md5 = "ea8d2808af8f837ac4012c0c0dd952b1"; findings_md5 = "29164a830d1fe65b3232b3afe152a249" };
    { case = "seed 60012"; n_fire = 6; edges_md5 = "19ca0b22eb7c10afc034af5363c658f4"; n_vertices = 35; n_edges = 52; structure_md5 = "a1a8c1034ae749ef381156d90d210dcf"; findings_md5 = "3281eb51c6fe62b3786963ba4c648c02" };
    { case = "seed 60013"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 13; n_edges = 15; structure_md5 = "ddc88b829731cba082d6ae20563cfea8"; findings_md5 = "-" };
    { case = "seed 60014"; n_fire = 5; edges_md5 = "5864113c9d7427e32a1537d772a94c90"; n_vertices = 20; n_edges = 29; structure_md5 = "fe89c40e9dac9ebed71a1be44dc7a058"; findings_md5 = "-" };
    { case = "seed 60015"; n_fire = 5; edges_md5 = "d1ec93b7cb6894f49292a2ca37b5e965"; n_vertices = 44; n_edges = 60; structure_md5 = "282e76d7fa6f339f442164a0bd86688c"; findings_md5 = "e5bb4e46f3738080a96198b90660eee0" };
    { case = "seed 60016"; n_fire = 2; edges_md5 = "2beda412101a965758abd34964c3d262"; n_vertices = 67; n_edges = 85; structure_md5 = "d1240ee1740e2facb8208b9abe0e1934"; findings_md5 = "03ab9f7b4f03bd10f6a27d2a5f27a55b" };
    { case = "seed 60017"; n_fire = 6; edges_md5 = "ff05ff9b457f875c7e85dfc9067fb3fe"; n_vertices = 30; n_edges = 44; structure_md5 = "b0095788e443e95908657b3c39ce4e0f"; findings_md5 = "6831e7a6d21ffae908b9d1d7240366c0" };
    { case = "seed 60018"; n_fire = 3; edges_md5 = "e997a1a9180e46a2d5fb996465fc3fa2"; n_vertices = 48; n_edges = 65; structure_md5 = "2cb22555d0f3dc216150e1e2ee7722dd"; findings_md5 = "-" };
    { case = "seed 60019"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "e6cf231fdb34c0692d4624947f75c113"; findings_md5 = "-" };
    { case = "seed 60020"; n_fire = 2; edges_md5 = "8ac5f84a1d85d6c29fda8c8d00fdb447"; n_vertices = 51; n_edges = 64; structure_md5 = "68c984565b0278483bafc97f1cb60f99"; findings_md5 = "4335b0def81f5878688da2326751ba37" };
    { case = "seed 60021"; n_fire = 7; edges_md5 = "f53d603c514eda83be058e49ef5a3ada"; n_vertices = 52; n_edges = 75; structure_md5 = "7091d479b89999e62a2934645fd1307b"; findings_md5 = "6562cc4e9f4bcf318a5201f9e9a3ed70" };
    { case = "seed 60022"; n_fire = 2; edges_md5 = "82850846cd5d1c4b7d1dbc76aaaa51eb"; n_vertices = 26; n_edges = 34; structure_md5 = "d70822101f2096afc585430da567cd7d"; findings_md5 = "a829289d00b5e5ec1102483cd95d5ab1" };
    { case = "seed 60023"; n_fire = 4; edges_md5 = "5878602ecbfe636b851f32471c97beab"; n_vertices = 44; n_edges = 60; structure_md5 = "ca707a43e926bd366121d56126e6dc56"; findings_md5 = "ac9644d6960c2f89eea3c2447164f665" };
    { case = "seed 60024"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 21; n_edges = 26; structure_md5 = "b14e1e5c1aefeb5b256d29d7fb1aaa6f"; findings_md5 = "-" };
    { case = "seed 60025"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "19e426eb46688f63ecc9db63c0f4d29a"; findings_md5 = "-" };
    { case = "seed 60026"; n_fire = 2; edges_md5 = "04b742ea31aada45361f8d1961edac9b"; n_vertices = 21; n_edges = 28; structure_md5 = "f52762c5aa080eb70080cc244956f50f"; findings_md5 = "-" };
    { case = "seed 60027"; n_fire = 7; edges_md5 = "e0692b3a236b0b902c1cfcba1b0293ad"; n_vertices = 50; n_edges = 73; structure_md5 = "15c6d0979609c9c02479a4b859c1a0ab"; findings_md5 = "61663ed55b834efc5dde968059ad71a9" };
    { case = "seed 60028"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "b3f5294762cc35cfbf30347f48668101"; findings_md5 = "-" };
    { case = "seed 60029"; n_fire = 1; edges_md5 = "011a793b7c9c89937c6e505e3168bf05"; n_vertices = 33; n_edges = 42; structure_md5 = "126893755c9ca711d600dced0f4a31ed"; findings_md5 = "-" };
    { case = "seed 60030"; n_fire = 10; edges_md5 = "c87babcf55e7b7aa6e8ad7416122d817"; n_vertices = 31; n_edges = 46; structure_md5 = "21099618d670d65a9d2758147ba7cb0f"; findings_md5 = "032b57c2272ea516b590dbed16693a84" };
    { case = "seed 60031"; n_fire = 1; edges_md5 = "051793d8bd619b801ed5a5fb0542ac8e"; n_vertices = 35; n_edges = 45; structure_md5 = "b9d00ea8bc7535bcfabef1fb3b92e506"; findings_md5 = "-" };
    { case = "seed 60032"; n_fire = 3; edges_md5 = "a1e1cac93ab8be129cfe5d3a25b12a7f"; n_vertices = 19; n_edges = 26; structure_md5 = "b6b8cc74a128af8cfd35ab160ec27b97"; findings_md5 = "985f7c9d5e792936aaa7cb5dd27eee28" };
    { case = "seed 60033"; n_fire = 4; edges_md5 = "804521796f01320cb11fef5f8f464b81"; n_vertices = 23; n_edges = 34; structure_md5 = "f30bb0233e856ce433713b2c0b5b436d"; findings_md5 = "-" };
    { case = "seed 60034"; n_fire = 3; edges_md5 = "98806c909106648e79ccfaf099245a99"; n_vertices = 17; n_edges = 23; structure_md5 = "01bb7f1db56966d52977f8c9757fd86d"; findings_md5 = "-" };
    { case = "seed 60035"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "263f06de811c9f7b4de19f49c980e9b2"; findings_md5 = "-" };
    { case = "seed 60036"; n_fire = 4; edges_md5 = "0292652339a1281572108fe71f58fc52"; n_vertices = 21; n_edges = 30; structure_md5 = "b3a505c9bf8bd335c5ef7586ef48c09e"; findings_md5 = "223f45ad7de2da1143521e38b8852982" };
    { case = "seed 60037"; n_fire = 3; edges_md5 = "3d9e05cd286f8cf7cacf4c93abcd3db0"; n_vertices = 42; n_edges = 60; structure_md5 = "34931f981f9ba597c09e5baf043069e5"; findings_md5 = "f2ad8fbee0f6ad571b0f6363553af08b" };
    { case = "seed 60038"; n_fire = 3; edges_md5 = "80620805a5c3b559a47938fb1a56f0c7"; n_vertices = 26; n_edges = 36; structure_md5 = "eb1c6b66f3c61d449421c9ff89534083"; findings_md5 = "857f1c7b4b815d5a644a3fe9e93f9de9" };
    { case = "seed 60039"; n_fire = 7; edges_md5 = "e530dea920906ce358727587e87ce500"; n_vertices = 65; n_edges = 91; structure_md5 = "553ea8e075ca530f929b33e73eccd429"; findings_md5 = "d6ec0dbfe84e527528a930c8cdb4e593" };
    { case = "seed 60040"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "74c179e4a19fd43e1fb279342990754d"; findings_md5 = "-" };
    { case = "seed 60041"; n_fire = 5; edges_md5 = "54e9da1bb86042172381e18394e9a65f"; n_vertices = 38; n_edges = 51; structure_md5 = "522e7e429499d32c2885199c369d65f5"; findings_md5 = "34fd37714546ebbe84482b74b4c207b0" };
    { case = "seed 60042"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 4; n_edges = 4; structure_md5 = "065974c098d19f7e5c0a7d2b1ea24ad3"; findings_md5 = "-" };
    { case = "seed 60043"; n_fire = 11; edges_md5 = "996e260e8937d8f8f6781280e64a3d9b"; n_vertices = 42; n_edges = 66; structure_md5 = "438c08bba130570b711f209f11fe6ad4"; findings_md5 = "f9f6e450e2b30431e8473b20aa7336fc" };
    { case = "seed 60044"; n_fire = 6; edges_md5 = "0b15a7e7c6fc552196e8af2510421c35"; n_vertices = 40; n_edges = 57; structure_md5 = "18fc6cd178afd076cbead65891a87642"; findings_md5 = "5ad6458ca07f3b92a33f5ab6657ca04c" };
    { case = "seed 60045"; n_fire = 3; edges_md5 = "1d992c33aefac8b21706efa21bb4311c"; n_vertices = 37; n_edges = 51; structure_md5 = "c2288d2e46f34d91d08efd86de05396a"; findings_md5 = "9b705414d2ab048ec0955930fd18b440" };
    { case = "seed 60046"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 27; n_edges = 33; structure_md5 = "7c90159d21b1fd88bf362afef11ff1bf"; findings_md5 = "53b6c41f134a7b694890819f70b84e7b" };
    { case = "seed 60047"; n_fire = 2; edges_md5 = "8a14be5bb9e3cce848c74f02bb32163a"; n_vertices = 68; n_edges = 89; structure_md5 = "1016388ae744f6bc94d259b7f51a4d67"; findings_md5 = "-" };
    { case = "seed 60048"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "d99bb922a717656c42c9c2e9baf91f41"; findings_md5 = "-" };
    { case = "seed 60049"; n_fire = 2; edges_md5 = "174c0a26da6bc5a5d1eb8c95c3f436c8"; n_vertices = 31; n_edges = 41; structure_md5 = "f0d4a97dbd885e53d481772e1332ef4d"; findings_md5 = "eefaceaaa5f697a9a15aa57cdd135a6d" };
    { case = "seed 60050"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 16; n_edges = 20; structure_md5 = "db33447a20c9d1411f21f6b83d2fb12b"; findings_md5 = "-" };
    { case = "seed 60051"; n_fire = 5; edges_md5 = "dd5034e12eba869f904c75d459fd3b86"; n_vertices = 15; n_edges = 24; structure_md5 = "55835f8e5ddedb9d2699a98fe5a37de7"; findings_md5 = "dfa56c539c5a036b427b0b08dfed42ea" };
    { case = "seed 60052"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "bb5ef5fdb508da857b4665bdc5d066df"; findings_md5 = "-" };
    { case = "seed 60053"; n_fire = 2; edges_md5 = "7c9cfe58a63214c285145dc9a901ac54"; n_vertices = 19; n_edges = 25; structure_md5 = "82ba04b869b33310795f985de29e5bc7"; findings_md5 = "47aab1c7409f9af75297b3812633aec0" };
    { case = "seed 60054"; n_fire = 1; edges_md5 = "63d03e3ba75580259eb2fc86f030e7c2"; n_vertices = 46; n_edges = 62; structure_md5 = "cd089b6e0f49d9a9f69efafa4f675b97"; findings_md5 = "64a9f74664b5cecfbf7eb3bf7a5d1722" };
    { case = "seed 60055"; n_fire = 9; edges_md5 = "d4696b29b5c68648f577555f370e2fd8"; n_vertices = 53; n_edges = 75; structure_md5 = "3d423c498fc1bac8c77dbf91e24606d5"; findings_md5 = "-" };
    { case = "seed 60056"; n_fire = 11; edges_md5 = "c9bfa84017fcc6080289c82b0e46139b"; n_vertices = 33; n_edges = 53; structure_md5 = "848df3d78993ecd0968022b3b1efd698"; findings_md5 = "333d69175504f0fa2eb1ac8a0d28bb40" };
    { case = "seed 60057"; n_fire = 8; edges_md5 = "bb25517d589ef86b1739f4d712e39778"; n_vertices = 63; n_edges = 91; structure_md5 = "d01a3158d60d8c8a05563fc6b40cf2f1"; findings_md5 = "a4e298e545b2cbd3ad8f64cf5a9e13f7" };
    { case = "seed 60058"; n_fire = 2; edges_md5 = "0203445e4b5f7e93d3de3749048082db"; n_vertices = 26; n_edges = 35; structure_md5 = "1b6ad6baa3ec6c55e07b2c4830479999"; findings_md5 = "8ab7e799028a7105e6aa129a76a0dc24" };
    { case = "seed 60059"; n_fire = 9; edges_md5 = "db378e27d92b6624f54f659796aef8f5"; n_vertices = 57; n_edges = 82; structure_md5 = "771ec0c63d1ef078caf95a86c6fb0c1c"; findings_md5 = "a9eb99400b4751f8bd961b9b244b6ce4" };
    { case = "seed 60060"; n_fire = 6; edges_md5 = "165517499becdbb3d55beee30a2c1e02"; n_vertices = 27; n_edges = 40; structure_md5 = "9a74429f8db7fa870bcc188a12e9e49b"; findings_md5 = "cdaddfd519af0282ad1f8c0e54f0f001" };
    { case = "seed 60061"; n_fire = 3; edges_md5 = "28f412ea04753e69e853068d84ef4b9a"; n_vertices = 21; n_edges = 29; structure_md5 = "876740a2f9a2979c77c8489375a9587a"; findings_md5 = "71f2804bd348ef93c19c20d70a6beba6" };
    { case = "seed 60062"; n_fire = 7; edges_md5 = "8e9127ed2c52a2620719f04207bb284e"; n_vertices = 33; n_edges = 44; structure_md5 = "9ec2bb62ebf418dff3db9bfa3a85c7f5"; findings_md5 = "7f79ac427ac544d7c2292d074e12ee89" };
    { case = "seed 60063"; n_fire = 4; edges_md5 = "fcf2de1edfd38498716caecb0a36942d"; n_vertices = 52; n_edges = 73; structure_md5 = "d092ffa45db2f1337de48c796d70f7ab"; findings_md5 = "-" };
    { case = "seed 60064"; n_fire = 1; edges_md5 = "c514854c53804b86d62dd065c8c58e88"; n_vertices = 53; n_edges = 68; structure_md5 = "11fc9db3d67c6cb140cd26ac12877903"; findings_md5 = "55ae789a1300bffa62f6437fcb77f4c8" };
    { case = "seed 60065"; n_fire = 5; edges_md5 = "7dcb4db4068c2d324b3d89a5defd7843"; n_vertices = 16; n_edges = 24; structure_md5 = "34ddd5bde49f6e2aec708a4208b2d790"; findings_md5 = "80b17da01f9d089a910fa94ed0a8e39a" };
    { case = "seed 60066"; n_fire = 5; edges_md5 = "d983f4cce6e40af2ebb2417011f128fe"; n_vertices = 34; n_edges = 47; structure_md5 = "34140b1978c3288fb9c420f392846144"; findings_md5 = "919cb743afcfb5e3a2459a183cba24f5" };
    { case = "seed 60067"; n_fire = 3; edges_md5 = "3aec5741fab4ef6c16375989d901d42c"; n_vertices = 22; n_edges = 31; structure_md5 = "7d6fecd4c45b2153d3cd21fa467ca7fc"; findings_md5 = "-" };
    { case = "seed 60068"; n_fire = 6; edges_md5 = "03cc67053b3f0451545c7353caa2b2d6"; n_vertices = 21; n_edges = 31; structure_md5 = "e1385423929065b3a5cd8553ed01d3a6"; findings_md5 = "b78e0f13e41d087b6944ae59db41b720" };
    { case = "seed 60069"; n_fire = 3; edges_md5 = "c9e07d1d85a5cf7460cd53a15c1c78cf"; n_vertices = 30; n_edges = 41; structure_md5 = "2e0eb9b1a86b0f42f954a744528da3e7"; findings_md5 = "c6197f56ef844d9075b74b6075a011ad" };
    { case = "seed 60070"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "2b7624e244c904d45dfa84d38d877aeb"; findings_md5 = "-" };
    { case = "seed 60071"; n_fire = 7; edges_md5 = "35537666178845be578946a2d82a61fb"; n_vertices = 40; n_edges = 57; structure_md5 = "fac4aa062a6988328e526027f57daee6"; findings_md5 = "e4facbe3cb9275a0b46efd81e21b5226" };
    { case = "seed 60072"; n_fire = 4; edges_md5 = "c6ca91ef07f08236b32ce91bd53fd4c9"; n_vertices = 37; n_edges = 52; structure_md5 = "22f0ae8fc4ed1d52b22b537757351abb"; findings_md5 = "f40e36082350461be3a99b1c34e5c540" };
    { case = "seed 60073"; n_fire = 5; edges_md5 = "f6150085f77bdabbcb46752635ec67d2"; n_vertices = 47; n_edges = 65; structure_md5 = "a5516fa0fe08595dbb0eebadca1086ba"; findings_md5 = "93945b71aed54a133dd569e15c0a7d86" };
    { case = "seed 60074"; n_fire = 3; edges_md5 = "8edb0b4c5ed95952af1038cdcbbb3064"; n_vertices = 34; n_edges = 44; structure_md5 = "ea49bd5d2ec8c6b7561422585d9c9665"; findings_md5 = "-" };
    { case = "seed 60075"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "49dc6b06eefbfdbaf1f128c7cde7ec05"; findings_md5 = "-" };
    { case = "seed 60076"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "dabb092ad9708ff50d3a931929bb64e8"; findings_md5 = "-" };
    { case = "seed 60077"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "2830b0c41faa942777809a8a74a28192"; findings_md5 = "-" };
    { case = "seed 60078"; n_fire = 6; edges_md5 = "af8482ba2489c835ad7fcd0650250e4e"; n_vertices = 25; n_edges = 38; structure_md5 = "39c0bb05978e9ce30cc98403e2b5e589"; findings_md5 = "f1adbba052eef6bccdbf33a76ce790de" };
    { case = "seed 60079"; n_fire = 7; edges_md5 = "f23b7513888f999489474477069d61e0"; n_vertices = 33; n_edges = 47; structure_md5 = "97e31d5f957a06f3fde365af60a5ae1a"; findings_md5 = "befe76b26990d26e0b577b1c56ee9e83" };
    { case = "seed 60080"; n_fire = 5; edges_md5 = "841b4d1c326796224f37b23a5e9d7465"; n_vertices = 22; n_edges = 32; structure_md5 = "e301a3fed7fd0e1872a0d72e68f71503"; findings_md5 = "fb9242a5254a18a0e3d92d0d8b035dcb" };
    { case = "seed 60081"; n_fire = 5; edges_md5 = "111bc2ed85dce7ecc848833d23f0b70c"; n_vertices = 39; n_edges = 55; structure_md5 = "6e1a91fc8f237895bf56fa08f71fb3f5"; findings_md5 = "c99bced4f3ebe247b6615a04cd694cf6" };
    { case = "seed 60082"; n_fire = 10; edges_md5 = "98683afd8e7f280d044db3c75f8efe1c"; n_vertices = 52; n_edges = 78; structure_md5 = "ea6364662dde98e56994aea08ddb8f3a"; findings_md5 = "af8faddafce74b63606da02daa24fd93" };
    { case = "seed 60083"; n_fire = 2; edges_md5 = "3678dc7939029b776665503aca0d5f29"; n_vertices = 21; n_edges = 29; structure_md5 = "8d9d7c21807204d2af5bc90967686ca1"; findings_md5 = "-" };
    { case = "seed 60084"; n_fire = 6; edges_md5 = "31e71ca874fd59a020f5cb32633d272d"; n_vertices = 46; n_edges = 66; structure_md5 = "65b217d140f59537dfa454b12005a602"; findings_md5 = "087cc16d15a77792e84b4f6499a92fe7" };
    { case = "seed 60085"; n_fire = 1; edges_md5 = "d44d57fecd543febc7b723de229d246d"; n_vertices = 34; n_edges = 43; structure_md5 = "6e7c40f638c46e2e4856726ce4cbd5fd"; findings_md5 = "00c21c4b67d62171b6c4fb0741d06d8c" };
    { case = "seed 60086"; n_fire = 7; edges_md5 = "a0f5cb8d598caf3edb146edc3fbcfc52"; n_vertices = 50; n_edges = 73; structure_md5 = "497ef2828bfc8dea027296b57e4725bb"; findings_md5 = "feeb160a6a40fdb85672600aa0e0f777" };
    { case = "seed 60087"; n_fire = 2; edges_md5 = "b668fbc6b52e91427a467cecf49a1ebb"; n_vertices = 19; n_edges = 24; structure_md5 = "ae8a172a7d6c1842cfcbd12f30c9f2a2"; findings_md5 = "6d7cfe333ce7ea894cd7ac3d1251a865" };
    { case = "seed 60088"; n_fire = 9; edges_md5 = "50253d3b2ce1b23f1ddc84671590991a"; n_vertices = 32; n_edges = 49; structure_md5 = "b2b1ff2d560836b40cf30e31c9e8bf8a"; findings_md5 = "6d6ab7edd3b5a4d53c83093ff091df09" };
    { case = "seed 60089"; n_fire = 4; edges_md5 = "563a8c076690eb694005e41eca01269b"; n_vertices = 29; n_edges = 41; structure_md5 = "81d0b6ae8016a3537c85bb9dd1d806cc"; findings_md5 = "-" };
    { case = "seed 60090"; n_fire = 6; edges_md5 = "f0571ac2d9b5a1bed65512653ae8b77a"; n_vertices = 34; n_edges = 50; structure_md5 = "5e18d68e063d2a0194f9b9f9bc00cda6"; findings_md5 = "2c967cb3e1f6aa2466bfa7b2ca6be4f5" };
    { case = "seed 60091"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "eb5e8fd9756cf27fef07aeefd264eabb"; findings_md5 = "-" };
    { case = "seed 60092"; n_fire = 7; edges_md5 = "b3f86ddf7ed6ce75033e070da513ae39"; n_vertices = 23; n_edges = 32; structure_md5 = "3b092a8b44acdc62f926248f0ed5e5a0"; findings_md5 = "b21acd8474c80ac49c77b8e211079a1b" };
    { case = "seed 60093"; n_fire = 6; edges_md5 = "99ba510ca5b1be8807401dcf041b4f58"; n_vertices = 36; n_edges = 51; structure_md5 = "649e5261de9e19757c68d83d86cb9be2"; findings_md5 = "eac13ee41b93f93590519f1b6b6c71db" };
    { case = "seed 60094"; n_fire = 3; edges_md5 = "1e9dc846c73e74d8f7c4af3d28f3738b"; n_vertices = 63; n_edges = 85; structure_md5 = "38970f7d35149c597fcbb399c9545d05"; findings_md5 = "-" };
    { case = "seed 60095"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "e371da5c441c225aa3f84d0f4eed37af"; findings_md5 = "-" };
    { case = "seed 60096"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 4; n_edges = 4; structure_md5 = "e9c988cf4261aa4148d06138a827990a"; findings_md5 = "-" };
    { case = "seed 60097"; n_fire = 4; edges_md5 = "24959670a68c41df6294301a1e3f891f"; n_vertices = 30; n_edges = 42; structure_md5 = "62aba0a6d7c9a80ec26896f1e2bf0380"; findings_md5 = "533bd5cec5d382d9208dc88bc3bc4304" };
    { case = "seed 60098"; n_fire = 4; edges_md5 = "535bf34e6e23f4c14662a320b4ba94f1"; n_vertices = 35; n_edges = 49; structure_md5 = "762778a0cc3f4cd242abca60f9c3031e"; findings_md5 = "f9cb29689ddb563dcdfa8e6cbebe9d8c" };
    { case = "seed 60099"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "dabb092ad9708ff50d3a931929bb64e8"; findings_md5 = "-" };
    { case = "seed 60100"; n_fire = 11; edges_md5 = "050e702a60bce8bc540441d385cd9882"; n_vertices = 35; n_edges = 57; structure_md5 = "96ec16e131e9b0f114eef277eca68129"; findings_md5 = "743409c711dfdf3f9c206364b39ead15" };
    { case = "seed 60101"; n_fire = 6; edges_md5 = "63eedb56e28a1475624462d2c1181334"; n_vertices = 57; n_edges = 83; structure_md5 = "20b3868120371d336ef585047b541fa7"; findings_md5 = "153e293c33b2002f75ead98a515b99cb" };
    { case = "seed 60102"; n_fire = 4; edges_md5 = "1452017ce5092d232c07647969c910e8"; n_vertices = 37; n_edges = 48; structure_md5 = "1f8656e756c8a98ad6a45f724d2cc547"; findings_md5 = "281d867addbf0111e0d4769d6ae55e09" };
    { case = "seed 60103"; n_fire = 1; edges_md5 = "051793d8bd619b801ed5a5fb0542ac8e"; n_vertices = 4; n_edges = 5; structure_md5 = "9351d55fd21afb1ff2cd0436c890af83"; findings_md5 = "b2ceadf8b6bde2dc2b24f2ebfbfe5ee8" };
    { case = "seed 60104"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "2830b0c41faa942777809a8a74a28192"; findings_md5 = "-" };
    { case = "seed 60105"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "fb5b6d5176c2a238cd5cb007fbdbc256"; findings_md5 = "-" };
    { case = "seed 60106"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "d6edd640cfc25b8632b9c4adc6a76dfa"; findings_md5 = "-" };
    { case = "seed 60107"; n_fire = 6; edges_md5 = "2367a2c55861a9b9204cc833c5d55db2"; n_vertices = 32; n_edges = 48; structure_md5 = "510ecfe1faa7e1740ac9990cf55c4bd1"; findings_md5 = "437476332c4d46c09d9f2c4b9a24e8d2" };
    { case = "seed 60108"; n_fire = 8; edges_md5 = "b67dbefd918b698607df6e26b19adca3"; n_vertices = 54; n_edges = 77; structure_md5 = "1d1fa5d8751923259da3c2fc9e06fb21"; findings_md5 = "e487638d7909ee9dec8e2bd82ba9186e" };
    { case = "seed 60109"; n_fire = 2; edges_md5 = "76d8c71273087dfff5f2bc3d1ae09fe2"; n_vertices = 20; n_edges = 26; structure_md5 = "2205fda0cf513a2700e7ddaf99383df2"; findings_md5 = "ae1b244fc52292157c13765244f80c19" };
    { case = "seed 60110"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "275a6cc59eeb3c3be0d2cc5500d14050"; findings_md5 = "-" };
    { case = "seed 60111"; n_fire = 2; edges_md5 = "46a9608edd8cc610f8540f749a101c45"; n_vertices = 27; n_edges = 38; structure_md5 = "3c019de028c0ec5c388482f3a4783b80"; findings_md5 = "-" };
    { case = "seed 60112"; n_fire = 2; edges_md5 = "3faa178d997c2bbb1d32882d46940a5b"; n_vertices = 34; n_edges = 46; structure_md5 = "51b00e6e3f21dcbc62972cd71cace2bf"; findings_md5 = "56b6252e6424cb56cb557c5946c76be9" };
    { case = "seed 60113"; n_fire = 13; edges_md5 = "fa7c1d8744680b8dbd247f1eed48273e"; n_vertices = 37; n_edges = 54; structure_md5 = "3c3db56eadd085e352633fc98ff7651f"; findings_md5 = "-" };
    { case = "seed 60114"; n_fire = 2; edges_md5 = "6f4cd64a1959611d599d19710ff95d01"; n_vertices = 49; n_edges = 65; structure_md5 = "e44b7160df4b5c8ac23719e406f2a653"; findings_md5 = "-" };
    { case = "seed 60115"; n_fire = 18; edges_md5 = "370dd748c5a6e1a5ff344c708f62634c"; n_vertices = 70; n_edges = 109; structure_md5 = "a2e4b5ae08852bdb919855d5534a14a1"; findings_md5 = "d30186c90806ef3e47494dde51503ff6" };
    { case = "seed 60116"; n_fire = 4; edges_md5 = "9a5c13e016e94b0d94b411726602404a"; n_vertices = 44; n_edges = 64; structure_md5 = "cf929830b6b265ee9a3280a7812e4af4"; findings_md5 = "b6236a7bf637c0aecb2310671080d791" };
    { case = "seed 60117"; n_fire = 1; edges_md5 = "126ed6f213edaf80973d53fd49d430d4"; n_vertices = 33; n_edges = 43; structure_md5 = "b1d67cfe5ee9bfed2cc7a91cbb2f01fc"; findings_md5 = "-" };
    { case = "seed 60118"; n_fire = 4; edges_md5 = "427030cfbf0ac20c449c9f9536f92a3f"; n_vertices = 33; n_edges = 44; structure_md5 = "03f0d7f3656b499585789638d5ca85c6"; findings_md5 = "-" };
    { case = "seed 60119"; n_fire = 4; edges_md5 = "b3a08f1d12d5b4f6fcb6ed5bed69f9fd"; n_vertices = 20; n_edges = 30; structure_md5 = "33b82c2d6894626b016c57952467d62d"; findings_md5 = "945b9f5d1892dd4dd0c6eeea1e4ecb34" };
    { case = "seed 60120"; n_fire = 5; edges_md5 = "48d59ccf6186b6c834251bdb506ff287"; n_vertices = 15; n_edges = 21; structure_md5 = "f02b9652e30c2c4882c00ebd7104fba6"; findings_md5 = "c1050abc0b0fe536c1709ae1e01da61f" };
    { case = "seed 60121"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 46; n_edges = 58; structure_md5 = "336eaf4319b12a807551989ebe5d45f1"; findings_md5 = "-" };
    { case = "seed 60122"; n_fire = 5; edges_md5 = "2eb2b6858f26d9e9bc4fd9d6903c0e65"; n_vertices = 48; n_edges = 64; structure_md5 = "ff72df91e96af650dbdd5cb3983abf81"; findings_md5 = "-" };
    { case = "seed 60123"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "bb5ef5fdb508da857b4665bdc5d066df"; findings_md5 = "-" };
    { case = "seed 60124"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "d6edd640cfc25b8632b9c4adc6a76dfa"; findings_md5 = "-" };
    { case = "seed 60125"; n_fire = 9; edges_md5 = "a44ddc554dd8992b5413016cac02cf3e"; n_vertices = 47; n_edges = 70; structure_md5 = "b8e8ff7045b960433e72b2cf9223f723"; findings_md5 = "-" };
    { case = "seed 60126"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "c0df57ea1a9f73d001bc409ed9a0c62b"; findings_md5 = "-" };
    { case = "seed 60127"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "6d38eb41e2a349c6b0b0bb5fa9cc11f5"; findings_md5 = "-" };
    { case = "seed 60128"; n_fire = 13; edges_md5 = "e8f20631f2a9884c61358e504ed6a3d5"; n_vertices = 35; n_edges = 56; structure_md5 = "8c642bdd2b8d55938fb2287b0ceb9209"; findings_md5 = "334b699571e552851b28abd540005086" };
    { case = "seed 60129"; n_fire = 4; edges_md5 = "8f42f7efdbe5fcff7feaba6011c34832"; n_vertices = 43; n_edges = 60; structure_md5 = "f3da1f94999daba09d88791ac5862557"; findings_md5 = "-" };
    { case = "seed 60130"; n_fire = 2; edges_md5 = "795f10311f1c01e2016d3a746b1882e3"; n_vertices = 11; n_edges = 15; structure_md5 = "b464472f83f65f2f94f4c2cbe548e845"; findings_md5 = "17af791e01e7030fb2d4cc6c5649fafc" };
    { case = "seed 60131"; n_fire = 2; edges_md5 = "00877bbed5a7f7c14445e7bb16352873"; n_vertices = 17; n_edges = 23; structure_md5 = "f356ae94ff461c8971c88d0dcd12212d"; findings_md5 = "-" };
    { case = "seed 60132"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "bdafdb7cc1190387a6768c5f807fc4a8"; findings_md5 = "-" };
    { case = "seed 60133"; n_fire = 4; edges_md5 = "4d4a8111720e86ecc10f9bad3f0d912b"; n_vertices = 25; n_edges = 35; structure_md5 = "fde5b1988d9056fbd09032565eea18ff"; findings_md5 = "-" };
    { case = "seed 60134"; n_fire = 4; edges_md5 = "b8a4b4ace5f31dc04b2b68b7d9fa0599"; n_vertices = 51; n_edges = 68; structure_md5 = "f8156a84f87a81146e4cfaf638557539"; findings_md5 = "f31a83337c6e9fe56112d1a8483042e4" };
    { case = "seed 60135"; n_fire = 4; edges_md5 = "06853341efe5cb922409deeb5dfbff42"; n_vertices = 37; n_edges = 50; structure_md5 = "2f9df33e7801d3c6c3a55af79c1c152b"; findings_md5 = "be93597e4dd5face60fa2dc2480c9b1a" };
    { case = "seed 60136"; n_fire = 9; edges_md5 = "f41995d2a9ec9362647067914b12099b"; n_vertices = 77; n_edges = 108; structure_md5 = "c56d11026c4e7a5deed4ac2a6418ed39"; findings_md5 = "-" };
    { case = "seed 60137"; n_fire = 2; edges_md5 = "4ccd5835b7f71559ca39e8764472f153"; n_vertices = 46; n_edges = 60; structure_md5 = "a22186126a79d3f6548a7bbcf29c0f2d"; findings_md5 = "985bcd55099a2879377f7f437f36bc2d" };
    { case = "seed 60138"; n_fire = 11; edges_md5 = "2778fef911b856998899df47494747f9"; n_vertices = 51; n_edges = 77; structure_md5 = "82703d042ba33629cebd607d4af97377"; findings_md5 = "87ff7b38f1e1e000062049230e4aa532" };
    { case = "seed 60139"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "90e3ee6e9622bae94a81bb56d678cb06"; findings_md5 = "-" };
    { case = "seed 60140"; n_fire = 12; edges_md5 = "30bd6965d0d4d71ed643d608929ee93c"; n_vertices = 43; n_edges = 67; structure_md5 = "2286d0806583bf859aece60cdc72256c"; findings_md5 = "3ae1823781be0d7e4f91157c0e82bde3" };
    { case = "seed 60141"; n_fire = 2; edges_md5 = "748396b08d66faaf17f3aa3ca7a82882"; n_vertices = 23; n_edges = 30; structure_md5 = "eacf8727d70dee16d7764b979f522763"; findings_md5 = "3c30c8a57df6771ff4acd0ba98647c55" };
    { case = "seed 60142"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 24; n_edges = 29; structure_md5 = "4e1db2b48ede9286e6e00906df4c0354"; findings_md5 = "-" };
    { case = "seed 60143"; n_fire = 3; edges_md5 = "5adb3219d663acf2d367d6579bed6935"; n_vertices = 37; n_edges = 49; structure_md5 = "e3967e1f86d3f100d46f7ef3f3fc381e"; findings_md5 = "7694477b58f785a6fbc1e22f77f05c56" };
    { case = "seed 60144"; n_fire = 2; edges_md5 = "4e2424c30037406be66d5e8385b2678a"; n_vertices = 33; n_edges = 44; structure_md5 = "6f049c8d67974c90f122f2ec51a91d19"; findings_md5 = "333d69175504f0fa2eb1ac8a0d28bb40" };
    { case = "seed 60145"; n_fire = 10; edges_md5 = "4cfe37389d49af323c9ca0a89201c947"; n_vertices = 45; n_edges = 70; structure_md5 = "163b81ff0d8e34aa7ae16b9e29b8afea"; findings_md5 = "21e57856d9760edb26d12039c895c79a" };
    { case = "seed 60146"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "f98f5198214408b6d94e42ed1fd470be"; findings_md5 = "-" };
    { case = "seed 60147"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "33a4fd2d1ce57ff77981ac1355a35e6b"; findings_md5 = "-" };
    { case = "seed 60148"; n_fire = 6; edges_md5 = "2e8c34c1eb211178631a893eca1ceb07"; n_vertices = 39; n_edges = 56; structure_md5 = "1db360f403d3370461e7a7312a24ea40"; findings_md5 = "04685d90a7b9ffc0dcfe2f2068653318" };
    { case = "seed 60149"; n_fire = 17; edges_md5 = "4f8757ea4ff60ee43e91281f5ff2e1a2"; n_vertices = 35; n_edges = 63; structure_md5 = "42d7f800e17d8076d1458df28a3535d5"; findings_md5 = "c16edba9774cde9d99bb3ad4c4959978" };
    { case = "seed 60150"; n_fire = 2; edges_md5 = "e2d654c9c3a48e554a96ea493abf9ac2"; n_vertices = 25; n_edges = 34; structure_md5 = "c301a130a751e6ae5758c436a0879e88"; findings_md5 = "-" };
    { case = "seed 60151"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "02aa3c6f5dd4853dbf612f6917966f2e"; findings_md5 = "-" };
    { case = "seed 60152"; n_fire = 4; edges_md5 = "e16652ddf4fdb042c6ddbebdee935875"; n_vertices = 35; n_edges = 50; structure_md5 = "21a0c96066d5d795886ad485ad350297"; findings_md5 = "-" };
    { case = "seed 60153"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "318a65ed9e4faee78333e51243462599"; findings_md5 = "-" };
    { case = "seed 60154"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 17; n_edges = 20; structure_md5 = "6cb687edcc04189bfac3a861ebf69048"; findings_md5 = "-" };
    { case = "seed 60155"; n_fire = 7; edges_md5 = "d399c390c63510561f0b5f8125f5c87f"; n_vertices = 60; n_edges = 83; structure_md5 = "eb55be3ff965ff79f045062c67f2f6a6"; findings_md5 = "-" };
    { case = "seed 60156"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 28; n_edges = 35; structure_md5 = "5190302262998e4ddc618bbd09f84b39"; findings_md5 = "56b6252e6424cb56cb557c5946c76be9" };
    { case = "seed 60157"; n_fire = 21; edges_md5 = "7a19e6c9825cb18240b06807f45d4870"; n_vertices = 66; n_edges = 106; structure_md5 = "b69e846e381d4cfa1573646c5755f47d"; findings_md5 = "4686bdff1f5b7755eb43fa998b4c4197" };
    { case = "seed 60158"; n_fire = 9; edges_md5 = "a55e534d58140326be5e51e67ee14b88"; n_vertices = 58; n_edges = 79; structure_md5 = "c5d3de62926628c00d77369fe10b9015"; findings_md5 = "8d64965d1b1729f4e167aed0b86bba98" };
    { case = "seed 60159"; n_fire = 5; edges_md5 = "3b395e8638ab28ae677153dd5cee8a6b"; n_vertices = 33; n_edges = 46; structure_md5 = "1c8c4c8d156fe6779688e09f4b83dfd6"; findings_md5 = "-" };
    { case = "seed 60160"; n_fire = 4; edges_md5 = "69911858db9717c387ecb60476873f4b"; n_vertices = 34; n_edges = 45; structure_md5 = "95415015d0620bb297ef56a3f8288918"; findings_md5 = "-" };
    { case = "seed 60161"; n_fire = 7; edges_md5 = "518a67545eb5d2d31675c7e60ad21e7d"; n_vertices = 62; n_edges = 86; structure_md5 = "d39afe0e10bed37cd5b216a5bf174ba4"; findings_md5 = "34ae017a0fb77106fb5eb5a6feee3e7d" };
    { case = "seed 60162"; n_fire = 2; edges_md5 = "6964f0ac531786b31cb42bcd9cfa8836"; n_vertices = 36; n_edges = 47; structure_md5 = "85d2bb149cd8bbea4253813d971338a1"; findings_md5 = "-" };
    { case = "seed 60163"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "05011f3a63443ff53e818c7d83592fe2"; findings_md5 = "-" };
    { case = "seed 60164"; n_fire = 8; edges_md5 = "95141eb664b5399473c097a98f7eedd9"; n_vertices = 36; n_edges = 54; structure_md5 = "480a68f4774410a0ef538e83e69a5f36"; findings_md5 = "452ff0aba17e5db0dc25a598b1449f97" };
    { case = "seed 60165"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "c4c9229805692f2895bb724a7a43704d"; findings_md5 = "-" };
    { case = "seed 60166"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "b3f5294762cc35cfbf30347f48668101"; findings_md5 = "-" };
    { case = "seed 60167"; n_fire = 4; edges_md5 = "e68a82464676a70a5515d6dd28da0ea4"; n_vertices = 50; n_edges = 68; structure_md5 = "4b72a564249dbab956786ba2d942da51"; findings_md5 = "3526c009d9604e2698c84f437d07f625" };
    { case = "seed 60168"; n_fire = 2; edges_md5 = "ba222e61f51a21820f7d2def1a2f73e0"; n_vertices = 31; n_edges = 40; structure_md5 = "c64b3beddae9c59d096040f09cd698f0"; findings_md5 = "d258f159317e1ac69f21ea641c824e44" };
    { case = "seed 60169"; n_fire = 6; edges_md5 = "74594bb5e1076ed60ed1bb8d3f8eddf7"; n_vertices = 56; n_edges = 77; structure_md5 = "094137b28b7a6caea66bd6583eb73aff"; findings_md5 = "7fdfa9938cc72ef28aabebf597ff5505" };
    { case = "seed 60170"; n_fire = 12; edges_md5 = "623064bd9473254ff570ceafb777d20c"; n_vertices = 58; n_edges = 87; structure_md5 = "5b3fafe2c8fbccede0cd0ad30c5420fa"; findings_md5 = "ad5b8c90894eabb6ca27dc15631ce3fd" };
    { case = "seed 60171"; n_fire = 5; edges_md5 = "4847c4cacdc5033a01cadf45a60ec195"; n_vertices = 51; n_edges = 72; structure_md5 = "bae8c1a677d477278606e8852d564036"; findings_md5 = "6d7cfe333ce7ea894cd7ac3d1251a865" };
    { case = "seed 60172"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 40; n_edges = 50; structure_md5 = "4cae0345d051bde6969e1e2abddccffa"; findings_md5 = "-" };
    { case = "seed 60173"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "5d3eef71e1542c09924ea65dd6b0f143"; findings_md5 = "-" };
    { case = "seed 60174"; n_fire = 3; edges_md5 = "bd6953c892d308543a9704f7718cf1bb"; n_vertices = 24; n_edges = 33; structure_md5 = "c5c07c1e3ad050c0e91b3495e4305046"; findings_md5 = "f40e36082350461be3a99b1c34e5c540" };
    { case = "seed 60175"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "d99bb922a717656c42c9c2e9baf91f41"; findings_md5 = "-" };
    { case = "seed 60176"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "eda3fa45bc92ac37ada1fd558fc914ae"; findings_md5 = "-" };
    { case = "seed 60177"; n_fire = 2; edges_md5 = "e1a703065ee398c1680c8ecf78c633ef"; n_vertices = 35; n_edges = 46; structure_md5 = "a3455eaa00e4a3975598af00dfdc9fba"; findings_md5 = "-" };
    { case = "seed 60178"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "bb5ef5fdb508da857b4665bdc5d066df"; findings_md5 = "-" };
    { case = "seed 60179"; n_fire = 8; edges_md5 = "3f5ebb07525a5bbb67b5ad21948f4a67"; n_vertices = 47; n_edges = 70; structure_md5 = "e8a077800fd49e97c401551352a8e7cc"; findings_md5 = "107e69d9557759bbabaa85bf3bc70a6c" };
    { case = "seed 60180"; n_fire = 12; edges_md5 = "9f1e00641a48d4f02b3aaafec0d7a6f1"; n_vertices = 46; n_edges = 71; structure_md5 = "fa511be176d81deef6df3369c89d944c"; findings_md5 = "6856d00e5c4676a11ed68d6155ba2a3e" };
    { case = "seed 60181"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "bc7a90f4935f519c7399067abe4f1f9e"; findings_md5 = "-" };
    { case = "seed 60182"; n_fire = 12; edges_md5 = "369827628b2c397a8acd402ec2875ded"; n_vertices = 67; n_edges = 99; structure_md5 = "1d6d1981c2df6ac2ae58d8e6289d28ab"; findings_md5 = "-" };
    { case = "seed 60183"; n_fire = 3; edges_md5 = "3f47be6a8ff2f63cfecdd54c514844cc"; n_vertices = 31; n_edges = 42; structure_md5 = "117d68fe9d614df0c164ab393a06f7a3"; findings_md5 = "-" };
    { case = "seed 60184"; n_fire = 9; edges_md5 = "5819343db8706f7385ecabc431bd2db6"; n_vertices = 32; n_edges = 49; structure_md5 = "ce754b3258e52995cf31c4a31788be37"; findings_md5 = "0a6a46910cc310f0406c1784002b5499" };
    { case = "seed 60185"; n_fire = 7; edges_md5 = "78136b28452f2597358131cb4aaa99f3"; n_vertices = 56; n_edges = 82; structure_md5 = "5b7f29f85ead219c221fba10673e2c7f"; findings_md5 = "a4a45056212d28db3a40a8b666b29e20" };
    { case = "seed 60186"; n_fire = 25; edges_md5 = "8c8c11b34285ebe7ca5212b6ab91df8a"; n_vertices = 51; n_edges = 90; structure_md5 = "dc425e8cd65c6110557b753afffdc642"; findings_md5 = "fb4453d17b0854fc93f9f55aca4d648e" };
    { case = "seed 60187"; n_fire = 11; edges_md5 = "7767e392deaef05a467d49443ce0e834"; n_vertices = 81; n_edges = 120; structure_md5 = "aab3bad91715bf40fa4d8444cbc31cd6"; findings_md5 = "-" };
    { case = "seed 60188"; n_fire = 2; edges_md5 = "23d8d7ee949d8f020c31a58bed9c67ad"; n_vertices = 30; n_edges = 41; structure_md5 = "33b22334f481dbd5c8bac34da302f25d"; findings_md5 = "1bf6ad7846d188e95dcadbb2eac14976" };
    { case = "seed 60189"; n_fire = 8; edges_md5 = "960497b7c586dcabd9922b5735edc594"; n_vertices = 55; n_edges = 77; structure_md5 = "9e7f4b42d20e86cf01ac8229aeb3cb9c"; findings_md5 = "0789713cdecc038187d40f2d56b138f7" };
    { case = "seed 60190"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "e8b83cb5bd86f39150e9b8c21d05e82a"; findings_md5 = "-" };
    { case = "seed 60191"; n_fire = 2; edges_md5 = "a40e0b1aa7555e7b38b381fa7ef1fa75"; n_vertices = 35; n_edges = 48; structure_md5 = "afd5d3891db0e1c80bf5c4e3bad18631"; findings_md5 = "-" };
    { case = "seed 60192"; n_fire = 6; edges_md5 = "c1be9518d2c5d23b280ceb2784fab12a"; n_vertices = 54; n_edges = 73; structure_md5 = "5bea6b7fd8f7d9cbfa2323097f98c269"; findings_md5 = "e94a8efdacc247abaeada3178a690edd" };
    { case = "seed 60193"; n_fire = 1; edges_md5 = "c514854c53804b86d62dd065c8c58e88"; n_vertices = 15; n_edges = 20; structure_md5 = "5e4cff2eb382c531b4d919a67775093a"; findings_md5 = "-" };
    { case = "seed 60194"; n_fire = 3; edges_md5 = "e5afdcf43038890f5d7e11f573ad4b0f"; n_vertices = 55; n_edges = 78; structure_md5 = "8b4c986c1c5da5e39585a7177e894440"; findings_md5 = "-" };
    { case = "seed 60195"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "e8b83cb5bd86f39150e9b8c21d05e82a"; findings_md5 = "-" };
    { case = "seed 60196"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "a9661acac809e6dd1fce318480dfc77b"; findings_md5 = "-" };
    { case = "seed 60197"; n_fire = 3; edges_md5 = "288674632bcdcd5657c1b1bb44209c3d"; n_vertices = 27; n_edges = 38; structure_md5 = "9ad4b7f831f77b646ec2842af272a52b"; findings_md5 = "73f2b29f7ae157b432a8b489507cd1a3" };
    { case = "seed 60198"; n_fire = 6; edges_md5 = "8d121d2d6686077f9d40ef30bc76084a"; n_vertices = 76; n_edges = 105; structure_md5 = "dc16bb5c8d2818d3ebe2f7a16e36179c"; findings_md5 = "451cd9a8c23e94c2396788a9bda7f901" };
    { case = "seed 60199"; n_fire = 0; edges_md5 = "d41d8cd98f00b204e9800998ecf8427e"; n_vertices = 1; n_edges = 0; structure_md5 = "90e3ee6e9622bae94a81bb56d678cb06"; findings_md5 = "-" };
  ]

let test_golden_families () = check_rows golden_families (family_rows ())

let test_golden_seeds () = check_rows golden_seeds (seed_rows ())

let () =
  Alcotest.run "nd_drs"
    [
      ( "golden",
        [
          Alcotest.test_case "shipped families" `Quick test_golden_families;
          Alcotest.test_case "generated specs" `Quick test_golden_seeds;
        ] );
    ]
