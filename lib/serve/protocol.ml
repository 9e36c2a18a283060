module Json = Nd_util.Json

type workload_key = {
  algo : string;
  n : int option;
  base : int option;
  seed : int;
  np : bool;
}

type request =
  | Ping
  | Lint of workload_key
  | Race of workload_key
  | Analyze of { wk : workload_key; top : int }
  | Simulate of { wk : workload_key; top : int; fine : bool }
  | Fuzz of { count : int; seed : int; max_depth : int }
  | Suite of { exp : string }
  | Stats
  | Shutdown

type envelope = { id : int; req : request }

type response = { id : int; result : (Json.t, string) result }

exception Protocol_error of string

let kinds =
  [|
    "ping"; "lint"; "race"; "analyze"; "simulate"; "fuzz"; "suite"; "stats";
    "shutdown";
  |]

let kind_name = function
  | Ping -> "ping"
  | Lint _ -> "lint"
  | Race _ -> "race"
  | Analyze _ -> "analyze"
  | Simulate _ -> "simulate"
  | Fuzz _ -> "fuzz"
  | Suite _ -> "suite"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let kind_index r =
  let name = kind_name r in
  let rec go i = if kinds.(i) = name then i else go (i + 1) in
  go 0

(* ------------------------------ encode ----------------------------- *)

let wk_fields wk =
  [ ("algo", Json.String wk.algo) ]
  @ (match wk.n with Some n -> [ ("n", Json.Int n) ] | None -> [])
  @ (match wk.base with Some b -> [ ("base", Json.Int b) ] | None -> [])
  @ [ ("seed", Json.Int wk.seed); ("np", Json.Bool wk.np) ]

let request_to_json { id; req } =
  let kind = ("kind", Json.String (kind_name req)) in
  let fields =
    match req with
    | Ping | Stats | Shutdown -> [ kind ]
    | Lint wk | Race wk -> kind :: wk_fields wk
    | Analyze { wk; top } -> (kind :: wk_fields wk) @ [ ("top", Json.Int top) ]
    | Simulate { wk; top; fine } ->
      (kind :: wk_fields wk)
      @ [ ("top", Json.Int top); ("fine", Json.Bool fine) ]
    | Fuzz { count; seed; max_depth } ->
      [
        kind;
        ("count", Json.Int count);
        ("seed", Json.Int seed);
        ("max_depth", Json.Int max_depth);
      ]
    | Suite { exp } -> [ kind; ("exp", Json.String exp) ]
  in
  Json.Obj (("id", Json.Int id) :: fields)

let response_to_json { id; result } =
  Json.Obj
    [
      ("id", Json.Int id);
      (match result with
      | Ok v -> ("ok", v)
      | Error msg -> ("error", Json.String msg));
    ]

(* ------------------------------ decode ----------------------------- *)

let fail fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let get_int j key =
  match Json.member key j with
  | Some (Json.Int i) -> i
  | Some _ -> fail "field %S must be an integer" key
  | None -> fail "missing field %S" key

let get_int_opt j key =
  match Json.member key j with
  | Some (Json.Int i) -> Some i
  | Some _ -> fail "field %S must be an integer" key
  | None -> None

(* sign bounds only: a negative count or a zero size is never a valid
   request, whatever it would cost *)
let at_least lo key v =
  if v < lo then fail "field %S must be >= %d (got %d)" key lo v;
  v

let get_bool_default j key default =
  match Json.member key j with
  | Some (Json.Bool b) -> b
  | Some _ -> fail "field %S must be a boolean" key
  | None -> default

let get_string j key =
  match Json.member key j with
  | Some (Json.String s) -> s
  | Some _ -> fail "field %S must be a string" key
  | None -> fail "missing field %S" key

let wk_of_json j =
  {
    algo = get_string j "algo";
    n = Option.map (at_least 1 "n") (get_int_opt j "n");
    base = Option.map (at_least 1 "base") (get_int_opt j "base");
    seed = (match get_int_opt j "seed" with Some s -> s | None -> 42);
    np = get_bool_default j "np" false;
  }

let get_top j =
  match get_int_opt j "top" with Some t -> at_least 1 "top" t | None -> 1

let request_of_json j =
  (match j with Json.Obj _ -> () | _ -> fail "request must be an object");
  let id = get_int j "id" in
  let req =
    match get_string j "kind" with
    | "ping" -> Ping
    | "lint" -> Lint (wk_of_json j)
    | "race" -> Race (wk_of_json j)
    | "analyze" ->
      Analyze
        {
          wk = wk_of_json j;
          top = get_top j;
        }
    | "simulate" ->
      Simulate
        {
          wk = wk_of_json j;
          top = get_top j;
          fine = get_bool_default j "fine" false;
        }
    | "fuzz" ->
      Fuzz
        {
          count = at_least 0 "count" (get_int j "count");
          seed = (match get_int_opt j "seed" with Some s -> s | None -> 42);
          max_depth =
            (match get_int_opt j "max_depth" with
            | Some d -> at_least 0 "max_depth" d
            | None -> Nd_check.Gen.default_params.max_depth);
        }
    | "suite" -> Suite { exp = get_string j "exp" }
    | "stats" -> Stats
    | "shutdown" -> Shutdown
    | other -> fail "unknown request kind %S" other
  in
  { id; req }

let response_of_json j =
  (match j with Json.Obj _ -> () | _ -> fail "response must be an object");
  let id = get_int j "id" in
  match (Json.member "ok" j, Json.member "error" j) with
  | Some v, None -> { id; result = Ok v }
  | None, Some (Json.String msg) -> { id; result = Error msg }
  | None, Some _ -> fail "field \"error\" must be a string"
  | Some _, Some _ -> fail "response carries both \"ok\" and \"error\""
  | None, None -> fail "response carries neither \"ok\" nor \"error\""

(* ----------------------------- addresses --------------------------- *)

type addr = Unix_path of string | Tcp of string * int

let pp_addr ppf = function
  | Unix_path p -> Format.fprintf ppf "unix:%s" p
  | Tcp (h, p) -> Format.fprintf ppf "tcp:%s:%d" h p

let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i -> (
    let host = String.sub s 0 i
    and port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 && host <> "" -> Tcp (host, p)
    | _ -> Unix_path s)
  | None -> Unix_path s
