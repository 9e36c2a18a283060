(** The request/response vocabulary of the analysis server, and its JSON
    codec.

    Every wire message is one length-prefixed {!Nd_util.Json.Frame}.  A
    request frame is an object [{"id": <int>, "kind": <string>, ...}];
    the response frame echoes the id and carries either an ["ok"] payload
    or an ["error"] string:

    {v
    -> {"id":7,"kind":"lint","algo":"mm","n":16,"base":4,"seed":42,"np":false}
    <- {"id":7,"ok":{"algo":"mm","errors":0,"warnings":0,"findings":[]}}
    v}

    The codec is total in both directions — [of_json (to_json x) = x] —
    which the framing test suite checks for every kind. *)

(** Identifies one workload instance; [n]/[base] fall back to the
    family defaults when omitted.  This tuple (plus the compile mode)
    is the cache key for every artifact derived from the workload. *)
type workload_key = {
  algo : string;
  n : int option;
  base : int option;
  seed : int;
  np : bool;  (** compile the nested-parallel projection *)
}

type request =
  | Ping
  | Lint of workload_key
  | Race of workload_key  (** ESP-bags determinacy-race verdict *)
  | Analyze of { wk : workload_key; top : int }
      (** structural {!Nd_analyze.Cost} report plus Theorem-1
          certification against the standard PMH with [top] root
          caches *)
  | Simulate of { wk : workload_key; top : int; fine : bool }
      (** space-bounded scheduler simulation on the standard PMH with
          [top] root caches *)
  | Fuzz of { count : int; seed : int; max_depth : int }
  | Suite of { exp : string }  (** one experiment table, e.g. ["e1"] *)
  | Stats  (** latency histograms, cache and fiber-pool counters *)
  | Shutdown

type envelope = { id : int; req : request }

type response = { id : int; result : (Nd_util.Json.t, string) result }

(** Raised by the [of_json] decoders on a structurally invalid message
    (unknown kind, missing or ill-typed field) or a request field outside
    its sign bound: [count] and [max_depth] must be [>= 0], and [top],
    [n] and [base] [>= 1].  The message names the field. *)
exception Protocol_error of string

(** All request kinds, in a fixed order — the index is used to key
    per-kind latency histograms. *)
val kinds : string array

val kind_name : request -> string

(** [kind_index r] — index of [kind_name r] in {!kinds}. *)
val kind_index : request -> int

val request_to_json : envelope -> Nd_util.Json.t

val request_of_json : Nd_util.Json.t -> envelope

val response_to_json : response -> Nd_util.Json.t

val response_of_json : Nd_util.Json.t -> response

(** {2 Server addresses} *)

type addr =
  | Unix_path of string  (** unix-domain socket at this path *)
  | Tcp of string * int  (** host, port *)

val pp_addr : Format.formatter -> addr -> unit

(** [addr_of_string s] — ["host:port"] when [s] contains a colon and the
    suffix parses as a port, otherwise a unix socket path. *)
val addr_of_string : string -> addr
