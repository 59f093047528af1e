(** The paper's experiments, each declared once.

    An entry names an experiment, declares its parameters (flag name, doc,
    the CLI default and the bench value at each scale) and runs it into a
    paper-vs-measured report plus the metrics the bench records. Both
    front ends are loops over {!all}: [smapp <name>] builds one subcommand
    per entry and prints the report, and [smapp bench] runs every entry at
    the chosen scale and files the metrics under the entry's name in
    BENCH.json. *)

type scale = Quick | Default | Full

val scale_name : scale -> string
(** ["quick"], ["default"], ["full"]: the [scale] field of BENCH.json. *)

type _ kind = Int : int kind | Float : float kind

type 'a param = {
  name : string;  (** the CLI flag, without the leading dashes *)
  doc : string;
  kind : 'a kind;
  cli : 'a;  (** default of the [smapp <experiment>] flag *)
  quick : 'a;  (** bench values, per scale *)
  default : 'a;
  full : 'a;
}

type packed = Param : 'a param -> packed

type binding = Bind : 'a param * 'a -> binding

type params = binding list
(** One value per declared parameter; the CLI binds what it parsed. *)

val at_scale : scale -> packed list -> params
(** Every parameter at its bench value for [scale]. *)

val get : params -> 'a param -> 'a
(** Raises [Invalid_argument] if [params] holds no value for the
    parameter: a front end bound a different list than the entry
    declares. *)

type outcome = {
  report : string;
      (** the paper-vs-measured text, ablations and shape checks included *)
  metrics : (string * float) list;  (** BENCH.json keys, in record order *)
}

type t = {
  name : string;  (** the subcommand and the BENCH.json section *)
  doc : string;
  params : packed list;
  sweeps : bool;
      (** [run] spreads independent simulations over [?pool], so the
          subcommand takes [-j] *)
  run : ?pool:Smapp_par.Lanes.t -> params -> outcome;
}

val all : t list
(** [fig2a], [backoff], [fig2b], [scheduler_ablation], [fig2c], [fig3],
    [fullmesh]: the bench's section order. *)
