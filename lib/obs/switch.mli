(** The one bracket for turning observability on or off around a run.

    Each given flag is set for the duration of [f] and restored to its
    prior value when [f] returns or raises; an omitted flag is left as
    it is. A store whose flag is switched on starts empty ({!Metrics.clear},
    {!Trace.clear}, {!Prof.reset}), and what [f] recorded stays in it
    after the bracket, ready to export. *)

val with_flags : ?metrics:bool -> ?trace:bool -> ?prof:bool -> (unit -> 'a) -> 'a
