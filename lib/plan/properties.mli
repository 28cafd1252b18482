(** Structural properties of plans: validity for a pattern, plan shape
    (left-deep vs bushy), and pipelining (blocking vs fully pipelined). *)

open Sjos_pattern

val validate : Pattern.t -> Plan.t -> (unit, string) result
(** A plan is valid for a pattern when:
    - each pattern node is scanned exactly once and each edge joined
      exactly once, with the pattern's axis;
    - each join's ancestor side binds [edge.anc] ordered by it, and its
      descendant side binds [edge.desc] ordered by it (the Stack-Tree input
      requirement);
    - sorts reorder by a node bound in their input. *)

val is_valid : Pattern.t -> Plan.t -> bool

val is_fully_pipelined : Plan.t -> bool
(** No sort operator anywhere — every intermediate result streams. *)

val is_left_deep : Plan.t -> bool
(** Every join has at most one non-leaf input (sorts are transparent).
    A single scan counts as left-deep. *)

val is_bushy : Plan.t -> bool
(** Some join combines two composite inputs. *)

val covers : Pattern.t -> Plan.t -> bool
(** Does the plan bind every pattern node? *)
