(** Small-sample statistics for repeated experiment trials.

    Experiments are deterministic per seed; confidence comes from running
    several seeds and summarising.  This module provides the summaries:
    mean, variance (unbiased), standard deviation, standard error, an
    approximate 95% confidence interval (Student-t for small n), median
    and quantiles on a sample of floats. *)

type summary = {
  n : int;
  mean : float;
  variance : float;  (** unbiased (n-1); 0 for n < 2 *)
  stddev : float;
  stderr : float;
  ci95 : float;  (** half-width of the ~95% confidence interval *)
  minimum : float;
  maximum : float;
  median : float;
}

val summarize : float list -> summary
(** @raise Invalid_argument on an empty sample. *)

val quantile : float list -> float -> float
(** Linear-interpolation quantile of a sample, [q] in [0, 1].
    @raise Invalid_argument on an empty sample. *)

val of_trials : trials:int -> (seed:int -> float) -> summary
(** [of_trials ~trials f] runs [f ~seed] for seeds [0 .. trials-1] and
    summarises the results — the harness for "rerun the experiment k
    times". *)
