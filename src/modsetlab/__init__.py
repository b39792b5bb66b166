"""Sumsets and difference sets of random subsets of Z/nZ.

Exact closed-form evaluation (arbitrary-precision rationals), an exhaustive
small-n enumeration oracle, and deterministic Monte Carlo sweeps across the
fast / critical / slow decay regimes of the inclusion probability p(n).
"""

from .errors import ParameterError, ResourceLimitError
from .sets import (
    ResidueSet,
    SampleSpec,
    difference_set,
    dyadic64,
    missing_counts,
    sample_subset,
    sumset,
)
from .multiplicity import (
    MultiplicityProfile,
    expected_x_k_exact,
    expected_y_k_exact,
    inclusion_exclusion_size,
    multiplicity_profile,
    x_k,
    y_k,
)
from .exact import (
    GaugeValues,
    MissingDiffExpectation,
    Targets,
    cycle_count,
    expected_missing_diffs,
    expected_missing_sums,
    expected_missing_sums_asymptotic,
    f_series,
    gauge_functions,
    independence_probability,
    lucas,
    path_count,
    prob_both_sums_missing,
    prob_diff_missing,
    prob_diff_missing_composite,
    theoretical_targets,
)
from .graphs import (
    OracleMoments,
    PairGraph,
    build_diff_graph,
    build_sum_graph,
    event_diff_missing,
    event_sums_missing,
    oracle_event_probability,
    oracle_moments,
)
from .experiments import (
    RegimeSpec,
    ReportRow,
    SweepAggregate,
    SweepResult,
    TrialRecord,
    convergence_report,
    is_prime,
    next_prime,
    realized_p,
    run_sweep,
    run_trial,
    write_trials_csv,
)

__version__ = "0.1.0"
