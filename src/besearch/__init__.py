"""Exact simulator and query-cost toolkit for quantum search over
bounded-error subroutines."""

from .model import (
    PROMISE_GOOD,
    PROMISE_BAD,
    IndexClass,
    ProblemInstance,
    InvariantError,
    StructuredState,
    make_instance,
    expand_classes,
    init_state,
    state_stats,
    measurement_weights,
    total_mass,
)
from .amplification import amplification_factors, apply_amplification
from .error_reduction import (
    MAX_ROUNDS,
    majority_prob,
    repetitions_for,
    schedule_for_round,
    apply_error_reduction,
)
from .driver import (
    MAX_SHOTS,
    ExactOutcome,
    SearchResult,
    TraceRow,
    CurvePoint,
    analytic_cost,
    build_state,
    ceil_log9,
    exact_cost_quantile,
    exact_outcome,
    exact_success_curve,
    full_sweep_cost,
    run_block,
    run_search,
    search_blocks,
    verification_repetitions,
)
from .andor import (
    AndOrTree,
    GATE_AND,
    GATE_OR,
    evaluate_classical,
    evaluate_quantum_cost,
    level_costs,
    evaluate_quantum_sim,
    dump_tree,
    parse_tree,
    load_tree,
)

__version__ = "0.1.0"
