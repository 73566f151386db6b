import importlib.util
from pathlib import Path

import hypothesis.strategies as st

from besearch import IndexClass, ProblemInstance
from besearch.driver import DEFAULT_SHOTS, _found_blocks


def load_script(name: str):
    """The module ``scripts/<name>.py``, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def strict_instances(draw, max_classes=4, max_count=60, require_solution=False):
    """Random instances satisfying the 9/10-1/10 promise."""
    n_classes = draw(st.integers(1, max_classes))
    classes = []
    for i in range(n_classes):
        solution = draw(st.booleans()) if (i or not require_solution) else True
        if solution:
            p = draw(st.floats(0.9, 1.0, allow_nan=False))
        else:
            p = draw(st.floats(0.0, 0.1, allow_nan=False))
        count = draw(st.integers(1, max_count))
        classes.append(IndexClass(p=p, count=count, is_solution=solution))
    return ProblemInstance(tuple(classes))


@st.composite
def relaxed_instances(draw, max_classes=4, max_count=60):
    """Random instances with arbitrary per-class probabilities."""
    n_classes = draw(st.integers(1, max_classes))
    classes = [
        IndexClass(
            p=draw(st.floats(0.0, 1.0, allow_nan=False)),
            count=draw(st.integers(1, max_count)),
            is_solution=draw(st.booleans()),
        )
        for _ in range(n_classes)
    ]
    return ProblemInstance(tuple(classes), strict=False)


def found_within(inst, x, shots=DEFAULT_SHOTS):
    """F(x), the chance that run_search accepts a solution with total_cost
    <= x, read from the blocks exact_cost_quantile bisects."""
    chance = 0.0
    for start, v, found in _found_blocks(inst, shots):
        if x < start + v:
            break
        chance = found(min(shots, (x - start) // v))
    return chance
