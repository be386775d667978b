"""Exact solver for conjunctions of constraints (xi - xj) - (xp - xq) <= m.

Variables range over the rationals; x0 is pinned to zero so single
variables, plain differences, sums and three-variable forms are all the
same shape with x0 in the unused slots.  The solver stores bounds in a
pair-indexed matrix, one per normal-vector class, and tightens it by
iterated min-plus composition; a matrix whose finite classes are all
octagonal is closed instead by strong closure on a 2n-node
difference-bound matrix and one pass over the other classes' splits.
Fourier-Motzkin elimination is its independent oracle: it cross-checks
verdicts on request and backs witness pins the closure cannot settle.
An infeasible verdict is explained by a simple hypercycle of negative
weight, found by enumerating positively dependent constraint subsets.
"""

__version__ = "0.3.0"

from .core import (
    INF,
    Bound,
    Constraint4,
    NormalVector,
    ParseError,
    VarId,
    complement,
    format_bound,
    format_constraint,
    make_constraint,
    normal_vector,
    parse_atomic,
    parse_constraints,
    satisfies,
)
from .matrix2d import (
    Matrix2D,
    load,
    new_matrix,
    to_constraints,
)
from .closure import (
    ClosureResult,
    Exactness,
    Subclass,
    classify,
    close,
    exactness_of,
    sweep_cap,
)
from .lindep import (
    SizeLimitError,
    WeightedFamily,
    cycle_weight,
    enumerate_simple_hcycles,
)
from .fmoracle import (
    LinearSystem,
    ResourceLimitError,
    fm_feasible,
    fm_solution,
    fm_tight_bound,
)
from .solver import (
    SolveReport,
    extract_witness,
    is_bounded,
    reduce_domains,
    solve,
)

__all__ = [
    "INF",
    "Bound",
    "ClosureResult",
    "Constraint4",
    "Exactness",
    "LinearSystem",
    "Matrix2D",
    "NormalVector",
    "ParseError",
    "ResourceLimitError",
    "SizeLimitError",
    "SolveReport",
    "Subclass",
    "VarId",
    "WeightedFamily",
    "classify",
    "close",
    "complement",
    "cycle_weight",
    "enumerate_simple_hcycles",
    "exactness_of",
    "extract_witness",
    "fm_feasible",
    "fm_solution",
    "fm_tight_bound",
    "format_bound",
    "format_constraint",
    "is_bounded",
    "load",
    "make_constraint",
    "new_matrix",
    "normal_vector",
    "parse_atomic",
    "parse_constraints",
    "reduce_domains",
    "satisfies",
    "solve",
    "sweep_cap",
    "to_constraints",
]
