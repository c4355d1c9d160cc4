"""Dense primal simplex for the box-bounded LPs of the robust watermark.

Every LP solved here maximizes ``c @ x`` subject to ``A x <= b`` with
``b >= 0`` and ``0 <= x <= hi`` for a finite ``hi``; ``A`` and ``c`` may
have either sign.  ``robust.robust_lp_build`` makes only such LPs, and
``LpProblem`` rejects anything else: a negative right-hand side, a nonzero
lower bound, or an upper bound that is infinite or negative.  On this family
the all-slack basis is feasible and the box bounds the optimum, so a single
phase of pivoting from the slack basis always ends at an optimal vertex.

Each upper bound is one more ``<=`` row of the tableau, and the objective's
reduced costs are its last row, so a pivot is one whole-array update of
every row the entering column touches.  Bland's rule (first improving
column; minimum ratio with ties to the smallest basis index) ends cycling,
and the returned point passes a residual check.  The same tableau code runs
in float mode (numpy float64, 1e-9 tolerances) and in exact mode
(``Fraction`` entries in an object array, zero tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9

OPTIMAL = "optimal"


@dataclass(frozen=True)
class LpProblem:
    """Maximize ``objective @ x`` subject to ``<=`` rows and the box ``0 <= x <= hi``."""

    objective: tuple
    constraints: tuple  # ((coeffs, rhs), ...) rows, all <= sense, rhs >= 0
    bounds: tuple  # ((0, hi), ...) per variable; hi finite

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(self.objective))
        object.__setattr__(
            self, "constraints", tuple((tuple(row), rhs) for row, rhs in self.constraints)
        )
        object.__setattr__(self, "bounds", tuple(tuple(b) for b in self.bounds))
        n = len(self.objective)
        if len(self.bounds) != n:
            raise ValueError("bounds length must match objective length")
        for row, rhs in self.constraints:
            if len(row) != n:
                raise ValueError("constraint row length must match objective length")
            if not rhs >= 0:
                raise ValueError(f"right-hand side must be >= 0, got {rhs!r}")
        for lo, hi in self.bounds:
            if lo != 0:
                raise ValueError(f"lower bound must be 0, got {lo!r}")
            if not 0 <= hi < math.inf:
                raise ValueError(f"upper bound must be finite and >= 0, got {hi!r}")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    x: tuple
    objective: float
    status: str = OPTIMAL  # every LpProblem has an optimum


def _leaving_row(tableau, basis, col: int, tol) -> int:
    """Minimum-ratio row for entering column ``col``; ties go to the smallest basis index."""
    rows = np.flatnonzero(tableau[:-1, col] > tol)
    if not len(rows):
        raise AssertionError(f"no leaving row for column {col}: the box bounds every LpProblem")
    ratios = tableau[rows, -1] / tableau[rows, col]
    ties = rows[ratios == ratios.min()]
    return ties[np.argmin(basis[ties])]


def _pivot(tableau, basis, row: int, col: int) -> None:
    """Divide the pivot row, then clear ``col`` from every other row, objective included."""
    tableau[row] /= tableau[row, col]
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    tableau[rows] -= np.outer(tableau[rows, col], tableau[row])
    basis[row] = col


def simplex_solve(problem: LpProblem, exact: bool = False) -> LpSolution:
    """Optimal vertex of ``problem``.

    In exact mode all data is converted to ``Fraction`` and comparisons use
    zero tolerance, so the returned vertex is exact.
    """
    number = Fraction if exact else float
    tol = Fraction(0) if exact else FLOAT_TOL
    dtype = object if exact else np.float64
    n = problem.n_vars
    a = np.array(
        [[number(c) for c in row] for row, _ in problem.constraints], dtype=dtype
    ).reshape(len(problem.constraints), n)
    b = np.array([number(rhs) for _, rhs in problem.constraints], dtype=dtype)
    hi = np.array([number(h) for _, h in problem.bounds], dtype=dtype)
    n_rows = len(a)
    m = n_rows + n  # the constraints, then one x_j <= hi_j row per variable

    # columns: the variables, one slack per row, the right-hand side;
    # rows: the m constraint rows, then the objective's reduced costs
    tableau = np.zeros((m + 1, n + m + 1), dtype=dtype)
    tableau[:n_rows, :n] = a
    tableau[n_rows + np.arange(n), np.arange(n)] = number(1)
    tableau[np.arange(m), n + np.arange(m)] = number(1)
    tableau[:m, -1] = np.concatenate([b, hi])
    tableau[m, :n] = [-number(c) for c in problem.objective]
    basis = np.arange(n, n + m)

    while True:
        improving = np.flatnonzero(tableau[m, :-1] < -tol)
        if not len(improving):
            break
        col = improving[0]
        _pivot(tableau, basis, _leaving_row(tableau, basis, col, tol), col)

    y = np.full(n + m, number(0), dtype=dtype)
    y[basis] = tableau[:m, -1]
    x = y[:n]
    if (x < -tol).any() or (x > hi + tol).any():
        raise AssertionError("solution violates its bounds")
    excess = a @ x - b
    if (excess > tol).any():
        raise AssertionError(f"solution violates a constraint by {float(excess.max())!r}")
    obj = sum(number(c) * v for c, v in zip(problem.objective, x))
    if exact:
        return LpSolution(x=tuple(x), objective=obj)
    return LpSolution(x=tuple(x.tolist()), objective=float(obj))
