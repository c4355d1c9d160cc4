"""Dense primal simplex for the box-bounded LPs of the robust watermark.

Every LP solved here maximizes ``c @ x`` subject to ``A x <= b`` with
``b >= 0`` and ``0 <= x <= hi`` for a finite ``hi``; ``A`` and ``c`` may
have either sign.  ``robust.robust_lp_build`` makes only such LPs, and
``LpProblem`` rejects anything else: a negative right-hand side, a nonzero
lower bound, or an upper bound that is infinite or negative.  On this family
the all-slack basis is feasible and the box bounds the optimum, so a single
phase of pivoting from the slack basis always ends at an optimal vertex.

Each upper bound is one more ``<=`` row of the tableau, and the objective's
reduced costs are its last row, so a pivot is one whole-array update of the
tableau.  Bland's rule (first improving column; minimum ratio with ties to
the smallest basis index) ends cycling, and the returned point passes a
bound and residual check.  Each LP row is read once, into the tableau's
numbers: float64 in float mode, which pivots with 1e-9 tolerances.  Exact
mode reads each row into Python integers scaled by the LCM of that row's
denominators, and pivots with zero tolerance by integer-preserving
elimination (Edmonds 1967; Bareiss 1968): all rows share one positive
divisor, the last pivot element, so the entries stay integers and no gcd is
taken while pivoting.  It takes the pivots ``Fraction`` arithmetic would
take and returns the vertex and objective as ``Fraction`` values.
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
    pivots: int = 0  # simplex pivots taken to reach x


def _leaving_row(tableau, basis, col: int, tol) -> int:
    """Minimum-ratio row for entering column ``col``; ties go to the smallest basis index."""
    rows = np.flatnonzero(tableau[:-1, col] > tol)
    if not len(rows):
        raise AssertionError(f"no leaving row for column {col}: the box bounds every LpProblem")
    if tableau.dtype != object:
        ratios = tableau[rows, -1] / tableau[rows, col]
        ties = rows[ratios == ratios.min()]
        return ties[np.argmin(basis[ties])]
    # integer rows: the ratio T[i, -1] / T[i, col] (row i's positive divisor
    # cancels), compared by cross-multiplying
    best = rows[0]
    for i in rows[1:]:
        left, right = tableau[i, -1] * tableau[best, col], tableau[best, -1] * tableau[i, col]
        if left < right or left == right and basis[i] < basis[best]:
            best = i
    return best


def _pivot(tableau, row: int, col: int) -> None:
    """Divide the pivot row, then clear ``col`` from every other row, objective included."""
    tableau[row] /= tableau[row, col]
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    tableau[rows] -= np.outer(tableau[rows, col], tableau[row])


def _pivot_integer(tableau, divisor: int, row: int, col: int) -> int:
    """Integer-preserving pivot; returns the new common divisor, the pivot element ``p``.

    Every other row becomes ``(p T_i - T_i[col] T_row) // divisor``, an exact
    division by Sylvester's identity (rows with a zero in ``col`` are only
    rescaled), and the pivot row keeps its integers.
    """
    p, kept = tableau[row, col], tableau[row].copy()
    rows = np.flatnonzero(tableau[:, col])
    factors = tableau[rows, col]
    tableau *= p
    tableau[rows] -= np.outer(factors, kept)
    tableau //= divisor
    tableau[row] = kept
    return p


def _integer_row(values) -> tuple[list[int], int]:
    """``values`` times ``s``, the LCM of their denominators, as Python ints; and ``s``."""
    ratios = [Fraction(v) for v in values]  # numpy integers have no as_integer_ratio
    s = math.lcm(*(f.denominator for f in ratios))
    return [int(f.numerator) * (s // f.denominator) for f in ratios], s


def simplex_solve(problem: LpProblem, exact: bool = False) -> LpSolution:
    """Optimal vertex of ``problem``.

    In exact mode all data is read exactly and comparisons use zero
    tolerance, so the returned vertex and objective are exact ``Fraction``s.
    """
    n, n_rows = problem.n_vars, len(problem.constraints)
    m = n_rows + n  # the constraints, then one x_j <= hi_j row per variable
    # each LP row read once: a x <= b, then scale_j x_j <= hi_j, then the
    # objective; exact mode scales row i to integers by s_i, the LCM of its
    # denominators, which also goes onto its slack
    if exact:
        tol, dtype = 0, object
        rows = [_integer_row((*row, rhs)) for row, rhs in problem.constraints]
        rows += [_integer_row((h,)) for _, h in problem.bounds] + [_integer_row(problem.objective)]
        a, rhs = [ints[:-1] for ints, _ in rows[:n_rows]], [ints[-1] for ints, _ in rows[:m]]
        scale, cost = [s for _, s in rows], rows[m][0]
    else:
        tol, dtype = FLOAT_TOL, np.float64
        a, cost = [row for row, _ in problem.constraints], problem.objective
        rhs = [b for _, b in problem.constraints] + [h for _, h in problem.bounds]
        scale = [1.0] * (m + 1)
    rhs, scale, cost = (np.array(v, dtype=dtype) for v in (rhs, scale, cost))
    a = np.array(a, dtype=dtype).reshape(n_rows, n)

    # columns: the variables, one slack per row, the right-hand side;
    # rows: the m constraint rows, then the objective's reduced costs
    tableau = np.zeros((m + 1, n + m + 1), dtype=dtype)
    tableau[:n_rows, :n] = a
    tableau[n_rows + np.arange(n), np.arange(n)] = scale[n_rows:m]
    tableau[np.arange(m), n + np.arange(m)] = scale[:m]
    tableau[:m, -1] = rhs
    tableau[m, :n] = -cost
    basis = np.arange(n, n + m)

    # true entries of row i are T[i, j] / (denominator * s_i), both factors
    # positive; exact mode makes denominator the last pivot element, and s_i
    # is 1 from row i's first pivot on
    denominator, pivots = 1, 0
    while len(improving := np.flatnonzero(tableau[m, :-1] < -tol)):
        col = improving[0]
        row = _leaving_row(tableau, basis, col, tol)
        if exact:
            denominator = _pivot_integer(tableau, denominator, row, col)
        else:
            _pivot(tableau, row, col)
        basis[row] = col
        pivots += 1

    # x = X / denominator, since a row with a variable basic has been a pivot
    # row (s_i = 1); the check compares positive multiples of both sides of
    # every LP row, the constraints and then the upper bounds
    X = np.zeros(n, dtype=dtype)
    structural = basis < n
    X[basis[structural]] = tableau[:m, -1][structural]
    excess = np.concatenate([a @ X, X * scale[n_rows:m]]) - rhs * denominator
    if (X < -tol).any() or (excess > tol).any():
        raise AssertionError("solution violates x >= 0, a constraint or an upper bound")
    if exact:
        x = tuple(Fraction(v, denominator) for v in X)
        return LpSolution(x, Fraction(tableau[m, -1], denominator * scale[m]), pivots=pivots)
    # summed left to right: np.sum's pairwise order would move the last bits
    return LpSolution(tuple(X.tolist()), float(sum((cost * X).tolist())), pivots=pivots)
