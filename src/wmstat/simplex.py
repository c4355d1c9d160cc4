"""Dense linear programming via a two-phase primal simplex.

Problems are small and dense (tens of variables), so the solver favors
robustness over speed: Bland's anti-cycling rule throughout, an explicit
phase-1 for feasibility, and a residual check on the returned point.  The
same tableau code runs in float mode (numpy float64, 1e-9 tolerances) and in
exact mode (Fraction entries in object arrays, zero tolerance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FLOAT_TOL = 1e-9

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """Maximize ``objective @ x`` subject to ``<=`` rows and box bounds."""

    objective: tuple
    constraints: tuple  # ((coeffs, rhs), ...) rows, all <= sense
    bounds: tuple  # ((lo, hi), ...) per variable; hi may be math.inf

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(self.objective))
        object.__setattr__(
            self, "constraints", tuple((tuple(row), rhs) for row, rhs in self.constraints)
        )
        object.__setattr__(self, "bounds", tuple(tuple(b) for b in self.bounds))
        n = len(self.objective)
        if len(self.bounds) != n:
            raise ValueError("bounds length must match objective length")
        for row, _ in self.constraints:
            if len(row) != n:
                raise ValueError("constraint row length must match objective length")
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"bound lo {lo!r} exceeds hi {hi!r}")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    x: tuple
    objective: float
    status: str


def _bland_entering(zrow, n_usable: int, tol):
    for j in range(n_usable):
        if zrow[j] < -tol:
            return j
    return None


def _bland_leaving(tableau, basis, col: int, m: int, tol):
    best_ratio = None
    best_row = None
    for i in range(m):
        a = tableau[i, col]
        if a > tol:
            ratio = tableau[i, -1] / a
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[i] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = i
    return best_row


def _pivot(tableau, zrow, basis, row: int, col: int):
    piv = tableau[row, col]
    tableau[row] = tableau[row] / piv
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0:
            tableau[i] = tableau[i] - tableau[i, col] * tableau[row]
    if zrow[col] != 0:
        zrow -= zrow[col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau, zrow, basis, n_usable: int, m: int, tol):
    """Iterate pivots until optimal or unbounded; Bland's rule ends cycling."""
    while True:
        col = _bland_entering(zrow, n_usable, tol)
        if col is None:
            return OPTIMAL
        row = _bland_leaving(tableau, basis, col, m, tol)
        if row is None:
            return UNBOUNDED
        _pivot(tableau, zrow, basis, row, col)


def simplex_solve(problem: LpProblem, exact: bool = False) -> LpSolution:
    """Solve ``problem``; returns status optimal/infeasible/unbounded.

    In exact mode all data is converted to ``Fraction`` and comparisons use
    zero tolerance, so the returned vertex is exact.
    """
    number = Fraction if exact else float
    tol = Fraction(0) if exact else FLOAT_TOL
    n = problem.n_vars

    los = [number(lo) for lo, _ in problem.bounds]
    rows = []
    rhs = []
    for coeffs, b in problem.constraints:
        coeffs = [number(c) for c in coeffs]
        # shift x = y + lo so every variable is >= 0
        rows.append(coeffs)
        rhs.append(number(b) - sum(c * lo for c, lo in zip(coeffs, los)))
    for j, (lo, hi) in enumerate(problem.bounds):
        if not (isinstance(hi, float) and math.isinf(hi)):
            row = [number(0)] * n
            row[j] = number(1)
            rows.append(row)
            rhs.append(number(hi) - los[j])

    m = len(rows)
    art_rows = [i for i in range(m) if rhs[i] < 0]
    n_art = len(art_rows)
    ncols = n + m + n_art

    dtype = object if exact else np.float64
    tableau = np.zeros((m, ncols + 1), dtype=dtype)
    for i in range(m):
        sign = number(-1) if rhs[i] < 0 else number(1)
        for j in range(n):
            tableau[i, j] = sign * rows[i][j]
        tableau[i, n + i] = sign  # slack
        tableau[i, -1] = sign * rhs[i]
    basis = [n + i for i in range(m)]
    for a, i in enumerate(art_rows):
        tableau[i, n + m + a] = number(1)
        basis[i] = n + m + a

    # Phase 1: maximize -(sum of artificials); feasible iff optimum is 0.
    if n_art:
        zrow = np.zeros(ncols + 1, dtype=dtype)
        for i in art_rows:
            zrow = zrow - tableau[i]
        for a in range(n_art):
            zrow[n + m + a] = number(0)
        status = _run_simplex(tableau, zrow, basis, n + m, m, tol)
        if status != OPTIMAL or zrow[-1] < -tol:
            return LpSolution(x=(), objective=float("nan"), status=INFEASIBLE)
        for i in range(m):
            if basis[i] >= n + m:  # drive leftover artificial out or ignore row
                for j in range(n + m):
                    if abs(tableau[i, j]) > tol:
                        _pivot(tableau, zrow, basis, i, j)
                        break

    # Phase 2: original objective; artificial columns stay out of the scan.
    c_full = [number(problem.objective[j]) for j in range(n)] + [number(0)] * (m + n_art)
    zrow = np.zeros(ncols + 1, dtype=dtype)
    for j in range(ncols):
        zrow[j] = -c_full[j]
    zrow[-1] = number(0)
    for i in range(m):
        cb = c_full[basis[i]]
        if cb != 0:
            zrow = zrow + cb * tableau[i]

    status = _run_simplex(tableau, zrow, basis, n + m, m, tol)
    if status == UNBOUNDED:
        return LpSolution(x=(), objective=float("inf"), status=UNBOUNDED)

    y = [number(0)] * ncols
    for i in range(m):
        y[basis[i]] = tableau[i, -1]
    x = [y[j] + los[j] for j in range(n)]
    obj = sum(number(problem.objective[j]) * x[j] for j in range(n))
    _check_residuals(problem, x, exact)
    if exact:
        return LpSolution(x=tuple(x), objective=obj, status=OPTIMAL)
    return LpSolution(x=tuple(float(v) for v in x), objective=float(obj), status=OPTIMAL)


def _check_residuals(problem: LpProblem, x, exact: bool) -> None:
    slack = 0 if exact else FLOAT_TOL
    for j, (lo, hi) in enumerate(problem.bounds):
        if x[j] < lo - slack or x[j] > hi + slack:
            raise AssertionError(f"solution violates bounds on variable {j}")
    for coeffs, b in problem.constraints:
        if exact:  # float data times an exact point would round in float arithmetic
            coeffs = map(Fraction, coeffs)
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if lhs > b + slack:
            raise AssertionError(f"solution violates constraint by {float(lhs - b)!r}")
