"""Dense primal simplex for the box-bounded LPs of the robust watermark.

Every LP solved here maximizes ``c @ x`` subject to ``A x <= b`` with
``b >= 0`` and ``0 <= x <= hi`` for a finite ``hi``; ``A`` and ``c`` may
have either sign.  ``robust.robust_lp_build`` makes only such LPs, and
``LpProblem`` rejects anything else: a negative right-hand side, a nonzero
lower bound, an upper bound that is infinite or negative, or a NaN or
infinity (in a coefficient, once ``simplex_solve`` reads it).  A row of ``A``
may be a 1-D float array: the robust LP's rows are views of one read-only
matrix.  On this family the all-slack basis is feasible and the box bounds
the optimum, so a single phase of pivoting from the slack basis always ends
at an optimal vertex.

Each upper bound is a row x_j + s_j = hi_j that the tableau holds only once
a pivot on another row has to change it.  Until then it joins the ratio test
only when x_j or s_j enters, and a pivot on it is a bound flip (one of
``pivots``): x_j and s_j trade places, changing only their two columns and
the right-hand side of the rows with an entry in the entering column.  Any
other pivot updates whole written rows, the objective's reduced costs among
them.  Every entry is the one a tableau holding all bound rows would store,
up to the sign of a zero nothing reads, so pivots, vertex and objective are
bit for bit that tableau's.  Devex pricing (Harris 1973) picks the entering
column: the improving one with the largest d_j^2 / w_j, d_j its reduced cost
and w_j a reference weight that starts at 1 and is updated from each pivot
row; exact mode prices on the nearest floats of its exact values.  After a
pivot that takes a zero step, Bland's first improving column enters instead,
so no run of degenerate pivots cycles.  The leaving row has the minimum
ratio, ties going to the smallest basis index, and the returned point passes
a bound and residual check.  Each LP row is read once, into the tableau's
numbers: float64 in float mode, which pivots with 1e-9 tolerances.
Exact mode reads each row into Python integers scaled by the LCM of that row's
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

from .dist import _integer_row

FLOAT_TOL = 1e-9

OPTIMAL = "optimal"


@dataclass(frozen=True)
class LpProblem:
    """Maximize ``objective @ x`` subject to ``<=`` rows and the box ``0 <= x <= hi``.

    Rows are kept as given: tuples, or 1-D float arrays.  NaN or infinite data raises ``ValueError``.
    """

    objective: tuple
    constraints: tuple  # ((coeffs, rhs), ...) rows, all <= sense, rhs finite and >= 0
    bounds: tuple  # ((0, hi), ...) per variable; hi finite

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(self.objective))
        object.__setattr__(self, "constraints", tuple(map(tuple, self.constraints)))
        object.__setattr__(self, "bounds", tuple(tuple(b) for b in self.bounds))
        n = len(self.objective)
        if len(self.bounds) != n:
            raise ValueError("bounds length must match objective length")
        for j, c in enumerate(self.objective):
            if not -math.inf < c < math.inf:
                raise ValueError(f"objective coefficient {j} must be finite, got {float(c)!r}")
        for i, (row, rhs) in enumerate(self.constraints):
            if len(row) != n:
                raise ValueError("constraint row length must match objective length")
            if not 0 <= rhs < math.inf:
                raise ValueError(f"right-hand side {i} must be finite and >= 0, got {rhs!r}")
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


def _check_finite(rows) -> None:
    """Raise a ValueError naming the first coefficient of ``rows`` that is NaN or infinite."""
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not -math.inf < v < math.inf:
                raise ValueError(f"constraint {i} coefficient {j} must be finite, got {float(v)!r}")


def _leaving_row(rhs, coef, keys) -> int:
    """Position of the minimum ratio ``rhs / coef``; ties go to the smallest key, a basis index."""
    if not len(rhs):
        raise AssertionError("no leaving row: the box bounds every LpProblem")
    if rhs.dtype != object:
        return np.lexsort((keys, rhs / coef))[0]
    # integer rows: row i's positive divisor cancels from rhs_i / coef_i, and
    # the ratios are compared by cross-multiplying
    best = 0
    for i in range(1, len(rhs)):
        left, right = rhs[i] * coef[best], rhs[best] * coef[i]
        if left < right or left == right and keys[i] < keys[best]:
            best = i
    return best


def _pivot(tableau, row: int, col: int, hit) -> None:
    """Divide the pivot row, then clear ``col`` from the other rows in ``hit``, those with an entry in it."""
    tableau[row] /= tableau[row, col]
    rows = hit[hit != row]
    tableau[rows] -= np.outer(tableau[rows, col], tableau[row])


def _pivot_integer(tableau, bound, divisor: int, row: int, col: int, hit) -> int:
    """Integer-preserving pivot; returns the new common divisor, the pivot element ``p``.

    Every row in ``hit``, those with an entry in ``col``, becomes
    ``(p T_i - T_i[col] T_row) // divisor``, an exact division by Sylvester's
    identity; the other rows, the unwritten bound rows ``bound`` among them,
    are only rescaled, and the pivot row keeps its integers.
    """
    p, kept = tableau[row, col], tableau[row].copy()
    factors = tableau[hit, col]
    tableau *= p
    tableau[hit] -= np.outer(factors, kept)
    tableau //= divisor
    tableau[row] = kept
    bound *= p
    bound //= divisor
    return p


def _flip(tableau, bound, divisor, j: int, col: int, other: int, hit) -> int:
    """Pivot on unwritten bound row ``j``, ``col`` entering and ``other`` leaving; returns the new divisor.

    Row j is a in columns ``col`` and ``other`` (x_j and s_j, in either
    order), b on the right and 0 elsewhere, so elimination changes only those
    three columns of the rows in ``hit``, those with an entry in ``col``.  In
    float mode a is 1.0, so the divided row is the row itself, and
    T - T * 1.0 is +0.0 exactly; exact mode pivots as ``_pivot_integer``
    does, rescaling the other rows only if a is not the divisor.
    """
    a, b = bound[j]
    factors = tableau[hit, col]
    if tableau.dtype != object:
        tableau[hit, col] = 0.0
        tableau[hit, other] -= factors
        tableau[hit, -1] -= factors * b
        return divisor
    block = np.ix_(hit, [col, other, -1])
    cleared = (tableau[block] * a - np.outer(factors, (a, a, b))) // divisor
    if a != divisor:
        tableau *= a
        tableau //= divisor
        bound *= a
        bound //= divisor
        bound[j] = a, b
    tableau[block] = cleared
    return a


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
        try:
            rows = [_integer_row((*row, rhs)) for row, rhs in problem.constraints]
        except (ValueError, OverflowError):  # Fraction of a NaN or an infinity
            _check_finite(row for row, _ in problem.constraints)
            raise
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
    if not exact and not np.isfinite(a).all():
        _check_finite(a)

    # columns: the variables, one slack per LP row (the constraints, then the
    # bounds), the right-hand side; rows: the constraints, the objective's
    # reduced costs, then the bound rows as written.  Unwritten bound row j is
    # bound[j] = (a, b): a in columns x_j and s_j, b on the right, 0
    # elsewhere.  Rows are zeroed as they come into use, so memory past the
    # written rows is never touched (np.zeros would clear reused memory).
    tableau = np.empty((m + 1, n + m + 1), dtype=dtype)
    tableau[: n_rows + 1] = 0
    tableau[:n_rows, :n] = a
    tableau[np.arange(n_rows), n + np.arange(n_rows)] = scale[:n_rows]
    tableau[:n_rows, -1] = rhs[:n_rows]
    tableau[n_rows, :n] = -cost
    bound = np.stack([scale[n_rows:m], rhs[n_rows:m]], axis=1)
    basis = np.full(m + 1, n + m)  # the objective row has no basic variable
    basis[:n_rows] = n + np.arange(n_rows)
    bound_basis, written = n + n_rows + np.arange(n), np.zeros(n, dtype=bool)

    # true entries of row i are T[i, j] / (denominator * s_i), both factors
    # positive; exact mode makes denominator the last pivot element, and s_i
    # is 1 from row i's first pivot on
    denominator, pivots, stored = 1, 0, n_rows + 1
    # devex reference weights (Harris 1973), one per column
    weights, zero_step = np.ones(n + m), False
    while (improving := tableau[n_rows, :-1] < -tol).any():
        if zero_step:  # the last pivot's leaving row had rhs 0: Bland's first improving column
            col = int(improving.argmax())
        else:  # devex: the largest d_j^2 / w_j among reduced costs d_j, ties to the smallest j
            cols = improving.nonzero()[0]
            d = (tableau[n_rows, cols] / (denominator * scale[m])).astype(float, copy=False)
            col = int(cols[(d * d / weights[cols]).argmax()])
        column = tableau[:stored, col]
        hit = column.nonzero()[0]  # the written rows with an entry in col
        rows = hit[column[hit] > tol]
        j = col if col < n else col - n - n_rows  # x_j or s_j enters: bound row j has an entry
        if unwritten := 0 <= j and not written[j]:
            # bound row j joins the ratio test from the first unused row,
            # which stays written unless the row flips
            other = bound_basis[j]  # row j's basic variable, the other of x_j and s_j
            tableau[stored] = 0
            tableau[stored, [col, other, -1]] = bound[j, [0, 0, 1]]
            basis[stored] = other
            rows = np.concatenate((rows, [stored]))
        row = rows[_leaving_row(tableau[rows, -1], tableau[rows, col], basis[rows])]
        zero_step, w = tableau[row, -1] == 0, weights[col]
        if row == stored:  # a bound flip: x_j and s_j trade places in row j
            denominator = _flip(tableau[:stored], bound, denominator, j, col, other, hit)
            bound_basis[j] = col
            weights[other] = max(w, 1.0)  # row j's entries are equal: a / a = 1
        else:
            # the leaving variable's entry in row is 1: it gets max(w / a_row,col^2, 1)
            weights[basis[row]] = 1.0
            if unwritten:  # this pivot changes bound row j: keep it written
                written[j] = True
                hit = np.concatenate((hit, [stored]))
                stored += 1
            if exact:
                denominator = _pivot_integer(tableau[:stored], bound, denominator, row, col, hit)
            else:
                _pivot(tableau[:stored], row, col, hit)
            basis[row] = col
            # w_k = max(w_k, (a_row,k / a_row,col)^2 w) over the pivot row's nonzero entries
            entries = tableau[row, :-1]
            k = entries.nonzero()[0]
            ratio = (entries[k] / entries[col]).astype(float, copy=False)
            weights[k] = np.maximum(weights[k], ratio * ratio * w)
        pivots += 1

    # x = X / denominator, since a row with a variable basic has been a pivot
    # row (s_i = 1); the check compares positive multiples of both sides of
    # every LP row, the constraints and then the upper bounds
    X = np.zeros(n, dtype=dtype)
    structural = basis[:stored] < n
    X[basis[:stored][structural]] = tableau[:stored, -1][structural]
    flipped = ~written & (bound_basis < n)  # x_j basic in unwritten row j: x_j = hi_j
    X[flipped] = bound[flipped, 1]
    excess = np.concatenate([a @ X, X * scale[n_rows:m]]) - rhs * denominator
    if (X < -tol).any() or (excess > tol).any():
        raise AssertionError("solution violates x >= 0, a constraint or an upper bound")
    if exact:
        x = tuple(Fraction(v, denominator) for v in X)
        return LpSolution(x, Fraction(tableau[n_rows, -1], denominator * scale[m]), pivots=pivots)
    # summed left to right: np.sum's pairwise order would move the last bits
    return LpSolution(tuple(X.tolist()), float(sum((cost * X).tolist())), pivots=pivots)
