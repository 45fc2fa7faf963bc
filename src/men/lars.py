"""Least angle regression with the lasso modification, in covariance mode.

Solves one augmented problem per projection column. Variables enter the
active set by largest absolute correlation; coefficients advance along
the equiangular direction until the next variable ties or an active
coefficient crosses zero (which removes it, keeping the path a lasso
solution path).

The solver works on the covariance form of the problem (Efron, Hastie,
Johnstone & Tibshirani 2004, Least Angle Regression, section 7): the
Gram matrix G = xstar^T xstar + ridge I and b = xstar^T ystar. Correlations
are c = b - G[:, A] w_A, the equiangular projections a = G[:, A] delta,
and an entering variable j reads G[A, j] and G[j, j], so no step touches
the n' x p design. The design is the same for every projection column, so
a fit forms G once and all d columns share it (AugmentedProblem.column);
only b differs. The design is read once per breakpoint, for the objective
from an exact residual over the active columns. The active-set Gram
inverse is maintained incrementally: a Schur-complement bordering step on
entry, a complementary-block downdate on removal, with inversion of
G[A, A] as the fallback.

No segment gathers from G or the design: the state keeps the active
rows of G and active columns of the design in blocks (LarsState), and
c_hat is computed once per segment.

Per segment, `direction` returns the equiangular move, `step_length` and
`drop_length` take it, and `lars_step` advances the state by the shorter
distance. The path is piecewise linear; `solve_column` alone records a
breakpoint at the end of every segment, column-wise (CoefficientPath).
Event kinds: "init" (all-zero start), "enter" (a variable joined at the
segment start), "drop" (an active coefficient hit zero), "cont"
(post-drop segment in which nothing entered).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import checked_value
from .errors import NumericalError
from .transform import AugmentedProblem

__all__ = [
    "LarsState",
    "Direction",
    "EVENTS",
    "Breakpoint",
    "CoefficientPath",
    "correlations",
    "initial_state",
    "extend_active",
    "direction",
    "step_length",
    "drop_length",
    "lars_step",
    "gram_update",
    "gram_downdate",
    "solve_column",
    "report_column",
]

# path is considered to have reached least squares below this fraction of
# the initial top correlation
EARLY_STOP_REL = 1e-12
# Schur pivots at or below this trigger a full re-factorization
PIVOT_MIN = 1e-12
# step candidates below this fraction of the full step count as non-positive
# (guards zero-length re-entry of a variable dropped at this breakpoint)
STEP_FLOOR_REL = 1e-12
_PLUS_MINUS = np.array([[1.0], [-1.0]])
# a path row's event code indexes EVENTS
EVENTS = ("init", "enter", "drop", "cont")
_INIT, _ENTER, _DROP, _CONT = range(len(EVENTS))
_ROW = np.dtype([("loop", np.int64), ("event", np.int8), ("variable", np.int64),
                 ("entered", np.int64), ("c_hat", np.float64), ("l1_norm", np.float64),
                 ("objective", np.float64)])


@dataclass
class Direction:
    """Equiangular move for the current active set.

    delta:      signed per-unit coefficient increments over the active set
    a:          G[:, A] delta, the projections of every augmented column
                on the unit equiangular vector they span over A
    normalizer: common inner product of signed active columns with u
    """

    delta: np.ndarray
    a: np.ndarray
    normalizer: float


@dataclass
class LarsState:
    """Mutable solver state for one column solve.

    The active set fills blocks of min(K, p) slots in entry order:
    `index[:m]`, `sign[:m]`, `rows[:m]` = G[A] (C order) and `cols[:, :m]`
    = xstar[:, A] (F order). Each slice has the values and layout of the
    fancy-indexed copy it replaces, so every product over it is the same
    BLAS call with the same bits, and the copying happens once per entry
    rather than once per segment. `c_hat` is the common |correlation| of
    the active set (of all variables while it is empty). inactive is the
    boolean mask of the variables not in the active set.
    """

    coeffs: np.ndarray
    gram_inv: np.ndarray | None
    correlations: np.ndarray
    inactive: np.ndarray
    c_hat: float
    index: np.ndarray
    sign: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    m: int = 0
    loop: int = 0

    @property
    def active(self) -> list[int]:
        return self.index[: self.m].tolist()


@dataclass(slots=True)
class Breakpoint:
    """The path state at the end of one segment, built from its CoefficientPath.

    `active` holds the active variables' int64 indices in entry order and
    `values` their coefficients; every other coefficient of the length-`p`
    vector is +0.0, so `coefficients` rebuilds the dense vector exactly.
    `entered` is the variable that entered in the segment, or -1.
    """

    loop: int
    event: str
    variable: int
    entered: int
    active: np.ndarray
    values: np.ndarray
    p: int
    c_hat: float
    l1_norm: float
    objective: float

    @property
    def coefficients(self) -> np.ndarray:
        dense = np.zeros(self.p)
        dense[self.active] = self.values
        return dense


@dataclass
class CoefficientPath:
    """Breakpoints of one solve, in path order (first row is the init row),
    stored column-wise.

    rows:   one record per breakpoint: loop, event (an index into EVENTS),
            variable, entered (the variable that entered in the segment, a
            drop row's included, or -1), c_hat, l1_norm and objective
    values: every breakpoint's active coefficients, back to back

    Active sets are replayed from the rows: an entry appends its variable,
    then a drop removes its own and keeps the order, as lars_step shifts
    its blocks. `breakpoints` builds Breakpoint objects on every read.
    """

    n_variables: int
    rows: np.ndarray
    values: np.ndarray

    def active_sets(self) -> Iterator[list[int]]:
        """Each breakpoint's active variables in entry order: one list,
        updated in place between yields."""
        active: list[int] = []
        for event, variable, entered in self.rows[["event", "variable", "entered"]].tolist():
            if entered >= 0:
                active.append(entered)
            if event == _DROP:
                active.remove(variable)
            yield active

    @property
    def breakpoints(self) -> list[Breakpoint]:
        """Every breakpoint as a new Breakpoint, holding copies of its arrays."""
        out, start = [], 0
        for row, active in zip(self.rows.tolist(), self.active_sets()):
            loop, event, variable, entered, c_hat, l1_norm, objective = row
            stop = start + len(active)
            out.append(Breakpoint(loop, EVENTS[event], variable, entered,
                                  np.array(active, dtype=np.int64), self.values[start:stop].copy(),
                                  self.n_variables, c_hat, l1_norm, objective))
            start = stop
        return out

    def final_coefficients(self) -> np.ndarray:
        for active in self.active_sets():  # to the last breakpoint's
            pass
        dense = np.zeros(self.n_variables)
        dense[active] = self.values[self.values.size - len(active) :]
        return dense


def correlations(problem: AugmentedProblem, coeffs: np.ndarray) -> np.ndarray:
    """Current correlation vector xstar^T (ystar - xstar coeffs) - ridge coeffs.

    This is the negative objective gradient (ridge rows included) up to a
    dropped constant factor of two. The residual form is the reference
    the solver's covariance-form correlations are checked against.
    """
    residual = problem.ystar - problem.xstar @ coeffs
    return problem.xstar.T @ residual - problem.ridge * coeffs


def _update_correlations(state: LarsState, problem: AugmentedProblem) -> None:
    """Correlations in covariance form, b - G[:, A] w_A, and their c_hat."""
    index = state.index[: state.m]
    state.correlations = problem.xty - state.coeffs[index] @ state.rows[: state.m]
    active = state.correlations[index] if state.m else state.correlations
    state.c_hat = float(np.abs(active).max(initial=0.0))


def initial_state(problem: AugmentedProblem, K: int | None = None) -> LarsState:
    """The all-zero start; the active blocks hold min(K, p) variables (p without K)."""
    p = problem.n_variables
    size = p if K is None else min(K, p)
    return LarsState(
        coeffs=np.zeros(p),
        gram_inv=None,
        correlations=problem.xty.copy(),
        inactive=np.ones(p, dtype=bool),
        c_hat=float(np.max(np.abs(problem.xty), initial=0.0)),
        index=np.empty(size, dtype=np.intp),
        sign=np.empty(size),
        rows=np.empty((size, p)),
        cols=np.empty((problem.xstar.shape[0], size), order="F"),
    )


def gram_update(gram_inv: np.ndarray | None, b: np.ndarray, d: float) -> np.ndarray:
    """Grow the Gram inverse by one column via the Schur complement.

    b holds the inner products of the previous active columns with the
    new one, d the new column's squared norm. Cost O(m^2) against O(m^3)
    for direct inversion. Raises NumericalError when the Schur pivot is
    at or below the threshold (numerically dependent column); callers
    fall back to a full re-factorization.
    """
    if gram_inv is None or gram_inv.size == 0:
        if d <= PIVOT_MIN:
            raise NumericalError(f"new active column has squared norm {d:.3e}")
        return np.array([[1.0 / d]])
    gb = gram_inv @ b
    schur = float(d - b @ gb)
    if schur <= PIVOT_MIN:
        raise NumericalError(
            f"Schur complement {schur:.3e} too small; active columns nearly dependent"
        )
    m = gram_inv.shape[0]
    out = np.empty((m + 1, m + 1))
    out[:m, :m] = gram_inv + np.outer(gb, gb) / schur
    out[:m, m] = -gb / schur
    out[m, :m] = -gb / schur
    out[m, m] = 1.0 / schur
    return out


def gram_downdate(gram_inv: np.ndarray, pos: int) -> np.ndarray:
    """Remove one variable from the Gram inverse by complementary blocks.

    Inverse identity: removing row/column pos from G corresponds to
    M' = M_rest - outer(M[:,pos], M[pos,:]) / M[pos,pos]. Raises
    NumericalError on a tiny pivot; callers re-factorize instead.
    """
    pivot = gram_inv[pos, pos]
    if abs(pivot) <= PIVOT_MIN:
        raise NumericalError(f"downdate pivot {pivot:.3e} too small")
    keep = [i for i in range(gram_inv.shape[0]) if i != pos]
    col = gram_inv[keep, pos]
    return gram_inv[np.ix_(keep, keep)] - np.outer(col, col) / pivot


def _refactor_gram_inverse(problem: AugmentedProblem, active: list[int]) -> np.ndarray:
    try:
        return np.linalg.inv(problem.gram[np.ix_(active, active)])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "active-set Gram matrix is singular; set lambda2 > 0 so the ridge "
            "term keeps the augmented columns independent"
        ) from exc


def extend_active(state: LarsState, problem: AugmentedProblem) -> int | None:
    """Move the inactive variable with the largest |correlation| into the
    active set and grow the Gram inverse.

    Ties go to the smallest index. Returns None when every inactive
    correlation is zero (the path has nothing left to add).
    """
    strengths = np.where(state.inactive, np.abs(state.correlations), 0.0)
    top = float(strengths.max(initial=0.0))
    if top <= 0.0:
        return None
    # correlations within 1e-12 (relative) of the maximum count as tied;
    # ties resolve to the smallest variable index
    best = int((strengths >= top * (1.0 - 1e-12)).argmax())  # the first True
    gram = problem.gram
    m = state.m
    try:
        state.gram_inv = gram_update(
            state.gram_inv, state.rows[:m, best].copy(), float(gram[best, best])
        )
    except NumericalError:
        state.gram_inv = _refactor_gram_inverse(problem, state.active + [best])
    c_best = abs(float(state.correlations[best]))
    state.c_hat = max(state.c_hat, c_best) if m else c_best
    state.index[m] = best
    state.sign[m] = 1.0 if state.correlations[best] > 0 else -1.0
    state.rows[m] = gram[best]
    state.cols[:, m] = problem.xstar[:, best]
    state.m = m + 1
    state.inactive[best] = False
    return best


def direction(state: LarsState, problem: AugmentedProblem) -> Direction:
    """Equiangular direction for the current active set.

    Every signed active column has the same inner product (the
    normalizer) with the unit vector u = xstar[:, A] delta.
    """
    if not state.m:
        raise NumericalError("direction requested with an empty active set")
    signs = state.sign[: state.m]
    ginv_s = state.gram_inv @ signs
    quad = float(signs @ ginv_s)
    if not np.isfinite(quad) or quad <= 0.0:
        raise NumericalError(
            "active-set Gram inverse is not positive definite; set lambda2 > 0 "
            "to keep the augmented columns independent"
        )
    normalizer = 1.0 / np.sqrt(quad)
    delta = normalizer * ginv_s
    return Direction(
        delta=delta,
        a=delta @ state.rows[: state.m],  # G is symmetric: G[:, A] delta
        normalizer=normalizer,
    )


def _positive_min(values: np.ndarray, floor: float, where: np.ndarray | None = None) -> float:
    """Smallest finite value above floor (and where `where` holds); +inf when none."""
    keep = values > floor
    if where is not None:
        keep &= where
    # the ufunc's own reduce: np.min's wrapper takes a slower path for where=
    return float(np.minimum.reduce(values, axis=None, where=keep, initial=np.inf))


def step_length(state: LarsState, d: Direction) -> float:
    """Distance along d to the next correlation tie (or the full least-squares step).

    Minimum over the strictly positive candidates
    (chat - c_j)/(normalizer - a_j) and (chat + c_j)/(normalizer + a_j)
    across inactive variables; the full step chat/normalizer when no
    candidate is positive, and always capped by it.
    """
    chat = state.c_hat
    full = chat / d.normalizer
    floor = STEP_FLOOR_REL * full
    # row 0 holds (chat - c)/(normalizer - a), row 1 (chat + c)/(normalizer + a):
    # x - (-1.0 * y) rounds exactly as x + y does
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = (chat - _PLUS_MINUS * state.correlations) / (d.normalizer - _PLUS_MINUS * d.a)
    return float(min(_positive_min(cand, floor, state.inactive), full))


def drop_length(state: LarsState, d: Direction) -> tuple[float, int]:
    """Smallest positive step along d at which an active coefficient
    crosses zero, and that coefficient's active-list position (the
    smallest variable index among exact ties).

    Returns (inf, -1) when every active coefficient moves away from zero.
    """
    index = state.index[: state.m]
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = -state.coeffs[index] / d.delta
    rho2 = _positive_min(cand, 0.0)
    if rho2 == np.inf:
        return rho2, -1
    hits = (cand == rho2).nonzero()[0]
    return rho2, int(hits[np.argmin(index[hits])])


def _objective(problem: AugmentedProblem, state: LarsState) -> float:
    """Squared residual norm of the augmented data, exact over the active
    columns (not the cancellation-prone y'y - 2 b'w + w'Gw) plus ridge ||w_A||^2."""
    values = state.coeffs[state.index[: state.m]]
    residual = problem.ystar - state.cols[:, : state.m] @ values
    return float(residual @ residual) + problem.ridge * float(values @ values)


def _record(
    rows: list[tuple], values: list[np.ndarray], state: LarsState, problem: AugmentedProblem,
    event: int, variable: int = -1, entered: int | None = None,
) -> None:
    values.append(state.coeffs[state.index[: state.m]])
    rows.append((
        state.loop, event, variable, -1 if entered is None else entered, state.c_hat,
        # over the dense vector: a sum over the values alone may round differently
        float(np.abs(state.coeffs).sum()), _objective(problem, state),
    ))


def lars_step(state: LarsState, problem: AugmentedProblem) -> int | None:
    """Advance one path segment: direction, distances, coefficient update.

    Returns the variable a lasso drop removed when the zero crossing
    comes first, otherwise None. Records nothing; solve_column does.
    """
    d = direction(state, problem)
    rho1 = step_length(state, d)
    rho2, pos = drop_length(state, d)
    dropping = rho2 <= rho1
    rho = rho2 if dropping else rho1
    if not np.isfinite(rho) or rho < 0.0:
        raise NumericalError(f"nonfinite or negative step length {rho!r}")
    index = state.index[: state.m]
    state.coeffs[index] += rho * d.delta
    if not np.isfinite(state.coeffs[index]).all():
        raise NumericalError("nonfinite coefficients after path advance")
    state.loop += 1
    dropped = None
    if dropping:
        dropped = int(index[pos])
        state.coeffs[dropped] = 0.0
        state.inactive[dropped] = True
        m = state.m - 1
        for block in (state.index, state.sign, state.rows):
            block[pos:m] = block[pos + 1 : m + 1]
        state.cols[:, pos:m] = state.cols[:, pos + 1 : m + 1]
        state.m = m
        try:
            state.gram_inv = gram_downdate(state.gram_inv, pos)
        except NumericalError:
            state.gram_inv = _refactor_gram_inverse(problem, state.active)
    _update_correlations(state, problem)
    return dropped


def solve_column(
    problem: AugmentedProblem, K: int
) -> tuple[np.ndarray, CoefficientPath]:
    """Run the path until K entry events have occurred or least squares is
    reached; returns the solved coefficients W* and the recorded path.

    `problem` holds one target column. Its Gram matrix is formed on first
    use, or shared when the problem came from AugmentedProblem.column.
    Each lars_step segment is recorded here as a drop, else an enter,
    else a continuation; a drop row also names the variable that entered
    in its segment, if any.

    The result has at most K nonzeros (drop events reduce the count but
    never refund the entry budget). A K that is not an int is a config DataError.
    """
    K = checked_value("K", K, "int")
    if K < 1:
        raise NumericalError(f"K must be >= 1, got {K}")
    state = initial_state(problem, K)
    rows: list[tuple] = []
    values: list[np.ndarray] = []
    _record(rows, values, state, problem, _INIT)
    c0 = state.c_hat  # where it is 0, extend_active finds nothing to add
    enters = 0
    dropped = None
    max_segments = 8 * problem.n_variables + 64
    for _ in range(max_segments):
        entered = None
        if dropped is None:  # the segment after a drop admits no variable
            entered = extend_active(state, problem)
            if entered is None:
                break
            enters += 1
        dropped = lars_step(state, problem)
        if dropped is not None:
            _record(rows, values, state, problem, _DROP, dropped, entered)
        elif entered is not None:
            _record(rows, values, state, problem, _ENTER, entered, entered)
        else:
            _record(rows, values, state, problem, _CONT)
        if state.c_hat <= EARLY_STOP_REL * c0:
            break
        if enters >= K:
            break
    else:
        raise NumericalError("path did not terminate within the segment budget")
    # packed once, into the path's two arrays
    path = CoefficientPath(problem.n_variables, np.array(rows, dtype=_ROW), np.concatenate(values))
    return state.coeffs, path


def report_column(
    wstar: np.ndarray, problem: AugmentedProblem, *, double_shrinkage_correction: bool = False
) -> np.ndarray:
    """Map solved coefficients W* to the reported projection column.

    Default is W = W*/sqrt(1+lambda2) (the convention consistent with the
    augmented objective); the correction flag instead multiplies by
    sqrt(1+lambda2) to undo the elastic net's double shrinkage.
    """
    if double_shrinkage_correction:
        return wstar * problem.scale
    return wstar / problem.scale
