"""Least angle regression with the lasso modification, in covariance mode.

Solves one augmented problem per projection column. Variables enter the
active set by largest absolute correlation; coefficients advance along
the equiangular direction until the next variable ties or an active
coefficient crosses zero (which removes it, keeping the path a lasso
solution path).

The solver works on the covariance form of the problem (Efron, Hastie,
Johnstone & Tibshirani 2004, Least Angle Regression, section 7): the
Gram matrix G = xstar^T xstar and b = xstar^T ystar. Correlations are
c = b - G[:, A] w_A, the equiangular projections a = G[:, A] delta, and
an entering variable j reads G[A, j] and G[j, j], so no step touches the
(n' + p) x p design. The elastic-net augmented design is the same for
every projection column, so a fit forms G once and all d columns share
it (AugmentedProblem.column); only b differs. The design is read once
per breakpoint, for the objective from an exact residual over the active
columns. The active-set Gram inverse is maintained incrementally: a
Schur-complement bordering step on entry, a complementary-block downdate
on removal, with inversion of G[A, A] as the fallback.

The path is piecewise linear; a breakpoint is recorded at the end of
every segment. Event kinds: "init" (all-zero start), "enter" (a variable
joined at the segment start), "drop" (an active coefficient hit zero),
"cont" (post-drop segment in which nothing entered).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .transform import AugmentedProblem

__all__ = [
    "LarsState",
    "Direction",
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


@dataclass
class Direction:
    """Equiangular move for the current active set.

    delta:      signed per-unit coefficient increments over the active set
    a:          G[:, A] delta, the projections xstar^T u of every variable
                on the unit equiangular vector u = xstar[:, A] delta
    normalizer: common inner product of signed active columns with u
    """

    delta: np.ndarray
    a: np.ndarray
    normalizer: float


@dataclass
class LarsState:
    """Mutable solver state for one column solve.

    inactive is the boolean mask of the variables not in `active`.
    """

    active: list[int]
    signs: list[float]
    coeffs: np.ndarray
    gram_inv: np.ndarray | None
    correlations: np.ndarray
    inactive: np.ndarray
    loop: int = 0
    last_direction: Direction | None = None

    @property
    def c_hat(self) -> float:
        """Common absolute correlation of the active set (0 when empty)."""
        if not self.active:
            return float(np.max(np.abs(self.correlations), initial=0.0))
        return float(np.max(np.abs(self.correlations[self.active])))


@dataclass
class Breakpoint:
    loop: int
    event: str
    variable: int
    coefficients: np.ndarray
    c_hat: float
    l1_norm: float
    objective: float
    active: tuple[int, ...]


@dataclass
class CoefficientPath:
    """Breakpoints of one solve, in path order (first row is the init row)."""

    n_variables: int
    breakpoints: list[Breakpoint] = field(default_factory=list)

    def final_coefficients(self) -> np.ndarray:
        return self.breakpoints[-1].coefficients


def correlations(problem: AugmentedProblem, coeffs: np.ndarray) -> np.ndarray:
    """Current correlation vector xstar^T (ystar - xstar coeffs).

    This is the negative objective gradient up to a dropped constant
    factor of two. The residual form is the reference the solver's
    covariance-form correlations are checked against.
    """
    residual = problem.ystar - problem.xstar @ coeffs
    return problem.xstar.T @ residual


def _gram_correlations(problem: AugmentedProblem, state: LarsState) -> np.ndarray:
    """Correlations in covariance form, b - G[:, A] w_A."""
    return problem.xty - state.coeffs[state.active] @ problem.gram[state.active]


def initial_state(problem: AugmentedProblem) -> LarsState:
    p = problem.n_variables
    return LarsState(
        active=[],
        signs=[],
        coeffs=np.zeros(p),
        gram_inv=None,
        correlations=problem.xty.copy(),
        inactive=np.ones(p, dtype=bool),
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
            "rows keep the augmented columns independent"
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
    best = int(np.flatnonzero(strengths >= top * (1.0 - 1e-12))[0])
    gram = problem.gram
    try:
        state.gram_inv = gram_update(
            state.gram_inv, gram[state.active, best], float(gram[best, best])
        )
    except NumericalError:
        state.gram_inv = _refactor_gram_inverse(problem, state.active + [best])
    state.active.append(best)
    state.inactive[best] = False
    state.signs.append(1.0 if state.correlations[best] > 0 else -1.0)
    return best


def direction(state: LarsState, problem: AugmentedProblem) -> Direction:
    """Equiangular direction for the current active set.

    Every signed active column has the same inner product (the
    normalizer) with the unit vector u = xstar[:, A] delta.
    """
    if not state.active:
        raise NumericalError("direction requested with an empty active set")
    signs = np.asarray(state.signs)
    ginv_s = state.gram_inv @ signs
    quad = float(signs @ ginv_s)
    if not np.isfinite(quad) or quad <= 0.0:
        raise NumericalError(
            "active-set Gram inverse is not positive definite; set lambda2 > 0 "
            "to keep the augmented columns independent"
        )
    normalizer = 1.0 / np.sqrt(quad)
    delta = normalizer * ginv_s
    result = Direction(
        delta=delta,
        a=delta @ problem.gram[state.active],  # G is symmetric: G[:, A] delta
        normalizer=normalizer,
    )
    state.last_direction = result
    return result


def _positive_min(values: np.ndarray, floor: float) -> float:
    """Smallest finite value above floor; +inf when there is none."""
    return float(np.min(values, where=np.isfinite(values) & (values > floor), initial=np.inf))


def step_length(state: LarsState, problem: AugmentedProblem) -> float:
    """Distance to the next correlation tie (or the full least-squares step).

    Minimum over the strictly positive candidates
    (chat - c_j)/(normalizer - a_j) and (chat + c_j)/(normalizer + a_j)
    across inactive variables; the full step chat/normalizer when no
    candidate is positive, and always capped by it.
    """
    if state.last_direction is None:
        raise NumericalError("step_length requires a computed direction")
    d = state.last_direction
    chat = state.c_hat
    full = chat / d.normalizer
    c = state.correlations[state.inactive]
    a = d.a[state.inactive]
    with np.errstate(divide="ignore", invalid="ignore"):
        candidates = np.concatenate(
            ((chat - c) / (d.normalizer - a), (chat + c) / (d.normalizer + a))
        )
    return float(min(_positive_min(candidates, STEP_FLOOR_REL * full), full))


def drop_length(state: LarsState) -> float:
    """Smallest positive step at which an active coefficient crosses zero.

    Returns +inf when every active coefficient moves away from zero.
    """
    if state.last_direction is None:
        raise NumericalError("drop_length requires a computed direction")
    w = state.coeffs[state.active]
    delta = state.last_direction.delta
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = -w / delta
    return _positive_min(cand, 0.0)


def _drop_position(state: LarsState, rho2: float) -> int:
    """Active-list position of the coefficient crossing zero at rho2
    (smallest variable index among exact ties). rho2 is finite and is one
    of these candidates, as drop_length took it from the same state."""
    w = state.coeffs[state.active]
    delta = state.last_direction.delta
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = -w / delta
    hits = np.flatnonzero(cand == rho2)
    return int(hits[np.argmin(np.asarray(state.active)[hits])])


def _objective(problem: AugmentedProblem, state: LarsState) -> float:
    """Squared residual norm, from the design's active columns (exact
    rather than the cancellation-prone y'y - 2 b'w + w'Gw)."""
    residual = problem.ystar - problem.xstar[:, state.active] @ state.coeffs[state.active]
    return float(residual @ residual)


def _record(
    path: CoefficientPath,
    state: LarsState,
    problem: AugmentedProblem,
    event: str,
    variable: int,
) -> None:
    path.breakpoints.append(
        Breakpoint(
            loop=state.loop,
            event=event,
            variable=variable,
            coefficients=state.coeffs.copy(),
            c_hat=state.c_hat,
            l1_norm=float(np.abs(state.coeffs).sum()),
            objective=_objective(problem, state),
            active=tuple(state.active),
        )
    )


def lars_step(
    state: LarsState,
    problem: AugmentedProblem,
    path: CoefficientPath | None = None,
    entered: int | None = None,
) -> tuple[str, int]:
    """Advance one path segment: direction, distances, coefficient update.

    `entered` is the variable added at the start of this loop (None on a
    post-drop continuation segment). Returns the recorded (event,
    variable) pair: a lasso drop when the zero crossing comes first,
    otherwise the enter/cont segment end.
    """
    d = direction(state, problem)
    rho1 = step_length(state, problem)
    rho2 = drop_length(state)
    dropping = rho2 <= rho1
    rho = rho2 if dropping else rho1
    if not np.isfinite(rho) or rho < 0.0:
        raise NumericalError(f"nonfinite or negative step length {rho!r}")
    pos = _drop_position(state, rho2) if dropping else -1
    state.coeffs[state.active] += rho * d.delta
    if not np.all(np.isfinite(state.coeffs)):
        raise NumericalError("nonfinite coefficients after path advance")
    state.loop += 1
    if dropping:
        variable = state.active[pos]
        state.coeffs[variable] = 0.0
        del state.active[pos]
        del state.signs[pos]
        state.inactive[variable] = True
        try:
            state.gram_inv = gram_downdate(state.gram_inv, pos)
        except NumericalError:
            state.gram_inv = _refactor_gram_inverse(problem, state.active)
        event = "drop"
    elif entered is not None:
        event, variable = "enter", entered
    else:
        event, variable = "cont", -1
    state.correlations = _gram_correlations(problem, state)
    if path is not None:
        _record(path, state, problem, event, variable)
    return event, variable


def solve_column(
    problem: AugmentedProblem, K: int
) -> tuple[np.ndarray, CoefficientPath]:
    """Run the path until K entry events have occurred or least squares is
    reached; returns the solved coefficients W* and the recorded path.

    `problem` holds one target column. Its Gram matrix is formed on first
    use, or shared when the problem came from AugmentedProblem.column.

    The result has at most K nonzeros (drop events reduce the count but
    never refund the entry budget).
    """
    if K < 1:
        raise NumericalError(f"K must be >= 1, got {K}")
    state = initial_state(problem)
    path = CoefficientPath(n_variables=problem.n_variables)
    _record(path, state, problem, "init", -1)
    c0 = state.c_hat
    if c0 <= 0.0:
        return state.coeffs, path
    enters = 0
    pending_enter = True
    max_segments = 8 * problem.n_variables + 64
    for _ in range(max_segments):
        entered = None
        if pending_enter:
            entered = extend_active(state, problem)
            if entered is None:
                break
            enters += 1
        event, _ = lars_step(state, problem, path, entered)
        pending_enter = event != "drop"
        if state.c_hat <= EARLY_STOP_REL * c0:
            break
        if enters >= K:
            break
    else:
        raise NumericalError("path did not terminate within the segment budget")
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
