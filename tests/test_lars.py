"""The path solver: correlations, directions, steps, drops, Gram updates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from men.errors import NumericalError
from men.lars import (
    correlations,
    direction,
    drop_length,
    extend_active,
    gram_downdate,
    gram_update,
    initial_state,
    lars_step,
    report_column,
    solve_column,
    step_length,
)
from men.transform import AugmentedProblem

from oracles import (
    cd_lasso,
    check_breakpoints,
    fd_gradient,
    kkt_violation,
    lasso_objective,
    replay_path,
)


def plain_problem(X, y, scale=1.0):
    X = np.asarray(X, dtype=np.float64)
    return AugmentedProblem(
        xstar=X,
        ystar=np.asarray(y, dtype=np.float64),
        n_effective=X.shape[0],
        scale=scale,
    )


def random_problem(rng, n, p):
    return plain_problem(rng.normal(size=(n, p)), rng.normal(size=n))


class TestCorrelations:
    def test_identity_design(self):
        prob = plain_problem(np.eye(2), [3.0, 1.0])
        assert_allclose(correlations(prob, np.zeros(2)), [3.0, 1.0])

    def test_least_squares_orthogonality(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 6))
        y = rng.normal(size=6)
        w = np.linalg.solve(X, y)
        assert_allclose(correlations(plain_problem(X, y), w), np.zeros(6), atol=1e-10)

    def test_matches_finite_difference_gradient(self):
        rng = np.random.default_rng(1)
        prob = random_problem(rng, 9, 5)
        w = rng.normal(size=5)

        def half_sq(v):
            r = prob.ystar - prob.xstar @ v
            return 0.5 * float(r @ r)

        assert_allclose(
            correlations(prob, w), -fd_gradient(half_sq, w, step=1e-6), atol=1e-5
        )


class TestExtendActive:
    def test_picks_largest(self):
        prob = plain_problem(np.eye(2), [3.0, 1.0])
        state = initial_state(prob)
        assert extend_active(state, prob) == 0
        assert state.active == [0]
        assert state.signs == [1.0]

    def test_negative_correlation_sign(self):
        prob = plain_problem(np.eye(2), [-5.0, 2.0])
        state = initial_state(prob)
        assert extend_active(state, prob) == 0
        assert state.signs == [-1.0]

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            prob = random_problem(rng, 12, 10)
            state = initial_state(prob)
            picked = extend_active(state, prob)
            corr = np.abs(correlations(prob, np.zeros(10)))
            assert picked == int(np.argmax(corr))

    def test_all_zero_correlations(self):
        prob = plain_problem(np.eye(3), np.zeros(3))
        state = initial_state(prob)
        assert extend_active(state, prob) is None


class TestDirection:
    def test_single_unit_column(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=7)
        x /= np.linalg.norm(x)
        prob = plain_problem(x[:, None], 2.0 * x)
        state = initial_state(prob)
        extend_active(state, prob)
        d = direction(state, prob)
        u = prob.xstar[:, state.active] @ d.delta
        assert d.normalizer == pytest.approx(1.0)
        assert_allclose(u, state.signs[0] * x, atol=1e-12)

    def test_two_orthonormal_columns(self):
        prob = plain_problem(np.eye(2), [3.0, 3.0])
        state = initial_state(prob)
        extend_active(state, prob)
        state.active = [0, 1]
        state.signs = [1.0, 1.0]
        state.gram_inv = np.eye(2)
        d = direction(state, prob)
        signs = np.asarray(state.signs)
        assert_allclose(signs * d.delta, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
        assert d.normalizer == pytest.approx(1 / np.sqrt(2))

    def test_equiangular_identities(self):
        rng = np.random.default_rng(4)
        prob = random_problem(rng, 12, 8)
        state = initial_state(prob)
        for _ in range(4):
            entered = extend_active(state, prob)
            assert entered is not None
            lars_step(state, prob)
        d = direction(state, prob)
        u = prob.xstar[:, state.active] @ d.delta
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-10)
        for pos, j in enumerate(state.active):
            inner = float(prob.xstar[:, j] @ u)
            assert inner == pytest.approx(state.signs[pos] * d.normalizer, abs=1e-10)


class TestStepLengths:
    def test_orthogonal_design_first_step(self):
        prob = plain_problem(np.eye(2), [3.0, 1.0])
        state = initial_state(prob)
        extend_active(state, prob)
        assert step_length(state, direction(state, prob)) == pytest.approx(2.0)

    def test_full_step_when_no_inactive(self):
        prob = plain_problem(np.eye(2), [3.0, 1.0])
        state = initial_state(prob)
        extend_active(state, prob)
        lars_step(state, prob)
        extend_active(state, prob)
        d = direction(state, prob)
        assert step_length(state, d) == pytest.approx(state.c_hat / d.normalizer)

    def test_zero_denominator_skipped(self):
        # x1 = e0 + e1 has inner product 1 with the equiangular vector e0,
        # exactly the normalizer, so the first candidate divides by zero
        # and the positive-minimum rule must fall through to the second
        X = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        prob = plain_problem(X, [3.0, -1.0, 0.0])
        state = initial_state(prob)
        assert extend_active(state, prob) == 0
        d = direction(state, prob)
        assert d.a[1] == pytest.approx(d.normalizer)  # zero denominator case
        rho = step_length(state, d)
        assert rho == pytest.approx((3.0 + 2.0) / (1.0 + 1.0))  # second candidate

    def test_drop_length_no_crossing(self):
        prob = plain_problem(np.eye(2), [3.0, 1.0])
        state = initial_state(prob)
        extend_active(state, prob)
        assert drop_length(state, direction(state, prob)) == (np.inf, -1)

    def test_drop_length_linear_crossing(self):
        prob = plain_problem(np.eye(2), [3.0, 1.0])
        state = initial_state(prob)
        extend_active(state, prob)
        d = direction(state, prob)
        state.coeffs[state.active[0]] = 0.5
        d.delta[0] = -0.25
        assert drop_length(state, d) == (pytest.approx(2.0), 0)

    def test_drop_length_matches_crossing_scan(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, 10, 6)
        state = initial_state(prob)
        for _ in range(4):
            extend_active(state, prob)
            lars_step(state, prob)
        d = direction(state, prob)
        rho2, _ = drop_length(state, d)
        candidates = [
            -state.coeffs[j] / d.delta[pos]
            for pos, j in enumerate(state.active)
            if d.delta[pos] != 0.0 and -state.coeffs[j] / d.delta[pos] > 0.0
        ]
        expected = min(candidates) if candidates else np.inf
        assert rho2 == pytest.approx(expected)

    def test_drop_tie_goes_to_smallest_variable(self):
        # variables 2 then 1 enter with sign -1; at equal positive
        # coefficients both cross zero at exactly the same step, and the
        # smaller variable (active-list position 1) is the one dropped
        prob = plain_problem(np.eye(3), [0.0, -2.0, -3.0])
        state = initial_state(prob)
        assert [extend_active(state, prob), extend_active(state, prob)] == [2, 1]
        state.coeffs[[1, 2]] = 0.5
        state.correlations = correlations(prob, state.coeffs)
        d = direction(state, prob)
        assert d.delta[0] == d.delta[1] < 0.0  # an exact tie
        assert drop_length(state, d) == (pytest.approx(0.5 / -d.delta[0]), 1)
        assert lars_step(state, prob) == 1
        assert state.active == [2]
        assert state.coeffs[1] == 0.0 and state.inactive[1]

    def test_variable_zero_records_its_entry(self):
        _, path = solve_column(plain_problem(np.eye(2), [3.0, 1.0]), 2)
        assert [(bp.event, bp.variable) for bp in path.breakpoints] == [
            ("init", -1),
            ("enter", 0),
            ("enter", 1),
        ]


class TestLarsStep:
    def test_orthogonal_design_path(self):
        prob = plain_problem(np.eye(2), [3.0, 1.0])
        state = initial_state(prob)
        extend_active(state, prob)
        lars_step(state, prob)
        assert_allclose(state.coeffs, [2.0, 0.0], atol=1e-12)
        assert_allclose(state.correlations, [1.0, 1.0], atol=1e-12)
        extend_active(state, prob)
        lars_step(state, prob)
        assert_allclose(state.coeffs, [3.0, 1.0], atol=1e-12)
        assert_allclose(state.correlations, [0.0, 0.0], atol=1e-12)

    def test_zero_response_terminates(self):
        prob = plain_problem(np.eye(3), np.zeros(3))
        w, path = solve_column(prob, 3)
        assert np.array_equal(w, np.zeros(3))
        assert len(path.breakpoints) == 1

    def test_engineered_drop(self):
        # seed chosen so the unrestricted path contains a lasso drop; the
        # dropped coefficient is exactly zero at the breakpoint and the
        # state matches the coordinate-descent solution at lambda = c_hat
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 8))
        y = rng.normal(size=12)
        prob = plain_problem(X, y)
        _, path = solve_column(prob, 13)
        drops = [bp for bp in path.breakpoints if bp.event == "drop"]
        assert drops, "expected at least one drop event"
        for bp in drops:
            assert bp.coefficients[bp.variable] == 0.0
            lam = bp.c_hat
            ref = cd_lasso(X, y, lam)
            assert abs(ref[bp.variable]) <= 1e-10
            gap = abs(
                lasso_objective(X, y, bp.coefficients, lam)
                - lasso_objective(X, y, ref, lam)
            )
            assert gap <= 1e-6
            assert np.abs(bp.coefficients - ref).max() <= 1e-4


class TestGramUpdate:
    def test_two_by_two_closed_form(self):
        inv1 = gram_update(None, np.zeros(0), 2.0)
        assert_allclose(inv1, [[0.5]])
        inv2 = gram_update(inv1, np.array([1.0]), 2.0)
        assert_allclose(inv2, [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]], atol=1e-12)

    def test_orthogonal_column_block_diagonal(self):
        inv1 = np.array([[0.25]])
        inv2 = gram_update(inv1, np.array([0.0]), 5.0)
        assert_allclose(inv2, [[0.25, 0.0], [0.0, 0.2]], atol=1e-14)

    def test_dependent_column_raises(self):
        inv1 = gram_update(None, np.zeros(0), 1.0)
        with pytest.raises(NumericalError, match="Schur"):
            gram_update(inv1, np.array([1.0]), 1.0)  # duplicate unit column

    def test_grow_thirty_columns_against_dense_inverse(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 30))
        inv = None
        for m in range(30):
            b = X[:, :m].T @ X[:, m] if m else np.zeros(0)
            inv = gram_update(inv, b, float(X[:, m] @ X[:, m]))
            gram = X[:, : m + 1].T @ X[:, : m + 1]
            assert np.abs(gram @ inv - np.eye(m + 1)).max() <= 1e-8
            assert_allclose(inv, np.linalg.inv(gram), atol=1e-8)

    def test_downdate_matches_reduced_inverse(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(20, 6))
        gram = X.T @ X
        inv = np.linalg.inv(gram)
        for pos in range(6):
            keep = [i for i in range(6) if i != pos]
            reduced = gram_downdate(inv, pos)
            assert_allclose(reduced, np.linalg.inv(gram[np.ix_(keep, keep)]), atol=1e-9)


class TestSolveColumn:
    def test_full_budget_reaches_least_squares(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 7))
        y = rng.normal(size=20)
        w, _ = solve_column(plain_problem(X, y), 7)
        assert_allclose(w, np.linalg.lstsq(X, y, rcond=None)[0], atol=1e-8)

    def test_k_one_single_nonzero(self):
        rng = np.random.default_rng(9)
        prob = random_problem(rng, 15, 8)
        w, path = solve_column(prob, 1)
        assert np.count_nonzero(w) == 1
        corr = np.abs(correlations(prob, np.zeros(8)))
        assert np.flatnonzero(w)[0] == int(np.argmax(corr))
        assert len(path.breakpoints) == 2  # init row plus one enter event

    def test_sparsity_bound(self):
        rng = np.random.default_rng(10)
        for k in (1, 3, 5):
            prob = random_problem(rng, 25, 12)
            w, path = solve_column(prob, k)
            assert np.count_nonzero(w) <= k
            enters = sum(bp.event == "enter" for bp in path.breakpoints)
            assert enters <= k

    def test_breakpoints_match_cd_oracle(self):
        rng = np.random.default_rng(11)
        prob = random_problem(rng, 20, 10)
        w, path = solve_column(prob, 10)
        for bp in path.breakpoints:
            lam = bp.c_hat
            assert (
                kkt_violation(prob.xstar, prob.ystar, bp.coefficients, lam)
                <= 1e-8 * max(1.0, path.breakpoints[0].c_hat)
            )
            ref = cd_lasso(prob.xstar, prob.ystar, lam)
            gap = abs(
                lasso_objective(prob.xstar, prob.ystar, bp.coefficients, lam)
                - lasso_objective(prob.xstar, prob.ystar, ref, lam)
            )
            assert gap <= 1e-6
            assert np.abs(bp.coefficients - ref).max() <= 1e-4

    def test_breakpoint_invariants(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            prob = random_problem(rng, 18, 9)
            _, path = solve_column(prob, 9)
            assert check_breakpoints(prob, path) >= 2
            l1 = [bp.l1_norm for bp in path.breakpoints]
            assert all(b >= a - 1e-12 for a, b in zip(l1, l1[1:]))
            chat = [bp.c_hat for bp in path.breakpoints]
            assert all(b < a for a, b in zip(chat, chat[1:]))
            obj = [bp.objective for bp in path.breakpoints]
            assert all(a - b > -1e-12 for a, b in zip(obj, obj[1:]))

    def test_path_replay(self):
        rng = np.random.default_rng(13)
        prob = random_problem(rng, 16, 8)
        w, path = solve_column(prob, 8)
        assert_allclose(replay_path(path), w, atol=1e-10)
        assert np.array_equal(path.final_coefficients(), w)

    def test_zero_before_enter(self):
        rng = np.random.default_rng(14)
        prob = random_problem(rng, 16, 8)
        _, path = solve_column(prob, 8)
        first_enter = {}
        for idx, bp in enumerate(path.breakpoints):
            if bp.event == "enter" and bp.variable not in first_enter:
                first_enter[bp.variable] = idx
        for var, idx in first_enter.items():
            for bp in path.breakpoints[:idx]:
                assert bp.coefficients[var] == 0.0

    def test_report_column_scaling(self):
        rng = np.random.default_rng(15)
        prob = random_problem(rng, 10, 4)
        prob.scale = np.sqrt(1.5)
        w = rng.normal(size=4)
        assert_allclose(report_column(w, prob), w / np.sqrt(1.5))
        assert_allclose(
            report_column(w, prob, double_shrinkage_correction=True),
            w * np.sqrt(1.5),
        )

    def test_full_chain_stress(self):
        # solves on augmented problems from the whole transform chain,
        # including underdetermined designs (ridge rows keep the Gram
        # invertible), clamped spectra, drops, and post-drop segments
        from men.config import MenConfig
        from men.transform import build_augmented

        rng = np.random.default_rng(999)
        drops = conts = 0
        for trial in range(40):
            n = int(rng.integers(8, 22))
            p = int(rng.integers(4, 31))
            raw = rng.normal(size=(n, n))
            L = 0.5 * (raw + raw.T)
            L = L / np.abs(np.linalg.eigvalsh(L)).max() * float(rng.uniform(0.5, 4.0))
            cfg = MenConfig(
                alpha=float(rng.choice([0.0, 0.2, 1.0])),
                beta=float(rng.uniform(2.0, 100.0)),
                lambda2=float(rng.choice([0.01, 0.1, 1.0])),
            )
            X = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            prob = build_augmented(X, y, L, cfg)
            k = int(rng.integers(1, p + 3))
            w, path = solve_column(prob, k)
            assert np.count_nonzero(w) <= k
            check_breakpoints(prob, path)
            assert np.abs(replay_path(path) - w).max() <= 1e-10
            scale = max(1.0, path.breakpoints[0].c_hat)
            for bp in path.breakpoints:
                drops += bp.event == "drop"
                conts += bp.event == "cont"
                assert (
                    kkt_violation(prob.xstar, prob.ystar, bp.coefficients, bp.c_hat)
                    <= 1e-8 * scale
                )
        assert drops > 0 and conts > 0  # the stress actually hit those branches


def pipeline_problem(d=3):
    """Stage outputs of a small fit: data, targets, alignment, config, factor."""
    from men.alignment import accumulate_alignment, build_patch
    from men.config import MenConfig
    from men.datasets import make_informative_classes
    from men.indicator import build_indicator
    from men.transform import build_a, spectral_factor

    samples = make_informative_classes(12, 10, [0, 1, 2], n_classes=4, seed=21)
    cfg = MenConfig(d=d, K=10, pca_retain=0)
    patches = [build_patch(samples, i, cfg.k1, cfg.k2, cfg.kappa) for i in range(samples.n)]
    align = accumulate_alignment(samples, patches)
    targets = build_indicator(samples, d).values
    factor = spectral_factor(build_a(align, cfg), cfg.eig_floor)
    return samples, targets, align, cfg, factor


class TestSharedGram:
    def test_columns_share_design_and_gram(self):
        from men.transform import build_augmented

        samples, targets, align, cfg, factor = pipeline_problem()
        shared = build_augmented(samples.data, targets, align, cfg, factor=factor)
        assert shared.ystar.shape == (shared.xstar.shape[0], cfg.d)
        for t in range(cfg.d):
            column = shared.column(t)
            assert column.xstar is shared.xstar
            assert column.gram is shared.gram
            single = build_augmented(samples.data, targets[:, t], align, cfg, factor=factor)
            assert_allclose(column.ystar, single.ystar, rtol=1e-13, atol=1e-13)
            assert_allclose(column.xty, single.xty, rtol=1e-12, atol=1e-12)

    def test_breakpoints_against_residual_form(self):
        # each column solved through the one shared Gram satisfies
        # equicorrelation and dominance on the residual-form problem that
        # build_augmented gives for that column alone
        from men.pipeline import fit
        from men.transform import build_augmented

        samples, targets, align, cfg, factor = pipeline_problem()
        shared = build_augmented(samples.data, targets, align, cfg, factor=factor)
        model, _ = fit(samples, cfg)
        for t in range(cfg.d):
            w, path = solve_column(shared.column(t), cfg.K)
            single = build_augmented(samples.data, targets[:, t], align, cfg, factor=factor)
            assert check_breakpoints(single, path, rel_tol=1e-8) >= 2
            assert np.array_equal(report_column(w, single), model.values[:, t])

    def test_refactor_fallback_on_near_duplicate_columns(self, monkeypatch):
        # column 3 repeats column 1 up to 1e-7 noise and lambda2 = 0, so the
        # Schur pivot of the later of the two falls below PIVOT_MIN and the
        # solver inverts G[A, A] instead
        import men.lars as lars_module
        from men.config import MenConfig
        from men.transform import build_augmented

        refactored = []
        original = lars_module._refactor_gram_inverse

        def counting(problem, active):
            refactored.append(list(active))
            return original(problem, active)

        monkeypatch.setattr(lars_module, "_refactor_gram_inverse", counting)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 6))
        X[:, 3] = X[:, 1] + 1e-7 * rng.normal(size=20)
        y = X[:, 1] + X[:, 3] + 0.5 * X[:, 0] + 0.1 * rng.normal(size=20)
        targets = np.column_stack([y, -y])
        cfg = MenConfig(alpha=0.0, lambda2=0.0)
        shared = build_augmented(X, targets, np.zeros((20, 20)), cfg)
        for t in range(2):
            refactored.clear()
            w, path = solve_column(shared.column(t), 6)
            assert refactored and {1, 3} <= set(refactored[0])
            single = build_augmented(X, targets[:, t], np.zeros((20, 20)), cfg)
            c0 = path.breakpoints[0].c_hat
            for bp in path.breakpoints:
                viol = kkt_violation(single.xstar, single.ystar, bp.coefficients, bp.c_hat)
                assert viol <= 1e-7 * c0
            assert np.all(np.isfinite(w)) and np.count_nonzero(w) <= 6
            obj = [bp.objective for bp in path.breakpoints]
            assert all(b - a <= 1e-12 for a, b in zip(obj, obj[1:]))
