import numpy as np
import pytest

from conftest import attainable_floor_scenario, build_scenario
from irsnoma import sdp
from irsnoma.power_allocation import allocate_power
from irsnoma.reflection import floor_constraints, sinr_lifts, surrogate_problem


def _random_hermitian(rng, n, scale=1.0):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (x + x.conj().T)


def random_problem(rng, n, num_constraints=2, margin=0.5):
    """Random instance strictly feasible at B = I/2."""
    objective = _random_hermitian(rng, n)
    mats = np.array([_random_hermitian(rng, n) for _ in range(num_constraints)])
    bounds = np.array([sdp.frob(a, 0.5 * np.eye(n)) - margin for a in mats])
    return sdp.SdpProblem(objective=objective, constraints=(mats, bounds))


def brute_force_objective(problem, rng, samples=200_000, polish=2000):
    """Sampling oracle over the Cholesky parameterization, then local polish."""
    n = problem.dim

    def assemble(factors):
        mats = factors @ np.conj(np.transpose(factors, (0, 2, 1)))
        peak = np.real(np.einsum("bnn->bn", mats)).max(axis=1)
        return mats / np.maximum(peak, 1e-300)[:, None, None]

    def score(mats):
        vals = np.real(np.einsum("ij,bji->b", problem.objective, mats))
        ok = np.ones(len(mats), dtype=bool)
        for a, c in zip(*problem.constraints):
            ok &= np.real(np.einsum("ij,bji->b", a, mats)) >= c
        vals[~ok] = -np.inf
        return vals

    best_val = -np.inf
    best_factor = None
    chunk = 20_000
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        factors = (rng.standard_normal((count, n, n))
                   + 1j * rng.standard_normal((count, n, n)))
        factors *= np.tril(np.ones((n, n)))
        scale = rng.random(count) ** 0.5
        mats = assemble(factors) * scale[:, None, None]
        vals = score(mats)
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val = vals[idx]
            best_factor = factors[idx] * np.sqrt(scale[idx])
    sigma = 0.3
    for _ in range(polish):
        perturbed = best_factor[None] + sigma * (
            rng.standard_normal((8, n, n)) + 1j * rng.standard_normal((8, n, n))
        ) * np.tril(np.ones((n, n)))
        mats = assemble(perturbed)
        # also try interior rescalings of each candidate
        mats = np.concatenate([mats, 0.97 * mats])
        vals = score(mats)
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val = vals[idx]
            best_factor = perturbed[idx % 8]
        else:
            sigma *= 0.995
    return best_val


class TestProblemValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            sdp.SdpProblem(objective=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_mismatched_constraint(self):
        with pytest.raises(ValueError, match="dimension"):
            sdp.SdpProblem(objective=np.eye(3),
                           constraints=(np.eye(2)[None], np.zeros(1)))


class TestAnalyticOptima:
    def test_identity_objective_saturates_diagonal(self):
        problem = sdp.SdpProblem(objective=np.eye(4, dtype=complex))
        solution = sdp.solve(problem, tolerance=2e-7)
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(4.0, abs=1e-6)

    def test_phase_alignment_two_by_two(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        solution = sdp.solve(sdp.SdpProblem(objective=c), tolerance=2e-7)
        assert solution.objective == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(solution.matrix.real,
                                   np.ones((2, 2)), atol=1e-3)

    def test_vacuous_constraint_changes_nothing(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        free = sdp.solve(sdp.SdpProblem(objective=c), tolerance=1e-6)
        gated = sdp.solve(sdp.SdpProblem(
            objective=c, constraints=(np.eye(2, dtype=complex)[None], np.zeros(1))),
            tolerance=1e-6)
        assert gated.objective == pytest.approx(free.objective, abs=1e-5)


class TestSolutionQuality:
    @pytest.mark.parametrize("seed", range(5))
    def test_feasibility_of_returned_iterate(self, seed):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, 8, num_constraints=4)
        solution = sdp.solve(problem, tolerance=1e-6)
        assert solution.status == "optimal"
        b = solution.matrix
        assert np.abs(b - b.conj().T).max() < 1e-12
        eigvals = np.linalg.eigvalsh(b)
        assert eigvals.min() >= -1e-8 * np.real(np.trace(b))
        assert np.real(np.diag(b)).max() <= 1.0 + 1e-8
        for a, c in zip(*problem.constraints):
            assert sdp.frob(a, b) >= c - 1e-6 * (1 + abs(c))

    def test_objective_improves_along_path(self):
        rng = np.random.default_rng(42)
        problem = random_problem(rng, 6, num_constraints=3)
        objectives = [sdp.solve(problem, tolerance=tol).objective
                      for tol in (1e-1, 1e-3, 1e-6)]
        assert objectives[0] <= objectives[1] + 1e-6 * (1 + abs(objectives[1]))
        assert objectives[1] <= objectives[2] + 1e-6 * (1 + abs(objectives[2]))

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_sampling_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        problem = random_problem(rng, 3, num_constraints=2)
        solution = sdp.solve(problem, tolerance=1e-8)
        oracle = brute_force_objective(problem, rng)
        assert solution.objective >= oracle - 1e-3 * (1 + abs(oracle))

    def test_warm_start_used_when_feasible(self):
        rng = np.random.default_rng(9)
        problem = random_problem(rng, 5, num_constraints=2)
        first = sdp.solve(problem, tolerance=1e-6)
        again = sdp.solve(problem, tolerance=1e-6,
                          initial=0.9 * first.matrix + 0.05 * np.eye(5))
        assert again.objective == pytest.approx(first.objective, rel=1e-4)

    def test_infeasible_problem_reported(self):
        # tr(-B) >= 1 impossible on the PSD cone
        problem = sdp.SdpProblem(objective=np.eye(3, dtype=complex),
                                 constraints=(-np.eye(3, dtype=complex)[None],
                                              np.ones(1)))
        solution = sdp.solve(problem, tolerance=1e-6)
        assert solution.status == "infeasible"

    def test_phase_one_reaches_strict_interior(self):
        # 0.5 I violates this constraint; the repair must still find a point
        problem = _phase_one_problem()
        (a,), (bound,) = problem.constraints
        solution = sdp.solve(problem, tolerance=1e-5)
        assert solution.status == "optimal"
        assert sdp.frob(a, solution.matrix) >= bound - 1e-5 * (1 + abs(bound))

    def test_start_that_is_not_strictly_feasible_is_dropped(self):
        # the all-ones lift sits on the diagonal bound, like Stage 2's first
        # anchor: the solve must start as it does without one, bit for bit
        problem = _phase_one_problem()
        initial = np.ones((6, 6), dtype=complex)
        assert not sdp.strictly_feasible(problem, initial)
        got = sdp.solve(problem, tolerance=1e-5, initial=initial)
        want = sdp.solve(problem, tolerance=1e-5)
        assert np.array_equal(got.matrix, want.matrix)
        assert (got.status, got.objective, got.newton_steps) == (
            want.status, want.objective, want.newton_steps)


def _surrogates(seed=0):
    """Stage 2's first surrogate at the lift of b0 and its cold start, and
    a second surrogate anchored at the first one's solution, as the loop
    builds them on an attainable draw with ZF beams (with random beams
    neither the cold start nor I / 2 meets the floors)."""
    cfg, _, cascaded, plan, beams, gains = attainable_floor_scenario(
        seed, random_beams=False)
    stage1 = allocate_power(gains, cfg)
    _, num, den = sinr_lifts(cascaded, plan, beams, stage1.beta, cfg)
    constraints = floor_constraints(num, den, cfg)
    n = cfg.num_irs_elements
    anchor = np.ones((n, n), dtype=complex)
    _, gradient = surrogate_problem(anchor, num, den, constraints, cfg, 0.0)
    eta = float(np.clip(0.02 * np.linalg.norm(gradient), 1e-2, 1e2))
    first, _ = surrogate_problem(anchor, num, den, constraints, cfg, eta)
    cold = 0.95 * anchor + 0.025 * np.eye(n)
    anchor = sdp.solve(first, tolerance=1e-6, initial=cold).matrix
    second, _ = surrogate_problem(anchor, num, den, constraints, cfg, eta)
    return (first, cold), (second, anchor)


def _start_paths():
    """(problem, initial, runs phase one) for each way ``solve`` starts."""
    paths = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, 6, num_constraints=3)
        paths.append((problem, None, False))
        warm = sdp.solve(problem, tolerance=1e-6).matrix
        paths.append((problem, 0.9 * warm + 0.05 * np.eye(6), False))
        paths.append((random_problem(rng, 6, num_constraints=3, margin=-0.2),
                      None, True))
    paths.append((_phase_one_problem(), None, True))
    paths += [(problem, start, False) for problem, start in _surrogates()]
    return paths


class TestReturnedSolution:
    def test_matrix_is_hermitian_and_objective_is_its_value(self, monkeypatch):
        # Stage 2 takes the returned matrix as its next anchor and the
        # returned objective as the surrogate value there, re-deriving
        # neither: both must hold bit for bit on every way a solve starts
        # (warm, Stage 2's cold blend, I / 2, and phase one)
        repairs = []
        phase_one = sdp._phase_one

        def counted(problem, start):
            repairs.append(problem)
            return phase_one(problem, start)

        monkeypatch.setattr(sdp, "_phase_one", counted)
        paths = _start_paths()
        for problem, initial, repaired in paths:
            n = problem.dim
            start = 0.5 * np.eye(n) if initial is None else initial
            assert sdp.strictly_feasible(problem, start) is not repaired
            repairs.clear()
            solution = sdp.solve(problem, tolerance=1e-6, initial=initial)
            assert solution.status == "optimal"
            assert len(repairs) == repaired
            matrix = solution.matrix
            assert np.array_equal(matrix, matrix.conj().T)
            assert solution.objective == problem.value(matrix)
        assert sum(repaired for *_, repaired in paths) == 4


class TestDegenerateInputs:
    def test_nonpositive_log_weight_rejected(self):
        with pytest.raises(ValueError, match="positive weight"):
            sdp.SdpProblem(objective=np.eye(2),
                           log_terms=(np.eye(2)[None], np.zeros(1)))

    def test_nonpositive_log_trace_leaves_the_domain(self):
        # Re tr(-B) < 0 at every B > 0: the log term has no domain, so the
        # value is -inf, no barrier point exists, and the solve, with no
        # constraint to repair, reports the problem infeasible
        problem = sdp.SdpProblem(objective=np.eye(2),
                                 log_terms=(-np.eye(2)[None], np.ones(1)))
        half = 0.5 * np.eye(2, dtype=complex)
        assert problem.value(half) == -np.inf
        assert sdp.barrier_point(problem, half, 1.0) is None
        assert sdp._phase_one(problem, half) is None
        assert sdp.solve(problem).status == "infeasible"

    def test_strict_feasibility_needs_interior_diagonal_and_definiteness(self):
        problem = sdp.SdpProblem(objective=np.eye(2))
        assert sdp.strictly_feasible(problem, 0.5 * np.eye(2))
        # a diagonal entry on its bound
        assert not sdp.strictly_feasible(problem, np.diag([sdp.DIAG_BOUND, 0.5]))
        # diagonal inside its bound, but indefinite: no Cholesky factor
        assert not sdp.strictly_feasible(problem, np.array([[0.5, 0.9], [0.9, 0.5]]))


def _phase_one_problem():
    """One constraint that 0.5 I violates, so the solve needs phase one."""
    rng = np.random.default_rng(3)
    a = _random_hermitian(rng, 6)
    bound = sdp.frob(a, 0.5 * np.eye(6)) + 0.5
    return sdp.SdpProblem(objective=_random_hermitian(rng, 6),
                          constraints=(a[None], np.array([bound])))


def _random_vectors(rng, n, count):
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


def _low_rank(rng, n, signs):
    """Hermitian sum_j s_j v_j v_j^H; rank len(signs), indefinite on mixed signs."""
    vecs = _random_vectors(rng, n, len(signs))
    return sum(s * np.outer(v, v.conj()) for s, v in zip(signs, vecs))


def _interior_problem(rng, n, mats, log_mats=()):
    """Constraints Re tr(A B) >= Re tr(A B0) - 0.5 around B0 = I/2."""
    bounds = np.array([sdp.frob(a, 0.5 * np.eye(n)) - 0.5 for a in mats])
    logs = (np.array(log_mats, dtype=complex).reshape(-1, n, n),
            rng.uniform(0.5, 2.0, len(log_mats)))
    return sdp.SdpProblem(objective=_random_hermitian(rng, n),
                          constraints=(np.array(mats), bounds), log_terms=logs)


def _phase_one_lift(problem, offset=3.0):
    """Phase-one problem: one extra diagonal coordinate tightens every constraint."""
    n = problem.dim
    mats, bounds = problem.constraints
    a_aug = np.zeros((bounds.size, n + 1, n + 1), dtype=complex)
    a_aug[:, :n, :n] = mats
    a_aug[:, n, n] = -2.0 * offset / sdp.DIAG_BOUND
    c_aug = np.zeros((n + 1, n + 1), dtype=complex)
    c_aug[n, n] = 1.0
    return sdp.SdpProblem(objective=c_aug, constraints=(a_aug, bounds - offset))


def _newton_problems():
    rng = np.random.default_rng(7)
    n = 10
    full = random_problem(rng, n, num_constraints=6)
    mixed = _interior_problem(rng, n, [_low_rank(rng, n, [1.0]),
                                       _low_rank(rng, n, [1.0, -0.5, 2.0, -1.0, 0.3]),
                                       _low_rank(rng, n, [-1.0])])
    logs = _interior_problem(rng, n, [_low_rank(rng, n, [1.0, -1.0])],
                             log_mats=[_low_rank(rng, n, [1.0]) for _ in range(3)])
    lifted = _phase_one_lift(mixed)
    return {"full-rank": full, "rank-1-and-5": mixed, "log-terms": logs,
            "phase-one": lifted}


class TestNewtonSystem:
    @pytest.mark.parametrize("kind", ["full-rank", "rank-1-and-5", "log-terms", "phase-one"])
    def test_direction_solves_dense_newton_equation(self, kind):
        problem = _newton_problems()[kind]
        n = problem.dim
        rng = np.random.default_rng(11)
        b = 0.5 * np.eye(n) + 0.02 * _random_hermitian(rng, n)
        if kind == "phase-one":
            b[-1, :] = b[:, -1] = 0.0
            b[-1, -1] = 0.05
        assert sdp.strictly_feasible(problem, b)
        t = 7.3
        point = sdp.barrier_point(problem, b, t)
        delta, decrement, _ = sdp.newton_direction(problem, point, t)

        # dense oracle: gradient and Hessian of phi_t written out term by term
        binv = np.linalg.inv(b)
        terms = [(a, 1.0, sdp.frob(a, b) - c) for a, c in zip(*problem.constraints)]
        terms += [(m, t * w, sdp.frob(m, b)) for m, w in zip(*problem.log_terms)]
        diag = sdp.DIAG_BOUND - np.real(np.diag(b))
        grad = -t * problem.objective - binv + np.diag(1.0 / diag)
        hess = binv @ delta @ binv + np.diag(np.real(np.diag(delta)) / diag**2)
        for mat, weight, slack in terms:
            grad -= weight / slack * mat
            hess += weight / slack**2 * sdp.frob(mat, delta) * mat
        assert np.linalg.norm(hess + grad) <= 1e-9 * np.linalg.norm(grad)
        assert decrement == pytest.approx(-sdp.frob(grad, delta), rel=1e-9)


class TestLowRankFactors:
    def _rebuild(self, vecs, vals):
        return np.einsum("snr,sr,smr->snm", vecs, vals, vecs.conj())

    def test_factors_rebuild_each_kind_of_matrix(self):
        rng = np.random.default_rng(5)
        n = 12
        mats = np.array([
            _random_hermitian(rng, n),                    # full rank
            _low_rank(rng, n, [1.0, 2.0, 0.5]),           # rank-deficient PSD
            _low_rank(rng, n, [1.0, -2.0, 0.5, -0.1]),    # indefinite
            np.zeros((n, n), dtype=complex),              # all zero
        ])
        with np.errstate(all="raise"):
            vecs, vals = sdp.low_rank_factors(mats)
        ranks = np.count_nonzero(vals, axis=1)
        assert ranks.tolist() == [n, 3, 4, 0]
        rebuilt = self._rebuild(vecs, vals)
        for mat, again in zip(mats, rebuilt):
            assert np.linalg.norm(again - mat) <= 1e-12 * np.linalg.norm(mat)
        assert np.any(vals[2] < 0.0)

    def test_reflection_floor_constraints_are_low_rank(self):
        cfg, _, cascaded, plan, beams, gains = build_scenario(0)
        stage1 = allocate_power(gains, cfg)
        _, num, den = sinr_lifts(cascaded, plan, beams, stage1.beta, cfg)
        constraints = floor_constraints(num, den, cfg)
        n = cfg.num_irs_elements
        problem = sdp.SdpProblem(objective=np.zeros((n, n)), constraints=constraints)
        lifted = _phase_one_lift(problem)
        for (mats, _), cap in ((problem.constraints, cfg.num_clusters),
                               (lifted.constraints, cfg.num_clusters + 1)):
            vecs, vals = sdp.low_rank_factors(mats)
            assert np.count_nonzero(vals, axis=1).max() <= cap
            rebuilt = self._rebuild(vecs, vals)
            for mat, again in zip(mats, rebuilt):
                assert np.linalg.norm(again - mat) <= 1e-12 * np.linalg.norm(mat)
