"""Two-phase simplex against hand solutions, scipy.linprog and the
one-LP oracle, and its dual rows against LP duality.

scipy is a test-only dependency; the library itself solves its LPs with
the in-house routine, and these tests pin the two against each other.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog
from simplex_oracle import solve_lp

from viatree.arbitrage import EPS_POSITIVE_TOL, _max_slack_lps, _node_lps
from viatree.simplex import solve_lps

DUAL_TOL = 1e-9  # dual rows, relative to max |A| |y|


def scipy_solve(A, b, c):
    return linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")


def solve_one(A, b, c):
    """``solve_lps`` on one LP, as a stack of G = 1."""
    A, b, c = (np.asarray(v, dtype=np.float64) for v in (A, b, c))
    res = solve_lps(A[None], b[None], c)
    x = res.x[0]
    return SimpleNamespace(status=res.status[0], x=x, y=res.y[0], objective=float(c @ x))


def assert_dual_rows(stack, A, b, c, rows=None):
    """Each row of ``stack.y`` (all, or those listed) certifies its status:
    an optimal row is dual feasible with y.b = c.x, an infeasible row is a
    Farkas ray, an unbounded row is NaN."""
    c = np.broadcast_to(c, stack.x.shape)
    for g in range(len(A)) if rows is None else rows:
        status, y = stack.status[g], stack.y[g]
        if status == "unbounded":
            assert np.isnan(y).all()
            continue
        tol = DUAL_TOL * max(1.0, np.abs(A[g]).max() * np.abs(y).max())
        if status == "optimal":
            assert (c[g] - y @ A[g]).min() >= -tol
            assert abs(y @ b[g] - c[g] @ stack.x[g]) <= tol
        else:
            assert (y @ A[g]).max() <= tol
            assert y @ b[g] > 0.0


class TestHandProblems:
    def test_unique_vertex(self):
        # min -x1 - 2 x2 s.t. x1 + x2 + s = 4, x2 <= 3 -> x = (1, 3)
        A = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        b = np.array([4.0, 3.0])
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        res = solve_one(A, b, c)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-7.0, abs=1e-12)
        assert np.allclose(res.x[:2], [1.0, 3.0], atol=1e-12)

    def test_equality_only(self):
        # x1 + x2 = 1, minimize x1 -> (0, 1)
        res = solve_one(np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 0.0]))
        assert res.status == "optimal"
        assert np.allclose(res.x, [0.0, 1.0], atol=1e-12)

    def test_unbounded(self):
        # x1 - x2 = 1 with objective -x1: push x1 up forever
        res = solve_one(np.array([[1.0, -1.0]]), np.array([1.0]), np.array([-1.0, 0.0]))
        assert res.status == "unbounded"

    def test_infeasible_farkas(self):
        # x1 + x2 = -1 with x >= 0 is impossible
        A = np.array([[1.0, 1.0]])
        b = np.array([-1.0])
        res = solve_one(A, b, np.array([1.0, 1.0]))
        assert res.status == "infeasible"
        # Farkas ray in the caller's row sign: y A <= 0 and y b > 0
        assert res.y.tolist() == [-1.0]

    def test_negative_rhs_handled(self):
        # -x1 = -2 -> x1 = 2; phase 1 must flip the row sign
        res = solve_one(np.array([[-1.0, 0.0]]), np.array([-2.0]), np.array([1.0, 1.0]))
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(2.0, abs=1e-12)
        assert res.y.tolist() == [-1.0]  # c_B B^-1 with the row's sign back

    def test_redundant_rows(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        res = solve_one(A, b, np.array([0.0, 1.0]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_every_row_redundant(self):
        # 0 x = 0 drops both rows; with c >= 0 the optimum is x = 0
        res = solve_one(np.zeros((2, 3)), np.zeros(2), np.ones(3))
        assert res.status == "optimal"
        assert res.x.tolist() == [0.0, 0.0, 0.0] and res.objective == 0.0
        assert res.y.tolist() == [0.0, 0.0]  # dropped rows
        assert solve_one(np.zeros((2, 3)), np.zeros(2), np.array([1.0, -1.0, 0.0])).status == "unbounded"

    def test_degenerate_vertex_terminates(self):
        # classic cycling-prone instance; Bland's rule must terminate
        A = np.array(
            [
                [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
                [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
        res = solve_one(A, b, c)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-0.05, abs=1e-10)


class TestAgainstScipy:
    def random_problem(self, rng, m, n):
        A = rng.normal(size=(m, n))
        x_feas = rng.uniform(0.0, 2.0, size=n)
        b = A @ x_feas  # feasible by construction
        c = rng.normal(size=n)
        return A, b, c

    @pytest.mark.parametrize("seed", range(40))
    def test_random_feasible_problems(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m + 1, m + 8))
        A, b, c = self.random_problem(rng, m, n)
        ours = solve_one(A, b, c)
        ref = scipy_solve(A, b, c)
        if ref.status == 3:
            assert ours.status == "unbounded"
        else:
            assert ref.status == 0
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)
            assert ours.y @ b == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(c - ours.y @ A >= -1e-9)
            assert np.allclose(A @ ours.x, b, atol=1e-8)
            assert np.all(ours.x >= -1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_infeasible_problems(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(2, n))
        x_feas = rng.uniform(0.5, 1.5, size=n)
        b = A @ x_feas
        # contradictory duplicate row forces infeasibility
        A = np.vstack([A, A[0]])
        b = np.append(b, b[0] + 1.0)
        ours = solve_one(A, b, rng.normal(size=n))
        ref = scipy_solve(A, b, np.zeros(n))
        assert ref.status == 2
        assert ours.status == "infeasible"
        assert np.all(ours.y @ A <= 1e-9) and ours.y @ b > 0.0


class TestStacked:
    """solve_lps against the oracle's solve_lp, LP by LP: status, x and
    iterations bitwise; and the dual row of every LP."""

    @staticmethod
    def assert_same(stack, A, b, c):
        for g in range(len(A)):
            one = solve_lp(A[g], b[g], c[g] if np.ndim(c) == 2 else c)
            assert stack.status[g] == one.status
            assert stack.iterations[g] == one.iterations
            if one.status == "optimal":
                assert stack.x[g].tobytes() == one.x.tobytes()
            else:
                assert np.isnan(stack.x[g]).all()

    def test_node_lps_of_random_markets(self):
        from viatree import MarketModel
        from viatree.generators import random_market, random_na_market

        stacks = {}
        for seed in range(160):
            rng = np.random.default_rng(seed)
            maker = random_market if seed % 2 else random_na_market
            m = maker(rng, d=1 + seed % 3, depth_range=(2, 4))
            for unit in (1.0, 1e6, 1e-9):
                mu = MarketModel(m.tree, m.prices * unit)
                for v in m.tree.internal:
                    inc = mu.prices[m.tree.children[v]] - mu.prices[v]
                    stacks.setdefault(inc.shape, []).append(inc)
        n_lps = n_failed = n_closed = 0
        for incs in stacks.values():
            incs = np.array(incs)
            k = incs.shape[1]
            A, b, c, Vh = _max_slack_lps(incs)
            stack = solve_lps(A, b, c)
            self.assert_same(stack, A, b, c)
            assert_dual_rows(stack, A, b, c)
            n_lps += len(A)
            # _node_lps against the full stack: the nodes it gives the LP
            # keep that stack's eps*, q and H bit for bit; the nodes it
            # decides in closed form fail where the LP fails (q NaN for
            # NaN), and where they pass they agree with it to rounding
            e = stack.x[:, k] - stack.x[:, k + 1]
            lp_eps = np.where(np.isnan(e), -np.inf, e)
            lp_q = np.where((e > EPS_POSITIVE_TOL)[:, None], stack.x[:, :k] + e[:, None], np.nan)
            lp_h = -(stack.y[:, None, : Vh.shape[1]] @ Vh)[:, 0]
            bp = np.full(incs.shape[:2], 1.0 / k)
            eps, q, rows, H = _node_lps(incs, bp)
            lp = rows.any(axis=(1, 2))
            assert eps[lp].tobytes() == lp_eps[lp].tobytes()
            assert q[lp].tobytes() == lp_q[lp].tobytes()
            assert H[lp].tobytes() == lp_h[lp].tobytes()
            assert (np.isnan(q[~lp]) == np.isnan(lp_q[~lp])).all()
            passed = ~lp & ~np.isnan(q[:, 0])
            assert np.abs(eps[passed] - lp_eps[passed]).max(initial=0.0) <= 1e-12
            assert np.abs(q[passed] - lp_q[passed]).max(initial=0.0) <= 1e-12
            n_closed += int(np.sum(~lp))
            # the separating vector of each failing node, from its dual row
            # or its closed-form ray
            for inc, h in zip(incs[np.isnan(q[:, 0])], H[np.isnan(q[:, 0])]):
                gains = inc @ h
                assert gains.min() >= -1e-12 * np.abs(inc).max() and gains.max() > 0.0
                n_failed += 1
        assert n_lps >= 5000 and n_failed >= 3000 and n_closed >= 1000

    @pytest.mark.parametrize("seed", range(30))
    def test_random_lps(self, seed):
        rng = np.random.default_rng(2000 + seed)
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m + 1, m + 6))
        G = 12
        A = rng.normal(size=(G, m, n))
        b = np.einsum("gmn,gn->gm", A, rng.uniform(0.0, 2.0, size=(G, n)))
        b[::3] = rng.normal(size=b[::3].shape)  # some infeasible, some flipped rows
        c = rng.normal(size=(G, n))
        stack = solve_lps(A, b, c)
        self.assert_same(stack, A, b, c)
        assert_dual_rows(stack, A, b, c)

    def test_phase1_infeasible(self):
        # equal increments on both branches: sum q = 1 and sum q dS = 0 clash
        incs = np.array([[[1.0], [1.0]], [[1.0], [-0.5]], [[0.2], [0.2]]])
        A, b, c, _ = _max_slack_lps(incs)
        stack = solve_lps(A, b, c)
        assert list(stack.status) == ["infeasible", "optimal", "infeasible"]
        self.assert_same(stack, A, b, c)
        assert_dual_rows(stack, A, b, c)

    def test_leftover_artificials_dropped_row(self):
        # d = 3 with 2 branches: collinear increments leave two moment rows
        # redundant, and their artificials cannot be pivoted out
        a = np.array([0.3, -1.2, 2.5])
        incs = np.array([[a, -0.6 * a], [a, -2.0 * a], [a, 0.5 * a]])
        A, b, c, _ = _max_slack_lps(incs)
        stack = solve_lps(A, b, c)
        assert list(stack.status) == ["optimal"] * 3
        self.assert_same(stack, A, b, c)
        assert_dual_rows(stack, A, b, c)
        assert stack.y[:, 1:3].tolist() == [[0.0, 0.0]] * 3  # the dropped rows

    def test_every_row_redundant(self):
        A, b = np.zeros((3, 2, 3)), np.zeros((3, 2))
        c = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 2.0, 0.5]])
        stack = solve_lps(A, b, c)
        assert list(stack.status) == ["optimal", "unbounded", "optimal"]
        assert stack.x[[0, 2]].tolist() == [[0.0] * 3] * 2
        self.assert_same(stack, A, b, c)
        assert_dual_rows(stack, A, b, c)
        assert stack.y[[0, 2]].tolist() == [[0.0] * 2] * 2

    def test_singular_final_basis(self, monkeypatch):
        # column 2 is 7 x column 1: both end up basic with column 0 on rows
        # 0-2 (row 3 is dropped), the basis matrix is exactly singular, x
        # comes from the tableau instead and y is the least-norm solution
        # of B^T y = c_B
        A1 = np.array([
            [3085.4232274463125, 2215.208519279263, 15506.459634954841],
            [-15102.903751626436, -16076.597194047681, -112536.18035833378],
            [-350.41246181300716, -18474.402896576652, -129320.82027603657],
            [-2033.996706744404, 4165.420548795768, 29157.943841570377],
        ])
        b1 = np.array([13094.517328275599, -92343.74617398709,
                       -99845.65430556244, 21732.95891591449])
        c1 = np.array([-0.4260812330395044, -2.8776405870652297, -8.632922761195688])
        rng = np.random.default_rng(5)
        A = np.stack([A1, rng.normal(size=(4, 3)), A1])
        b = np.stack([b1, A[1] @ np.ones(3), b1])
        c = np.stack([c1, rng.normal(size=3), c1])
        singular = []
        solve = np.linalg.solve

        def spy(a, rhs):
            try:
                return solve(a, rhs)
            except np.linalg.LinAlgError:
                singular.append(np.shape(a))
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        stack = solve_lps(A, b, c)
        assert singular and stack.status[0] == "optimal"
        self.assert_same(stack, A, b, c)
        y = np.linalg.lstsq(A1[:3].T, c1, rcond=None)[0]
        for g in (0, 2):
            assert np.allclose(stack.y[g, :3], y, rtol=1e-12, atol=0.0)
            assert stack.y[g, 3] == 0.0
        assert_dual_rows(stack, A, b, c, rows=[1])

    def test_unbounded_phase2(self):
        # x1 - x2 = 1 with objective -x1 is unbounded; the others are not
        A = np.array([[[1.0, -1.0]], [[1.0, 1.0]], [[1.0, -1.0]]])
        b = np.array([[1.0], [1.0], [2.0]])
        c = np.array([[-1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        stack = solve_lps(A, b, c)
        assert list(stack.status) == ["unbounded", "optimal", "optimal"]
        self.assert_same(stack, A, b, c)
        assert_dual_rows(stack, A, b, c)
