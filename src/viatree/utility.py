"""Expected-utility maximization on tree markets and the viability suite.

Log and power (CRRA) utilities factor the dynamic program: the value
function separates into a wealth term and per-node coefficients, so the
optimal fractions solve one smooth concave problem per internal node.
General utilities lose that separation; one concave program over the unit
holdings at every internal node, each Newton step a pass over the tree,
keeps wealth strictly positive (under no-arbitrage the optimum is
interior: infinite marginal utility at zero wealth repels the boundary).

``maximize_utility`` is the one entry point: it decides no-arbitrage
through the model's kept ``check_na`` sweep, then solves.  "No solution"
is not a numerical condition: it happens exactly when the market admits
arbitrage, and the returned result then carries the arbitrage certificate
instead of a strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arbitrage import NaCertificate, _sweep
from .markets import (
    DensityProcess,
    FractionStrategy,
    MarketModel,
    UnitStrategy,
    WealthKernel,
    WealthProcess,
    _detached,
    _step_weights,
    wealth_from_fractions,
    wealth_from_units,
)
from .newton import CONTRACTION, FOC_TOL, NEWTON_MAX_ITER, ascend, damped_newton, least_norm_step, raise_stalled
from .numeraire import fraction_problems, log_recursion, numeraire_portfolio

CUSTOM_GRAD_TOL = 1e-8  # times max(1, max|dS|): the program's gradient is in price units
CUSTOM_MAX_ITER = 300
VIABILITY_TOL = 1e-9  # slack of viability_under_measure's bound U(x0)
ROUNDOFF = 1e-14  # custom program's Newton gain, relative to max(1, |f|), at which f is exact
PROBE_GRID = np.logspace(-8.0, 8.0, 65)


@dataclass
class UtilityFunction:
    """A utility on (0, infinity): strictly increasing, strictly concave,
    with infinite marginal utility at 0 and vanishing marginal utility at
    infinity (certified numerically for custom instances)."""

    kind: str  # "log" | "crra" | "custom"; routes ``maximize_utility``
    gamma: float | None = None
    _u: object = None  # U, U' and U'' as callables on float arrays
    _du: object = None
    _d2u: object = None
    name: str = ""

    def value(self, x):
        return self._u(np.asarray(x, dtype=np.float64))

    def marginal(self, x):
        return self._du(np.asarray(x, dtype=np.float64))

    def second(self, x):
        return self._d2u(np.asarray(x, dtype=np.float64))

    def certify(self) -> dict:
        """Numerical certificate on a log-spaced probe grid.

        Checks monotonicity, concavity (decreasing marginals), the Inada
        trends at both ends, and the tail elasticity x u'(x)/u(x) < 1
        (evaluated where u > 0).
        """
        x = PROBE_GRID
        u = np.asarray(self.value(x), dtype=np.float64)
        du = np.asarray(self.marginal(x), dtype=np.float64)
        finite = bool(np.all(np.isfinite(u)) and np.all(np.isfinite(du)))
        increasing = finite and bool(np.all(np.diff(u) > 0.0))
        concave = finite and bool(np.all(du > 0.0) and np.all(np.diff(du) < 0.0))
        # Inada trends: marginals blow up toward 0 and die out toward infinity.
        mid = du[x.searchsorted(1.0)]
        inada_zero = finite and bool(du[0] > du[8] > mid)
        inada_inf = finite and bool(du[-1] < du[-9] < mid)
        tail = x >= 100.0
        pos = tail & (u > 0.0)
        if np.any(pos):
            elasticity = float(np.max(x[pos] * du[pos] / u[pos]))
        else:
            elasticity = float("-inf")  # utility nonpositive on the tail
        elastic_ok = elasticity < 1.0
        passed = increasing and concave and inada_zero and inada_inf and elastic_ok
        return {
            "kind": self.kind,
            "finite": finite,
            "increasing": increasing,
            "concave": concave,
            "inada_zero": inada_zero,
            "inada_infinity": inada_inf,
            "tail_elasticity": elasticity,
            "elasticity_ok": bool(elastic_ok),
            "passed": bool(passed),
        }


def log_utility() -> UtilityFunction:
    return UtilityFunction(kind="log", _u=np.log, _du=lambda x: 1.0 / x,
                           _d2u=lambda x: -1.0 / x**2, name="log")


def crra_utility(gamma: float) -> UtilityFunction:
    if not (np.isfinite(gamma) and gamma > 0.0 and gamma != 1.0):
        raise ValueError(
            f"CRRA exponent must be a finite number > 0 and != 1, got {gamma!r}"
        )
    g = float(gamma)
    return UtilityFunction(kind="crra", gamma=g, _u=lambda x: x ** (1.0 - g) / (1.0 - g),
                           _du=lambda x: x ** -g, _d2u=lambda x: -g * x ** (-g - 1.0), name=f"crra({gamma})")


def custom_utility(u, du, d2u=None, name: str = "custom") -> UtilityFunction:
    if d2u is None:  # U'' as the central difference at h = 1e-6 x, so x - h > 0 at any wealth
        d2u = lambda x: (du(x + 1e-6 * x) - du(x - 1e-6 * x)) / (2.0 * (1e-6 * x))  # noqa: E731
    return UtilityFunction(kind="custom", _u=u, _du=du, _d2u=d2u, name=name)


def power_optimal_stack(R, a, gamma: float, q=None):
    """Maximize sum_j a[i, j] (1 + pi . R[i, j])^(1-gamma) for every row i,
    with |a| scaled to unit sum per row, from ``fraction_problems``' start.
    Returns (pi, objective in the original scale, gradient sup norm, Newton
    steps) per row; a stalled row keeps a gradient at or above ``FOC_TOL``."""
    scale = np.sum(np.abs(a), axis=1)
    if np.any(scale == 0.0):
        raise ValueError("continuation weights are all zero")
    evaluate, pi0 = fraction_problems(R, a / scale[:, None], gamma, q)
    pi, f, _, _, gnorm, steps = damped_newton(evaluate, pi0, FOC_TOL, NEWTON_MAX_ITER)
    return pi, f * scale, gnorm, steps


@dataclass
class OptimalPortfolioResult:
    status: str  # "ok" | "no-solution"
    value: float | None = None
    strategy: object = None  # FractionStrategy or UnitStrategy
    wealth: WealthProcess | None = None
    foc_residual: float | None = None
    route: str = ""
    measure_used: str = "physical"
    utility_certificate: dict | None = None
    certificate: NaCertificate | None = None  # arbitrage certificate if any


def maximize_utility(
    m: MarketModel,
    utility: UtilityFunction,
    x0: float = 1.0,
    measure: DensityProcess | None = None,
) -> OptimalPortfolioResult:
    """Maximize E[U(terminal wealth)] over admissible self-financing
    strategies, optionally under a reweighted (density) measure.

    Certifies the utility and checks x0, then decides no-arbitrage
    (the model's kept ``check_na`` sweep, ``_sweep``).  If the
    market admits arbitrage the problem has no solution and the certificate
    comes back instead, without a look at ``measure``.  Otherwise a
    ``measure`` that is not a martingale raises ``ValueError`` naming its
    worst node; log and CRRA run the separable backward recursion, custom
    certified utilities the concave program over unit holdings.
    """
    if not (np.isfinite(x0) and x0 > 0.0):
        raise ValueError(f"initial capital must be finite and positive, got {x0!r}")
    ucert = utility.certify()
    if not ucert["passed"]:
        raise ValueError(f"utility failed its numerical certificate: {ucert}")
    kept, _, q = _sweep(m)
    na, used = _detached(kept), "density" if measure is not None else "physical"
    if na.verdict != "NA":
        return OptimalPortfolioResult(status="no-solution", route="arbitrage-detected",
                                      measure_used=used, utility_certificate=ucert,
                                      certificate=na)
    if measure is not None:
        measure.require_martingale(m.tree)
    weights = _step_weights(m, measure)
    if utility.kind == "log":
        res = _solve_log(m, weights, x0, q)
    elif utility.kind == "crra":
        res = _solve_crra(m, weights, x0, utility.gamma, q)
    else:
        res = _solve_custom(m, weights, x0, utility)
    res.measure_used, res.utility_certificate, res.certificate = used, ucert, na
    return res


def _optimum(m, strategy, x0, value, foc_residual, route) -> OptimalPortfolioResult:
    """A solver's "ok" result, with the strategy's wealth from x0."""
    grow = wealth_from_units if isinstance(strategy, UnitStrategy) else wealth_from_fractions
    return OptimalPortfolioResult(
        status="ok",
        value=float(value),
        strategy=strategy,
        wealth=grow(m, strategy, x0),
        foc_residual=float(foc_residual),
        route=route,
    )


def _solve_log(m, weights, x0, q=None) -> OptimalPortfolioResult:
    fr, gnorms, growth = log_recursion(m, weights, q)
    return _optimum(m, FractionStrategy(fractions=fr), x0, np.log(x0) + growth,
                    gnorms.max(initial=0.0), "log-recursion")


def _solve_crra(m, weights, x0, gamma, q=None) -> OptimalPortfolioResult:
    """One ``power_optimal_stack`` per depth level, leaves to root, with the
    one-step weights times the children's value coefficients psi.  Given the
    kept sweep's martingale weights q, a level starts where the weights
    |a_j| (1 + pi . R_j)^-gamma are a multiple of q, which is the optimum
    (0 Newton steps) where q are the node's only martingale weights."""
    t = m.tree
    R = _sweep(m)[1].returns
    fr = np.zeros_like(m.prices)
    psi = np.zeros(t.n_nodes)
    psi[t.leaves] = 1.0 / (1.0 - gamma)
    gnorms = np.zeros(t.internal.size)
    for nv in reversed(t.node_levels):
        nodes = t.internal[nv]
        a = t.stack(weights * psi[t.edges], 0.0, nv)
        qs = None if q is None else t.stack(q, 1.0, nv)
        pi, psi[nodes], gnorms[nv], _ = power_optimal_stack(t.stack(R, 0.0, nv), a, gamma, qs)
        raise_stalled(gnorms[nv], FOC_TOL, nodes, lambda g: (
            f"power-utility Newton stalled at gradient {float(g)} (target {FOC_TOL})"))
        fr[nodes] = pi
    return _optimum(m, FractionStrategy(fractions=fr), x0, x0 ** (1.0 - gamma) * psi[0],
                    gnorms.max(initial=0.0), "crra-recursion")


def _tree_step(k: WealthKernel, model):
    """The holding changes dh maximizing sum_l (b_l dW_l - a_l dW_l^2 / 2),
    dW their leaf wealth changes, with b and a at the leaves of ``model``.
    Leaves to root, node v folds its children's quadratics in its own wealth
    change x: M = sum a_j X_j X_j^T, c = sum b_j X_j and e = sum a_j X_j over
    its edges' price increments give dh_v = M^+ (c - x e), child j's change
    alpha_j x + beta_j, b_v = sum b_j - e.M^+ c and a_v = sum a_j - e.M^+ e,
    summed as a_j alpha_j^2 to stay >= 0.  Root to leaves, x follows."""
    t = k.tree
    b, a = model.copy()
    mc, me = np.zeros((2, t.n_nodes, k.dS.shape[1]))  # M^+ c and M^+ e
    alpha, beta = np.empty((2, t.edges.size))
    for lv, nv in zip(reversed(t.edge_levels), reversed(t.node_levels)):
        X, kids, up, at = k.dS[lv], t.edges[lv], t.internal[nv], t.starts[nv] - lv.start
        M = np.add.reduceat(a[kids, None, None] * X[:, :, None] * X[:, None, :], at)
        rhs = np.add.reduceat(X[:, :, None] * np.stack([b[kids], a[kids]], axis=1)[:, None, :], at)
        mc[up], me[up] = least_norm_step(M, rhs).transpose(2, 0, 1)
        beta[lv] = np.einsum("ij,ij->i", mc[t.edge_parent[lv]], X)
        alpha[lv] = 1.0 - np.einsum("ij,ij->i", me[t.edge_parent[lv]], X)
        a[up] = np.add.reduceat(a[kids] * alpha[lv] ** 2, at)
        b[up] = np.add.reduceat(b[kids] - a[kids] * beta[lv], at)
    x = np.zeros(t.n_nodes)
    for lv in t.edge_levels:
        x[t.edges[lv]] = alpha[lv] * x[t.edge_parent[lv]] + beta[lv]
    return mc - x[:, None] * me


def _solve_custom(m, weights, x0, utility):
    """Damped Newton over the unit holdings of every node (0 at the leaves),
    each step one ``_tree_step`` and one ``ascend``.  Below the gate
    ``CUSTOM_GRAD_TOL`` x max(1, max|dS|) f may still be off in its 7th
    digit, and leaf wealths near 0 can hold the gradient above it once f is
    exact.  So it stops, before any line search, where the Newton gain
    g.step / 2 is at f's roundoff and the gradient is below the gate or no
    longer shrinking; a line search that accepts no point or
    ``CUSTOM_MAX_ITER`` steps ending it first raises."""
    t, k = m.tree, _sweep(m)[1]
    q = t.roll(weights[None], 1.0, multiplicative=True)[0, t.leaves]
    gate = CUSTOM_GRAD_TOL * max(1.0, float(np.abs(k.dS).max(initial=0.0)))

    def evaluate(h, rows):  # one problem; its model is b and a per node
        w, model = k.units(h.reshape(1, *m.prices.shape), x0)[0], np.zeros((1, 2, t.n_nodes))
        if not np.all(w > 0.0):
            return np.array([-np.inf]), np.zeros_like(h), model
        (b, a), wl, grad = model[0], w[t.leaves], np.zeros_like(m.prices)
        b[t.leaves], a[t.leaves] = q * utility.marginal(wl), -q * utility.second(wl)
        grad[t.internal] = t.sums(t.backward(np.ones(t.edges.size), b)[t.edges, None] * k.dS)
        return np.array([q @ utility.value(wl)]), grad.reshape(1, -1), model

    h = np.zeros((1, m.prices.size))
    f, grad, model = evaluate(h, None)
    gnorm, last = np.max(np.abs(grad), axis=1), np.inf
    for _ in range(CUSTOM_MAX_ITER):
        dh = _tree_step(k, model[0]).reshape(1, -1)
        gain = 0.5 * float(grad[0] @ dh[0])
        if gain <= ROUNDOFF * max(1.0, abs(f[0])) and (gnorm[0] < gate or gnorm[0] > CONTRACTION * last):
            return _optimum(m, UnitStrategy(holdings=h.reshape(m.prices.shape)), x0, f[0],
                            gnorm[0], "concave-program")
        last = gnorm[0]
        if not ascend(evaluate, (h, f, grad, model, gnorm), np.arange(1), dh).size:
            break
    raise RuntimeError(f"custom-utility program stalled at gradient {float(gnorm[0])} "
                       f"(target {gate}), Newton gain {gain}")


def viability_under_measure(
    m: MarketModel,
    x0: float = 1.0,
    utility: UtilityFunction | None = None,
) -> dict:
    """Utility maximization under the market's own martingale density.

    Under that measure trading is worthless in expectation, so the optimal
    value cannot exceed U(x0); the report checks exactly that bound, within
    ``VIABILITY_TOL``.  A market with arbitrage has no such density and is
    reported non-viable with the certificate.
    """
    utility = utility or log_utility()
    res = maximize_utility(m, utility, x0, _sweep(m)[0].density)
    if res.status != "ok":
        return {
            "viable": False,
            "reason": "arbitrage: no sigma-martingale density exists",
            "certificate": res.certificate,
        }
    bound = float(utility.value(x0))
    return {
        "viable": True,
        "value": res.value,
        "bound": bound,
        "within_bound": bool(res.value <= bound + VIABILITY_TOL),
        "tol": VIABILITY_TOL,
        "foc_residual": res.foc_residual,
    }


@dataclass
class EquivalenceConfig:
    n_markets: int = 100
    d_range: tuple = (1, 3)
    depth_range: tuple = (1, 3)
    branch_range: tuple = (2, 4)
    seed: int = 0


@dataclass
class SuiteReport:
    n_markets: int
    counts: dict
    all_agree: bool
    disagreements: list = field(default_factory=list)
    rows: list = field(default_factory=list)


def equivalence_suite(config: EquivalenceConfig) -> SuiteReport:
    """Four decision routes on random markets, checked for pairwise agreement:

    (a) log-utility maximization has a solution,
    (b) the no-arbitrage sweep accepts,
    (c) an equivalent martingale density exists,
    (d) the numeraire portfolio exists.

    Half the markets are fully random (so both verdicts occur), half are
    martingale-built and should land on the accepting side.
    """
    from .generators import random_market, random_na_market
    from .market_io import market_to_dict

    rng = np.random.default_rng(config.seed)
    counts = {"NA": 0, "ARBITRAGE": 0}
    disagreements = []
    rows = []
    for i in range(config.n_markets):
        d = int(rng.integers(config.d_range[0], config.d_range[1] + 1))
        maker = random_market if i % 2 == 0 else random_na_market
        m = maker(
            rng,
            d=d,
            depth_range=config.depth_range,
            branch_range=config.branch_range,
            label=f"suite-{i}",
        )
        cert = _sweep(m)[0]
        verdicts = {
            "log_solvable": maximize_utility(m, log_utility(), 1.0).status == "ok",
            "no_arbitrage": cert.verdict == "NA",
            "martingale_density": cert.density is not None,
            "numeraire": numeraire_portfolio(m).status == "ok",
        }
        agree = len(set(verdicts.values())) == 1
        counts["NA" if verdicts["no_arbitrage"] else "ARBITRAGE"] += 1
        rows.append({"index": i, "label": m.label, "agree": agree, **verdicts})
        if not agree:
            disagreements.append(
                {"index": i, "verdicts": verdicts, "market": market_to_dict(m)}
            )
    return SuiteReport(
        n_markets=config.n_markets,
        counts=counts,
        all_agree=not disagreements,
        disagreements=disagreements,
        rows=rows,
    )
