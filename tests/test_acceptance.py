"""Acceptance suite: one test per release criterion, one verdict line each.

Each test prints a single ``[criterion N] PASS/FAIL`` line with its key
numbers, then asserts.  Criteria marked by runtime budgets measure wall
time around the full block they cover.  Heavy Monte Carlo batches are
built inside their own tests so memory is released between criteria.
"""

import math
import time

import numpy as np
import pytest

import newton_oracle
from viatree import (
    DensityProcess,
    EventTree,
    StoppingTime,
    check_na,
    concatenate_densities,
    construct_q_delta,
    crra_utility,
    delta_for_epsilon,
    entropy_hellinger,
    equivalence_suite,
    exp_utility,
    load_fixture,
    log_utility,
    maximize_utility,
    min_entropy_emm,
    numeraire_portfolio,
    price_martingale_residual,
    verify_numeraire,
    verify_value_bound,
    wealth_from_units,
)
from viatree.bessel import (
    estimate_log_value,
    estimate_reciprocal_moment,
    numeraire_probe,
    simulate_bes3,
    stopped_experiments,
)
from viatree.generators import (
    random_market,
    random_martingale_density,
    random_na_market,
    random_tree,
)
from viatree.utility import EquivalenceConfig

NA_FIXTURES = ["binomial", "binomial_skew", "trinomial", "two_period", "constant"]


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_four_way_equivalence():
    t0 = time.perf_counter()
    rep = equivalence_suite(EquivalenceConfig(
        n_markets=500, d_range=(1, 3), depth_range=(1, 3),
        branch_range=(2, 4), price_range=(0.1, 10.0), seed=2026,
    ))
    elapsed = time.perf_counter() - t0
    ok = rep.all_agree and rep.n_markets == 500 and elapsed < 60.0
    _line(1, "four-way equivalence", ok,
          f"500 markets, agree on all={rep.all_agree}, counts={rep.counts}, "
          f"{elapsed:.1f}s (< 60s)")


def test_criterion_2_certificate_soundness():
    rng = np.random.default_rng(2026)
    n_arb = n_na = 0
    worst_gain = np.inf
    worst_resid = 0.0
    min_leaf = np.inf
    for i in range(500):
        d = int(rng.integers(1, 4))
        maker = random_market if i % 2 == 0 else random_na_market
        m = maker(rng, d=d, depth_range=(1, 3), branch_range=(2, 4))
        cert = check_na(m)
        if cert.verdict == "ARBITRAGE":
            n_arb += 1
            gains = wealth_from_units(m, cert.strategy, 0.0).terminal(m.tree)
            worst_gain = min(worst_gain, float(gains.min()))
            assert float(gains.max()) > 1e-9
        else:
            n_na += 1
            worst_resid = max(
                worst_resid, price_martingale_residual(m, cert.density)
            )
            min_leaf = min(min_leaf, float(cert.density.z[m.tree.leaves].min()))
    ok = worst_gain >= -1e-12 and worst_resid < 1e-9 and min_leaf > 0.0
    _line(2, "certificate soundness", ok,
          f"{n_arb} arbitrage replays (min gain {worst_gain:.1e} >= -1e-12), "
          f"{n_na} EMM densities (max residual {worst_resid:.1e} < 1e-9, "
          f"min leaf {min_leaf:.2e} > 0)")


def test_criterion_3_numeraire_supermartingale():
    worst_excess = -np.inf
    worst_binary_gap = 0.0
    for k in range(50):
        rng = np.random.default_rng(300 + k)
        binary = k % 2 == 1
        m = random_na_market(
            rng, d=int(rng.integers(1, 4)),
            branch_range=(2, 2) if binary else (2, 4),
        )
        sol = numeraire_portfolio(m)
        assert sol.status == "ok"
        rep = verify_numeraire(m, sol.wealth, n_strategies=1000, seed=k, tol=1e-7)
        assert rep["passed"]
        worst_excess = max(worst_excess, rep["worst_ratio_excess"])
        if binary:
            worst_binary_gap = max(worst_binary_gap, rep["binary_martingale_gap"])
    ok = worst_excess <= 1e-7 and worst_binary_gap <= 1e-9
    _line(3, "numeraire supermartingale", ok,
          f"50 markets x 1000 strategies, worst ratio excess "
          f"{worst_excess:.1e} <= 1e-7, worst binary martingale gap "
          f"{worst_binary_gap:.1e} <= 1e-9")


def _trinomial_grid_oracle():
    # martingale slice q(t) = (t/2, 1 - 1.5 t, t); brute grid, step 1e-6 in t
    t = np.linspace(1e-6, 2.0 / 3.0 - 1e-6, 666_667)
    q = np.stack([0.5 * t, 1.0 - 1.5 * t, t], axis=1)
    kl = np.sum(q * np.log(q * 3.0), axis=1)
    j = int(np.argmin(kl))
    return q[j], float(kl[j])


def test_criterion_4_hand_optima():
    log_pi = maximize_utility(
        load_fixture("binomial"), log_utility(), 1.0
    ).strategy.fractions[0, 0]
    skew_pi = maximize_utility(
        load_fixture("binomial_skew"), log_utility(), 1.0
    ).strategy.fractions[0, 0]
    crra_pi = maximize_utility(
        load_fixture("binomial"), crra_utility(2.0), 1.0
    ).strategy.fractions[0, 0]
    me = min_entropy_emm(load_fixture("trinomial"))
    q_ref, _ = _trinomial_grid_oracle()
    q_err = float(np.max(np.abs(me.leaf_q - q_ref)))
    ok = (
        abs(log_pi - 0.5) < 1e-8
        and abs(skew_pi - 1.0) < 1e-8
        and abs(crra_pi - 0.242640687) < 1e-8
        and q_err < 1e-3
        and me.kkt_residual < 1e-8
    )
    _line(4, "hand-derived optima", ok,
          f"log pi={log_pi:.9f} (0.5), skew pi={skew_pi:.9f} (1.0), "
          f"crra pi={crra_pi:.9f} (0.242640687), trinomial q err "
          f"{q_err:.1e} < 1e-3 vs grid oracle, KKT {me.kkt_residual:.1e} < 1e-8")


def test_criterion_5_measure_change():
    rng = np.random.default_rng(55)
    worst_l1_excess = -np.inf
    worst_norm = 0.0
    worst_bound = -np.inf
    for _ in range(100):
        t = random_tree(rng, depth_range=(1, 3), branch_range=(2, 4))
        p = t.unconditional_probs()[t.leaves]
        q = rng.uniform(0.05, 4.0, size=t.leaves.size)
        q /= float(p @ q)
        for eps in (0.5, 0.1, 0.01):
            dm = delta_for_epsilon(t, q, eps)
            worst_l1_excess = max(worst_l1_excess, dm.l1_dist - eps)
            worst_norm = max(worst_norm, abs(float(p @ dm.z_leaf) - 1.0))
            worst_bound = max(
                worst_bound, float(dm.z_leaf.max()) - dm.bound
            )
    bounds_ok = all(
        verify_value_bound(
            load_fixture(name),
            delta_for_epsilon(
                load_fixture(name).tree,
                min_entropy_emm(load_fixture(name)).density.z[
                    load_fixture(name).tree.leaves
                ],
                0.25,
            ),
        )["passed"]
        for name in NA_FIXTURES
    )
    ok = (
        worst_l1_excess <= 0.0
        and worst_norm <= 1e-12
        and worst_bound <= 1e-12
        and bounds_ok
    )
    _line(5, "bounded measure change", ok,
          f"300 eps targets met (worst l1 excess {worst_l1_excess:.1e}), "
          f"|E[Z]-1| <= {worst_norm:.1e} (1e-12), bound slack "
          f"{worst_bound:.1e} <= 1e-12, value bound on "
          f"{len(NA_FIXTURES)} fixtures: {bounds_ok}")


def test_criterion_6_entropy_identities():
    # hand fixture: the binomial EMM density, one period
    m = load_fixture("binomial")
    rep = entropy_hellinger(m.tree, check_na(m).density)
    hand_err = abs(rep.e_p_v_terminal - 0.056633)
    # plain identity on one-period trees, where the linear jump terms
    # cancel under the tree probabilities themselves
    rng = np.random.default_rng(66)
    worst_one = 0.0
    for _ in range(100):
        t = random_tree(rng, depth_range=(1, 1), branch_range=(2, 5))
        r = entropy_hellinger(t, random_martingale_density(t, rng))
        worst_one = max(worst_one, abs(r.e_p_v_terminal - r.relative_entropy))
    # density-weighted compensator identity at every depth
    worst_deep = 0.0
    for _ in range(100):
        t = random_tree(rng, depth_range=(2, 4), branch_range=(2, 3))
        r = entropy_hellinger(t, random_martingale_density(t, rng))
        worst_deep = max(worst_deep, abs(r.e_q_h_terminal - r.relative_entropy))
    # exponential-utility duality: induced density == entropy minimizer, the
    # latter from the dense null-space Newton kept as a test-only oracle
    def duality_gap(m):
        dense = newton_oracle.min_entropy_emm(m).density.z
        return float(np.max(np.abs(exp_utility(m).density.z - dense)))

    worst_gap = max(duality_gap(load_fixture(name)) for name in NA_FIXTURES)
    for seed in range(20):
        r2 = np.random.default_rng(660 + seed)
        worst_gap = max(worst_gap, duality_gap(random_na_market(r2, d=int(r2.integers(1, 3)))))
    ok = (
        hand_err <= 1e-6
        and worst_one <= 1e-10
        and worst_deep <= 1e-10
        and worst_gap <= 1e-6
    )
    _line(6, "entropy identities", ok,
          f"hand E[V_T] err {hand_err:.1e} <= 1e-6, one-period identity "
          f"{worst_one:.1e} <= 1e-10 (100 draws), weighted identity "
          f"{worst_deep:.1e} <= 1e-10 (100 deep draws), duality gap "
          f"{worst_gap:.1e} <= 1e-6")


def test_criterion_7_bessel_example():
    t0 = time.perf_counter()
    b = simulate_bes3(100_000, 1000, seed=7)
    rec = estimate_reciprocal_moment(b)
    gap = 1.0 - rec.mean
    lv = estimate_log_value(b)
    probe = numeraire_probe(b, n_strats=200, seed=8)
    elapsed = time.perf_counter() - t0
    i_ok = abs(rec.mean - 0.682689) <= 3.0 * rec.std_error
    int_est = lv["EintSinv2"]
    ii_ok = int_est.mean <= 1.386294 + 3.0 * int_est.std_error
    iii_ok = gap > 10.0 * rec.std_error
    iv_ok = probe["all_pass"] and probe["n_strategies"] == 200
    time_ok = elapsed < 120.0
    ok = i_ok and ii_ok and iii_ok and iv_ok and time_ok
    _line(7, "strict local martingale example", ok,
          f"E[1/S_1]={rec.mean:.6f} (target 0.682689, "
          f"{abs(rec.mean - 0.682689) / rec.std_error:.1f} SE), "
          f"integral {int_est.mean:.4f} <= 1.386294+3SE, "
          f"gap {gap:.4f} = {gap / rec.std_error:.0f} SE > 10 SE, "
          f"probe worst margin {probe['worst_margin']:.6f} (200 strategies), "
          f"{elapsed:.0f}s < 120s")


def test_criterion_8_localization():
    b = simulate_bes3(20_000, 1000, seed=7)
    rep = stopped_experiments(b, [1, 2, 4, 8, 16, 32, 64])
    means = [r["mean"] for r in rep["rows"]]
    finite = all(math.isfinite(x) for x in means)
    monotone = all(a <= x + 1e-12 for a, x in zip(means, means[1:]))
    top = rep["rows"][-1]
    se = math.hypot(top["std_error"], rep["unstopped_std_error"])
    conv_gap = abs(rep["unstopped_mean"] - top["mean"])
    converged = conv_gap <= 3.0 * se
    ok = finite and monotone and converged
    _line(8, "localization", ok,
          f"levels 1..64 finite={finite}, nondecreasing={monotone} "
          f"({means[0]:.3f} .. {means[-1]:.3f}), level-64 gap "
          f"{conv_gap:.4f} <= 3SE={3.0 * se:.4f}")


def _dyadic_density(tree, rng):
    z = np.ones(tree.n_nodes)
    for v in tree.internal:
        kids = tree.children[v]
        if kids.size == 2:
            r = float(rng.choice([0.5, 0.75, 1.25, 1.5]))
            z[kids[0]] = z[v] * r
            z[kids[1]] = z[v] * (2.0 - r)
        else:
            z[kids] = z[v]
    return DensityProcess(z=z)


def test_criterion_9_concatenation():
    rng = np.random.default_rng(99)
    worst_resid = 0.0
    all_positive = True
    flat_eq_left = True
    for _ in range(100):
        t = random_tree(rng, depth_range=(2, 4), branch_range=(2, 3))
        cut = StoppingTime.of(t, np.arange(*t.level_offsets[1:3]))
        term = StoppingTime.terminal(t)
        segs = [random_martingale_density(t, rng) for _ in range(2)]
        out = concatenate_densities(t, [cut, term], segs)
        worst_resid = max(worst_resid, out.report["martingale_residual"])
        all_positive = all_positive and out.report["positive"]
        # a left-nested two-stage splice must reproduce the flat call bitwise
        inner = concatenate_densities(t, [cut, term], segs)
        again = concatenate_densities(t, [term], [inner.density])
        flat_eq_left = flat_eq_left and np.array_equal(
            out.density.z, again.density.z
        )
    # full associativity, bitwise, on dyadic three-segment fixtures
    dyadic_exact = True
    for seed in range(25):
        r = np.random.default_rng(990 + seed)
        t = random_tree(r, depth_range=(3, 3), branch_range=(2, 2))
        c1 = StoppingTime.of(t, np.arange(*t.level_offsets[1:3]))
        c2 = StoppingTime.of(t, np.arange(*t.level_offsets[2:4]))
        term = StoppingTime.terminal(t)
        segs = [_dyadic_density(t, r) for _ in range(3)]
        flat = concatenate_densities(t, [c1, c2, term], segs).density.z
        inner = concatenate_densities(t, [c1, term], segs[:2]).density
        left = concatenate_densities(t, [c2, term], [inner, segs[2]]).density.z
        tail = concatenate_densities(t, [c2, term], segs[1:]).density
        right = concatenate_densities(t, [c1, term], [segs[0], tail]).density.z
        dyadic_exact = dyadic_exact and np.array_equal(flat, left) \
            and np.array_equal(flat, right)
    ok = (
        worst_resid < 1e-10 and all_positive and flat_eq_left and dyadic_exact
    )
    _line(9, "segment concatenation", ok,
          f"100 splices positive={all_positive}, worst residual "
          f"{worst_resid:.1e} < 1e-10, flat==left-nested bitwise: "
          f"{flat_eq_left}, three-segment associativity bitwise (dyadic): "
          f"{dyadic_exact}")
