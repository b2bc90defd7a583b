"""Repeat reads of an unchanged model or tree cost a lookup, and results
stay the caller's own.

* ``EventTree.unconditional_probs`` keeps the node probabilities and
  multiplies again only after ``branch_prob`` changes; each call returns its
  own array.  ``EventTree.stack`` keeps its slot layout per slice, and its
  output equals a loop's;
* library code reads the kept ``check_na`` certificate without a copy, so
  mutating whatever a public call returns leaves the next call on the same
  model bitwise equal to a fresh model's;
* ``verify_numeraire`` and ``deflator_probe`` check a candidate only when no
  kept reports match it: a repeated call runs neither the check nor
  ``_node_excess``, and a bad candidate raises the same ``ValueError`` with
  or without kept reports;
* the log and power stacks evaluate every start point once: ``fraction_problems``
  tests its start on the wealth factors alone, ``damped_newton``'s first call
  evaluates it, and the log polish steps from the Hessians that
  ``damped_newton`` returns.  A fit that leaves the domain is never evaluated.
  A row whose gradient is already at its rounding floor gets no polish
  evaluation; a cold-started row above its floor polishes as before.
"""

import numpy as np
import pytest
from test_arbitrage import fresh, same_bits

from viatree import (
    ArbitrageError,
    EventTree,
    WealthProcess,
    check_na,
    crra_utility,
    deflator_probe,
    exp_utility,
    log_utility,
    maximize_utility,
    min_entropy_emm,
    numeraire,
    numeraire_portfolio,
    verify_numeraire,
    viability_under_measure,
)
from viatree.generators import random_na_market
from viatree.markets import WealthKernel, _step_weights
from viatree.newton import FOC_TOL, NEWTON_MAX_ITER, damped_newton, least_norm_fit
from viatree.numeraire import log_optimal_stack
from viatree.utility import power_optimal_stack


def _market(seed):
    return random_na_market(np.random.default_rng(seed), d=2, depth_range=(3, 3))


# ------------------------------------------------------- node probabilities


def test_sibling_sum_error_prints_a_plain_float():
    with pytest.raises(ValueError) as err:
        EventTree([None, 0, 0], [1.0, 0.6, 0.5])
    assert str(err.value) == ("branch probabilities out of node 0 sum to 1.1, "
                              "expected 1 within 1e-12")


class TestNodeProbabilities:
    def test_in_place_branch_prob_change_is_seen(self):
        t = _market(1).tree
        before = t.unconditional_probs()
        kids = t.children[0]
        t.branch_prob[kids] = t.branch_prob[kids][::-1]  # still sums to 1
        after = t.unconditional_probs()
        assert not np.array_equal(after, before)
        assert after.tobytes() == EventTree(t.parent, t.branch_prob.copy()).unconditional_probs().tobytes()

    def test_assigned_branch_prob_is_seen(self):
        t = _market(2).tree
        t.unconditional_probs()
        bp = t.branch_prob.copy()
        kids = t.children[0]
        bp[kids] = bp[kids][::-1]
        t.branch_prob = bp
        assert t.unconditional_probs().tobytes() == EventTree(t.parent, bp.copy()).unconditional_probs().tobytes()

    def test_returned_array_is_the_callers(self):
        t = _market(3).tree
        want = t.unconditional_probs().tobytes()
        got = t.unconditional_probs()
        got[:] = 0.0
        assert t.unconditional_probs().tobytes() == want
        assert t.unconditional_probs() is not t.unconditional_probs()

    def test_unchanged_tree_multiplies_once(self, monkeypatch):
        t = _market(4).tree
        rolls = []
        roll = t.roll
        monkeypatch.setattr(t, "roll", lambda *args, **kw: rolls.append(1) or roll(*args, **kw))
        for _ in range(3):
            t.unconditional_probs()
        assert len(rolls) == 1
        t.branch_prob[t.children[0]] = t.branch_prob[t.children[0]][::-1]
        t.unconditional_probs()
        assert len(rolls) == 2


def _stacked(t, per_edge, fill, rows):
    """``EventTree.stack`` by a loop over the internal nodes ``rows``."""
    nodes = range(t.internal.size)[rows]
    width = max((int(t.sizes[i]) for i in nodes), default=0)
    out = np.full((len(nodes), width, *per_edge.shape[1:]), fill)
    for r, i in enumerate(nodes):
        out[r, : t.sizes[i]] = per_edge[t.starts[i] : t.starts[i] + t.sizes[i]]
    return out


@pytest.mark.parametrize("seed", range(3))
def test_kept_stack_layouts_match_a_loop(seed):
    m = random_na_market(np.random.default_rng(seed), d=2, depth_range=(4, 4), branch_range=(1, 4))
    t = m.tree
    rng = np.random.default_rng(seed)
    for rows in (slice(None), *t.node_levels):
        for _ in range(2):  # the second call reads the kept layout
            per_edge = rng.normal(size=(t.edges.size, 2))
            got = t.stack(per_edge, -1.0, rows)
            assert got.tobytes() == _stacked(t, per_edge, -1.0, rows).tobytes()
            got[...] = 5.0  # the caller's own array
    assert len(t._slots) == 1 + len(t.node_levels)


# ------------------------------------------------------- certificate reads


def _spoil(x):
    """Overwrite every array and clear every dict reachable from ``x``."""
    if isinstance(x, np.ndarray):
        x[...] = 7.0
    elif isinstance(x, dict):
        for v in x.values():
            _spoil(v)
        x.clear()
    elif isinstance(x, (list, tuple)):
        for v in x:
            _spoil(v)
    elif hasattr(x, "__dict__"):
        for v in vars(x).values():
            _spoil(v)


CALLS = {
    "check_na": check_na,
    "numeraire_portfolio": numeraire_portfolio,
    "maximize_utility log": lambda m: maximize_utility(m, log_utility()),
    "maximize_utility crra": lambda m: maximize_utility(m, crra_utility(2.0)),
    "viability_under_measure": viability_under_measure,
    "min_entropy_emm": min_entropy_emm,
    "exp_utility": exp_utility,
}


@pytest.mark.parametrize("seed", range(3))
def test_spoiled_results_leave_the_next_calls_fresh(seed):
    m = _market(10 + seed)
    other = fresh(m)
    cert = check_na(m)
    assert cert.node_eps and cert.density is not None
    for call in CALLS.values():
        _spoil(call(m))
    _spoil(cert)
    for name, call in CALLS.items():
        assert same_bits(call(m), call(other)), name
    m.tree.unconditional_probs()[:] = 0.0
    assert same_bits(m.tree.unconditional_probs(), other.tree.unconditional_probs())


def test_spoiled_certificates_of_results_leave_the_model_fresh():
    m = _market(13)
    want = check_na(fresh(m))
    numeraire_portfolio(m).certificate.density.z[:] = 5.0
    maximize_utility(m, log_utility()).certificate.node_eps.clear()
    min_entropy_emm(m).density.z[:] = 5.0
    assert same_bits(check_na(m), want)
    assert same_bits(min_entropy_emm(m), min_entropy_emm(fresh(m)))


def test_arbitrage_error_carries_a_copy(arbitrage_market):
    for _ in range(2):
        with pytest.raises(ArbitrageError) as err:
            min_entropy_emm(arbitrage_market)
        err.value.certificate.strategy.holdings[:] = 0.0
        err.value.certificate.replay.clear()
    assert same_bits(check_na(arbitrage_market), check_na(fresh(arbitrage_market)))


# --------------------------------------------------------- report lookups


@pytest.fixture
def passes(monkeypatch):
    """Calls of the candidate check and of ``_node_excess``."""
    calls = {"checked": 0, "excess": 0}
    for name, key in (("_checked_candidate", "checked"), ("_node_excess", "excess")):
        fn = getattr(numeraire, name)

        def counted(*args, _fn=fn, _key=key):
            calls[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(numeraire, name, counted)
    return calls


def test_kept_candidate_is_not_checked_again(passes):
    m = _market(20)
    good = numeraire_portfolio(m).wealth
    first = verify_numeraire(m, good), deflator_probe(m, good)
    assert passes == {"checked": 1, "excess": 1}
    for _ in range(3):
        assert (verify_numeraire(m, good), deflator_probe(m, good)) == first
    verify_numeraire(m, good).clear()  # the caller's own copies
    deflator_probe(m, good)["passed"] = None
    assert (verify_numeraire(m, good), deflator_probe(m, good)) == first
    assert passes == {"checked": 1, "excess": 1}
    other = WealthProcess(x0=good.x0, values=good.values * 1.01)
    deflator_probe(m, other)
    assert passes == {"checked": 2, "excess": 2}


BAD = {
    "nan": lambda w: WealthProcess(x0=w.x0, values=np.where(np.arange(w.values.size) == 3, np.nan, w.values)),
    "zero": lambda w: WealthProcess(x0=w.x0, values=np.where(np.arange(w.values.size) == 2, 0.0, w.values)),
    "negative": lambda w: WealthProcess(x0=w.x0, values=-w.values),
    "shape": lambda w: WealthProcess(x0=w.x0, values=w.values[:-1]),
    "x0 nan": lambda w: WealthProcess(x0=float("nan"), values=w.values),
    "x0 zero": lambda w: WealthProcess(x0=0.0, values=w.values),
    "x0 inf": lambda w: WealthProcess(x0=float("inf"), values=w.values),
}


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("probe", (verify_numeraire, deflator_probe))
def test_bad_candidate_raises_the_same_with_or_without_kept_reports(kind, probe):
    cold, warm = _market(21), _market(21)
    good = numeraire_portfolio(warm).wealth
    probe(warm, good)  # keeps the good candidate's reports
    bad = BAD[kind](good)
    with pytest.raises(ValueError) as without:
        probe(cold, bad)
    for _ in range(2):
        with pytest.raises(ValueError) as with_kept:
            probe(warm, bad)
        assert str(with_kept.value) == str(without.value)
    assert probe(warm, good)["passed"]


# ------------------------------------------------------------ evaluations


@pytest.fixture
def evaluations(monkeypatch):
    """Per computed ``_fraction_values`` call, its (row, point bytes) pairs."""
    calls = []
    values = numeraire._fraction_values

    def counted(R, a, gamma, x, rows):
        calls.append([(int(r), x[i].tobytes()) for i, r in enumerate(rows)])
        return values(R, a, gamma, x, rows)

    monkeypatch.setattr(numeraire, "_fraction_values", counted)
    return calls


def _unique_weight_nodes(seed, d=1):
    """The stacked nodes of a d-asset market with d + 1 branches each, whose
    martingale weights are unique: (R, p, q)."""
    m = random_na_market(np.random.default_rng(seed), d=d, depth_range=(4 - d // 2, 4 - d // 2),
                         branch_range=(d + 1, d + 1))
    t = m.tree
    R = WealthKernel(m).returns
    q = _step_weights(m, check_na(m).density)
    return t.stack(R, 0.0), t.stack(t.branch_prob[t.edges], 0.0), t.stack(q, 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_log_stack_evaluates_each_start_once(seed, evaluations):
    R, p, q = _unique_weight_nodes(seed)
    pi, gnorm, steps = log_optimal_stack(R, p, q)
    assert steps.max() == 0 and np.all(gnorm < numeraire.FOC_TOL)
    start, polish = evaluations[0], evaluations[1:]
    assert [r for r, _ in start] == list(range(R.shape[0]))
    # the rest are the polish's full steps from the solver's own Hessians
    assert len(polish) <= 3 and start not in polish


@pytest.mark.parametrize("seed", range(4))
def test_power_stack_evaluates_each_start_once(seed, evaluations):
    R, p, q = _unique_weight_nodes(seed)
    pi, f, gnorm, steps = power_optimal_stack(R, -p, 2.0, q)
    assert steps.max() == 0
    assert len(evaluations) == 1 and [r for r, _ in evaluations[0]] == list(range(R.shape[0]))


@pytest.mark.parametrize("seed", (0, 13))
def test_rejected_fit_is_not_evaluated(seed, evaluations):
    m = random_na_market(np.random.default_rng(seed), d=1, depth_range=(1, 4), branch_range=(2, 4))
    t = m.tree
    R, p = t.stack(WealthKernel(m).returns, 0.0), t.stack(t.branch_prob[t.edges], 0.0)
    q = t.stack(_step_weights(m, check_na(m).density), 1.0)
    fit = least_norm_fit(R, p / q / np.sum(p, axis=1, keepdims=True) - 1.0)
    assert np.any(1.0 + (R @ fit[:, :, None])[:, :, 0] <= 0.0)  # some row's fit leaves the domain
    _, start = numeraire.fraction_problems(R, p, q=q)
    log_optimal_stack(R, p, q)
    assert evaluations[0] == [(r, start[r].tobytes()) for r in range(R.shape[0])]
    pairs = [pair for call in evaluations for pair in call]
    assert len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("seed", range(3))
def test_rows_at_their_rounding_floor_get_no_polish(d, seed, evaluations):
    R, p, q = _unique_weight_nodes(seed, d)
    evaluate, start = numeraire.fraction_problems(R, p, q=q)
    _, grad, _ = evaluate(start, np.arange(R.shape[0]))
    at_floor = np.max(np.abs(grad), axis=1) <= numeraire._gradient_floor(R, p, start)
    assert at_floor.mean() > 0.5  # the certificate start is the optimum to rounding
    evaluations.clear()
    pi, gnorm, steps = log_optimal_stack(R, p, q)
    assert steps.max() == 0
    polished = {r for call in evaluations[1:] for r, _ in call}
    assert polished.isdisjoint(np.flatnonzero(at_floor).tolist())
    assert pi[at_floor].tobytes() == start[at_floor].tobytes()


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("seed", range(3))
def test_cold_rows_above_their_floor_still_polish(d, seed, evaluations):
    R, p, _ = _unique_weight_nodes(seed, d)
    evaluate, start = numeraire.fraction_problems(R, p)
    pi0, _, _, _, gnorm0, _ = damped_newton(evaluate, start, FOC_TOL, NEWTON_MAX_ITER)
    solver = list(evaluations)
    above = (gnorm0 > numeraire._gradient_floor(R, p, pi0)) & (gnorm0 < FOC_TOL)
    assert above.any()
    evaluations.clear()
    pi, gnorm, steps = log_optimal_stack(R, p)
    assert evaluations[: len(solver)] == solver  # damped_newton's own calls come first
    first_polish = [r for r, _ in evaluations[len(solver)]]
    assert first_polish == np.flatnonzero(above).tolist()
    assert np.all(gnorm <= gnorm0) and np.any(gnorm[above] < gnorm0[above])
    g = 1.0 + (R @ pi[:, :, None])[:, :, 0]
    assert np.abs(1.0 - np.sum(p / g, axis=1)).max() <= 1e-12
