"""Three-dimensional Bessel simulation and its strict-local-martingale studies.

The terminal marginal has a closed form (S_1^2 is noncentral chi-square
with three degrees of freedom), which gives exact targets for moment and
distribution checks without re-running the library's own estimators.
The streaming study is held bitwise to ``tests/bessel_oracle.py``, the
same estimators on a materialized path matrix.
"""

import dataclasses
import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import bessel_oracle as oracle
from viatree import bessel
from viatree.bessel import (
    PATH_CHUNK,
    Estimate,
    LOG_VALUE_BOUND,
    McBatch,
    RECIPROCAL_MOMENT_1,
    estimate_log_value,
    estimate_reciprocal_moment,
    numeraire_probe,
    reciprocal_checkpoints,
    simulate_bes3,
    stopped_experiments,
)

LEVELS = [1, 2, 4, 8, 16, 32, 64]


@pytest.fixture(scope="module")
def batch():
    # shared mid-size batch; tests below only read it
    return simulate_bes3(20_000, 200, seed=11, levels=LEVELS)


def _paths(n_paths, n_steps, seed):
    # one filler whose buffer holds every path
    return bessel._chunk_filler(n_steps, seed, n_paths)(0, n_paths)


class TestSimulation:
    def test_shapes_and_grid(self):
        b = simulate_bes3(16, 8, seed=0)
        paths = _paths(16, 8, 0)
        assert paths.shape == (16, 9)
        assert np.allclose(b.grid, np.linspace(0.0, 1.0, 9))
        assert np.all(paths[:, 0] == 1.0)
        assert np.all(paths > 0.0)

    def test_deterministic_given_seed(self):
        a = _paths(64, 16, 9)
        b = _paths(64, 16, 9)
        assert np.array_equal(a, b)

    def test_seed_changes_paths(self):
        a = _paths(64, 16, 9)
        b = _paths(64, 16, 10)
        assert not np.array_equal(a, b)

    def test_paths_keyed_individually(self):
        # path j depends on (seed, j) only, so prefixes agree across sizes
        small = _paths(50, 16, 3)
        large = _paths(100, 16, 3)
        assert np.array_equal(small, large[:50])

    def test_terminal_marginal_ks(self):
        # S_1 = |(1,0,0) + W|; compare simulated S_1^2 against exact
        # noncentral chi-square(3, 1) draws at the 1% KS level
        n = m = 4000
        sim = _paths(n, 1, 21)[:, -1] ** 2
        rng = np.random.default_rng(77)
        ref = ((1.0 + rng.standard_normal(m)) ** 2
               + rng.standard_normal(m) ** 2
               + rng.standard_normal(m) ** 2)
        xs = np.sort(np.concatenate([sim, ref]))
        f_sim = np.searchsorted(np.sort(sim), xs, side="right") / n
        f_ref = np.searchsorted(np.sort(ref), xs, side="right") / m
        d_stat = float(np.max(np.abs(f_sim - f_ref)))
        d_crit = 1.628 * math.sqrt((n + m) / (n * m))
        assert d_stat < d_crit

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate_bes3(0, 10)
        with pytest.raises(ValueError):
            simulate_bes3(10, 0)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_large_seeds_keep_their_bits(self, monkeypatch, cores):
        # a float64 key would merge 2**63 + 1 into 2**63 and wrap
        # 2**64 - 2 to 0 with a cast warning
        monkeypatch.setattr(bessel, "_cores", lambda: cores)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            terminal = {seed: simulate_bes3(PATH_CHUNK + 1, 10, seed=seed).terminal
                        for seed in (0, 2**63, 2**63 + 1, 2**64 - 2)}
        assert not np.array_equal(terminal[2**63], terminal[2**63 + 1])
        assert not np.array_equal(terminal[2**64 - 2], terminal[0])


def _assert_same_batch(a, b):
    for field in dataclasses.fields(McBatch):
        x, y = np.asarray(getattr(a, field.name)), np.asarray(getattr(b, field.name))
        assert x.dtype == y.dtype and x.shape == y.shape, field.name
        assert x.tobytes() == y.tobytes(), field.name


class TestWorkers:
    """The chunks are spread over worker threads; every statistic reads
    its own path only, so the batch is bitwise the same for any count."""

    @pytest.fixture
    def pooled(self, monkeypatch):
        """Worker counts of the pools that simulate_bes3 starts."""
        calls = []
        real = bessel._pooled_chunks

        def spy(reduce, n_paths, n_steps, seed, workers):
            calls.append(workers)
            real(reduce, n_paths, n_steps, seed, workers)

        monkeypatch.setattr(bessel, "_pooled_chunks", spy)
        return calls

    @pytest.mark.parametrize(
        "n_paths", [1, PATH_CHUNK - 1, PATH_CHUNK, PATH_CHUNK + 1, 3 * PATH_CHUNK + 5]
    )
    def test_batch_bitwise_for_any_worker_count(self, monkeypatch, pooled, n_paths):
        batches = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(bessel, "_cores", lambda: cores)
            pooled.clear()
            batches.append(simulate_bes3(n_paths, 120, seed=8, levels=LEVELS))
            # one chunk or one core runs a pool of one worker
            assert pooled == [min(cores, -(-n_paths // PATH_CHUNK))]
        for b in batches[1:]:
            _assert_same_batch(b, batches[0])

    def test_many_workers_lose_no_chunk(self, monkeypatch, pooled):
        # more workers than cores, switching threads every microsecond:
        # a chunk taken twice or skipped would leave a column unwritten
        monkeypatch.setattr(bessel, "_cores", lambda: 1)
        want = simulate_bes3(1000, 12, seed=5, levels=LEVELS)
        monkeypatch.setattr(bessel, "_cores", lambda: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate_bes3(1000, 12, seed=5, levels=LEVELS)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == [1, 8]
        _assert_same_batch(got, want)

    def test_worker_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(bessel, "_cores", lambda: 2)
        real = bessel._chunk_filler

        def filler(n_steps, seed, rows):
            fill = real(n_steps, seed, rows)

            def fill_or_fail(start, c):
                if start == 2 * rows:
                    raise RuntimeError(f"chunk at path {start} failed")
                return fill(start, c)

            return fill_or_fail

        monkeypatch.setattr(bessel, "_chunk_filler", filler)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk at path 128 failed"):
            simulate_bes3(3 * PATH_CHUNK + 5, 20, seed=1)
        # the pool lives inside the call: no worker thread outlives it
        assert threading.active_count() == threads


    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_error_cancels_later_chunks(self, monkeypatch, k):
        # one worker takes the chunks in order; the failed chunk shuts the
        # pool before the worker can take the next one
        monkeypatch.setattr(bessel, "_cores", lambda: 1)
        real = bessel._chunk_filler
        filled = []

        def filler(n_steps, seed, rows):
            fill = real(n_steps, seed, rows)

            def record(start, c):
                filled.append(start)
                if start == k * rows:
                    raise RuntimeError(f"chunk {k} failed")
                return fill(start, c)

            return record

        monkeypatch.setattr(bessel, "_chunk_filler", filler)
        with pytest.raises(RuntimeError, match=f"chunk {k} failed"):
            simulate_bes3(6 * PATH_CHUNK, 20, seed=2)
        assert filled == [i * PATH_CHUNK for i in range(k + 1)]


class TestOracle:
    """Every estimate of the streaming study is bitwise the matrix oracle's;
    repr round-trips a float exactly, so equal reprs mean equal bits."""

    # numpy keys Philox through float64 above 2**63; 2**64 - 2**11 is the
    # largest seed it keeps exactly
    @pytest.mark.parametrize("seed", [3, 2**64 - 2**11])
    @pytest.mark.parametrize("n_steps", [1, 7, 100, 250])
    @pytest.mark.parametrize(
        "n_paths", [1, PATH_CHUNK - 1, PATH_CHUNK, PATH_CHUNK + 1, 3 * PATH_CHUNK + 5]
    )
    def test_study_matches_oracle(self, n_paths, n_steps, seed):
        want = oracle.simulate_bes3(n_paths, n_steps, seed=seed)
        b = simulate_bes3(n_paths, n_steps, seed=seed, levels=LEVELS)
        assert np.array_equal(_paths(n_paths, n_steps, seed), want.paths)
        assert repr(estimate_reciprocal_moment(b)) == repr(
            oracle.estimate_reciprocal_moment(want))
        if n_steps >= 100:
            assert repr(estimate_log_value(b)) == repr(oracle.estimate_log_value(want))
        assert repr(numeraire_probe(b, n_strats=20, seed=5)) == repr(
            oracle.numeraire_probe(want, n_strats=20, seed=5))
        assert repr(stopped_experiments(b)) == repr(
            oracle.stopped_experiments(want, LEVELS))
        # the oracle repeats grid points and includes t = 0 when
        # n_steps < 10; the study keeps the distinct checkpoints above 0
        distinct = {e.label: e for e in oracle.reciprocal_checkpoints(want)
                    if e.label != "E[1/S_0]"}
        assert repr(reciprocal_checkpoints(b)) == repr(list(distinct.values()))

    def test_checkpoints_distinct_on_coarse_grid(self):
        labels = [e.label for e in reciprocal_checkpoints(simulate_bes3(50, 3, seed=1))]
        assert labels == ["E[1/S_0.333333]", "E[1/S_0.666667]", "E[1/S_1]"]

    def test_peak_memory_is_the_chunk(self):
        # the study holds per-path statistics, not paths: a path matrix
        # alone would add 8 KB per path at 1,000 steps
        def peak(n_paths):
            tracemalloc.start()
            try:
                b = simulate_bes3(n_paths, 1000, seed=4, levels=LEVELS)
                estimate_log_value(b)
                numeraire_probe(b, n_strats=20, seed=5)
                stopped_experiments(b)
                reciprocal_checkpoints(b)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(512)  # the first study pays one-time allocations
        small, large = peak(512), peak(4096)
        assert (large - small) / (4096 - 512) < 2048


class TestEstimates:
    def test_estimate_of_single_sample(self):
        e = Estimate.of(np.array([2.0]), "x")
        assert e.mean == 2.0
        assert math.isnan(e.std_error)

    def test_reciprocal_moment_hits_closed_form(self, batch):
        est = estimate_reciprocal_moment(batch)
        assert abs(est.mean - RECIPROCAL_MOMENT_1) <= 3.0 * est.std_error
        assert est.std_error < 0.005

    def test_reciprocal_moment_exposes_gap(self, batch):
        # 1 - E[1/S_1] is the failure of the martingale property at t = 1
        est = estimate_reciprocal_moment(batch)
        gap = 1.0 - est.mean
        assert gap > 10.0 * est.std_error

    def test_checkpoints_decrease(self, batch):
        ests = reciprocal_checkpoints(batch)
        means = [e.mean for e in ests]
        assert len(means) == 10
        # strict supermartingale: monotone decay, large against noise
        assert all(a > b for a, b in zip(means, means[1:]))
        assert means[0] > 0.8 and means[-1] < 0.72

    def test_log_value_and_ito_identity(self, batch):
        rep = estimate_log_value(batch)
        assert rep["bound_check"] == "pass"
        assert rep["ito_check"] == "pass"
        assert rep["EintSinv2"].mean <= LOG_VALUE_BOUND
        assert abs(rep["ito_residual"].mean) <= 3.0 * rep["ito_residual"].std_error

    def test_log_value_needs_fine_grid(self):
        b = simulate_bes3(100, 50, seed=1)
        with pytest.raises(ValueError, match="at least 100 steps"):
            estimate_log_value(b)


class TestProbe:
    def test_probe_margins(self, batch):
        rep = numeraire_probe(batch, n_strats=50, seed=5)
        assert rep["all_pass"]
        assert rep["n_strategies"] == 50
        rows = {r["label"]: r for r in rep["rows"]}
        # the zero strategy is the raw reciprocal moment
        est = estimate_reciprocal_moment(batch)
        assert rows["zero"]["mean"] == est.mean
        # holding one share makes X_T / S_1 = 1 identically
        assert rows["one-share"]["mean"] == 1.0
        assert rows["one-share"]["std_error"] == 0.0
        for r in rep["rows"]:
            assert r["margin"] <= 1.0 + 3.0 * max(r["std_error"], 1e-12)

    def test_probe_counts_rejections(self, batch):
        rep = numeraire_probe(batch, n_strats=30, seed=2)
        total = sum(r["n_rejected"] for r in rep["rows"])
        assert rep["total_rejected"] == total
        for r in rep["rows"]:
            assert r["n_used"] + r["n_rejected"] == batch.n_paths

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_row_without_usable_path(self, seed, capsys):
        # `viatree simulate --paths 2 --steps 100 --seed s`: some sampled
        # strategy rejects both paths, and its row has no mean to take
        from viatree.cli import main

        assert main(["simulate", "--paths", "2", "--steps", "100", "--seed", str(seed)]) == 1
        probe = json.loads(capsys.readouterr().out)["payload"]["probe"]
        rep = numeraire_probe(simulate_bes3(2, 100, seed=seed), seed=seed + 1)
        empty = [r for r in rep["rows"] if r["n_used"] == 0]
        assert empty
        for r in empty:
            assert r["n_rejected"] == 2 and r["pass"]
            assert r["mean"] is r["std_error"] is r["margin"] is None
        used = [r for r in rep["rows"] if r["n_used"] >= 2]  # one path has no margin
        worst = max(used, key=lambda r: r["margin"])
        assert (rep["worst_label"], rep["worst_margin"]) == (worst["label"], worst["margin"])
        assert rep["all_pass"] is all(r["pass"] for r in used)
        assert probe["worst_label"] == rep["worst_label"]
        assert probe["total_rejected"] == rep["total_rejected"]


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(8))
    def test_row_with_one_usable_path(self, seed):
        # two paths: a sampled strategy that rejects one of them leaves a
        # single ratio, which has no standard error and so nothing to fail
        b = simulate_bes3(2, 100, seed=seed)
        rep = numeraire_probe(b, seed=seed + 1)
        single = [r for r in rep["rows"] if r["n_used"] == 1]
        assert single
        for r in single:
            assert r["std_error"] is r["margin"] is None and r["pass"]
            assert r["n_rejected"] == 1 and r["mean"] > 0.0
        scored = [r for r in rep["rows"] if r["n_used"] >= 2]
        assert all(r["std_error"] is not None for r in scored)
        assert rep["all_pass"] is all(r["pass"] for r in scored)
        worst = max(scored, key=lambda r: r["margin"])
        assert (rep["worst_label"], rep["worst_margin"]) == (worst["label"], worst["margin"])
        assert repr(rep) == repr(oracle.numeraire_probe(oracle.simulate_bes3(2, 100, seed=seed), seed=seed + 1))


class TestStopped:
    def test_level_one_stops_at_zero(self, batch):
        rep = stopped_experiments(batch)
        first = rep["rows"][0]
        assert first["level"] == 1
        assert first["mean"] == 0.0
        assert first["frac_stopped"] == 1.0

    def test_levels_increase_toward_unstopped(self, batch):
        rep = stopped_experiments(batch)
        means = [r["mean"] for r in rep["rows"]]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
        top = rep["rows"][-1]
        se = math.hypot(top["std_error"], rep["unstopped_std_error"])
        assert abs(rep["unstopped_mean"] - top["mean"]) <= 3.0 * se
        # fraction of stopped paths falls as the barriers widen
        fracs = [r["frac_stopped"] for r in rep["rows"]]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_levels_validated(self):
        with pytest.raises(ValueError, match="levels"):
            simulate_bes3(8, 4, levels=[0, 2])
        with pytest.raises(ValueError, match="at least one"):
            stopped_experiments(simulate_bes3(8, 4, levels=[]))

    @pytest.mark.parametrize("levels", [[2.5, True], [True], [2.5], ["2"], [np.float64(4.0)]])
    def test_levels_must_be_integers(self, levels):
        with pytest.raises(ValueError, match="levels must be integers >= 1"):
            simulate_bes3(8, 4, levels=levels)

    def test_numpy_integer_levels(self):
        b = simulate_bes3(8, 4, levels=[np.int64(4), 1])
        assert [r["level"] for r in stopped_experiments(b)["rows"]] == [4, 1]
