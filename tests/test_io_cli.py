"""Market files, reports, fixtures, and the command-line interface."""

import hashlib
import json
import math
import os
import re
import stat
import types
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from test_arbitrage import bessel_tree

import loop_oracle

from viatree import (
    MarketFormatError,
    MarketModel,
    fixture_names,
    load_fixture,
    load_market,
    market_from_dict,
    market_to_dict,
    save_market,
)
import viatree
from viatree import bessel, numeraire
from viatree.cli import build_parser, main
from viatree.generators import random_market, random_na_market
from viatree.market_io import atomic_write_text
from viatree.numeraire import RATIO_TOL
from viatree.reporting import make_report, render, sanitize, to_csv, to_json
from viatree.utility import VIABILITY_TOL


class TestMarketFiles:
    def test_round_trip_exact(self, tmp_path, rng):
        m = random_market(rng, d=2, depth_range=(3, 3))
        path = tmp_path / "m.json"
        save_market(m, path)
        back = load_market(path)
        # repr-based JSON floats round-trip float64 exactly
        assert np.array_equal(back.prices, m.prices)
        assert np.array_equal(back.tree.parent, m.tree.parent)
        assert np.array_equal(back.tree.branch_prob, m.tree.branch_prob)
        assert back.label == m.label

    def test_dict_round_trip(self, binomial):
        again = market_from_dict(market_to_dict(binomial))
        assert np.array_equal(again.prices, binomial.prices)

    def test_prob_out_of_range_names_node(self, binomial):
        obj = market_to_dict(binomial)
        obj["nodes"][2]["prob"] = 1.2
        with pytest.raises(MarketFormatError, match="node 2"):
            market_from_dict(obj)

    def test_unknown_field_rejected(self, binomial):
        obj = market_to_dict(binomial)
        obj["drift"] = 0.1
        with pytest.raises(MarketFormatError, match="unknown top-level"):
            market_from_dict(obj)

    def test_missing_field_rejected(self, binomial):
        obj = market_to_dict(binomial)
        del obj["horizon"]
        with pytest.raises(MarketFormatError, match="missing"):
            market_from_dict(obj)

    def test_horizon_cross_checked(self, binomial):
        obj = market_to_dict(binomial)
        obj["horizon"] = 7
        with pytest.raises(MarketFormatError, match="horizon"):
            market_from_dict(obj)

    def test_price_count_must_match_d(self, binomial):
        obj = market_to_dict(binomial)
        obj["nodes"][1]["prices"] = [1.0, 2.0]
        with pytest.raises(MarketFormatError, match="expected 1 prices"):
            market_from_dict(obj)

    def test_bad_tree_wrapped(self, binomial):
        obj = market_to_dict(binomial)
        obj["nodes"][2]["prob"] = 0.6  # siblings now sum to 1.1
        with pytest.raises(MarketFormatError, match="invalid tree"):
            market_from_dict(obj)

    def test_non_finite_literals_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"label": "x", "d": 1, "horizon": 0, "nodes": '
                        '[{"id": 0, "parent": null, "prob": 1.0, "prices": [NaN]}]}')
        with pytest.raises(MarketFormatError, match="non-finite"):
            load_market(path)

    def test_overflowing_price_names_node(self, tmp_path):
        # 1e400 parses as inf; the model's own check rejects it
        path = tmp_path / "big.json"
        path.write_text('{"label": "x", "d": 1, "horizon": 1, "nodes": ['
                        '{"id": 0, "parent": null, "prob": 1.0, "prices": [1.0]}, '
                        '{"id": 1, "parent": 0, "prob": 0.5, "prices": [2.0]}, '
                        '{"id": 2, "parent": 0, "prob": 0.5, "prices": [1e400]}]}')
        with pytest.raises(MarketFormatError, match=r"^node 2: price 0 is not finite$"):
            load_market(path)

    def test_duplicate_id_rejected(self, binomial):
        obj = market_to_dict(binomial)
        obj["nodes"][2]["id"] = 1
        with pytest.raises(MarketFormatError, match="duplicate"):
            market_from_dict(obj)

    def test_atomic_write_replaces(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write_text(p, "one")
        atomic_write_text(p, "two")
        assert p.read_text() == "two"
        assert list(tmp_path.iterdir()) == [p]  # no stray temp files


    # sha256 of save_market's file for each bundled fixture, as written
    # before market_to_dict read the model by column
    SAVED_SHA256 = {
        "arbitrage": "434cbdeb5feb71721aa7a8b6bc2a47caac00a06523517f81b729b356029daf5a",
        "binomial": "a22daba872db11301e740e35be0e99972f792093b2d68467ea035e6d9305019a",
        "binomial_skew": "0efb9d0ce30ee68709ea8cfd0fca4bd9ac22e12d5fecb90c5cfed35e464bbad7",
        "constant": "5d6e5c5d4137624461eaf9f02a871f18ff0f2be78eafac536cff8c0107a1d21d",
        "trinomial": "dad280e61ff488397caadddc242dddd364ce90b482436c0dd7972958f940fe77",
        "two_period": "b11c3084101797b1160e0b3c628a0313de17342ac2e96ab11dc7e9a7ceb6291a",
    }

    @pytest.mark.parametrize("name", sorted(SAVED_SHA256))
    def test_saved_bytes_are_pinned(self, name, tmp_path):
        path = tmp_path / "m.json"
        save_market(load_fixture(name), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.SAVED_SHA256[name]

    def test_rows_in_any_order_load_the_same_model(self, rng):
        m = random_market(rng, d=2, depth_range=(3, 3))
        obj = market_to_dict(m)
        rows = obj["nodes"]
        shuffled = dict(obj, nodes=[rows[k] for k in rng.permutation(len(rows))])
        assert shuffled["nodes"] != rows
        back = market_from_dict(shuffled)
        assert np.array_equal(back.tree.parent, m.tree.parent)
        assert np.array_equal(back.tree.branch_prob, m.tree.branch_prob)
        assert np.array_equal(back.prices, m.prices)

    @pytest.mark.parametrize("mask", [0o022, 0o077, 0o002])
    def test_written_files_follow_the_umask(self, mask, tmp_path):
        # save_market and --out reports are created as open(path, "w") would
        market, report = tmp_path / "m.json", tmp_path / "r.json"
        old = os.umask(mask)
        try:
            save_market(load_fixture("binomial"), market)
            assert main(["check", "--market", str(market), "--out", str(report)]) == 0
        finally:
            os.umask(old)
        for path in (market, report):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~mask, path.name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "r.json"]


def spoil(kind, obj, k):
    """Break row k of a d = 1 market dict in one way; the loader message it
    causes, for ids 0..n-1 listed in order."""
    rows = obj["nodes"]
    if kind == "object":
        rows[k] = [k]
        return "each node must be an object"
    if kind == "fields":
        rows[k]["drift"] = 0.0
        return "node fields mismatch: extra ['drift'], missing []"
    if kind == "id":
        rows[k]["id"] = 99
        return f"node id 99 outside 0..{len(rows) - 1}"
    if kind == "duplicate":
        rows[k]["id"] = k - 1
        return f"duplicate node id {k - 1}"
    if kind == "parent":
        rows[k]["parent"] = -3
        return f"node {k}: bad parent -3"
    if kind == "prob-type":
        rows[k]["prob"] = "0.5"
        return f"node {k}: prob must be a number"
    if kind == "prob-range":
        rows[k]["prob"] = 1.5
        return f"node {k}: prob 1.5 outside the half-open interval (0, 1]"
    if kind == "price-count":
        rows[k]["prices"] = [1.0, 2.0]
        return f"node {k}: expected 1 prices"
    if kind == "price-type":
        rows[k]["prices"] = [None]
        return f"node {k}: price 0 is not a number"
    raise AssertionError(kind)


SPOILS = ["object", "fields", "id", "duplicate", "parent", "prob-type", "prob-range",
          "price-count", "price-type"]
# one spoil per field, in the order a row's rules run, paired earlier-first
FIELD_SPOILS = ["id", "parent", "prob-type", "price-count"]
ROW_PAIRS = [(a, b) for i, a in enumerate(FIELD_SPOILS) for b in FIELD_SPOILS[i + 1:]]


class TestLoaderPrecedence:
    """The loader checks each rule over a column of rows, and still names the
    first offending row in file order, with that row's first broken rule."""

    @pytest.mark.parametrize("first", SPOILS)
    @pytest.mark.parametrize("second", SPOILS)
    def test_first_offending_row_wins(self, first, second):
        obj = market_to_dict(load_fixture("two_period"))
        want = spoil(first, obj, 2)
        spoil(second, obj, 5)
        with pytest.raises(MarketFormatError) as exc:
            market_from_dict(obj)
        assert str(exc.value) == want

    @pytest.mark.parametrize("pair", ROW_PAIRS)
    def test_a_rows_first_rule_wins(self, pair):
        obj = market_to_dict(load_fixture("two_period"))
        want = spoil(pair[0], obj, 3)
        spoil(pair[1], obj, 3)
        with pytest.raises(MarketFormatError) as exc:
            market_from_dict(obj)
        assert str(exc.value) == want

    @pytest.mark.parametrize("other_row, message", [
        (3, "node 3: bad parent -3"),
        (5, "duplicate node id 2"),
    ])
    def test_duplicate_id_is_named_at_its_second_row(self, other_row, message):
        obj = market_to_dict(load_fixture("two_period"))
        obj["nodes"][4]["id"] = 2
        obj["nodes"][other_row]["parent"] = -3
        with pytest.raises(MarketFormatError) as exc:
            market_from_dict(obj)
        assert str(exc.value) == message

    def test_rows_out_of_id_order_name_the_first_row_in_the_file(self):
        obj = market_to_dict(load_fixture("two_period"))
        obj["nodes"].reverse()  # row 0 holds node 6
        obj["nodes"][1]["prob"] = 2.0  # node 5
        obj["nodes"][4]["prob"] = 3.0  # node 2
        with pytest.raises(MarketFormatError) as exc:
            market_from_dict(obj)
        assert str(exc.value) == "node 5: prob 2.0 outside the half-open interval (0, 1]"


class TestFixtures:
    def test_names_listed(self):
        names = fixture_names()
        assert {"binomial", "binomial_skew", "trinomial", "two_period",
                "constant", "arbitrage"} <= set(names)

    def test_load_known(self):
        m = load_fixture("binomial")
        assert m.tree.n_nodes == 3
        assert m.d == 1

    def test_unknown_fixture_lists_options(self):
        with pytest.raises(MarketFormatError, match="binomial"):
            load_fixture("definitely_not_there")


class TestReporting:
    def test_sanitize_handles_numpy_and_dataclasses(self, binomial):
        from viatree import check_na

        cert = check_na(binomial)
        clean = sanitize(cert)
        out = json.dumps(clean)  # must be serializable as-is
        assert "NA" in out

    def test_sanitize_non_finite_to_strings(self):
        clean = sanitize({"a": np.inf, "b": np.nan, "c": -np.inf})
        assert all(isinstance(v, str) for v in clean.values())
        json.dumps(clean, allow_nan=False)

    @dataclass
    class Point:
        x: float
        tags: tuple

    @pytest.mark.parametrize("seed", range(12))
    def test_sanitize_matches_the_recursive_walk(self, seed):
        rng = np.random.default_rng([seed, 34])
        special = np.array([np.nan, np.inf, -np.inf, 0.5, -2.0])

        def array(dims):
            shape = tuple(int(k) for k in rng.integers(0, 4, size=dims))
            kind = ["f8", "f4", "i8", "bool"][int(rng.integers(4))]
            a = rng.choice(special, size=shape) if kind[0] == "f" else rng.integers(0, 2, size=shape)
            return np.asarray(a).astype(kind)

        payload = {
            "arrays": [array(dims) for dims in (1, 2, 3) for _ in range(3)],
            "scalars": (np.float64(np.nan), np.float32(-np.inf), np.int64(3), np.bool_(True),
                        float("inf"), -0.0, 7, None, "s", True),
            "point": self.Point(x=np.float64(np.inf), tags=(np.int32(1), np.array([np.nan]))),
            5: {"nested": [(np.float64(1.5), array(2))]},
        }
        want = to_json({"p": loop_oracle.sanitize(payload)})
        assert to_json({"p": sanitize(payload)}) == want

    @pytest.mark.parametrize("value", [np.float64(np.nan), np.float64(2.5), np.int64(4), np.bool_(False)])
    def test_sanitize_reads_a_0d_array_as_its_entry(self, value):
        # the recursive walk raised TypeError here: it iterated the scalar
        assert sanitize(np.array(value)) == loop_oracle.sanitize(value)

    def test_report_shape_and_json(self):
        rep = make_report("check", {"tol": 1e-9}, {"ok": True}, 0.25)
        assert rep["tool"] == "viatree"
        assert rep["command"] == "check"
        text = to_json(rep)
        assert json.loads(text)["payload"]["ok"] is True

    def test_csv_uses_rows_table(self):
        rep = make_report(
            "suite", {},
            {"rows": [{"a": 1, "b": 2}, {"a": 3, "b": 4}]},
            0.0,
        )
        lines = to_csv(rep).strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2"

    def test_render_dispatch(self):
        rep = make_report("x", {}, {"v": 1}, 0.0)
        assert render(rep, "json").startswith("{")
        assert "v" in render(rep, "text")


ROOT_ONLY = {"label": "root", "d": 1, "horizon": 0,
             "nodes": [{"id": 0, "parent": None, "prob": 1.0, "prices": [1.0]}]}


class TestCliExitCodes:
    def fixture_path(self, name, tmp_path):
        m = load_fixture(name)
        p = tmp_path / f"{name}.json"
        save_market(m, p)
        return str(p)

    def test_check_na_market(self, tmp_path, capsys):
        rc = main(["check", "--market", self.fixture_path("binomial", tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["payload"]["verdict"] == "NA"

    def test_check_arbitrage_market_still_exits_zero(self, tmp_path, capsys):
        # the check itself succeeds; the verdict is data, not an error
        rc = main(["check", "--market", self.fixture_path("arbitrage", tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["payload"]["verdict"] == "ARBITRAGE"
        assert out["payload"]["certificate"]["replay"]["max_gain"] > 1e-9

    @pytest.mark.parametrize("n, code", [(8, 0), (10, 0), (12, 0)])
    def test_check_agrees_with_the_certificate_gate(self, n, code, tmp_path, capsys):
        # one asset: n = 8's nodes all have increments of both signs, and
        # at n = 10 and 12 the first one-signed node is 1022, whose ray
        # loses nothing
        p = tmp_path / f"bessel{n}.json"
        save_market(bessel_tree(n), p)
        rc = main(["check", "--market", str(p)])
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert rc == code
        assert payload["checks_passed"] is True
        if n > 8:
            assert payload["certificate"]["fail_node"] == 1022
            assert payload["certificate"]["replay"]["min_gain"] == 0.0
        else:
            assert payload["verdict"] == "NA"

    @pytest.mark.parametrize("argv", [
        ["numeraire"],
        ["optimize", "--utility", "log"],
        ["optimize", "--utility", "crra:2"],
        ["measure", "--epsilon", "0.1"],
        ["entropy", "--min-entropy"],
        ["entropy", "--exp-utility"],
    ])
    def test_marginal_one_asset_market_passes_every_solver_command(self, argv, tmp_path, capsys):
        # bessel_tree(8)'s node 254 has eps* 1.6e-11, below EPS_POSITIVE_TOL:
        # one asset, so it passes by its increments' signs (``check`` is in
        # the test above)
        p = tmp_path / "bessel8.json"
        save_market(bessel_tree(8), p)
        rc = main([*argv, "--market", str(p)])
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert rc == 0, payload
        assert "error" not in payload

    def test_numeraire_at_a_one_signed_node_exits_one(self, tmp_path, capsys):
        p = tmp_path / "bessel10.json"
        save_market(bessel_tree(10), p)
        rc = main(["numeraire", "--market", str(p)])
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert rc == 1
        assert payload["certificate"]["fail_node"] == 1022

    def test_numeraire_on_arbitrage_exits_one(self, tmp_path, capsys):
        rc = main(["numeraire", "--market",
                   self.fixture_path("arbitrage", tmp_path)])
        assert rc == 1
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["status"] == "arbitrage"
        assert out["payload"]["certificate"]["verdict"] == "ARBITRAGE"

    @pytest.mark.parametrize("argv", [["numeraire"], ["optimize"], ["measure", "--epsilon", "0.1"]])
    def test_root_only_market_exits_zero(self, argv, tmp_path, capsys):
        # a horizon-0 market has no internal node: nothing to trade, and
        # every check passes on the trivial answer
        p = tmp_path / "root.json"
        p.write_text(json.dumps(ROOT_ONLY))
        rc = main([*argv, "--market", str(p)])
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert rc == 0, payload
        assert "error" not in payload

    def test_missing_file_exits_two(self, capsys):
        rc = main(["check", "--market", "/nonexistent/m.json"])
        assert rc == 2
        assert capsys.readouterr().err != ""

    def test_malformed_market_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"label": 1}')
        rc = main(["check", "--market", str(p)])
        assert rc == 2
        # JSON booleans are not numbers: each case names its field
        cases = [
            (lambda o: o.update(d=True), "d must be"),
            (lambda o: o.update(horizon=True), "horizon must be"),
            (lambda o: o["nodes"][1].update(id=True), "node id True"),
            (lambda o: o["nodes"][2].update(parent=False), "bad parent False"),
        ]
        for spoil, field in cases:
            obj = market_to_dict(load_fixture("binomial"))
            spoil(obj)
            p.write_text(json.dumps(obj))
            capsys.readouterr()
            assert main(["check", "--market", str(p)]) == 2, field
            assert field in capsys.readouterr().err

    def test_malformed_density_exits_two(self, tmp_path, capsys):
        market = tmp_path / "m.json"
        save_market(load_fixture("binomial"), market)
        dens = tmp_path / "z.json"
        dens.write_text(json.dumps({"z": [1.0, "a", 1.0]}))
        for flag in ("entropy --hellinger", "optimize --measure"):
            cmd, opt = flag.split()
            capsys.readouterr()
            assert main([cmd, "--market", str(market), opt, str(dens)]) == 2, flag
            assert "z must be a list of numbers; 'a' is not one" in capsys.readouterr().err

    BIG = "1" + "0" * 400  # a JSON integer beyond the float range

    @pytest.mark.parametrize("d, prob, price, message", [
        ("1", "1.0", BIG, "node 0: price 0 is not finite"),
        ("1", "1.0", "-" + BIG, "node 0: price 0 is not finite"),
        ("1", BIG, "1.0", "node 0: prob inf outside the half-open interval (0, 1]"),
        # the price count is checked before any (n, d) array is made
        ("100000000000000", "1.0", "1.0", "node 0: expected 100000000000000 prices"),
        (BIG, "1.0", "1.0", f"node 0: expected {BIG} prices"),
    ], ids=["int-price", "negative-int-price", "int-prob", "d-1e14", "d-1e400"])
    def test_oversized_integers_in_a_market_exit_two(self, d, prob, price, message,
                                                      tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(f'{{"label": "x", "d": {d}, "horizon": 0, "nodes": [{{"id": 0, '
                     f'"parent": null, "prob": {prob}, "prices": [{price}]}}]}}')
        assert main(["check", "--market", str(p)]) == 2
        assert capsys.readouterr().err == f"viatree: error: {message}\n"

    def test_oversized_integer_in_a_density_exits_two(self, tmp_path, capsys):
        market = self.fixture_path("binomial", tmp_path)
        dens = tmp_path / "z.json"
        dens.write_text(f'{{"z": [1.0, {self.BIG}, 1.0]}}')
        for cmd, opt in (("entropy", "--hellinger"), ("optimize", "--measure")):
            capsys.readouterr()
            assert main([cmd, "--market", market, opt, str(dens)]) == 2, cmd
            assert f"{dens}: density value at node 1 is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, content, message", [
        ("market", b"\xff\xfe{}", "market file {} is not valid JSON"),
        ("density", b"\xff\xfe{}", "density file {} is not valid JSON"),
        ("density", b'{"z": [1.0, NaN, 1.0]}', "non-finite JSON literal 'NaN'"),
    ])
    def test_unreadable_json_exits_two(self, kind, content, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        market = str(bad) if kind == "market" else self.fixture_path("binomial", tmp_path)
        assert main(["entropy", "--market", market, "--hellinger", str(bad)]) == 2
        assert message.format(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["missing/r.json", "."])
    def test_unwritable_out_exits_two(self, out, tmp_path, capsys):
        # a missing directory, and a directory in place of a file
        target = tmp_path / out
        rc = main(["check", "--market", self.fixture_path("binomial", tmp_path), "--out", str(target)])
        assert rc == 2
        assert f"viatree: error: cannot write report {target}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["binomial.json"]

    def test_bad_utility_spec_exits_two(self, tmp_path):
        path = self.fixture_path("binomial", tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--market", path, "--utility", "crra:abc"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["numeraire", "--x0", "nan"],
        ["measure", "--x0", "inf"],
        ["optimize", "--x0", "inf"],
        ["measure", "--epsilon", "inf"],
    ])
    def test_non_finite_numbers_exit_two(self, argv, tmp_path, capsys):
        path = self.fixture_path("binomial", tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--market", path, *argv[1:]])
        assert exc.value.code == 2
        assert f"must be a finite number > 0, got {argv[2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_crra_exits_two(self, gamma, tmp_path, capsys):
        path = self.fixture_path("binomial", tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(["optimize", "--market", path, "--utility", f"crra:{gamma}"])
        assert exc.value.code == 2
        assert f"CRRA exponent must be a finite number > 0 and != 1, got {gamma}" in (
            capsys.readouterr().err)

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_simulate_coarse_grid_exits_two(self, capsys):
        # the log value's time integral needs 100 steps: a usage error,
        # not a failed study
        for steps in ("3", "99"):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--paths", "200", "--steps", steps])
            assert exc.value.code == 2
            assert f"--steps: must be >= 100, got {steps}" in capsys.readouterr().err

    def test_simulate_single_path_exits_two(self, capsys):
        # one path has no standard error, so every check of the study reads NaN
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--paths", "1", "--steps", "100"])
        assert exc.value.code == 2
        assert "--paths: must be >= 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "--market", "{market}", "--tol-eq", "1e300"],
        ["numeraire", "--market", "{market}", "--tol-ineq", "1"],
        ["optimize", "--market", "{market}", "--seed", "3"],
        ["measure", "--market", "{market}", "--epsilon", "0.1", "--seed", "1"],
        ["simulate", "--tol-eq", "1"],
        ["numeraire", "--market", "{market}", "--seed", "3"],
        ["numeraire", "--market", "{market}", "--strategies", "50"],
    ])
    def test_flags_a_command_does_not_read_exit_two(self, argv, tmp_path, capsys):
        # no flag moves a gate, and only simulate and equivalence-suite draw
        # random numbers: the numeraire check is exact and samples nothing
        path = self.fixture_path("binomial", tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([a.format(market=path) for a in argv])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


class TestCliCommands:
    def fixture_path(self, name, tmp_path):
        p = tmp_path / f"{name}.json"
        save_market(load_fixture(name), p)
        return str(p)

    def test_numeraire_payload(self, tmp_path, capsys):
        rc = main(["numeraire", "--market", self.fixture_path("binomial", tmp_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        pay = out["payload"]
        assert pay["verification"]["passed"] is True
        assert pay["verification"]["tol"] == RATIO_TOL
        assert set(pay["verification"]) == {
            "passed", "worst_ratio_excess", "worst_node", "binary_martingale_gap",
            "worst_cut_excess", "tol"}
        assert pay["verification"]["worst_node"] == 0
        assert set(pay["deflator"]) == {"passed", "deflator_expectation", "worst_excess", "tol"}
        assert pay["deflator"]["passed"] is True
        assert abs(pay["fractions"][0][0] - 0.5) < 1e-8

    def test_numeraire_runs_node_excess_once(self, tmp_path, capsys, monkeypatch):
        # one excess stack feeds both the verification and the deflator bound
        calls = []
        excess = numeraire._node_excess

        def counted(*args):
            calls.append(args)
            return excess(*args)

        monkeypatch.setattr(numeraire, "_node_excess", counted)
        rc = main(["numeraire", "--market", self.fixture_path("two_period", tmp_path)])
        assert rc == 0 and len(calls) == 1
        pay = json.loads(capsys.readouterr().out)["payload"]
        m = load_fixture("two_period")
        sol = numeraire.numeraire_portfolio(m)
        assert pay["verification"] == numeraire.verify_numeraire(m, sol.wealth)
        assert pay["deflator"] == numeraire.deflator_probe(m, sol.wealth)

    def test_optimize_log_physical(self, tmp_path, capsys):
        rc = main(["optimize", "--market", self.fixture_path("binomial", tmp_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["route"] == "log-recursion"

    def test_optimize_crra_under_emm(self, tmp_path, capsys):
        rc = main(["optimize", "--market", self.fixture_path("binomial", tmp_path),
                   "--utility", "crra:2", "--measure", "emm"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        # martingale prices make trading pointless: value = U(x0) = -1
        assert abs(out["payload"]["value"] - (-1.0)) < 1e-8

    def test_optimize_under_emm_on_arbitrage_exits_one(self, tmp_path, capsys):
        rc = main(["optimize", "--market", self.fixture_path("arbitrage", tmp_path),
                   "--measure", "emm"])
        assert rc == 1
        pay = json.loads(capsys.readouterr().out)["payload"]
        assert (pay["status"], pay["route"]) == ("no-solution", "arbitrage-detected")
        assert pay["certificate"]["verdict"] == "ARBITRAGE"

    def test_optimize_with_density_file(self, tmp_path, capsys):
        path = self.fixture_path("binomial", tmp_path)
        dens = tmp_path / "z.json"
        dens.write_text(json.dumps({"z": [1.0, 2 / 3, 4 / 3]}))
        rc = main(["optimize", "--market", path, "--measure", str(dens)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["payload"]["value"]) < 1e-9

    def test_optimize_rejects_a_non_martingale_density(self, tmp_path, capsys):
        # the one-step weights sum to 3; entropy --hellinger still takes it
        path = self.fixture_path("binomial", tmp_path)
        dens = tmp_path / "z.json"
        dens.write_text(json.dumps({"z": [1.0, 3.0, 3.0]}))
        rc = main(["optimize", "--market", path, "--measure", str(dens)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{dens}: density is not a martingale: at node 0" in err
        assert main(["entropy", "--market", path, "--hellinger", str(dens)]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["density_is_martingale"] is False

    def test_measure_command(self, tmp_path, capsys):
        rc = main(["measure", "--market", self.fixture_path("trinomial", tmp_path),
                   "--epsilon", "0.1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        pay = out["payload"]
        assert pay["l1_distance"] <= 0.1
        assert pay["value_bound"]["passed"] is True
        assert pay["value_bound"]["tol"] == VIABILITY_TOL
        assert pay["z_max"] <= pay["z_bound"] + 1e-12

    def test_entropy_modes(self, tmp_path, capsys):
        path = self.fixture_path("binomial", tmp_path)
        rc = main(["entropy", "--market", path, "--min-entropy"])
        assert rc == 0
        me = json.loads(capsys.readouterr().out)["payload"]
        rc = main(["entropy", "--market", path, "--exp-utility"])
        assert rc == 0
        eu = json.loads(capsys.readouterr().out)["payload"]
        # duality: log of the optimal exponential value is minus the entropy
        assert abs(me["entropy"] + math.log(eu["value"])) < 1e-8
        dens = tmp_path / "z.json"
        dens.write_text(json.dumps({"z": [1.0, 2 / 3, 4 / 3]}))
        rc = main(["entropy", "--market", path, "--hellinger", str(dens)])
        assert rc == 0
        he = json.loads(capsys.readouterr().out)["payload"]
        assert abs(he["e_p_v_terminal"] - 0.056633) < 1e-6

    @pytest.mark.parametrize("argv", [
        ["entropy", "--min-entropy"],
        ["entropy", "--exp-utility"],
        ["measure", "--epsilon", "0.1"],
    ])
    def test_density_links_in_price_unit_1e6(self, argv, tmp_path, capsys):
        # martingale residuals scale with the price unit: here about 1e-6,
        # 1e-13 of max|S|, which an absolute 1e-9 gate would reject
        base = random_na_market(np.random.default_rng(0), d=1)
        m = MarketModel(base.tree, 1e6 * base.prices)
        path = tmp_path / "m.json"
        save_market(m, path)
        rc = main([argv[0], "--market", str(path), *argv[1:]])
        pay = json.loads(capsys.readouterr().out)["payload"]
        assert rc == 0 and pay["checks_passed"] is True, pay
        resid = pay.get("price_residual", pay.get("density_link_residual"))
        resid = pay["value_bound"]["q_residual"] if resid is None else resid
        assert 1e-9 < resid <= 1e-9 * float(np.max(np.abs(m.prices)))

    def test_entropy_on_arbitrage_exits_one(self, tmp_path, capsys):
        rc = main(["entropy", "--market", self.fixture_path("arbitrage", tmp_path),
                   "--min-entropy"])
        assert rc == 1
        capsys.readouterr()

    def test_suite_command(self, tmp_path, capsys):
        rc = main(["equivalence-suite", "--markets", "12", "--seed", "3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["payload"]["all_agree"] is True
        assert out["payload"]["n_markets"] == 12

    def test_simulate_small(self, capsys):
        rc = main(["simulate", "--paths", "8000", "--steps", "250",
                   "--probe-strategies", "20", "--seed", "7"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        checks = out["payload"]["checks"]
        assert all(checks.values()), checks

    def test_simulate_reports_check_z_scores(self, capsys):
        # each 3-SE check's statistic in standard errors, beside its verdict
        main(["simulate", "--paths", "2000", "--steps", "100",
              "--probe-strategies", "5", "--seed", "3"])
        payload = json.loads(capsys.readouterr().out)["payload"]
        z, checks = payload["checks_z"], payload["checks"]
        rec, lv, stopped = payload["reciprocal_moment"], payload["log_value"], payload["stopped"]
        top = stopped["rows"][-1]
        want = {
            "reciprocal_within_3se":
                (rec["mean"] - 0.6826894921370859) / rec["std_error"],
            "log_bound": (lv["EintSinv2"]["mean"] - lv["bound_limit"])
                / lv["EintSinv2"]["std_error"],
            "ito_identity": lv["ito_residual"]["mean"] / lv["ito_residual"]["std_error"],
            "stopped_converged": (stopped["unstopped_mean"] - top["mean"])
                / math.hypot(top["std_error"], stopped["unstopped_std_error"]),
        }
        assert z == pytest.approx(want, rel=1e-12)
        for name, value in z.items():
            assert checks[name] is (value <= 3.0 if name == "log_bound" else abs(value) <= 3.0)
        # beside each z its normal p-value: one-sided for the log bound
        p = payload["checks_p"]
        assert p == {name: 0.5 * math.erfc(value / math.sqrt(2.0)) if name == "log_bound"
                     else math.erfc(abs(value) / math.sqrt(2.0)) for name, value in z.items()}
        assert all(0.0 <= v <= 1.0 for v in p.values())

    @pytest.mark.parametrize("level", [-20.0, 0.0, 1e9])
    def test_simulate_verdicts_read_one_level(self, level, monkeypatch, capsys):
        # every standard-error verdict of the study, the probe rows'
        # included, moves with bessel.Z_LEVEL; every probe margin of this
        # study is at most 0, and at -20 some rows pass and some fail
        monkeypatch.setattr(bessel, "Z_LEVEL", level)
        main(["simulate", "--paths", "2000", "--steps", "100",
              "--probe-strategies", "5", "--seed", "3"])
        payload = json.loads(capsys.readouterr().out)["payload"]
        z, checks = payload["checks_z"], payload["checks"]
        for name, value in z.items():
            assert checks[name] is ((value if name == "log_bound" else abs(value)) <= level)
        rows = bessel.numeraire_probe(bessel.simulate_bes3(2000, 100, seed=3),
                                      n_strats=5, seed=4)["rows"]
        for r in rows:  # the one-share row's ratio is exactly 1: margin 0, no spread
            margin_z = r["margin"] / r["std_error"] if r["std_error"] else 0.0
            assert r["pass"] is (margin_z <= level), r["label"]
        assert checks["probe_all_pass"] is all(r["pass"] for r in rows)
        assert all(checks[name] for name in z) is (level > 0.0)

    def test_reports_identical_modulo_timing(self, tmp_path):
        path = self.fixture_path("two_period", tmp_path)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["check", "--market", path, "--out", a]) == 0
        assert main(["check", "--market", path, "--out", b]) == 0
        da, db = json.load(open(a)), json.load(open(b))
        da.pop("timing"), db.pop("timing")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_csv_output(self, tmp_path, capsys):
        rc = main(["equivalence-suite", "--markets", "6", "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out
        header = out.strip().splitlines()[0]
        assert "agree" in header

    def test_text_output(self, tmp_path, capsys):
        path = self.fixture_path("binomial", tmp_path)
        rc = main(["check", "--market", path, "--format", "text"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "NA" in out


class TestSharedParser:
    """main parses with one parser per process; each call must still start
    from the parser's defaults and report as a freshly built parser would."""

    @pytest.fixture
    def market(self, tmp_path):
        p = tmp_path / "trinomial.json"
        save_market(load_fixture("trinomial"), p)
        return str(p)

    def report(self, argv, capsys):
        capsys.readouterr()
        code = main(argv)
        return code, json.loads(capsys.readouterr().out)

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_defaults_do_not_carry_over(self, market, capsys):
        _, out = self.report(["optimize", "--market", market, "--utility", "crra:2"], capsys)
        assert out["config"]["utility"] == "crra(2.0)"
        _, out = self.report(["optimize", "--market", market], capsys)
        assert out["config"]["utility"] == "log"
        _, out = self.report(["numeraire", "--market", market, "--x0", "7"], capsys)
        assert out["config"]["x0"] == 7.0
        _, out = self.report(["numeraire", "--market", market], capsys)
        assert out["config"]["x0"] == 1.0

    def test_usage_error_leaves_next_call_normal(self, market, capsys):
        code, before = self.report(["check", "--market", market], capsys)
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--market", market, "--x0", "-1"])
        assert exc.value.code == 2
        after_code, after = self.report(["check", "--market", market], capsys)
        assert (after_code, after["config"], after["payload"]) == (
            code, before["config"], before["payload"])

    @pytest.mark.parametrize("argv, flags", [
        (["check", "--market", "{market}"], {"market"}),
        (["numeraire", "--market", "{market}", "--x0", "5"], {"market", "x0"}),
        (["optimize", "--market", "{market}"], {"market", "utility", "x0", "measure"}),
        (["measure", "--market", "{market}", "--epsilon", "0.2"], {"market", "epsilon", "x0"}),
        (["entropy", "--market", "{market}"],
         {"market", "min_entropy", "exp_utility", "hellinger"}),
        (["simulate", "--paths", "400", "--steps", "100", "--probe-strategies", "5"],
         {"paths", "steps", "probe_strategies", "seed"}),
        (["equivalence-suite", "--markets", "2"],
         {"markets", "d_max", "depth_max", "branch_max", "seed"}),
    ])
    def test_config_echoes_the_flags_the_command_reads(self, argv, flags, market, capsys):
        _, out = self.report([a.format(market=market) for a in argv], capsys)
        assert set(out["config"]) == {"command", "format", *flags}

    @pytest.mark.parametrize("argv", [
        ["check", "--market", "{market}"],
        ["numeraire", "--market", "{market}", "--x0", "2"],
        ["optimize", "--market", "{market}", "--utility", "crra:3", "--measure", "emm"],
        ["measure", "--market", "{market}", "--epsilon", "0.2"],
        ["entropy", "--market", "{market}", "--exp-utility"],
        ["simulate", "--paths", "400", "--steps", "100", "--probe-strategies", "5"],
        ["equivalence-suite", "--markets", "3", "--seed", "2"],
    ])
    def test_warm_parser_reports_as_a_cold_one(self, argv, market, tmp_path):
        argv = [a.format(market=market) for a in argv]
        build_parser()
        runs = []
        for i in range(2):
            if i == 1:
                build_parser.cache_clear()
            out = tmp_path / f"r{i}.json"
            code = main([*argv, "--out", str(out)])
            runs.append((code, re.sub(r'  "timing": \{[^}]*\},\n', "", out.read_text())))
        assert '"timing"' not in runs[0][1]
        assert runs[0] == runs[1]


class TestPublicApi:
    def test_all_names_no_module(self):
        assert viatree.__all__, "empty public API"
        modules = [n for n in viatree.__all__ if isinstance(getattr(viatree, n), types.ModuleType)]
        assert modules == []


@pytest.mark.parametrize("fixture, argv, code", [
    ("two_period", ["measure", "--epsilon", "0.1"], 0),
    ("two_period", ["entropy", "--min-entropy"], 0),
    ("two_period", ["entropy", "--exp-utility"], 0),
    ("arbitrage", ["measure", "--epsilon", "0.1"], 1),
    ("arbitrage", ["entropy", "--min-entropy"], 1),
    ("arbitrage", ["entropy", "--exp-utility"], 1),
])
def test_measure_and_entropy_exit_codes(fixture, argv, code, capsys):
    # the fresh-process CI step runs these calls on the fixture files
    path = os.path.join(os.path.dirname(viatree.__file__), "fixtures", f"{fixture}.json")
    assert main([argv[0], "--market", path, *argv[1:]]) == code
    capsys.readouterr()
