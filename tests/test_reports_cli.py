import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import decoupling_lab.cli as cli
import decoupling_lab.reports as rp
from decoupling_lab import __version__


def test_canonical_json_sorts_and_coerces():
    assert rp.canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    blob = rp.canonical_json({
        "i": np.int64(3),
        "f": np.float64(0.5),
        "flag": np.bool_(True),
        "arr": np.arange(3),
        "frac": Fraction(-1, 3),
        "tags": {3, 1, 2},
    })
    assert json.loads(blob) == {
        "i": 3, "f": 0.5, "flag": True, "arr": [0, 1, 2],
        "frac": "-1/3", "tags": [1, 2, 3],
    }
    with pytest.raises(ValueError):
        rp.canonical_json({"x": float("nan")})
    with pytest.raises(TypeError, match="not JSON-serializable"):
        rp.canonical_json({"x": object()})


def test_config_hash_ignores_key_order():
    assert rp.config_hash({"a": 1, "b": 2}) == rp.config_hash({"b": 2, "a": 1})
    assert rp.config_hash({"a": 1}) != rp.config_hash({"a": 2})
    assert len(rp.config_hash({})) == 64


def test_envelope_fields():
    env = rp.envelope("demo", {"x": 1}, [{"y": 2}], seed=7, method="exact", samples=5)
    assert env["tool"] == "decoupling-lab"
    assert env["version"] == __version__
    assert env["config_hash"] == rp.config_hash({"x": 1})
    assert env["seed"] == 7 and env["samples"] == 5
    assert env["results"] == [{"y": 2}]


def _square(x):
    return x * x


def test_pmap_preserves_order():
    assert rp.pmap(_square, range(7), workers=1) == [0, 1, 4, 9, 16, 25, 36]
    assert rp.pmap(_square, range(7), workers=3) == [0, 1, 4, 9, 16, 25, 36]
    assert rp.pmap(_square, [5], workers=3) == [25]
    assert rp.pmap(_square, [], workers=3) == []


def test_write_csv(tmp_path):
    path = tmp_path / "rows.csv"
    with open(path, "w", newline="") as handle:
        rp.write_csv(handle, [{"a": 1, "b": 2, "junk": 9}, {"a": 3}], ["a", "b"])
    lines = path.read_text().splitlines()
    assert lines == ["a,b", "1,2", "3,"]
    buffer = io.StringIO()
    rp.write_csv(buffer, [], ["a", "b"])
    assert buffer.getvalue().splitlines() == ["a,b"]


# ---------------------------------------------------------------------------
# command line


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def test_bounds_command(tmp_path):
    out = tmp_path / "bounds.json"
    rc = cli.main([
        "bounds", "--formula", "exponent-shift", "--p", "2", "--q", "4",
        "--out", str(out), "--workers", "1",
    ])
    assert rc == 0
    report = _load(out)
    assert report["kind"] == "bounds"
    row = report["results"][0]
    assert row["value"] == pytest.approx(math.e * 2.0 ** 11.75, rel=1e-12)
    assert row["applies"] is True
    assert "2^10.75" in row["expression"]  # coeff q/p = 2 stays in front


def test_bounds_missing_parameter(capsys):
    rc = cli.main([
        "bounds", "--formula", "extrap-c", "--p", "2", "--q", "2", "--A", "1",
        "--workers", "1",
    ])
    assert rc == 2
    assert "needs --b" in capsys.readouterr().err


def test_bounds_csv_output(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    rc = cli.main([
        "bounds", "--formula", "supnorm-upper", "--p", "3", "--d", "8",
        "--format", "csv", "--out", str(out), "--workers", "1",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "formula,value,expression,applies,condition"
    assert lines[1].startswith("supnorm-upper,2.0,")
    # without --out the same rows go to stdout
    rc = cli.main([
        "bounds", "--formula", "supnorm-upper", "--p", "3", "--d", "8",
        "--format", "csv", "--workers", "1",
    ])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "formula,value,expression,applies,condition"
    # one writer serves both: atlas rows are the same bytes on stdout and in --out
    atlas = ["atlas", "--spaces", "l2:2,linf:2", "--ps", "1,2", "--trials", "6",
             "--restarts", "1", "--depth", "2", "--format", "csv", "--workers", "1"]
    atlas_out = tmp_path / "atlas.csv"
    assert cli.main([*atlas, "--out", str(atlas_out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(atlas) == 0
    stdout = capsys.readouterr().out.encode()
    assert stdout == atlas_out.read_bytes()
    assert stdout.startswith(b"space,p,direction,ratio,")
    assert stdout.count(b"\r\n") == 5  # header and one row per cell


def test_bad_space_is_a_config_error(capsys):
    rc = cli.main(["estimate", "--space", "l3:4", "--workers", "1"])
    assert rc == 2
    assert "decoupling-lab:" in capsys.readouterr().err


def test_bad_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("DECOUPLING_LAB_SEED", "zzz")
    rc = cli.main(["bounds", "--formula", "logdim-lower", "--p", "2", "--d", "16",
                   "--workers", "1"])
    assert rc == 2
    assert "DECOUPLING_LAB_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bdg", "--p", "0"],
    ["bdg", "--p", "-1"],
    ["bdg", "--p", "inf"],
    ["bdg", "--samples", "0"],
    ["bdg", "--driver-dim", "0"],
    ["estimate", "--space", "l2:2", "--p", "0"],
    ["estimate", "--space", "l2:2", "--p", "-2"],
    ["atlas", "--ps", "1,0"],
    ["atlas", "--ps", "1,nan"],
    ["verify", "--suite", "extrapolation", "--p", "0"],
    ["verify", "--depth", "0"],
    ["verify", "--trials", "0"],
    ["estimate", "--space", "l2:2", "--trials", "0"],
    ["estimate", "--space", "l2:2", "--restarts", "0"],
    ["atlas", "--trials", "0"],
    ["atlas", "--ps", ","],
    ["bdg", "--steps", "0"],
    ["bdg", "--horizon", "0"],
])
def test_non_positive_exponents_and_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--workers", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be positive" in err and "Traceback" not in err
    assert f"argument {argv[-2]}:" in err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--suite", "levy", "--depth", "1"], "--depth"),
    (["atlas", "--spaces", ","], "--spaces"),
])
def test_empty_model_configs_exit_2(argv, flag, capsys):
    # product models need two levels; an atlas needs a space
    assert cli.main([*argv, "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


def test_env_seed_matches_flag(tmp_path, monkeypatch):
    via_flag = tmp_path / "flag.json"
    via_env = tmp_path / "env.json"
    rc = cli.main([
        "verify", "--suite", "levy", "--trials", "4", "--space", "l2:2",
        "--seed", "7", "--workers", "1", "--out", str(via_flag),
    ])
    assert rc == 0
    monkeypatch.setenv("DECOUPLING_LAB_SEED", "7")
    rc = cli.main([
        "verify", "--suite", "levy", "--trials", "4", "--space", "l2:2",
        "--workers", "1", "--out", str(via_env),
    ])
    assert rc == 0
    assert via_flag.read_bytes() == via_env.read_bytes()


@pytest.mark.parametrize("suite", [s for s in cli.VERIFY_SUITES if s != "all"])
def test_verify_each_suite(tmp_path, suite):
    out = tmp_path / f"{suite}.json"
    rc = cli.main([
        "verify", "--suite", suite, "--trials", "2", "--space", "l2:2",
        "--depth", "3", "--seed", "1", "--workers", "1", "--out", str(out),
    ])
    assert rc == 0
    report = _load(out)
    assert report["kind"] == "verify"
    assert report["results"], "suite produced no rows"
    for row in report["results"]:
        assert row.get("holds", True) or row.get("method") != "exact"


def test_verify_all_runs_every_suite(tmp_path):
    out = tmp_path / "all.json"
    rc = cli.main([
        "verify", "--suite", "all", "--trials", "1", "--space", "linf:2",
        "--depth", "3", "--seed", "2", "--workers", "1", "--out", str(out),
    ])
    assert rc == 0
    rows = _load(out)["results"]
    names = {row["inequality"] for row in rows}
    assert len(names) >= 9


def test_verify_worker_count_is_invisible(tmp_path):
    serial = tmp_path / "serial.json"
    pooled = tmp_path / "pooled.json"
    base = ["verify", "--suite", "levy", "--trials", "8", "--space", "l2:2",
            "--seed", "3"]
    assert cli.main(base + ["--workers", "1", "--out", str(serial)]) == 0
    assert cli.main(base + ["--workers", "4", "--out", str(pooled)]) == 0
    assert serial.read_bytes() == pooled.read_bytes()


def test_verify_exit_one_on_exact_failure(monkeypatch, capsys):
    def broken(task):
        return [{"inequality": "demo", "holds": False, "method": "exact",
                 "lhs": 2.0, "rhs": 1.0, "margin": -1.0, "model": 0}]

    monkeypatch.setattr(cli, "_verify_one", broken)
    rc = cli.main(["verify", "--suite", "levy", "--trials", "1", "--workers", "1"])
    assert rc == 1
    capsys.readouterr()


def test_estimate_command(tmp_path):
    out = tmp_path / "estimate.json"
    rc = cli.main([
        "estimate", "--space", "linf:2", "--family", "supnorm-signs",
        "--trials", "40", "--restarts", "1", "--seed", "0",
        "--workers", "1", "--out", str(out),
    ])
    assert rc == 0
    report = _load(out)
    assert report["kind"] == "estimate"
    row = report["results"][0]
    assert row["space"] == "linf:2"
    assert row["ratio"] >= 1.0 - 1e-9
    assert row["witness"]["multipliers"]


def test_atlas_command(tmp_path):
    serial = tmp_path / "atlas1.json"
    pooled = tmp_path / "atlas3.json"
    base = [
        "atlas", "--spaces", "l2:2,linf:2", "--ps", "1,2",
        "--trials", "10", "--restarts", "1", "--seed", "0",
    ]
    assert cli.main(base + ["--workers", "1", "--out", str(serial)]) == 0
    assert cli.main(base + ["--workers", "3", "--out", str(pooled)]) == 0
    assert serial.read_bytes() == pooled.read_bytes()
    report = _load(serial)
    assert report["kind"] == "atlas"
    assert len(report["results"]) == 4
    for row in report["results"]:
        assert "witness" not in row and "witness_hash" in row


def test_atlas_sweeps_nested_spaces(tmp_path):
    out = tmp_path / "atlas.json"
    assert cli.main([
        "atlas", "--spaces", "lp:0.7:2,nested:1x2,3x2", "--ps", "1,2", "--depth", "2",
        "--trials", "10", "--restarts", "1", "--seed", "0", "--workers", "1", "--out", str(out),
    ]) == 0
    report = _load(out)
    assert report["config"]["spaces"] == ["lp:0.7:2", "nested:1x2,3x2"]
    assert [(row["space"], row["p"]) for row in report["results"]] == [
        ("lp:0.7:2", 1.0), ("lp:0.7:2", 2.0), ("nested:1x2,3x2", 1.0), ("nested:1x2,3x2", 2.0)]


# sha256 of small good-lambda and extrapolation reports: a change to the window
# code that moves any byte of them fails here
WINDOW_SUITE_SHA256 = {
    "goodlambda": "e22ddce3364317731d700ed9f3fc90ba52eba55817b808c60542b63e4110b541",
    "extrapolation": "bad5e3e0ec59d8dfe9d8670c49d1b7380606a24a6456821d242ab613b86d6796",
}


@pytest.mark.parametrize("suite", sorted(WINDOW_SUITE_SHA256))
def test_window_suite_reports_are_pinned(suite, capsys):
    assert cli.main(["verify", "--suite", suite, "--space", "l2:3", "--depth", "3",
                     "--trials", "10", "--seed", "0", "--workers", "1"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == WINDOW_SUITE_SHA256[suite]


def test_bdg_command(tmp_path, capsys):
    out = tmp_path / "bdg.json"
    rc = cli.main([
        "bdg", "--space", "l2:2", "--p", "2", "--family", "deterministic",
        "--samples", "400", "--steps", "16", "--seed", "0",
        "--workers", "1", "--out", str(out),
    ])
    assert rc == 0
    report = _load(out)
    assert report["kind"] == "bdg"
    row = report["results"][0]
    assert row["status"] == "ok" and row["kappa"] > 0
    rc = cli.main([
        "bdg", "--space", "l2:2", "--p", "2", "--family", "deterministic",
        "--samples", "200", "--steps", "16", "--seed", "0",
        "--workers", "1", "--format", "csv",
    ])
    assert rc == 0
    assert capsys.readouterr().out.startswith("p,family,kappa")
