import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import decoupling_lab.cli as cli
import decoupling_lab.constants as ct
import decoupling_lab.reports as rp
from decoupling_lab import __version__


def test_canonical_json_sorts_and_coerces():
    assert rp.canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    blob = rp.canonical_json({
        "i": np.int64(3),
        "f": np.float64(0.5),
        "flag": np.bool_(True),
        "arr": np.arange(3),
        "tags": {3, 1, 2},
    })
    assert json.loads(blob) == {
        "i": 3, "f": 0.5, "flag": True, "arr": [0, 1, 2],
        "tags": [1, 2, 3],
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


def test_pmap_starts_at_most_one_process_per_item(monkeypatch):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert rp.pmap(_square, range(3), workers=500) == [0, 1, 4]
    assert rp.pmap(_square, range(7), workers=2) == [0, 1, 4, 9, 16, 25, 36]
    assert rp.pmap(_square, [4], workers=500) == [16]
    assert sizes == [3, 2]


def test_write_csv(tmp_path):
    path = tmp_path / "rows.csv"
    chunks = [rp.encode_rows(rows, "csv", ["a", "b"]) for rows in
              ([{"a": 1, "b": 2, "junk": 9}], [], [{"a": 3}])]
    with open(path, "w", newline="") as handle:
        rp.write_report(handle, {}, chunks, "csv", ["a", "b"])
    lines = path.read_text().splitlines()
    assert lines == ["a,b", "1,2", "3,"]
    buffer = io.StringIO()
    rp.write_report(buffer, {}, [], "csv", ["a", "b"])
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


@pytest.mark.parametrize("argv", [
    ["--formula", "extrap-c", "--p", "2", "--q", "1e300", "--A", "2", "--b", "0.1"],  # delta = 0
    ["--formula", "phi-growth", "--p", "1", "--q", "1e300"],  # (q/p)^q overflows
    ["--formula", "hilbert-phi", "--q", "1e300"],  # 2^(11 + 8q) is infinite
    ["--formula", "supnorm-upper", "--p", "1e-300", "--d", "3"],  # the kernel overflows
    ["--formula", "exponent-shift", "--p", "nan", "--q", "2"],  # a NaN parameter
], ids=lambda argv: argv[1])
def test_bounds_without_a_finite_value_exit_2(argv, capsys):
    assert cli.main(["bounds", *argv, "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"decoupling-lab: formula {argv[1]} has no finite value at these parameters\n"


@pytest.mark.parametrize("argv", [
    ["--formula", "phi-growth", "--p", "1", "--q", "1.5"],  # (q/p d_const)^q is complex
    ["--formula", "exponent-shift", "--p", "1", "--q", "2"],  # the constant would be negative
    ["--formula", "hilbert-phi", "--q", "1.5"],
    ["--formula", "supnorm-upper", "--p", "3", "--d", "8"],
], ids=lambda argv: argv[1])
def test_bounds_with_a_negative_d_const_exit_2(argv, capsys):
    assert cli.main(["bounds", *argv, "--d-const", "-1", "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("decoupling-lab: need ") and "d_const" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["estimate", "--space", "lp:1e300:2", "--depth", "2", "--trials", "2"],
    ["estimate", "--space", "lp:1e-300:2", "--depth", "2", "--trials", "2"],
    ["atlas", "--spaces", "lp:1e300:2"],
])
def test_search_without_a_finite_ratio_exits_2(argv, capsys):
    # every ratio on these spaces is NaN, so no witness is ever accepted
    assert cli.main([*argv, "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("decoupling-lab: the search measured no finite ratio on lp:")
    assert "Traceback" not in err


@pytest.mark.parametrize("suite, inequality", [("davis", "davis-large-part-pathwise"),
                                               ("symsum", "symmetric-summand")])
def test_verify_without_a_finite_side_exits_2(suite, inequality, capsys):
    # the norms of lp:1e300:2 overflow, so the moments compared are not finite
    assert cli.main(["verify", "--space", "lp:1e300:2", "--suite", suite, "--trials", "3",
                     "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"decoupling-lab: {inequality}: a side is not finite, "
                   "so the check has no verdict\n")


def test_a_refused_draw_comes_after_the_errors_of_earlier_trials(monkeypatch, capsys):
    import decoupling_lab.probmodel as pm

    # trial 2's increment tables (270 floats) are refused as it is drawn,
    # trials 0 and 1 (18 and 52 floats) are admitted; on lp:1e300:2 trial 0
    # has no verdict, and the lowest failing index is the one reported
    monkeypatch.setattr(pm, "JOINT_LIMIT", 100)
    argv = ["verify", "--suite", "davis", "--depth", "5", "--trials", "3", "--workers", "1"]
    assert cli.main([*argv, "--space", "l2:2"]) == 2
    assert capsys.readouterr() == ("", "decoupling-lab: increment tables need 270 floats, "
                                       "over budget 100\n")
    assert cli.main([*argv, "--space", "lp:1e300:2"]) == 2
    assert capsys.readouterr() == ("", "decoupling-lab: davis-large-part-pathwise: a side is "
                                       "not finite, so the check has no verdict\n")


@pytest.mark.parametrize("suite, inequality", [("levy", "levy-max-sum"),
                                               ("contraction", "contraction-01"),
                                               ("tail", "tail-e-by-d"),
                                               ("goodlambda", "goodlambda")])
def test_verify_without_a_finite_threshold_exits_2(suite, inequality, capsys):
    # the thresholds are quantiles of overflowing norms: both sides are finite
    # probabilities, but t is not, so the report names the check and t;
    # goodlambda's threshold A is calibrated from window moments that overflow,
    # so the report names the check, p and the space
    assert cli.main(["verify", "--space", "lp:1e300:2", "--suite", suite, "--trials", "3",
                     "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    why = ("the window moment ratio d_hat is not finite at p=2 on lp:1e+300:2"
           if suite == "goodlambda"
           else "parameter t=nan is not finite, so the check has no verdict")
    assert out == ""
    assert err == f"decoupling-lab: {inequality}: {why}\n"


def test_bdg_without_a_finite_moment_exits_2(capsys):
    assert cli.main(["bdg", "--space", "lp:1e300:2", "--samples", "100", "--steps", "4",
                     "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "decoupling-lab: the sup moment at p=1 is not finite on lp:1e+300:2\n"


@pytest.mark.parametrize("suite, space, inequality", [
    ("davis", "lp:1e-300:2", "davis-large-part-pathwise"),  # (1 - 2^-r)^-1 divides by zero
    ("symsum", "lp:0.001:2", "symmetric-summand"),  # u_{p/r} = 2^(p/r - 1) overflows
    ("revkol", "lp:0.001:2", "reverse-kolmogorov"),
    ("extrapolation", "lp:0.001:2", "extrapolated-phi-domination"),  # b's range underflows
])
def test_verify_without_a_finite_r_constant_exits_2(suite, space, inequality, capsys):
    assert cli.main(["verify", "--suite", suite, "--space", space, "--depth", "3",
                     "--trials", "4", "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    r = space.split(":")[1]
    # the davis cap depends on r alone; u_{p/r} and b's range on p too
    at = "" if suite == "davis" else ", p=2"
    assert out == ""
    assert err == (f"decoupling-lab: {inequality}: its r-normability constant is not a "
                   f"positive finite float on {space} (r={r}{at})\n")


@pytest.mark.parametrize("suite, space, p, inequality, at", [
    # rho = min(r, p) = 1e-3 makes beta overflow, not r = 0.5
    ("goodlambda", "lp:0.5:2", "1e-3", "goodlambda", "r=0.5, p=0.001"),
    ("revkol", "l2:2", "1e300", "reverse-kolmogorov", "r=1, p=1e+300"),  # u_{p/r} = 2^(p - 1)
])
def test_an_r_constant_that_p_breaks_names_p(suite, space, p, inequality, at, capsys):
    assert cli.main(["verify", "--suite", suite, "--space", space, "--p", p, "--depth", "3",
                     "--trials", "4", "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"decoupling-lab: {inequality}: its r-normability constant is not a "
                   f"positive finite float on {space} ({at})\n")


@pytest.mark.parametrize("suite, p, inequality, b", [
    ("goodlambda", "1e-300", "goodlambda", "0.5"),
    ("extrapolation", "1e-3", "extrapolated-phi-domination", "0.0625433"),
])
def test_verify_whose_calibrated_threshold_overflows_exits_2(suite, p, inequality, b, capsys):
    # A = d_hat b^(-1/p): b^(-1/p) is past the floats once p is near 0
    assert cli.main(["verify", "--suite", suite, "--space", "l2:2", "--p", p,
                     "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"decoupling-lab: {inequality}: the calibrated threshold A = d_hat b^(-1/p) "
                   f"overflows at p={float(p):g} (b={b})\n")


@pytest.mark.parametrize("command", ["estimate", "atlas"])
@pytest.mark.parametrize("p", ["1e-5", "1e-10"])
def test_a_search_whose_ratio_overflows_exits_2(command, p, capsys):
    # the ratio (num / den)^(1/p) is past the floats once p is near 0
    space = ["--space", "lp:0.5:3"] if command == "estimate" else ["--spaces", "lp:0.5:3"]
    exponent = ["--p", p] if command == "estimate" else ["--ps", p]
    assert cli.main([command, *space, *exponent, "--family", "gaussian-multipliers",
                     "--trials", "20", "--restarts", "1", "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("decoupling-lab: decouple-upper: the moment ratio to the power 1/p "
                   f"overflows at p={float(p):g} on lp:0.5:3\n")


def _limit_address_space():
    # 1.5 GiB, in the child only
    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))


@pytest.mark.parametrize("argv, flag", [
    (["--space", "l2:4", "--samples", "100000000"], "--samples 100000000"),  # 763 MiB of results
    (["--space", "linf:64", "--samples", "4096", "--steps", "100000"], "--steps 100000"),
    (["--space", "l2:4", "--driver-dim", "100000"], "--driver-dim 100000"),
    (["--space", "linf:4096", "--samples", "5000"], "--space linf:4096"),  # 8 GiB of coefficients
])
def test_bdg_over_its_budgets_exits_2_before_any_draw(argv, flag):
    # each of these asks for more memory than the child may map; admission
    # refuses it first and names the flag at fault
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-m", "decoupling_lab.cli", "bdg", *argv,
                          "--workers", "1"], env=env, capture_output=True, text=True,
                         preexec_fn=_limit_address_space, timeout=120)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith(f"decoupling-lab: {flag}: ") and run.stderr.count("\n") == 1


@pytest.mark.parametrize("steps", ["1", "2", "3"])
def test_bdg_with_fewer_steps_than_intervals_names_the_flag(steps, capsys):
    # the step-process families split the grid into 4 intervals
    assert cli.main(["bdg", "--steps", steps, "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"decoupling-lab: --steps {steps}: ") and err.count("\n") == 1
    assert "at least 4 steps" in err


# sha256 of the parser's help texts at 80 columns, top level and per subcommand
HELP_SHA256 = {
    "": "fb00e2f5089f91821a8abf4861e195573b8f63995979e079e07afcbba7a35f76",
    "verify": "86889cba99fc80371e7710871cc55cad5f6386428389f5597def1eb57d9b6a2d",
    "estimate": "9966369712f8954bd684813a39428960256c2ec0f34a7b794a2e2055b8756027",
    "bounds": "2d44878a7e28b0779658bb37e35b46ab6a04349c685bd40d7c9a97dc5874ac67",
    "bdg": "012c3141e9416042db5508ec906aafbc4183d0f4388867262ebe2b588e22a789",
    "atlas": "610678d3e3ea9c46bbbff78c1085b18dc3b1144c778524f9c7ffefe42a51f938",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_texts_are_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


def _choices(parser) -> dict:
    """Each subcommand's flags that take choices, by destination."""
    subs = next(a for a in parser._actions if a.choices and a.dest == "command").choices
    return {(name, action.dest): list(action.choices)
            for name, sub in subs.items() for action in sub._actions if action.choices}


def test_parser_choices_are_the_tables_the_engines_read():
    import decoupling_lab.bounds as bd

    choices = _choices(cli.build_parser())
    for command in ("estimate", "atlas"):
        assert choices[command, "direction"] == list(ct.DIRECTIONS)
        assert choices[command, "family"] == sorted(ct.FAMILIES)
    assert choices["bounds", "formula"] == sorted(bd.FORMULAS)
    assert choices["verify", "suite"] == list(cli.VERIFY_SUITES)


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
    ["verify", "--suite", "davis", "--trials", "2", "--workers", "0"],
    ["verify", "--suite", "davis", "--trials", "2", "--workers", "-3"],
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


@pytest.mark.parametrize("argv", [
    ["estimate", "--space", "linf:2", "--p", "2", "--depth", "30", "--trials", "2"],
    ["estimate", "--space", "linf:2", "--depth", "30", "--direction", "randomized-plus"],
    ["atlas", "--spaces", "linf:2", "--ps", "2", "--depth", "30", "--trials", "2"],
])
def test_too_large_search_models_exit_2_before_the_start_is_drawn(argv, monkeypatch, capsys):
    # a depth-30 tree has 2^31 - 2 multiplier slots: 16 GiB of start letters
    monkeypatch.setattr(ct, "stream", lambda *labels: pytest.fail("drew a start"))
    assert cli.main([*argv, "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("decoupling-lab:") and "exceed budget" in err
    assert "Traceback" not in err


def test_too_large_product_models_exit_2(capsys):
    # trial 1 draws 10 levels: 4^10 outcomes x 11 partial sums x 4 coordinates
    argv = ["verify", "--suite", "levy", "--space", "l2:4", "--depth", "12", "--trials", "2",
            "--seed", "0", "--workers", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("decoupling-lab:") and "46137344 partial-sum floats" in err
    assert "over budget" in err and "Traceback" not in err


def test_a_failed_witness_replay_is_not_a_config_error(monkeypatch):
    # exit 2 catches ValueError, which EnumerationError is too; a search whose
    # witness replays to another value is a bug and must end in a traceback
    def replays_wrong(*args, **kwargs):
        raise RuntimeError("witness replays to 1.0, the search measured 2.0")

    monkeypatch.setattr(ct, "search_worst_case", replays_wrong)
    with pytest.raises(RuntimeError, match="witness replays"):
        cli.main(["estimate", "--space", "l2:2", "--workers", "1"])


def test_unwritable_out_exits_2_before_the_command_runs(tmp_path, monkeypatch, capsys):
    target = tmp_path / "missing" / "x.json"
    argv = ["bounds", "--formula", "logdim-lower", "--p", "2", "--d", "4",
            "--workers", "1", "--out", str(target)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("decoupling-lab:") and str(target) in err and "Traceback" not in err
    ran = []
    monkeypatch.setattr(cli, "_cmd_bounds", lambda args: ran.append(args) or 0)
    assert cli.main(argv) == 2 and not ran
    capsys.readouterr()
    # a path that fails only when it is opened is a configuration error too
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_require_writable", lambda path: None)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("decoupling-lab:") and str(target) in err and "Traceback" not in err
    assert not target.parent.exists()


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
    # every suite, in one range per suite and in two or three ranges
    for space in ("linf:3", "nested:1x2,3x2"):
        outs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"all-{workers}.json"
            assert cli.main(["verify", "--suite", "all", "--trials", "7", "--space", space,
                             "--depth", "3", "--seed", "3", "--workers", workers,
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2], space


SUBCOMMANDS = [
    ["verify", "--suite", "all", "--space", "lp:0.5:2", "--depth", "3", "--trials", "3"],
    ["estimate", "--space", "l2:2", "--depth", "2", "--trials", "10", "--restarts", "1"],
    ["bounds", "--formula", "extrap-c", "--p", "2", "--q", "4", "--A", "2", "--b", "0.1"],
    ["bdg", "--space", "linf:2", "--p", "1", "2", "--samples", "300", "--steps", "8"],
    ["atlas", "--spaces", "l2:2,linf:2", "--ps", "1,2", "--depth", "2", "--trials", "10",
     "--restarts", "1"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_spliced_report_is_the_canonical_report(argv, capsys):
    # the writer puts the envelope around the encoded batches of rows; the
    # result is canonical_json of the whole report, and CSV the same rows
    base = argv + ["--seed", "0", "--workers", "1"]
    assert cli.main(base) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["results"]
    assert text == rp.canonical_json(report) + "\n"
    assert cli.main(base + ["--format", "csv"]) == 0
    table = capsys.readouterr().out
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=table.splitlines()[0].split(","),
                            extrasaction="ignore")
    writer.writeheader()
    writer.writerows(report["results"])
    assert table == buffer.getvalue()


def test_write_report_splices_batches_into_the_canonical_report():
    rows = [{"b": i, "a": [0.1 * i, {"z": None, "y": 'q"uote'}], "results": i % 2 == 0}
            for i in range(7)]
    report = rp.envelope("demo", {"results": "[]", "x": 1.5}, [], seed=3, method="exact")
    for cuts in ((), (3,), (0, 2, 2, 7)):
        bounds = (0, *cuts, len(rows))
        chunks = [rp.encode_rows(rows[a:b], "json", []) for a, b in zip(bounds, bounds[1:])]
        buffer = io.StringIO()
        rp.write_report(buffer, report, chunks, "json", [])
        assert buffer.getvalue() == rp.canonical_json({**report, "results": rows}) + "\n"
    buffer = io.StringIO()
    rp.write_report(buffer, report, [], "json", [])
    assert buffer.getvalue() == rp.canonical_json(report) + "\n"


def test_verify_holds_little_beyond_its_encoded_report(tmp_path):
    # rows are encoded batch by batch and only the text is kept, so what the
    # run holds beside that text does not grow with the trial count.  On
    # l2:32 at depth 2 a product batch (BATCH_FLOATS) holds at most 42
    # trials; the report of 150 trials is 0.5 MiB, and holding its rows as
    # dicts would add 3 MiB.
    def extra(trials):
        out = tmp_path / f"{trials}.json"
        argv = ["verify", "--suite", "all", "--space", "l2:32", "--depth", "2",
                "--trials", str(trials), "--seed", "1", "--workers", "1", "--out", str(out)]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - out.stat().st_size

    extra(5)  # caches filled once per process
    small, large = extra(50), extra(150)
    assert large <= small + 128 * 1024, (small, large)


@pytest.mark.parametrize("argv, limit", [
    # the window table of trial 0 is over budget
    (["verify", "--suite", "goodlambda", "--space", "l2:16", "--depth", "2", "--trials", "6"], 100),
    # a tangency range is encoded before the levy suite's first model is refused
    (["verify", "--suite", "all", "--space", "l2:16", "--depth", "2", "--trials", "6"], 100),
    # trial 0 is encoded before trial 1's ten levels are refused
    (["verify", "--suite", "levy", "--space", "l2:4", "--depth", "12", "--trials", "2"], None),
], ids=["window-table", "after-tangency-rows", "after-a-product-batch"])
def test_mid_run_refusal_writes_nothing(argv, limit, tmp_path, monkeypatch, capsys):
    import decoupling_lab.inequalities as iq
    import decoupling_lab.probmodel as pm

    if limit is not None:
        monkeypatch.setattr(pm, "JOINT_LIMIT", limit)
        monkeypatch.setattr(iq, "JOINT_LIMIT", limit)
    base = argv + ["--seed", "0", "--workers", "1"]
    assert cli.main(base) == 2
    out, err = capsys.readouterr()
    assert out == "" and "over budget" in err and "Traceback" not in err
    target = tmp_path / "report.json"
    assert cli.main(base + ["--out", str(target)]) == 2
    assert not target.exists()


def test_verify_exit_one_on_exact_failure(monkeypatch, capsys):
    def broken(task):
        rows = [{"inequality": "demo", "holds": False, "method": "exact",
                 "lhs": 2.0, "rhs": 1.0, "margin": -1.0, "model": 0}]
        return [rp.encode_rows(rows, "json", cli.VERIFY_COLUMNS)], True

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


# sha256 of small verify reports (--depth 3 --trials 10 --seed 0), every suite
# on l2, a quasi-Banach lp, the sup norm and a nested space: a change to any
# checker, model builder or window table that moves a byte of them fails here
WINDOW_SUITE_SHA256 = {
    "tangency": {
        "l2:3": "8cb3435c4477331e632a0dc95867ddcefa09c234a72b0099db3bec727b08226d",
        "lp:0.5:3": "86024e955ee59f2977d1c6a6851e4e6af7e8834cd895da3ef09a84db1ebfd542",
        "linf:3": "f5a334bf473c624afa2712e40988b5998f88f29f6ece1c96dec55d50a115832e",
        "nested:1x2,3x2": "6c87b3b9d108b381e1711ed6e508eccb346bf6fa5999f3b0d6b7f6a8c1ac3ee0",
    },
    "levy": {
        "l2:3": "87e640e51d07d5ae3c7b123421f5d38e87b2bf65db332655f80cc3621f426ae9",
        "lp:0.5:3": "e6656ff28254435fe9286c486c401c5bbe718b849d705291071f03155011c06a",
        "linf:3": "568455d68ca5b305d06e273650dedf19e93f72e55bc0c0721bde0db54225c21e",
        "nested:1x2,3x2": "df527b1f5762316d346e4d53d1b188fedc4c06fb52458a4b61ef32bdc230ba7d",
    },
    "contraction": {
        "l2:3": "27e7a51acbdceec80113b2d32e597d0b50b0487ad315a8034ac05f6eb295fb2b",
        "lp:0.5:3": "8a32daad491855bfa60ef88b2238676d35af2ef0b60e17fe3fc6235c602800a8",
        "linf:3": "05dc681a25a956ac7614cef19ea999a49f4328bd2ea820ce20abf24f83d0688f",
        "nested:1x2,3x2": "713857a26cd6a480ecea18c591f2f8c0882baef380ae37b88ed3dc0bc0c97859",
    },
    "symsum": {
        "l2:3": "08e084ae430a541b2401e8eb3689f6c1cf95030c369239a89f4307e7336b9169",
        "lp:0.5:3": "d5ffcea14c6298d46916f2ad20e7606393517f16c9c1942ba235fab9445be704",
        "linf:3": "a01ec0c94224782b97371d21a393c110e707f6226b36b47c57d0bac952305046",
        "nested:1x2,3x2": "cb86ea99f6f89c6ef44a25f9a55c7239c52b5181e287b3535a6adfe39fa452cb",
    },
    "revkol": {
        "l2:3": "6291f06fa59f19bc66f58fc0a5f01c395a81468dbc258bd3d725968a67fe4038",
        "lp:0.5:3": "b2c62f823672f8cd8d021335fc4a50f1c83447b5c67934fba38b4328dcd1bd5f",
        "linf:3": "4d5aa60475fd0f641c1097e8d387cf5c5b12a97c50b08b64e39c87b911fd68d9",
        "nested:1x2,3x2": "499983f610466c92615fd9cf5ba2d49f421e2fa5e0bd3c7b983d22152afd69a5",
    },
    "tail": {
        "l2:3": "45d26c9a06fd52df72270056ddd0a893b3fe2d68f3161d77ce0ae1e9d5ee0e5f",
        "lp:0.5:3": "296ba93bcb8981fab128e38b98b668892c4f57eb5cd3925d3e47db5847ed415f",
        "linf:3": "8419a6268a9803facbabedcbe54d4c9dbaf7efd45a83d6d3885d15c4fe6a3c45",
        "nested:1x2,3x2": "53e25014a8cd82f23e3f9ae2c26b5e0b59472c301c96d5618c7f6330f1d26de5",
    },
    "goodlambda": {
        "l2:3": "e22ddce3364317731d700ed9f3fc90ba52eba55817b808c60542b63e4110b541",
        "lp:0.5:3": "5f388fbcb091b57af60f0c8e98c2b576a23656c105761675f3cf6b61fc7de61c",
        "linf:3": "fab5398d9a77f67aa7ce293724912fcfc091c69be4336b16e53411ef8999e7f8",
        "nested:1x2,3x2": "7ab406667248158fed5da8c6feee10578fee090b7e20c4a1d6cc504b955c2606",
    },
    "davis": {
        "l2:3": "9aede4a4e7371f3827a0a52436400d86e8f66f4e9339cd957c7b9b7469191181",
        "lp:0.5:3": "5e5b24ec64cac5e0bd60c00bc5794143d3e910a5660c7d3701cca8bc35b85e6d",
        "linf:3": "63d5f702a092205e310f95d97900846009607ea57cca6ac259634d06ecceb413",
        "nested:1x2,3x2": "466cbbe5bc56e8e18a5fa377a6b7a3dfec51f3e2fa0734b7d60bff9ee5d7038f",
    },
    "extrapolation": {
        "l2:3": "bad5e3e0ec59d8dfe9d8670c49d1b7380606a24a6456821d242ab613b86d6796",
        "lp:0.5:3": "ea0e09b24ae966e831351bab27c42cd3f7292de8dd7be64c0deab9f47e2f8499",
        "linf:3": "ed16d6702fc0adc3024fe4b59727fcd3aab73cb9116564ae1937e644985540c3",
        "nested:1x2,3x2": "6e4ed6de9b1353f398280eeab46493fb4b66f4829d33b09dbd4e31e8c7f3cffb",
    },
    "all": {
        "l2:3": "6331a06e26a6131078856fed0188a979160404966c317b06bb87839dc9e7eb92",
        "lp:0.5:3": "20ea1bb99e81b22a0611639b1cc4414feb383c9ae3c35ad55813e15920634cad",
        "linf:3": "2f9a7a67355b40252c0110d1486be5f2abc9f01fba2665cf4982551446a37d81",
        "nested:1x2,3x2": "2643f72d402e95c5048506813b423f243775ec64598332dd60753c694fe1ccbf",
    },
}


@pytest.mark.parametrize("suite", sorted(WINDOW_SUITE_SHA256))
def test_window_suite_reports_are_pinned(suite, capsys):
    for space, want in WINDOW_SUITE_SHA256[suite].items():
        assert cli.main(["verify", "--suite", suite, "--space", space, "--depth", "3",
                         "--trials", "10", "--seed", "0", "--workers", "1"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == want, space


# sha256 of search reports (--seed 0, default budgets), taken before the
# search measured each slot's letters as one batch: a change to a candidate's
# value, to the trajectory or to a witness fails here (the search refuses to
# report a best value its witness does not replay to bit for bit)
SEARCH_ATLAS = ["atlas", "--spaces", "l2:2,linf:4,lp:0.5:3,nested:1x2,3x2", "--ps", "1,2",
                "--depth", "3"]
SEARCH_SHA256 = {
    "decouple-upper": "78212fdea495c681b17e6481aab2c82ce324d5d166c8a2e1375f6397800c44ea",
    "decouple-lower": "c2c031d7c67fa81d80cb51f004dd5798d0cbee196d5119bf71cd3ba50777bb2b",
    "randomized-plus": "34eab03c7b81e5130c834d7a8136450567e9b9ab5b7f1d59ab13bd4881461111",
}
GAUSSIAN_ESTIMATE = ["estimate", "--space", "nested:1x2,3x2", "--p", "3",
                     "--family", "gaussian-multipliers", "--depth", "3", "--trials", "200",
                     "--restarts", "2"]
GAUSSIAN_ESTIMATE_SHA256 = "b100d2a7843e5f4e6a2b498affafedd3664bc44182498da270e757a21836de12"


@pytest.mark.parametrize("argv, want", [
    *[([*SEARCH_ATLAS, "--direction", direction], digest)
      for direction, digest in SEARCH_SHA256.items()],
    (GAUSSIAN_ESTIMATE, GAUSSIAN_ESTIMATE_SHA256),
])
def test_search_reports_are_pinned(argv, want, capsys):
    assert cli.main([*argv, "--seed", "0", "--workers", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


# sha256 of estimate reports on the joint engine at exact-large sizes (--seed 0),
# taken before g was grown dim-major: the two benchmark models (Paley-Walsh
# depth 8 on linf:4, three-point depth 5 on lp:0.5:3), a sum over 16
# coordinates (np.sum, not the fold) and a nested space at depth 6
ENGINE_SHA256 = {
    ("linf:4", "4", "paley-walsh-multipliers", "8", "8"):
        "3182d6d78caff40631c01d4b5bf86dae8684c0283544593e713c802d9672e230",
    ("lp:0.5:3", "1", "gaussian-multipliers", "5", "10"):
        "0afb456fc73017b4c20d30c8b18446ac0dba9acd903ef58bd3dfb282a156a759",
    ("l2:16", "3", "paley-walsh-multipliers", "5", "8"):
        "f692380f8fb8ed22a0f0f1d6870a9685d6dcde33072477e0f7336e4e533ce7b4",
    ("nested:1x2,3x2", "2", "paley-walsh-multipliers", "6", "8"):
        "929228bc010fc22a3d2ca5a83ead05df30e75bec2bba7a700503ab4a801ff00f",
}


@pytest.mark.parametrize("space, p, family, depth, trials", sorted(ENGINE_SHA256))
def test_engine_estimates_are_pinned(space, p, family, depth, trials, capsys):
    assert cli.main(["estimate", "--space", space, "--p", p, "--family", family,
                     "--depth", depth, "--trials", trials, "--restarts", "1",
                     "--seed", "0", "--workers", "1"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ENGINE_SHA256[space, p, family, depth, trials]


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
