"""End-to-end acceptance checks for the whole laboratory.

Each test covers one headline guarantee and prints a single
``ACCEPTANCE nn name: PASS|FAIL`` line (run pytest with ``-s`` to watch
them live).  Tolerances and model sizes are part of the contract, so they
are spelled out inline rather than shared through fixtures.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

import decoupling_lab.bounds as bd
import decoupling_lab.cli as cli
import decoupling_lab.constants as ct
import decoupling_lab.inequalities as iq
import decoupling_lab.probmodel as pm
import decoupling_lab.stochint as st
from decoupling_lab.rng import stream
from decoupling_lab.spaces import euclid, lu_constants, seq_lp, sup_norm


@contextmanager
def criterion(num: int, name: str):
    state = {"ok": False, "detail": ""}
    try:
        yield state
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    verdict = "PASS" if state["ok"] else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}")
    assert state["ok"], f"{name}: {state['detail']}"


def test_01_tangency_exact_on_random_models():
    spaces = (euclid(2), seq_lp(0.5, 2), sup_norm(3), euclid(1))
    gen = stream(20260819, "acc-tangency")
    with criterion(1, "tangency-exactness") as out:
        start = time.monotonic()
        bad = []
        for i in range(200):
            tree = pm.random_tree(gen, 5)  # depth <= 5, alphabet <= 3
            seq = pm.random_multiplier_sequence(gen, tree, spaces[i % 4])
            pair = pm.decouple(seq)
            tan = pm.verify_tangency(pair)
            ci = pm.verify_conditional_independence(pair)
            if not (tan.ok and ci.ok and tan.gap <= 1e-12 and ci.gap <= 1e-12):
                bad.append((i, tan.gap, ci.gap))
        elapsed = time.monotonic() - start
        out["ok"] = not bad and elapsed < 60.0
        out["detail"] = f"failures={bad[:3]} elapsed={elapsed:.1f}s"


def test_02_distributional_lemma_suite():
    spaces = (seq_lp(0.5, 2), euclid(4), sup_norm(4))
    ps = (0.5, 1.0, 2.0, 4.0)

    def threshold(gen, seq):
        sups = seq.space.norms(seq.partial_sums).max(axis=1)
        scale = float(np.quantile(sups, 0.7)) or 1.0
        return scale * float(gen.choice([0.5, 1.0, 1.5]))

    violations = []

    def run(rep, label, i):
        reps = rep if isinstance(rep, list) else [rep]
        for r in reps:
            if r.method == "exact" and not r.holds:
                violations.append((label, i, r.inequality, r.margin))

    with criterion(2, "lemma-suite") as out:
        gen = stream(20260819, "acc-levy")
        for i in range(100):
            model = iq.random_product_model(gen, spaces[i % 3], levels=2 + i % 2)
            t = threshold(gen, model.to_sequence())
            run(iq.check_levy(model, t, variant=("max-sum", "max-term")[i % 2]),
                "levy", i)
        gen = stream(20260819, "acc-contraction")
        for i in range(100):
            model = iq.random_product_model(gen, spaces[i % 3], levels=2 + i % 2)
            mults = gen.integers(0, 2, size=len(model.laws)).astype(float)
            run(iq.check_contraction(model, mults, threshold(gen, model.to_sequence())),
                "contraction", i)
        gen = stream(20260819, "acc-symsum")
        for i in range(100):
            space = spaces[i % 3]
            xi = iq.random_symmetric_law(gen, space.dim)
            zeta = iq.random_symmetric_law(gen, space.dim)
            run(iq.check_symsum(space, xi, zeta, ps[i % 4]), "symsum", i)
        gen = stream(20260819, "acc-revkol")
        for i in range(100):
            model = iq.random_product_model(gen, spaces[i % 3], levels=2 + i % 2)
            run(iq.check_reverse_kolmogorov(model, threshold(gen, model.to_sequence()), ps[i % 4]),
                "revkol", i)
        gen = stream(20260819, "acc-tail")
        for i in range(100):
            pair = pm.random_pair(gen, spaces[i % 3], max_depth=3, symmetric=True)
            d_star = pair.seq.d_star
            ts = sorted(set(float(x) for x in np.quantile(d_star, [0.25, 0.5, 0.9])))
            run(iq.check_tail_comparison(pair, ts), "tail", i)
        out["ok"] = not violations
        out["detail"] = f"violations={violations[:5]}"


def test_03_scalar_power_comparison_constants():
    with criterion(3, "scalar-constants") as out:
        gen = stream(20260819, "acc-lu")
        ps = gen.uniform(0.3, 5.0, size=100_000)
        a = gen.uniform(0.0, 10.0, size=100_000)
        b = gen.uniform(0.0, 10.0, size=100_000)
        pairs = np.array([lu_constants(p) for p in ps])
        lower, upper = pairs[:, 0], pairs[:, 1]
        split = a ** ps + b ** ps
        joined = (a + b) ** ps
        slack = 1e-9
        upper_bad = int(np.sum(joined > upper * split * (1.0 + slack)))
        lower_bad = int(np.sum(split > lower * joined * (1.0 + slack)))
        # equality case for the lower branch below p = 1
        l_half = lu_constants(0.5)[0]
        eq_gap = abs(1.0 ** 0.5 + 1.0 ** 0.5 - l_half * 2.0 ** 0.5)
        out["ok"] = upper_bad == 0 and lower_bad == 0 and eq_gap <= 1e-12
        out["detail"] = f"upper_bad={upper_bad} lower_bad={lower_bad} eq_gap={eq_gap}"


def test_04_hilbert_ratio_is_one_at_p2():
    with criterion(4, "hilbert-p2-identity") as out:
        gen = stream(20260819, "acc-hilbert")
        worst = 0.0
        for i in range(50):
            tree = pm.random_tree(gen, 4)
            seq = pm.random_multiplier_sequence(gen, tree, euclid(1 + i % 8))
            value = ct.ratio(pm.decouple(seq), 2.0)
            worst = max(worst, abs(value - 1.0))
        out["ok"] = worst <= 1e-10
        out["detail"] = f"worst |ratio-1| = {worst:.3e}"


def test_05_extrapolation_end_to_end():
    spaces = (euclid(2), sup_norm(2), seq_lp(0.5, 2))
    with criterion(5, "extrapolation") as out:
        gen = stream(20260819, "acc-extrap")
        failures = []
        for i in range(20):
            tree = pm.random_tree(gen, 4)
            seq = pm.random_multiplier_sequence(gen, tree, spaces[i % 3])
            pair = pm.decouple(seq)
            rep = iq.check_extrapolation(pair, p=1.0, q=float(1 + i % 3))
            if not rep.holds:
                failures.append((i, rep.margin))
        out["ok"] = not failures
        out["detail"] = f"failures={failures}"


def test_06_large_jump_geometric_bound():
    with criterion(6, "davis-pathwise") as out:
        battery = []
        for depth in (1, 2, 3, 4):
            tree = pm.paley_walsh(depth)
            ones = [np.ones((tree.num_nodes(n - 1), 1)) for n in range(1, depth + 1)]
            battery.append(pm.AdaptedSequence.from_multipliers(tree, euclid(1), ones))
            jumps = [np.full((tree.num_nodes(n - 1), 1), 2.5 ** n) for n in range(1, depth + 1)]
            battery.append(pm.AdaptedSequence.from_multipliers(tree, euclid(1), jumps))
        gen = stream(20260819, "acc-davis")
        spaces = (euclid(3), seq_lp(0.5, 2), sup_norm(4), seq_lp(0.7, 3))
        for i in range(40):
            tree = pm.random_tree(gen, 5, symmetric=bool(i % 2))
            if i % 3:
                battery.append(pm.random_multiplier_sequence(gen, tree, spaces[i % 4]))
            else:
                battery.append(pm.random_general_sequence(gen, tree, spaces[i % 4]))
        failures = []
        for k, seq in enumerate(battery):
            rep = iq.check_davis_pathwise(pm.decouple(seq))
            if not (rep.holds and rep.method == "exact"):
                failures.append((k, rep.margin))
        out["ok"] = not failures
        out["detail"] = f"failures={failures} battery={len(battery)}"


def test_07_closed_form_bounds_consistency():
    with criterion(7, "closed-form-bounds") as out:
        shift_ok = all(
            bd.exponent_shift_constant(p, p, d_const).value >= d_const
            for p in (0.5, 1.0, 2.0, 4.0, 8.0)
            for d_const in (0.5, 1.0, 3.0, 10.0)
        )
        exceptions = []
        ps = [0.5 * k for k in range(1, 23)]  # 0.5 .. 11.0
        for d in range(2, 1025):
            for p in ps:
                bound = bd.sup_norm_upper_bound(p, d)
                want = p >= math.log2(d)
                if bound.applies != want:
                    exceptions.append((p, d, bound.applies))
                if bound.applies != (bound.params["kernel"] <= 2.0):
                    exceptions.append((p, d, "kernel-mismatch"))
        out["ok"] = shift_ok and not exceptions
        out["detail"] = f"shift_ok={shift_ok} exceptions={exceptions[:5]}"


def test_08_supnorm_search_beats_euclid():
    with criterion(8, "supnorm-search") as out:
        est = ct.search_worst_case(
            sup_norm(2), 2.0, family="supnorm-signs", budget=800, restarts=4, seed=0
        )
        # depth-3 sign patterns brute-force to sqrt(5)/2 as the best ratio
        brute_force_best = math.sqrt(5.0) / 2.0
        euclid_best = ct.search_worst_case(
            euclid(2), 2.0, family="paley-walsh-multipliers", budget=300, restarts=2, seed=0
        )
        witness_pair = ct.replay_witness(est.witness)
        replayed = ct.ratio(witness_pair, 2.0)
        replicas = np.array([
            ct.ratio(witness_pair, 2.0, method="mc", samples=20_000, seed=s)
            for s in range(8)
        ])
        se = float(replicas.std(ddof=1) / math.sqrt(len(replicas)))
        margin = est.ratio - euclid_best.ratio
        out["ok"] = (
            abs(est.ratio - brute_force_best) <= 1e-9
            and margin > 3.0 * se
            and abs(replayed - est.ratio) <= 1e-9
        )
        out["detail"] = (
            f"ratio={est.ratio!r} euclid={euclid_best.ratio!r} "
            f"margin={margin:.4f} 3se={3 * se:.4f} replay_gap={abs(replayed - est.ratio):.2e}"
        )


def test_09_brownian_isometry_and_moment_ratios():
    with criterion(9, "stochastic-integrals") as out:
        start = time.monotonic()
        driver = st.BrownianDriver(4, horizon=1.0, steps=64)
        iso = st.bdg_sweep(euclid(4), [2.0], "deterministic", driver, 100_000, seed=11)[0]
        iso_ratio = iso["terminal_moment"] / iso["gamma_moment"]
        rel_se = iso["sup_se"] / iso["sup_moment"] + iso["terminal_se"] / iso["terminal_moment"]
        doob_ok = iso["sup_moment"] <= 4.0 * iso["terminal_moment"] * (1.0 + 3.0 * rel_se)
        sweep = st.bdg_sweep(euclid(4), [1.0, 2.0, 4.0, 8.0], "adapted-sign", driver, 20_000, seed=12)
        kappas = [row["kappa_over_p"] for row in sweep]
        sweep_ok = all(math.isfinite(k) and k > 0 for k in kappas) and all(
            row["status"] == "ok" for row in sweep
        )
        elapsed = time.monotonic() - start
        out["ok"] = abs(iso_ratio - 1.0) <= 0.05 and doob_ok and sweep_ok and elapsed < 120.0
        out["detail"] = (
            f"iso_ratio={iso_ratio:.4f} doob_ok={doob_ok} "
            f"kappa_over_p={[round(k, 3) for k in kappas]} elapsed={elapsed:.1f}s"
        )


def test_10_reports_do_not_depend_on_worker_count(tmp_path):
    jobs = {
        "verify": ["verify", "--suite", "all", "--trials", "2", "--space", "l2:2",
                   "--depth", "3", "--seed", "5"],
        "estimate": ["estimate", "--space", "linf:2", "--family", "supnorm-signs",
                     "--trials", "60", "--restarts", "2", "--seed", "5"],
        "bounds": ["bounds", "--formula", "phi-growth", "--p", "2", "--q", "4", "--seed", "5"],
        "bdg": ["bdg", "--space", "l2:2", "--p", "1", "2", "--family", "adapted-sign",
                "--samples", "2000", "--steps", "16", "--seed", "5"],
        "atlas": ["atlas", "--spaces", "l2:2,linf:2", "--ps", "1,2", "--trials", "15",
                  "--restarts", "1", "--seed", "5"],
    }
    with criterion(10, "worker-determinism") as out:
        mismatched = []
        for name, argv in jobs.items():
            blobs = []
            for workers in (1, 4):
                path = tmp_path / f"{name}-{workers}.json"
                rc = cli.main(argv + ["--workers", str(workers), "--out", str(path)])
                if rc != 0:
                    mismatched.append((name, f"exit={rc}"))
                blobs.append(path.read_bytes())
            if blobs[0] != blobs[1]:
                mismatched.append((name, "bytes differ"))
            json.loads(blobs[0])  # well-formed JSON report
        out["ok"] = not mismatched
        out["detail"] = f"mismatched={mismatched}"
