"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

import subeigen as se
from subeigen.cli import main as cli_main
from subeigen.diagnostics import (
    decay_inequality_checks,
    embedding_ratio,
    linf_threshold,
    sobolev_constant_from_lambda,
)
from conftest import chain_grid

TWO_PI_SQ = 2 * np.pi ** 2


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def grid_euclid(n):
    return se.build_grid("euclidean2", [(0, 1), (0, 1)], (n, n))


def grid_heis(n, centered=False):
    box = [(-0.5, 0.5)] * 3 if centered else [(0, 1), (0, 1), (0, 1)]
    return se.build_grid("heisenberg1", box, (n, n, n))


def test_criterion_1_euclidean_sanity():
    grid = grid_euclid(64)
    cfg = se.SolverConfig(grid=grid, p=2.0, q=2.0)
    t0 = time.perf_counter()
    inv = se.inverse_iteration(cfg)
    elapsed = time.perf_counter() - t0
    lo, hi = 0.99 * TWO_PI_SQ, 1.01 * TWO_PI_SQ
    ok = lo <= inv.lambda_hat <= hi and inv.converged and elapsed <= 60.0
    report("1 euclidean sanity", ok,
           f"inverse={inv.lambda_hat:.4f} target={TWO_PI_SQ:.4f} runtime={elapsed:.1f}s")


def test_criterion_2_iteration_monotonicity():
    configs = []
    for gname, make in (("euclidean2", lambda: grid_euclid(10)),
                        ("heisenberg1", lambda: grid_heis(5))):
        group = se.get_group(gname)
        for p in (1.5, 2.0, 3.0):
            for q in (1.5, 2.0, 3.0):
                if se.check_regime(p, q, group) is None:
                    configs.append((gname, make(), p, q))
    ok = True
    worst = 0.0
    for gname, grid, p, q in configs:
        cfg = se.SolverConfig(grid=grid, p=p, q=q)
        r = se.inverse_iteration(cfg)
        slack = 10 * cfg.tol_inner
        h = r.history
        mono = all(b.mu <= a.mu * (1 + slack) for a, b in zip(h, h[1:]))
        squeeze = all(rec.unorm <= rec.mu * (1 + slack) for rec in h)
        tail = abs(h[-1].unorm - h[-1].mu) <= 1e-4 * r.lambda_hat
        ok &= mono and squeeze and tail and r.converged
        worst = max(worst, abs(h[-1].unorm - h[-1].mu) / r.lambda_hat)
    report("2 iteration monotonicity", ok,
           f"{len(configs)} configs, worst trace gap {worst:.2e}")


def test_criterion_3_oracle_equivalence():
    ok = True
    worst = 0.0
    tested = 0
    ge = grid_euclid(3)
    gh = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (2, 2, 2))
    cases = [(ge, p, q) for p in (1.5, 2.0, 2.5, 3.0) for q in (1.5, 2.0, 3.0)]
    cases += [(gh, p, q) for p, q in ((1.5, 1.5), (2.0, 2.0), (2.0, 3.0),
                                      (2.5, 2.0), (3.0, 3.0))]
    for grid, p, q in cases:
        oracle = se.brute_force_lambda(grid, p, q, seed=1)
        cfg = se.SolverConfig(grid=grid, p=p, q=q, tol_outer=1e-8)
        rel = abs(se.inverse_iteration(cfg).lambda_hat - oracle.lambda_star) / oracle.lambda_star
        worst = max(worst, rel)
        ok &= rel <= 1e-4
        tested += 1
    chain = se.brute_force_lambda(chain_grid(3), 2.0, 2.0)
    chain_ok = abs(chain.lambda_star - (2 - np.sqrt(2))) <= 1e-8
    ok &= chain_ok
    report("3 oracle equivalence", ok,
           f"{tested} (p,q) configs, worst rel dev {worst:.2e}, "
           f"chain={chain.lambda_star:.10f}")


def test_criterion_4_operator_laws():
    rng = np.random.default_rng(2024)
    ge, gh = grid_euclid(8), se.build_grid("heisenberg1",
                                           [(0, 1), (0, 1), (0, 1)], (4, 4, 4))
    ok = True
    # H1/H2 homogeneity and the Hoelder bounds over 1000 random pairs
    for _ in range(500):
        grid = ge if rng.random() < 0.5 else gh
        u = se.Field(grid, rng.standard_normal(grid.n_nodes))
        v = se.Field(grid, rng.standard_normal(grid.n_nodes))
        t = float(rng.uniform(-3, 3)) or 1.0
        for p in (1.5, 2.0, 3.0):
            scaled = abs(t) ** (p - 2) * t * se.apply_A(u, p).values
            err = np.max(np.abs(se.apply_A(t * u, p).values - scaled))
            ok &= err <= 1e-12 * np.max(np.abs(scaled))  # machine precision at scale
            bound = se.p_energy(u, p) ** ((p - 1) / p) * se.p_energy(v, p) ** (1 / p)
            ok &= se.pairing(se.apply_A(u, p), v) <= bound * (1 + 1e-12)
            ok &= se.pairing(se.apply_A(u, p), u) == pytest.approx(
                se.p_energy(u, p), rel=1e-11)
            ok &= se.pairing(se.apply_A(u, p) - se.apply_A(v, p), u - v) >= -1e-12
        for q in (1.5, 2.0, 3.0):
            scaled = abs(t) ** (q - 2) * t * se.apply_B(u, q).values
            err = np.max(np.abs(se.apply_B(t * u, q).values - scaled))
            ok &= err <= 1e-12 * np.max(np.abs(scaled))
            ok &= se.pairing(se.apply_B(u, q), v) <= (
                se.lq_norm(u, q) ** (q - 1) * se.lq_norm(v, q)) * (1 + 1e-12)
    # equality cases at scalar multiples
    w = se.Field(ge, rng.standard_normal(ge.n_nodes))
    for t in (0.5, 2.0):
        for p in (1.5, 2.0, 3.0):
            lhs = se.pairing(se.apply_A(t * w, p), w)
            rhs = se.p_energy(t * w, p) ** ((p - 1) / p) * se.p_energy(w, p) ** (1 / p)
            ok &= abs(lhs - rhs) <= 1e-12 * abs(rhs)
        for q in (1.5, 2.0, 3.0):
            lhs = se.pairing(se.apply_B(t * w, q), w)
            rhs = se.lq_norm(t * w, q) ** (q - 1) * se.lq_norm(w, q)
            ok &= abs(lhs - rhs) <= 1e-12 * abs(rhs)
    # pointwise vector inequality, 1e4 pairs per p
    c_emps = {}
    for p in (1.5, 2.0, 3.0, 4.0):
        a = rng.standard_normal((10_000, 2))
        b = rng.standard_normal((10_000, 2))
        na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
        flux = (na ** (p - 2))[:, None] * a - (nb ** (p - 2))[:, None] * b
        inner = np.sum(flux * (a - b), axis=1)
        ok &= bool(np.all(inner >= -1e-13))
        ratio = inner / ((na + nb) ** (p - 2) * np.sum((a - b) ** 2, axis=1))
        c_emps[p] = float(np.min(ratio))
        ok &= c_emps[p] > 0.0
    report("4 operator laws", ok,
           "empirical vector-law constants " +
           ", ".join(f"p={p}: {c:.3f}" for p, c in c_emps.items()))


def test_criterion_5_dilation_covariance():
    ok = True
    details = []
    # p = q = 2 via the dense oracle in both groups
    for gname, box, res in (("euclidean2", [(0, 1), (0, 1)], (5, 5)),
                            ("heisenberg1", [(0, 1), (0, 1), (0, 1)], (3, 3, 2))):
        grid = se.build_grid(gname, box, res)
        nu = grid.group.homogeneous_dim
        lam = se.brute_force_lambda(grid, 2.0, 2.0).lambda_star
        for s in (0.5, 2.0):
            lam_s = se.brute_force_lambda(se.dilate_grid(grid, s), 2.0, 2.0).lambda_star
            expected = s ** (nu - 2.0 - nu)
            rel = abs(lam_s / lam - expected) / expected
            ok &= rel <= 1e-6
            details.append(f"{gname[:4]} s={s:g}: {rel:.1e}")
    # p != q through the iterative solver at tight tolerance
    gh = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (3, 3, 2))
    p, q, nu = 2.0, 3.0, 4
    cfg = se.SolverConfig(grid=gh, p=p, q=q, tol_outer=1e-12, tol_inner=1e-12)
    lam = se.inverse_iteration(cfg).lambda_hat
    for s in (0.5, 2.0):
        cfg_s = se.SolverConfig(grid=se.dilate_grid(gh, s), p=p, q=q,
                                tol_outer=1e-12, tol_inner=1e-12)
        lam_s = se.inverse_iteration(cfg_s).lambda_hat
        expected = s ** (nu - p - nu * p / q)
        rel = abs(lam_s / lam - expected) / expected
        ok &= rel <= 1e-6
        details.append(f"heis(2,3) s={s:g}: {rel:.1e}")
    report("5 dilation covariance", ok, "; ".join(details))


def test_criterion_6_regularity_diagnostics():
    ok = True
    details = []
    # positive-start eigenfunctions: strict positivity plus a positive core
    # minimum; the Heisenberg cases use the origin-centered box where the
    # skew stencil terms are weakest
    cases = [
        (grid_euclid(64), 2.0, 2.0),
        (grid_euclid(24), 2.0, 3.0),
        (grid_heis(12, centered=True), 2.0, 2.0),
        (grid_heis(10, centered=True), 2.5, 2.0),
    ]
    results = []
    for grid, p, q in cases:
        r = se.inverse_iteration(se.SolverConfig(grid=grid, p=p, q=q))
        results.append((grid, p, q, r))
        positive, c = se.positivity_check(r.eigenfunction)
        ok &= r.converged and positive and c > 0
        details.append(f"{grid.group.name[:4]} p={p:g} q={q:g} core={c:.3f}")
    # decay inequalities at every tested level, case I and case II
    for grid, p, q, r in results:
        l_case = p if q <= p else q
        if l_case == q:
            S = sobolev_constant_from_lambda(r.lambda_hat, grid, p, q)
        else:
            S = se.estimate_sobolev_constant(grid, p, l_case)
        checks = decay_inequality_checks(r.eigenfunction, r.lambda_hat, S, p, q)
        ok &= len(checks) >= 1 and all(c["ok"] for c in checks)
    # sup norm stability across one refinement of the criterion-1 configuration
    sups = []
    for n in (64, 128):
        r = se.inverse_iteration(se.SolverConfig(grid=grid_euclid(n), p=2.0, q=2.0))
        sups.append(float(np.max(np.abs(r.eigenfunction.values))))
    sup_stable = abs(sups[1] - sups[0]) / sups[0] <= 0.10
    ok &= sup_stable
    details.append(f"sup 64->128: {sups[0]:.4f}->{sups[1]:.4f}")
    report("6 regularity diagnostics", ok, "; ".join(details))


def test_criterion_7_embedding_scaling():
    ok = True
    details = []
    cases = [("euclidean2", [(0, 1), (0, 1)], (12, 12),
              [(2.0, 2.0), (2.0, 3.0), (3.0, 2.0)]),
             ("heisenberg1", [(0, 1), (0, 1), (0, 1)], (5, 5, 5), [(2.0, 2.0)])]
    for gname, box, res, pls in cases:
        g0 = se.build_grid(gname, box, res)
        u0 = se.Field.from_function(
            g0, lambda *cs: np.prod([np.sin(np.pi * (c - lo) / (hi - lo))
                                     for c, (lo, hi) in zip(cs, g0.box)], axis=0))
        nu = g0.group.homogeneous_dim
        for p, l in pls:
            logs, logV = [], []
            for s in (1.0, 2.0, 4.0):
                gs = se.dilate_grid(g0, s)
                us = se.Field(gs, u0.values)
                logs.append(np.log(embedding_ratio(us, p, l)))
                logV.append(np.log(gs.box_volume))
            slope = float(np.polyfit(logV, logs, 1)[0])
            expected = 1.0 / l - 1.0 / p + 1.0 / nu
            rel = abs(slope - expected) / abs(expected)
            ok &= rel <= 0.02
            details.append(f"{gname[:4]}({p:g},{l:g}): {rel:.1e}")
    report("7 embedding scaling", ok, "; ".join(details))


def test_criterion_8_determinism_and_plumbing(tmp_path):
    ok = True
    # identical config + seed give byte-identical tables, summary modulo runtime
    args = ["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "10,10",
            "--p", "2", "--q", "2", "--seed", "7", "--dump-field"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        ok &= cli_main(args + ["--out", str(out)]) == 0
        outs.append(out)
    ok &= (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
    ok &= (outs[0] / "field.csv").read_bytes() == (outs[1] / "field.csv").read_bytes()
    summaries = []
    for out in outs:
        with open(out / "summary.json") as fh:
            s = json.load(fh)
        s.pop("runtime_seconds")
        summaries.append(s)
    ok &= summaries[0] == summaries[1]
    # sweep determinism
    sweep_args = ["--group", "euclidean2", "--box", "0,1,0,1", "--resolution", "6,6",
                  "--sweep-p", "1.5,2", "--sweep-q", "1.5,2"]
    ra, rb = tmp_path / "sa", tmp_path / "sb"
    ok &= cli_main(sweep_args + ["--out", str(ra)]) == 0
    ok &= cli_main(sweep_args + ["--out", str(rb)]) == 0
    ok &= (ra / "results.csv").read_bytes() == (rb / "results.csv").read_bytes()
    # out-of-window exponents are rejected with exit 1
    ok &= cli_main(["--group", "heisenberg1", "--box", "0,1,0,1,0,1",
                    "--resolution", "3,3,3", "--p", "2", "--q", "4.5",
                    "--out", str(tmp_path / "x")]) == 1
    ok &= cli_main(["--group", "heisenberg1", "--box", "0,1,0,1,0,1",
                    "--resolution", "3,3,3", "--p", "4.5", "--q", "2",
                    "--out", str(tmp_path / "y")]) == 1
    report("8 determinism and plumbing", ok)
