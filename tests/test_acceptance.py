"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ``acceptance <name>: PASS/FAIL`` line (visible with
``pytest -s tests/test_acceptance.py``). Stochastic criteria fix their
seeds, so results are bit-reproducible; the coverage runs are scaled-down
versions of the full simulation study and their tolerance windows reflect
that scale.
"""

import time

import numpy as np

from almostdom.calculus import GridFunction, GridSpec
from almostdom.coefficients import (
    Direction,
    DominanceFamily,
    coefficient,
    cubic_preference,
    default_grid,
    rank_measures,
)
from almostdom.covariance import std_curve_for
from almostdom.empirical import EmpiricalDistribution, PairedSample, SamplingScheme
from almostdom.inference import InferenceConfig, bootstrap_ci, contact_sets, derivative, select_tuning
from almostdom.rng import child_rng
from almostdom.simulation import (
    DiscreteLaw,
    DoublePareto,
    MonteCarloStudy,
    monte_carlo,
    population_coefficient,
)

import reference

MP = SamplingScheme.MATCHED
IND = SamplingScheme.INDEPENDENT


def check(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def sdc_laws(beta: float):
    first = DiscreteLaw([(0.25, 1 / beta), (1.0, 1 - 1 / beta)])
    second = DiscreteLaw([(0.5, 2 / 3), (0.75, 1 / 3)])
    return first, second


def test_01_population_ldc_oracle():
    targets = {2: 0.04703, 3: 0.31489, 4: 0.45198, 5: 0.51960}
    start = time.perf_counter()
    worst = 0.0
    for beta, target in targets.items():
        value = population_coefficient(
            DoublePareto(3.0, 1.5), DoublePareto(2.1, float(beta)),
            DominanceFamily.lorenz(1),
        )
        worst = max(worst, abs(value - target))
    elapsed = time.perf_counter() - start
    check(
        "01 population-ldc-oracle",
        worst <= 2e-3 and elapsed < 10.0,
        f"max |err| {worst:.2e} (tol 2e-3), {elapsed:.1f}s (budget 10s)",
    )


def test_02_population_uisdc_oracle():
    targets = {2.2: 0.06229, 2.3: 0.14052, 2.4: 0.26581, 2.5: 0.42840}
    start = time.perf_counter()
    worst = 0.0
    for beta, target in targets.items():
        value = population_coefficient(
            DoublePareto(2.1, 1.5), DoublePareto(200.0, beta),
            DominanceFamily.inverse_sd(3, Direction.UP),
        )
        worst = max(worst, abs(value - target))
    elapsed = time.perf_counter() - start
    check(
        "02 population-uisdc-oracle",
        worst <= 2e-3 and elapsed < 30.0,
        f"max |err| {worst:.2e} (tol 2e-3), {elapsed:.1f}s (budget 30s)",
    )


def test_03_exact_sdc_values():
    # hand-derived piecewise ratios 3/37, 1/9, 3/17, 3/7 and their roundings
    start = time.perf_counter()
    rounded = {8: 0.081081, 6: 0.11111, 4: 0.17647, 2: 0.42857}
    fractions = {8: 3 / 37, 6: 1 / 9, 4: 3 / 17, 2: 3 / 7}
    worst_round = worst_frac = 0.0
    for beta in (8, 6, 4, 2):
        first, second = sdc_laws(beta)
        value = population_coefficient(first, second, DominanceFamily.sd(1))
        worst_round = max(worst_round, abs(value - rounded[beta]))
        worst_frac = max(worst_frac, abs(value - fractions[beta]))
    elapsed = time.perf_counter() - start
    check(
        "03 exact-sdc-values",
        worst_round <= 1e-4 and worst_frac <= 1e-12 and elapsed < 1.0,
        f"|err| vs rounded targets {worst_round:.2e} (tol 1e-4), vs exact "
        f"fractions {worst_frac:.1e}, {elapsed:.2f}s (budget 1s)",
    )


def test_04_sdc_coverage_scaled():
    first, second = sdc_laws(8)
    family = DominanceFamily.sd(1)
    true_c = population_coefficient(first, second, family)
    cfg = InferenceConfig(t_n=0.001, seed=7, n_boot=300)
    study = MonteCarloStudy(
        dgp1=first, dgp2=second, family=family, scheme=MP,
        sizes=(100, 100), cfg=cfg, n_reps=300, true_c=true_c,
    )
    start = time.perf_counter()
    report = monte_carlo(study)
    elapsed = time.perf_counter() - start
    ok = 0.90 <= report.cr <= 0.98 and abs(report.mean - 0.0824) <= 0.01
    check(
        "04 sdc-coverage-scaled",
        ok and elapsed < 300.0,
        f"CR {report.cr:.4f} (window [0.90, 0.98]), mean {report.mean:.4f} "
        f"(target 0.0824 +- 0.01), {elapsed:.0f}s (budget 300s)",
    )


def test_05_ldc_coverage_scaled():
    dgp1, dgp2 = DoublePareto(3.0, 1.5), DoublePareto(2.1, 2.0)
    family = DominanceFamily.lorenz(1)
    true_c = population_coefficient(dgp1, dgp2, family)
    cfg = InferenceConfig(t_n=0.001, seed=0, n_boot=200)
    study = MonteCarloStudy(
        dgp1=dgp1, dgp2=dgp2, family=family, scheme=MP,
        sizes=(1000, 1000), cfg=cfg, n_reps=200, true_c=true_c,
    )
    start = time.perf_counter()
    report = monte_carlo(study)
    elapsed = time.perf_counter() - start
    ok = 0.84 <= report.cr <= 0.96 and abs(report.mean - 0.0914) <= 0.02
    check(
        "05 ldc-coverage-scaled",
        ok and elapsed < 600.0,
        f"CR {report.cr:.4f} (window [0.84, 0.96]), mean {report.mean:.4f} "
        f"(target 0.0914 +- 0.02), {elapsed:.0f}s (budget 600s)",
    )


def test_06_kernel_vs_monte_carlo_variance():
    dp1, dp2 = DoublePareto(3.0, 1.5), DoublePareto(2.1, 3.0)
    rng = child_rng(6, 0)
    d1 = EmpiricalDistribution(dp1.sample(100_000, rng))
    d2 = EmpiricalDistribution(dp2.sample(100_000, rng))
    spec = GridSpec(101)  # node 51 sits exactly at p = 0.5
    node = int(np.argmin(np.abs(spec.nodes() - 0.5)))
    assert spec.nodes()[node] == 0.5
    # the kernel's diagonal: the squared Lorenz 1 studentization
    estimate = std_curve_for(DominanceFamily.lorenz(1), d1, d2, None, IND, spec).values[node] ** 2

    def transform(dp, x, p):
        quantile = dp.quantile(p)
        lorenz = dp.cum_quantile(p) / dp.mean()
        return (lorenz * x - np.minimum(quantile, x)) / dp.mean()

    mc_rng = child_rng(1001, 0)
    draws = 1_000_000
    half = np.sqrt(0.5)
    fluct = half * transform(dp1, dp1.sample(draws, mc_rng), 0.5) - half * transform(
        dp2, dp2.sample(draws, mc_rng), 0.5
    )
    oracle = fluct.var()
    rel = abs(estimate - oracle) / oracle
    check(
        "06 kernel-vs-monte-carlo-variance",
        rel <= 0.05,
        f"kernel {estimate:.5f} vs MC {oracle:.5f}, rel diff {rel:.3%} (tol 5%)",
    )


def test_07_estimator_consistency():
    dp1, dp2 = DoublePareto(3.0, 1.5), DoublePareto(2.1, 3.0)
    rng = child_rng(2, 0)
    d1 = EmpiricalDistribution(dp1.sample(100_000, rng))
    d2 = EmpiricalDistribution(dp2.sample(100_000, rng))
    c_hat = coefficient(DominanceFamily.lorenz(1), d1, d2, GridSpec(1000)).c_hat
    gap = abs(c_hat - 0.31489)
    check(
        "07 estimator-consistency",
        gap <= 5e-3,
        f"c_hat {c_hat:.5f} vs 0.31489, |err| {gap:.2e} (tol 5e-3)",
    )


def test_08_property_suite():
    failures = []

    def prop(name, ok):
        if not ok:
            failures.append(name)

    rng = child_rng(8, 0)
    spec = GridSpec(400)

    # complement identity at 1e-12
    d1 = EmpiricalDistribution(rng.exponential(size=80) + 0.01)
    d2 = EmpiricalDistribution(rng.gamma(2.0, size=60) + 0.01)
    fam = DominanceFamily.lorenz(1)
    c12 = coefficient(fam, d1, d2, spec).c_hat
    c21 = coefficient(fam, d2, d1, spec).c_hat
    prop("complement-identity", abs(c12 + c21 - 1.0) < 1e-12)

    # Lorenz scale invariance at 1e-10
    scaled = coefficient(
        fam,
        EmpiricalDistribution(37.0 * d1.sorted_values),
        EmpiricalDistribution(0.002 * d2.sorted_values),
        spec,
    ).c_hat
    prop("scale-invariance", abs(scaled - c12) < 1e-10)

    # contact sets partition the grid and grow with the threshold
    diff = GridFunction(spec, rng.normal(size=400))
    std = GridFunction(spec, np.abs(rng.normal(size=400)))
    cfg_small = InferenceConfig(t_n=0.4, seed=0)
    cfg_large = InferenceConfig(t_n=3.0, seed=0)
    small = contact_sets(diff, std, 77.0, cfg_small)
    large = contact_sets(diff, std, 77.0, cfg_large)
    partition = np.all(
        small.plus.astype(int) + small.minus.astype(int) + small.zero.astype(int) == 1
    )
    prop("contact-partition", bool(partition))
    prop("contact-monotone", bool(np.all(large.zero[small.zero])))

    # derivative homogeneity at 1e-12
    est = coefficient(fam, d1, d2, spec)
    sets = contact_sets(est.difference, std, 66.0, cfg_small)
    h = GridFunction(spec, rng.normal(size=400))
    base = derivative(h, sets, est.difference)
    prop(
        "derivative-homogeneity",
        abs(derivative(3.0 * h, sets, est.difference) - 3.0 * base) < 1e-12,
    )

    # welfare identity at 1e-12
    measures = rank_measures(d1, cubic_preference(), GridSpec(1000))
    prop(
        "welfare-identity",
        abs(measures.welfare - measures.mean * (1 - measures.inequality)) < 1e-12,
    )

    # seeded bootstrap determinism, bit-exact
    pairs = PairedSample(
        DoublePareto(3.0, 1.5).sample(100, child_rng(8, 1)),
        DoublePareto(2.1, 3.0).sample(100, child_rng(8, 2)),
    )
    cfg = InferenceConfig(t_n=0.001, seed=17, n_boot=80)
    run1 = bootstrap_ci(pairs, fam, MP, spec, cfg)
    run2 = bootstrap_ci(pairs, fam, MP, spec, cfg)
    prop(
        "bootstrap-determinism",
        bool(np.array_equal(run1.draws, run2.draws) and run1.ci == run2.ci),
    )

    # kernel symmetry at 1e-9 and PSD on 50 random quadratic forms
    # the dense reference kernel, the one std_curve_for is checked against
    kernel = reference.lorenz_kernel(d1, d2, None, IND, GridSpec(64))
    matrix = kernel.matrix
    prop("kernel-symmetry", bool(np.max(np.abs(matrix - matrix.T)) < 1e-9))
    floor = -1e-6 * np.max(np.abs(matrix))
    psd_ok = all(
        (w := rng.normal(size=64)) @ matrix @ w >= floor * (w @ w)
        for _ in range(50)
    )
    prop("kernel-psd", psd_ok)

    # clamped interval stays inside the unit interval
    prop("ci-clamped", 0.0 <= run1.ci[0] <= run1.ci[1] <= 1.0)

    check(
        "08 property-suite",
        not failures,
        "all properties hold" if not failures else f"failed: {failures}",
    )


def test_09_tuning_selection_smoke():
    first, second = sdc_laws(8)
    family = DominanceFamily.sd(1)
    picks = []
    start = time.perf_counter()
    for meta in range(20):
        rng = child_rng(555, meta)
        pairs = PairedSample(first.sample(100, rng), second.sample(100, rng))
        d1 = EmpiricalDistribution(pairs.x1)
        d2 = EmpiricalDistribution(pairs.x2)
        spec = default_grid(family, d1, d2, 1000)
        cfg = InferenceConfig(t_n=1.0, seed=1000 + meta, n_boot=100)
        picks.append(
            select_tuning(
                pairs, family, MP, spec, cfg, [0.001, 20.0],
                n_cal_reps=60, n_cal_boot=100,
            )
        )
    elapsed = time.perf_counter() - start
    fraction = sum(1 for value in picks if value == 0.001) / len(picks)
    check(
        "09 tuning-selection-smoke",
        fraction >= 0.80,
        f"selected 0.001 in {fraction:.0%} of 20 runs (need >= 80%), {elapsed:.0f}s",
    )
