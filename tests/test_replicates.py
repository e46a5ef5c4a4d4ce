"""Pinned results of ``bootstrap_ci``, ``tuning_table`` and ``run_replicates``.

The three share one replicate path and one order-preserving parallel
map. The values below were
recorded before those paths were merged; any change to the draws, their
order, or the quantile-and-clamp step moves them.
"""

import numpy as np
import pytest

from almostdom.calculus import GridSpec
from almostdom.coefficients import Direction, DominanceFamily, default_grid
from almostdom.empirical import EmpiricalDistribution, PairedSample, Sample, SamplingScheme
from almostdom.inference import InferenceConfig, bootstrap_ci, tuning_table
from almostdom.rng import child_rng
from almostdom.simulation import (
    DiscreteLaw,
    DoublePareto,
    MonteCarloStudy,
    population_coefficient,
    run_replicates,
)

MP = SamplingScheme.MATCHED
IND = SamplingScheme.INDEPENDENT

FAMILIES = {
    "lorenz1": DominanceFamily.lorenz(1),
    "lorenz2down": DominanceFamily.lorenz(2, Direction.DOWN),
    "isd3": DominanceFamily.inverse_sd(3, Direction.UP),
    "sd1": DominanceFamily.sd(1),
}
SCHEMES = {"matched": MP, "ind": IND}
CASES = [(f, s) for f in FAMILIES for s in SCHEMES]


# law pairs whose population coefficients lie inside (0, 1)
LAWS = {
    "lorenz1": lambda: (DoublePareto(3.0, 1.5), DoublePareto(2.1, 3.0)),
    "lorenz2down": lambda: (DoublePareto(3.0, 1.5), DoublePareto(2.2, 8.0)),
    "isd3": lambda: (DoublePareto(2.1, 1.5), DoublePareto(200.0, 2.5)),
    "sd1": lambda: (
        DiscreteLaw([(0.25, 0.25), (1.0, 0.75)]),
        DiscreteLaw([(0.5, 2 / 3), (0.75, 1 / 3)]),
    ),
}


def dataset(name, scheme, n1=150, n2=200):
    dgp1, dgp2 = LAWS[name]()
    rng = child_rng(2024, 0)
    if scheme is MP:
        data = PairedSample(dgp1.sample(n1, rng), dgp2.sample(n1, rng))
        d1, d2 = EmpiricalDistribution(data.x1), EmpiricalDistribution(data.x2)
    else:
        data = (Sample(dgp1.sample(n1, rng)), Sample(dgp2.sample(n2, rng)))
        d1, d2 = EmpiricalDistribution(data[0].values), EmpiricalDistribution(data[1].values)
    return data, default_grid(FAMILIES[name], d1, d2, 64)


def weighted_sum(values):
    values = np.asarray(values, dtype=float)
    return float(values @ np.arange(1, values.size + 1))


def summaries(name, scheme_name):
    """Order-sensitive numbers from each of the three for one (family, scheme)."""
    family, scheme = FAMILIES[name], SCHEMES[scheme_name]
    data, spec = dataset(name, scheme)
    cfg = InferenceConfig(t_n=0.5, seed=17, n_boot=25)
    boot = bootstrap_ci(data, family, scheme, spec, cfg)
    table = tuning_table(data, family, scheme, spec, cfg, [0.01, 1.0, 10.0], 4, 15)
    dgp1, dgp2 = LAWS[name]()
    study = MonteCarloStudy(
        dgp1=dgp1,
        dgp2=dgp2,
        family=family,
        scheme=scheme,
        sizes=(100, 100) if scheme is MP else (100, 130),
        cfg=InferenceConfig(t_n=0.5, seed=5, n_boot=15),
        n_reps=3,
        true_c=population_coefficient(dgp1, dgp2, family, resolution=10_000),
        grid_points=64,
    )
    estimates, covered = run_replicates(study)
    return {
        "boot": [
            boot.estimate.c_hat, boot.q_lo, boot.q_hi, *boot.ci,
            float(boot.draws.sum()), weighted_sum(boot.draws),
        ],
        "n_boot_effective": boot.n_boot_effective,
        "tuning": [table.pseudo_true, *table.coverage],
        "mc_estimates": [float(e) for e in estimates],
        "mc_covered": [bool(c) for c in covered],
    }


PINNED = {
    ('lorenz1', 'matched'): {
        'boot': [0.5762434582606711, -3.3070463818769564, 7.416224910076281, 0.0, 0.9581082820205189, 13.518632181152366, 324.45362865447487],
        'n_boot_effective': 25,
        'tuning': [0.5762434582606711, 0.75, 0.75, 0.75],
        'mc_estimates': [0.9909841680579555, 0.03558809501825362, 0.5342743555365426],
        'mc_covered': [False, False, True],
    },
    ('lorenz1', 'ind'): {
        'boot': [0.566716433130476, -6.542854305127346, 6.224395954566439, 0.0, 1.0, -20.84496556143315, -218.42950364122515],
        'n_boot_effective': 25,
        'tuning': [0.566716433130476, 0.5, 0.5, 0.5],
        'mc_estimates': [0.9950964043173409, 0.07638626700159966, 0.7800076460224951],
        'mc_covered': [False, False, False],
    },
    ('lorenz2down', 'matched'): {
        'boot': [0.9764540608905541, -2.4256841116199817, 0.31104787100019043, 0.9405373464799901, 1.0, -11.150577437871767, -141.24247989673808],
        'n_boot_effective': 25,
        'tuning': [0.9764540608905541, 0.25, 0.25, 0.25],
        'mc_estimates': [0.9999320689820524, 0.0, 0.8753806525157993],
        'mc_covered': [False, False, False],
    },
    ('lorenz2down', 'ind'): {
        'boot': [0.9874724920981811, -3.537641730960034, 0.19121642083530144, 0.9668187580863274, 1.0, -27.93021501370556, -371.75157220868255],
        'n_boot_effective': 25,
        'tuning': [0.9874724920981811, 0.5, 0.5, 0.5],
        'mc_estimates': [0.9999693490599804, 0.0, 1.0],
        'mc_covered': [False, False, False],
    },
    ('isd3', 'matched'): {
        'boot': [0.31377757509462445, -7.695317361723902, 14.339723308512191, 0.0, 1.0, 25.883875727711615, 624.1003436574097],
        'n_boot_effective': 25,
        'tuning': [0.31377757509462445, 0.5, 0.25, 0.25],
        'mc_estimates': [0.18189443219760776, 0.19525655960173072, 1.0],
        'mc_covered': [True, True, False],
    },
    ('isd3', 'ind'): {
        'boot': [0.6014727064147488, -17.206258822561033, 10.756084101838548, 0.0, 1.0, -61.75551625243985, -958.3117926274053],
        'n_boot_effective': 25,
        'tuning': [0.6014727064147488, 0.5, 0.5, 0.5],
        'mc_estimates': [0.23054087479449292, 0.3540650563018182, 1.0],
        'mc_covered': [True, True, False],
    },
    ('sd1', 'matched'): {
        'boot': [0.18709256844850064, -0.6291400375779613, 0.6454215607168541, 0.11256570608436783, 0.2597394024592221, 0.8733628846613524, 8.481643079214983],
        'n_boot_effective': 25,
        'tuning': [0.18709256844850064, 1.0, 1.0, 0.25],
        'mc_estimates': [0.21784232365145229, 0.1620805369127517, 0.22422680412371132],
        'mc_covered': [False, True, True],
    },
    ('sd1', 'ind'): {
        'boot': [0.19238073958216959, -0.46387376115640494, 0.6263606153467846, 0.1247260607195413, 0.2424848322963336, 0.19397960200523967, -13.098012901172144],
        'n_boot_effective': 25,
        'tuning': [0.19238073958216959, 1.0, 1.0, 0.5],
        'mc_estimates': [0.21632329635499206, 0.16107434200400186, 0.2271996785857774],
        'mc_covered': [True, True, True],
    },
}


@pytest.mark.parametrize("name,scheme_name", CASES)
def test_pinned_values(name, scheme_name):
    got = summaries(name, scheme_name)
    want = PINNED[(name, scheme_name)]
    assert got["n_boot_effective"] == want["n_boot_effective"]
    assert got["mc_covered"] == want["mc_covered"]
    for key in ("boot", "tuning", "mc_estimates"):
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=1e-15), key
