import numpy as np
import pytest
from scipy import stats

from parasitelab import OffspringLaw, kretzschmar_modified, luchsinger_linear, \
    luchsinger_nonlinear
from parasitelab.rates import LipschitzSampleConfig, check_growth, \
    check_lipschitz_sampled

ALL_LAWS = [
    OffspringLaw.point_mass(2),
    OffspringLaw.poisson(0.8),
    OffspringLaw.geometric(0.4),
    OffspringLaw.table([0.3, 0.5, 0.15, 0.05]),
]


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.family)
def test_mean_identity(law):
    # the (l + 1)-weighted convolution mean is i * theta + 1
    for i in (0, 1, 3, 7):
        L = 400
        pmf = law.conv_pmf(i, L)
        weighted = float(np.dot(pmf, np.arange(1, L + 2)))
        assert weighted == pytest.approx(i * law.mean + 1.0, abs=1e-9)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.family)
def test_conv_p0_and_pmf_consistency(law):
    for i in (0, 1, 4):
        assert law.conv_p0(i) == pytest.approx(law.conv_pmf(i, 10)[0], abs=1e-12)
        assert law.conv_pmf_at(i, 3) == pytest.approx(law.conv_pmf(i, 5)[3], abs=1e-12)


def _conv_pmf_at_scalar(law, i, l):
    # the per-family scalar expressions conv_pmf_at evaluated before it
    # read its entry from the cached conv_matrix table
    if i == 0:
        return 1.0 if l == 0 else 0.0
    if law.family == "point_mass":
        return 1.0 if l == i * law.value else 0.0
    if law.family == "poisson":
        return float(stats.poisson.pmf(l, i * law.rate))
    if law.family == "geometric":
        return float(stats.nbinom.pmf(l, i, law.p))
    return float(law.conv_pmf(i, l)[l])


@pytest.mark.parametrize("make", [
    lambda: OffspringLaw.poisson(0.6), lambda: OffspringLaw.poisson(2.5),
    lambda: OffspringLaw.geometric(0.4), lambda: OffspringLaw.geometric(0.9),
    lambda: OffspringLaw.point_mass(2), lambda: OffspringLaw.table([0.2, 0.5, 0.3]),
], ids=["poisson0.6", "poisson2.5", "geometric0.4", "geometric0.9", "point_mass",
        "table"])
def test_conv_pmf_at_matches_scalar_bit_for_bit(make):
    law, ref_law = make(), make()
    # l outermost: the first pass grows the cached table row by row, every
    # later pass by one column
    pairs = [(i, l) for l in range(100) for i in range(30)]
    got = np.array([law.conv_pmf_at(i, l) for i, l in pairs])
    ref = np.array([_conv_pmf_at_scalar(ref_law, i, l) for i, l in pairs])
    assert law._matrix_cache.shape == (30, 100)
    assert got.tobytes() == ref.tobytes(), \
        [p for p, a, b in zip(pairs, got, ref) if a.tobytes() != b.tobytes()][:5]


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.family)
def test_conv_sampler_matches_pmf(law):
    # chi-square of the i-fold offspring-sum sampler at the 1% level
    i = 3
    rng = np.random.default_rng(17)
    draws = np.array([law.sample_sum(i, rng) for _ in range(10_000)])
    if law.family == "point_mass":
        assert np.all(draws == i * law.value)  # degenerate law, no chi-square
        return
    L = int(draws.max()) + 1
    pmf = law.conv_pmf(i, L)
    # bin the tail so every expected count is >= 5
    edges = [k for k in range(L + 1) if 10_000 * pmf[k] >= 5]
    counts = np.array([np.sum(draws == k) for k in edges], dtype=float)
    tail_count = 10_000 - counts.sum()
    expected = np.array([10_000 * pmf[k] for k in edges])
    tail_exp = 10_000 - expected.sum()
    if tail_exp >= 5:
        counts = np.append(counts, tail_count)
        expected = np.append(expected, tail_exp)
    else:
        counts[-1] += tail_count
        expected[-1] += tail_exp
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = len(counts) - 1
    assert chi2 < stats.chi2.ppf(0.99, dof), (chi2, dof)


def test_poisson_additivity_shortcut():
    # i-fold Poisson convolution is a single Poisson draw at i * mean
    law = OffspringLaw.poisson(0.8)
    assert np.allclose(law.conv_pmf(3, 30), stats.poisson.pmf(np.arange(31), 2.4))


def test_weighted_tail_bounds():
    law = OffspringLaw.poisson(1.2)
    for i in (1, 3):
        for L in (2, 8, 30):
            pmf = law.conv_pmf(i, 200)
            exact = float(np.dot(pmf[L + 1:], np.arange(L + 2, 202)))
            assert law.weighted_tail(i, L) == pytest.approx(exact, abs=1e-9)
    assert law.weighted_tail(2, -1) == pytest.approx(2 * 1.2 + 1.0)


def test_table_law_validation():
    with pytest.raises(ValueError):
        OffspringLaw.table([0.5, 0.4])  # sums to 0.9
    with pytest.raises(ValueError):
        OffspringLaw.geometric(0.0)
    with pytest.raises(ValueError):
        OffspringLaw.point_mass(-1)


def test_nonlinear_point_mass_sampler(model_tiny):
    # a point mass at 1 makes the transmitted load equal the source load
    x = np.array([0.0, 0.0, 1.0])
    rng = np.random.default_rng(1)
    assert all(model_tiny.interaction.alpha_sample(0, x, rng) == 2 for _ in range(50))


def test_nonlinear_alpha_consistency(model61):
    inter = model61.interaction
    rng = np.random.default_rng(2)
    x = np.array([0.5, 0.2, 0.0, 0.3])
    total = inter.alpha_total_at(0, x)
    row = inter.alpha_row_at(0, x, 200)
    assert total == pytest.approx(float(row.sum()), abs=1e-9)
    assert all(row[l] == pytest.approx(inter.alpha_pointwise_at(0, l, x), abs=1e-12)
               for l in range(0, 12))
    # inflow profile is the healthy-host density times the target mixture
    inflow = inter.alpha_inflow_at(x, 20)
    assert np.allclose(inflow, x[0] * row[:21])
    # only healthy hosts are infected
    assert inter.alpha_total_at(2, x) == 0.0
    # empirical sampler law matches the normalized row
    draws = np.array([inter.alpha_sample(0, x, rng) for _ in range(4000)])
    for l in (1, 2, 3):
        frac = float(np.mean(draws == l))
        assert frac == pytest.approx(row[l] / total, abs=4 * frac ** 0.5 / 60 + 0.01)


def test_nonlinear_positive_part_applied(model61):
    inter = model61.interaction
    x = np.array([0.5, -0.3, 0.2])
    xp = np.maximum(x, 0.0)
    assert inter.alpha_total_at(0, x) == pytest.approx(inter.alpha_total_at(0, xp))


def test_linear_beta_consistency(model62):
    inter = model62.interaction
    x = np.array([0.0, 0.6, 0.0, 0.4])
    total = inter.beta_total_at(x)
    prof = inter.beta_profile_at(x, 200)
    assert total == pytest.approx(float(prof.sum()), abs=1e-9)
    assert prof[0] == 0.0
    assert all(prof[i] == pytest.approx(inter.beta_pointwise_at(i, x), abs=1e-12)
               for i in range(10))
    assert inter.beta_total_at(np.zeros(4)) == 0.0


def test_linear_point_mass_immigrants():
    m = luchsinger_linear(0.7, 1.0, 0.5, OffspringLaw.point_mass(1))
    x = np.array([0.0, 1.0])
    assert m.interaction.beta_total_at(x) == pytest.approx(0.7)
    rng = np.random.default_rng(3)
    assert all(m.interaction.beta_sample(x, rng) == 1 for _ in range(20))


def test_kretzschmar_birth_discount_collapses():
    m = kretzschmar_modified(1.0, OffspringLaw.poisson(1.0), 1.0, 0.5, 0.2,
                             beta_birth=0.8, birth_discount=1.0, c=2.0)
    x = np.array([0.3, 0.5, 0.2])
    assert m.interaction.beta_total_at(x) == pytest.approx(0.8 * x.sum())
    assert m.interaction.alpha_total_at(1, np.zeros(3)) == 0.0


def test_kretzschmar_mean_transmission_identity():
    # with Poisson(l theta) mouthful loads and theta = lam / nu, the mean
    # parasite influx per host is lam * (parasite density) / (c + host mass)
    nu, lam, c = 2.0, 1.0, 1.5
    theta = lam / nu
    m = kretzschmar_modified(nu, OffspringLaw.poisson(theta), 1.0, 0.5, 0.0,
                             beta_birth=0.0, birth_discount=1.0, c=c)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = np.abs(rng.normal(size=6)) * (rng.random(6) < 0.7)
        row = m.interaction.alpha_row_at(2, x, 400)
        influx = float(np.dot(np.arange(401) - 2, row))
        phi = float(np.dot(np.arange(6), x)) / (c + x.sum())
        assert influx == pytest.approx(lam * phi, rel=1e-6, abs=1e-9)


def test_kretzschmar_rejects_undamped_contact_rate():
    with pytest.raises(ValueError, match="c must be > 0"):
        kretzschmar_modified(1.0, OffspringLaw.poisson(1.0), 1.0, 0.5, 0.0,
                             beta_birth=0.0, birth_discount=1.0, c=0.0)
    with pytest.raises(ValueError):
        kretzschmar_modified(1.0, OffspringLaw.poisson(1.0), 1.0, 0.5, 0.0,
                             beta_birth=0.0, birth_discount=1.5, c=1.0)


@pytest.mark.parametrize("factory", [
    lambda: luchsinger_nonlinear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)),
    lambda: luchsinger_nonlinear(0.5, 2.0, 0.0, OffspringLaw.geometric(0.5)),
    lambda: luchsinger_linear(1.0, 1.0, 1.0, OffspringLaw.poisson(0.8)),
    lambda: kretzschmar_modified(2.0, OffspringLaw.poisson(0.5), 1.0, 0.5,
                                 0.3, 0.6, 0.9, 1.5),
], ids=["nonlinear", "nonlinear-geom", "linear", "kretzschmar"])
def test_every_model_passes_its_certificates(factory):
    m = factory()
    assert check_growth(m, 1000).ok
    rep = check_lipschitz_sampled(m, LipschitzSampleConfig(n_pairs=120, seed=11))
    assert rep.ok, rep.ratios
