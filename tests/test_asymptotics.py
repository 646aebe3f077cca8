import numpy as np
import pytest
from scipy.stats import norm, t as tdist

from lensdepth.asymptotics import (
    DegenerateExperimentError,
    ExperimentConfig,
    ExperimentError,
    clt_experiment,
    levelset_experiment,
    make_sampler,
    p2_matrix,
    projection_cov_1d,
    run_config,
    supnorm_experiment,
)
from lensdepth.depth import population_level_interval_1d
from lensdepth.metrics import BHVSpace, EuclideanSpace, SphereSpace

from conftest import assert_same_bits


def test_config_validation():
    with pytest.raises(ExperimentError):
        ExperimentConfig({"dist": "normal"}, (100, 100), 5, seed=0)
    with pytest.raises(ExperimentError):
        ExperimentConfig({"dist": "normal"}, (100,), 0, seed=0)


# ---------------------------------------------------------------------------
# Samplers


def test_sampler_determinism_and_spaces():
    for spec, space_type in [
        ({"dist": "normal", "mu": 1.0, "sigma": 2.0}, EuclideanSpace),
        ({"dist": "student_t", "v": 2}, EuclideanSpace),
        ({"dist": "uniform", "lo": -1, "hi": 1}, EuclideanSpace),
        ({"dist": "sphere_vmf", "mu": [0, 0, 1], "kappa": 5.0}, SphereSpace),
        ({"dist": "bhv_noise", "base_tree": "((A:1,B:1):0.5,(C:1,D:1):0.5,E:1);",
          "scale": 0.2}, BHVSpace),
    ]:
        sampler = make_sampler(spec)
        assert isinstance(sampler.space, space_type)
        a = sampler.draw(np.random.default_rng(5), 6)
        b = sampler.draw(np.random.default_rng(5), 6)
        if isinstance(a, list):
            assert a == b
        else:
            assert np.array_equal(a, b)
        sampler.space.coerce_points(a)


def test_sampler_rejects_unknown_fields():
    with pytest.raises(ExperimentError, match="unknown"):
        make_sampler({"dist": "normal", "bogus": 1})
    with pytest.raises(ExperimentError, match="unknown sampler dist"):
        make_sampler({"dist": "cauchy"})


@pytest.mark.parametrize("spec, field", [
    ({"dist": "normal", "sigma": float("nan")}, "sigma"),
    ({"dist": "normal", "mu": float("inf")}, "mu"),
    ({"dist": "student_t", "v": float("nan")}, "v"),
    ({"dist": "point_mass", "value": [1.0, float("nan")]}, "value"),
    ({"dist": "sphere_vmf", "mu": [0.0, float("-inf"), 1.0], "kappa": 5.0}, "mu"),
])
def test_sampler_rejects_non_finite_fields(spec, field):
    with pytest.raises(ExperimentError, match=f"'{field}' has a non-finite value"):
        make_sampler(spec)


def test_normal_sampler_cdf_matches_scipy():
    sampler = make_sampler({"dist": "normal", "mu": 2.0, "sigma": 3.0})
    xs = np.array([-1.0, 2.0, 4.0])
    assert np.array_equal(sampler.cdf(xs), norm.cdf(xs, loc=2, scale=3))


# Dense grids plus the endpoints, signed zeros, NaN and values off [0, 1].
XS = np.concatenate([np.linspace(-40.0, 40.0, 40_001),
                     [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e-300, -1e300]])
QS = np.concatenate([np.linspace(0.0, 1.0, 40_001),
                     [0.0, 1.0, -0.0, np.nan, -0.1, 1.1, 5e-324, 1.0 - 2.0 ** -53]])


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (0.3, 1.7), (-2.0, 0.05), (1e3, 30.0)])
def test_normal_sampler_is_scipy_norm_bit_for_bit(mu, sigma):
    sampler = make_sampler({"dist": "normal", "mu": mu, "sigma": sigma})
    assert_same_bits(sampler.cdf(XS), norm.cdf(XS, loc=mu, scale=sigma))
    assert_same_bits(sampler.ppf(QS), norm.ppf(QS, loc=mu, scale=sigma))
    for x in (-np.inf, np.inf, np.nan, mu):
        assert_same_bits(sampler.cdf(x), norm.cdf(x, loc=mu, scale=sigma))
    for q in (0.0, 1.0, 0.5, np.nan):
        assert_same_bits(sampler.ppf(q), norm.ppf(q, loc=mu, scale=sigma))
    assert sampler.cdf(-np.inf) == 0.0 and sampler.cdf(np.inf) == 1.0
    assert sampler.ppf(0.0) == -np.inf and sampler.ppf(1.0) == np.inf


@pytest.mark.parametrize("v", [1, 2, 3.5, 10, 30])
def test_student_t_sampler_is_scipy_t_bit_for_bit(v):
    sampler = make_sampler({"dist": "student_t", "v": v})
    assert_same_bits(sampler.cdf(XS), tdist.cdf(XS, v))
    assert_same_bits(sampler.ppf(QS), tdist.ppf(QS, v))
    for x in (-np.inf, np.inf, np.nan, 0.0):
        assert_same_bits(sampler.cdf(x), tdist.cdf(x, v))
    for q in (0.0, -0.0, 1.0, 0.5, np.nan):
        assert_same_bits(sampler.ppf(q), tdist.ppf(q, v))
    assert sampler.cdf(-np.inf) == 0.0 and sampler.cdf(np.inf) == 1.0
    assert sampler.ppf(0.0) == -np.inf and sampler.ppf(1.0) == np.inf


@pytest.mark.parametrize("spec,ppf", [
    ({"dist": "normal", "mu": 0.3, "sigma": 1.7}, lambda q: norm.ppf(q, loc=0.3, scale=1.7)),
    ({"dist": "student_t", "v": 3}, lambda q: tdist.ppf(q, 3)),
], ids=["normal", "student_t"])
def test_population_level_interval_at_extreme_levels(spec, ppf):
    sampler = make_sampler(spec)
    # lambda = 0 reaches the q = 0 and q = 1 endpoints: the whole line
    assert population_level_interval_1d(0.0, sampler.ppf) == (-np.inf, np.inf)
    # lambda = 1/2 is the deepest level: both ends at the median
    lo, hi = population_level_interval_1d(0.5, sampler.ppf)
    assert lo == hi == float(ppf(0.5))
    for lam in (0.0, 0.1, 0.3, 0.5):
        assert population_level_interval_1d(lam, sampler.ppf) \
            == population_level_interval_1d(lam, ppf)


# ---------------------------------------------------------------------------
# Pair moments


def p2_pair(x1, x2, sampler, pairs, seed):
    """P(x1 covered), P(x2 covered) and P(both covered) from shared draws."""
    p_vec, p_mat = p2_matrix(np.array([[x1], [x2]]), sampler, pairs, seed=seed)
    return float(p_vec[0]), float(p_vec[1]), float(p_mat[0, 1])


def test_p2_point_mass_values():
    sampler = make_sampler({"dist": "point_mass", "value": [1.0]})
    p1, p2, p12 = p2_pair(1.0, 3.0, sampler, 500, seed=0)
    assert p1 == 1.0 and p2 == 0.0 and p12 == 0.0


def test_p2_identical_points_idempotent():
    sampler = make_sampler({"dist": "normal"})
    p1, p2, p12 = p2_pair(0.3, 0.3, sampler, 20_000, seed=1)
    assert p1 == p2 == p12


def test_p2_diagonal_equals_single_exactly():
    sampler = make_sampler({"dist": "student_t", "v": 3})
    pts = np.array([[0.0], [1.0], [-0.5]])
    p_vec, p_mat = p2_matrix(pts, sampler, 30_000, seed=2)
    assert np.array_equal(np.diag(p_mat), p_vec)
    assert np.array_equal(p_mat, p_mat.T)


def test_p2_normal_center_near_half():
    sampler = make_sampler({"dist": "normal"})
    p1, _, _ = p2_pair(0.0, 1.0, sampler, 1_000_000, seed=3)
    assert p1 == pytest.approx(0.5, abs=0.002)


def test_projection_cov_matches_simulation_values():
    # independently derived: var = 2*LD*( 1 - 2*LD ), zero at the median
    xs = np.array([0.0, 1.0])
    cov = projection_cov_1d(xs, norm.cdf)
    ld1 = 2 * norm.cdf(1) * (1 - norm.cdf(1))
    assert cov[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert cov[1, 1] == pytest.approx(2 * ld1 * (1 - 2 * ld1), abs=1e-12)
    assert cov[0, 1] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Experiments


def test_supnorm_point_mass_zero_error():
    cfg = ExperimentConfig({"dist": "point_mass", "value": [0.5]}, (5, 10), 3,
                           seed=1, grid=((-1.0, 1.0, 0.25),))
    rep = supnorm_experiment(cfg)
    assert rep.stats["sup_error"]["medians"] == [0.0, 0.0]


def test_supnorm_errors_shrink():
    cfg = ExperimentConfig({"dist": "normal"}, (40, 160, 640), 10, seed=7,
                           grid=((-3.0, 3.0, 0.05),), threads=2)
    rep = supnorm_experiment(cfg)
    block = rep.stats["sup_error"]
    assert block["monotone_strict"]
    assert block["medians"][-1] < 0.08


def test_supnorm_reproducible_across_threads():
    base = None
    for threads in (1, 2, 4):
        cfg = ExperimentConfig({"dist": "normal"}, (30, 60), 6, seed=9,
                               grid=((-2.0, 2.0, 0.1),), threads=threads)
        rep = supnorm_experiment(cfg)
        if base is None:
            base = rep.stats
        else:
            assert rep.stats == base


def test_levelset_experiment_zero_lambda_full_grid():
    cfg = ExperimentConfig({"dist": "normal"}, (20, 40), 4, seed=3,
                           grid=((-2.0, 2.0, 0.25),))
    rep = levelset_experiment(cfg, 0.0)
    assert rep.stats["set_hausdorff"]["medians"] == [0.0, 0.0]


def test_levelset_experiment_true_interval_endpoints():
    cfg = ExperimentConfig({"dist": "normal"}, (50,), 2, seed=3,
                           grid=((-3.0, 3.0, 0.01),))
    rep = levelset_experiment(cfg, 0.3)
    lo, hi = rep.stats["true_interval"]
    s = np.sqrt(1 - 0.6)
    assert lo == pytest.approx(norm.ppf((1 - s) / 2), abs=1e-12)
    assert hi == pytest.approx(norm.ppf((1 + s) / 2), abs=1e-12)


def test_levelset_experiment_degenerate_level():
    cfg = ExperimentConfig({"dist": "normal"}, (50,), 2, seed=3,
                           grid=((-3.0, 3.0, 0.01),))
    with pytest.raises(DegenerateExperimentError):
        levelset_experiment(cfg, 0.7)


def test_clt_requires_replications():
    cfg = ExperimentConfig({"dist": "normal"}, (100,), 100, seed=0,
                           points=((0.0,),))
    with pytest.raises(ExperimentError, match="500"):
        clt_experiment(cfg)


def test_clt_empirical_matches_projection_form_away_from_center():
    cfg = ExperimentConfig({"dist": "normal"}, (300,), 600, seed=21,
                           points=((1.0,),), pairs=100_000, threads=2)
    rep = clt_experiment(cfg)
    target = rep.projection_cov[0, 0]
    assert rep.empirical_cov[0, 0] == pytest.approx(target, rel=0.25)


def test_clt_degenerate_at_median():
    cfg = ExperimentConfig({"dist": "normal"}, (300,), 600, seed=22,
                           points=((0.0,),), pairs=50_000, threads=2)
    rep = clt_experiment(cfg)
    # the scaled error variance collapses at the symmetric centre
    assert rep.empirical_cov[0, 0] < 0.05
    assert rep.projection_cov[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_clt_target_matrix_is_symmetric_psd():
    cfg = ExperimentConfig({"dist": "normal"}, (200,), 500, seed=23,
                           points=((0.0,), (0.7,), (1.5,)), pairs=100_000)
    rep = clt_experiment(cfg)
    assert np.array_equal(rep.target_cov, rep.target_cov.T)
    eig = np.linalg.eigvalsh(rep.target_cov)
    assert eig.min() > -1e-8


def test_run_config_dispatch_and_unknown_fields():
    report = run_config({
        "experiment": "supnorm",
        "sampler": {"dist": "point_mass", "value": [0.0]},
        "n_schedule": [5, 10],
        "replications": 2,
        "seed": 4,
        "grid": [[-1.0, 1.0, 0.5]],
    })
    assert report["kind"] == "supnorm"
    with pytest.raises(ExperimentError, match="unknown config"):
        run_config({
            "experiment": "supnorm",
            "sampler": {"dist": "normal"},
            "n_schedule": [5],
            "replications": 1,
            "grid": [[-1, 1, 0.5]],
            "typo_field": True,
        })
    with pytest.raises(ExperimentError, match="unknown experiment"):
        run_config({"experiment": "bootstrap", "sampler": {"dist": "normal"},
                    "n_schedule": [5], "replications": 1})


def test_supnorm_rate_roughly_root_n():
    # doubling the sample size about halves the median error
    cfg = ExperimentConfig({"dist": "normal"}, (100, 400, 1600), 12, seed=77,
                           grid=((-3.0, 3.0, 0.05),), threads=2)
    rep = supnorm_experiment(cfg)
    med = rep.stats["sup_error"]["medians"]
    for a, b in zip(med, med[1:]):
        assert 1.6 <= a / b <= 2.6


def test_levelset_boundary_within_resolution_plus_rate_floor():
    h = 0.01
    cfg = ExperimentConfig({"dist": "normal"}, (400, 1600), 8, seed=55,
                           grid=((-3.0, 3.0, h),), threads=2)
    rep = levelset_experiment(cfg, 0.3)
    med = rep.stats["boundary_hausdorff"]["medians"]
    # calibrate the statistical constant at n=400, then check n=1600
    c = max((med[0] - 3 * h), 0.0) * np.sqrt(400)
    assert med[1] <= 3 * h + c / np.sqrt(1600) + 1e-9
