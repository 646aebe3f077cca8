import numpy as np
import pytest
from scipy.stats import norm

from lensdepth.asymptotics import (
    CltReport,
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
from lensdepth.metrics import BHVSpace, EuclideanSpace, SphereSpace


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


def test_normal_sampler_cdf_matches_scipy():
    sampler = make_sampler({"dist": "normal", "mu": 2.0, "sigma": 3.0})
    xs = np.array([-1.0, 2.0, 4.0])
    assert np.allclose(sampler.cdf(xs), norm.cdf(xs, loc=2, scale=3))


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
