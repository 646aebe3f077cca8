"""Monte Carlo validation harness: uniform-convergence experiments,
level-set and boundary convergence, and the limit-law covariance check.

Experiments are reproducible: replication r of sample size index k uses
an independent generator seeded by (seed, k, r), so results are
bit-identical at any parallelism level.  Replications run on `threads`
worker threads in R^d, d >= 2, and on the sphere.  On the line they run
in order on the calling thread: each one is a sort, two binary searches
and a few small numpy calls that hold the GIL, so a second thread only
contends for it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import depth, treespace
from .depth import (
    Sample,
    batch_depth,
    p2_matrix,
    population_ld_1d,
    population_ld_mc,
    thread_map,
)
from .levelsets import LatticeGrid, boundary_points, hausdorff, inner_boundary, level_set
from .metrics import BHVSpace, EuclideanSpace, SphereSpace


class ExperimentError(ValueError):
    """Invalid experiment configuration."""


class DegenerateExperimentError(ExperimentError):
    """The requested level exceeds the population depth range."""


@dataclass(frozen=True)
class Sampler:
    """A seeded point-generating distribution over a metric space.

    `cdf` is present for the one-dimensional laws, whose population depth
    has the closed form 2 F (1 - F); the others get theirs by Monte Carlo.
    It takes scalars or arrays:

    - normal and student_t: `cdf` maps -inf to 0, +inf to 1 and NaN to
      NaN, and equals scipy.stats' norm and t bit for bit.
    - uniform: `cdf` clips to [0, 1].
    """

    space: object
    draw: object                 # draw(rng, k) -> points container
    cdf: object = None


def make_sampler(spec: dict) -> Sampler:
    """Build a sampler from its JSON spec, e.g. {"dist": "normal",
    "mu": 0, "sigma": 1}.  The 1-d normal, student_t and uniform laws
    carry a `cdf`; normal at `dim` > 1, point_mass, sphere_vmf and
    bhv_noise do not."""
    # scipy is imported only by the branch that needs it: student_t
    # loads scipy.special and sphere_vmf scipy.stats.  The 1-d normal law
    # loads neither; its cdf is the Cephes port below.
    spec = dict(spec)
    dist = spec.pop("dist", None)
    if dist == "normal":
        mu = _field(spec, "mu", float, 0.0)
        sigma = _field(spec, "sigma", float, 1.0)
        dim = _field(spec, "dim", _integer(1), 1)
        _reject_extra(dist, spec)
        if sigma <= 0:
            raise ExperimentError("normal sampler needs sigma > 0")
        space = EuclideanSpace(dim)

        def draw(rng, k):
            return mu + sigma * rng.standard_normal((k, dim))

        if dim > 1:
            return Sampler(space, draw)
        return Sampler(space, draw,
                       cdf=lambda x: _ndtr((np.asarray(x, dtype=float) - mu) / sigma))
    if dist == "student_t":
        v = _field(spec, "v", float)
        _reject_extra(dist, spec)
        if v < 1:
            raise ExperimentError("student_t sampler needs v >= 1")
        space = EuclideanSpace(1)

        from scipy.special import stdtr

        def draw(rng, k):
            return rng.standard_t(v, (k, 1))

        return Sampler(space, draw, cdf=lambda x: stdtr(v, x))
    if dist == "uniform":
        lo = _field(spec, "lo", float, 0.0)
        hi = _field(spec, "hi", float, 1.0)
        _reject_extra(dist, spec)
        if hi <= lo:
            raise ExperimentError("uniform sampler needs hi > lo")
        space = EuclideanSpace(1)

        def draw(rng, k):
            return rng.uniform(lo, hi, (k, 1))

        return Sampler(space, draw,
                       cdf=lambda x: np.clip((np.asarray(x, dtype=float) - lo)
                                             / (hi - lo), 0.0, 1.0))
    if dist == "point_mass":
        value = np.atleast_1d(_field(spec, "value", _float_array))
        _reject_extra(dist, spec)
        space = EuclideanSpace(len(value))

        def draw(rng, k):
            return np.tile(value, (k, 1))

        return Sampler(space, draw)
    if dist == "sphere_vmf":
        mu = _field(spec, "mu", _float_array)
        kappa = _field(spec, "kappa", float)
        _reject_extra(dist, spec)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(mu)
        if mu.ndim != 1 or len(mu) < 2 or not 0 < norm < math.inf:
            raise ExperimentError(f"sphere_vmf sampler needs a vector 'mu' of length >= 2 "
                                  f"and finite nonzero norm, got {mu.tolist()}")
        if kappa <= 0:
            raise ExperimentError(f"sphere_vmf sampler needs 'kappa' > 0, got {kappa}")
        mu = mu / norm
        space = SphereSpace(len(mu))
        from scipy.stats import vonmises_fisher

        frozen = vonmises_fisher(mu, kappa)

        def draw(rng, k):
            pts = frozen.rvs(k, random_state=rng)
            # renormalize within float tolerance so validation passes
            return pts / np.linalg.norm(pts, axis=1, keepdims=True)

        return Sampler(space, draw)
    if dist == "bhv_noise":
        base = _field(spec, "base_tree", lambda b: b)
        scale = _field(spec, "scale", float, 0.1)
        _reject_extra(dist, spec)
        tree = base if isinstance(base, treespace.Tree) else treespace.parse_newick(base)
        space = BHVSpace(tree.labels)
        interior0 = np.array([l for _, l in tree.interior])
        pendant0 = np.array(tree.pendant)

        def draw(rng, k):
            out = []
            for _ in range(k):
                il = np.abs(interior0 + scale * rng.standard_normal(len(interior0)))
                il = np.maximum(il, 1e-9)     # keep splits strictly positive
                pl = np.abs(pendant0 + scale * rng.standard_normal(len(pendant0)))
                out.append(tree.with_lengths(il, pl))
            return out

        return Sampler(space, draw)
    raise ExperimentError(f"unknown sampler dist {dist!r}")


def _field(spec: dict, key: str, convert, *default):
    """Pop `key` from a config dict and convert it, or return the
    optional `default` when it is absent; a missing required, unreadable
    or non-finite float field is an ExperimentError that names it."""
    if key not in spec:
        if not default:
            raise ExperimentError(f"missing config field {key!r}")
        return default[0]
    value = spec.pop(key)
    try:
        out = convert(value)
    except (TypeError, ValueError):
        raise ExperimentError(f"config field {key!r} has a bad value {value!r}") from None
    if isinstance(out, (float, np.ndarray)) and not np.all(np.isfinite(out)):
        raise ExperimentError(f"config field {key!r} has a non-finite value {value!r}")
    return out


def _integer(least=None):
    """A converter to an int, at least `least` if given, refusing what
    int() would truncate or reinterpret: a fraction, a bool, a string."""
    def convert(value):
        whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not whole or least is not None and value < least:
            raise ValueError(value)
        return int(value)
    return convert


def _float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _reject_extra(dist, spec):
    if spec:
        raise ExperimentError(f"unknown {dist} sampler fields: {sorted(spec)}")


# ---------------------------------------------------------------------------
# The standard normal CDF, without scipy

_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2           # log(2**1024)

# erfc on 1 <= x < 8 (P/Q) and x >= 8 (R/S); erf on |x| <= 1 (T/U).
# Denominators carry their implied leading 1.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)


def _ndtr(x):
    """Standard normal CDF, elementwise, as scipy.special.ndtr: an
    ndarray for an array and an np.float64 for a scalar.

    `_ndtr` (with its own erf and erfc) is a port of Cephes' ndtr.c as
    scipy.special ships it (S. L. Moshier, "Methods and Programs for
    Mathematical Functions", 1989), and equals scipy's ndtr bit for bit.
    That rests on IEEE doubles, on Python's `*` and `+` never being fused
    into one rounding, and on math.exp calling the C library that scipy
    calls; numpy's SIMD ufuncs make no such promise.
    tests/test_normal_law.py guards the identity.
    """
    # The inputs are grids of at most a few hundred points, so a Python
    # loop costs less than importing scipy.special.
    x = np.asarray(x, dtype=float)
    return np.array([_ndtr_one(v) for v in x.ravel().tolist()],
                    dtype=float).reshape(x.shape)[()]


def _polevl(x: float, coef) -> float:
    """Horner's rule, highest power first, as Cephes' polevl."""
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def _ndtr_one(a: float) -> float:
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:                  # exp(z) underflows
        return 2.0 if a < 0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = z * _polevl(x, _ERFC_P) / _polevl(x, _ERFC_Q)
    else:
        y = z * _polevl(x, _ERFC_R) / _polevl(x, _ERFC_S)
    if a < 0:
        y = 2.0 - y
    if y == 0.0:                      # the quotient underflows
        return 2.0 if a < 0 else 0.0
    return y


_CONFIG_FIELDS = {
    "sampler": dict,
    "n_schedule": lambda ns: tuple(map(_integer(2), ns)),
    "replications": _integer(1),
    "seed": _integer(0),
    "grid": lambda g: None if g is None else tuple(tuple(map(float, axis)) for axis in g),
    "points": lambda ps: tuple(tuple(np.atleast_1d(p).tolist()) for p in ps),
    "pairs": _integer(1),
    "threads": _integer(1),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration of the Monte Carlo experiments.  Construction
    converts and checks every field, from Python as from a JSON config: a
    bad value is an ExperimentError that names the field."""

    sampler: dict
    n_schedule: tuple[int, ...]
    replications: int
    seed: int = 0
    grid: tuple[tuple[float, float, float], ...] | None = None
    points: tuple = ()
    pairs: int = 1_000_000
    threads: int = 1

    def __post_init__(self):
        values = dict(vars(self))
        for name, convert in _CONFIG_FIELDS.items():
            object.__setattr__(self, name, _field(values, name, convert))
        ns = self.n_schedule
        if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ExperimentError("n schedule must be nonempty and strictly increasing")


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-n error statistics over replications, plus monotonicity flags."""

    kind: str
    n_schedule: tuple[int, ...]
    replications: int
    seed: int
    stats: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _rng_for(seed: int, n_index: int, replication: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(n_index, replication)))


def _replicate(cfg: ExperimentConfig, sampler: Sampler, n_schedule, statistic) -> np.ndarray:
    """`statistic(sample)` for replication r of each size n_schedule[k],
    the sample drawn from the generator seeded by (cfg.seed, k, r), as an
    array shaped (sizes, replications, ...).  Replications run on
    cfg.threads threads, or in order on the line, and come back in a
    fixed order."""
    jobs = [(k, r) for k in range(len(n_schedule)) for r in range(cfg.replications)]

    def job(kr):
        pts = sampler.draw(_rng_for(cfg.seed, *kr), n_schedule[kr[0]])
        return statistic(Sample(pts, sampler.space))

    # On the line each count is a sort and two binary searches, numpy calls
    # too short to release the GIL for long, so a second thread only waits.
    out = np.array(thread_map(job, jobs, 1 if depth.on_line(sampler.space) else cfg.threads))
    return out.reshape((len(n_schedule), cfg.replications) + out.shape[1:])


def _summaries(values: np.ndarray) -> dict:
    """Quartiles and median by np.percentile, with +inf (an empty level
    set's distance) above every distance: a percentile that gives +inf
    nonzero weight is +inf, where numpy's inf - inf would make it NaN."""
    qs = np.array([25.0, 50.0, 75.0])
    finite = np.isfinite(values)
    # The largest distance stands in for +inf, which keeps numpy's value
    # wherever +inf has zero weight; the others are +inf.
    out = np.percentile(np.where(finite, values, values[finite].max(initial=0.0)), qs)
    out[qs / 100 * (len(values) - 1) > finite.sum() - 1] = np.inf
    q1, med, q3 = out.tolist()
    return {"median": med, "q1": q1, "q3": q3}


def _stat_block(per_n: list[np.ndarray], n_schedule) -> dict:
    medians = [float(np.median(v)) for v in per_n]
    return {
        "per_n": {str(n): v.tolist() for n, v in zip(n_schedule, per_n)},
        "summary": {str(n): _summaries(v) for n, v in zip(n_schedule, per_n)},
        "medians": medians,
        "monotone_nonincreasing": all(b <= a for a, b in zip(medians, medians[1:])),
        "monotone_strict": all(b < a for a, b in zip(medians, medians[1:])),
    }


def _population_depth_on(points, sampler: Sampler, pairs: int, seed: int):
    if sampler.cdf is not None:
        return np.asarray(population_ld_1d(points[:, 0], sampler.cdf))
    return population_ld_mc(points, sampler, pairs, seed=seed)


def _lattice_truth(cfg: ExperimentConfig, sampler: Sampler, name: str):
    """The evaluation lattice of a grid experiment and the population
    depth at its points: the closed form on the line, elsewhere the
    Monte Carlo estimate from cfg.pairs pairs drawn once from cfg.seed,
    with standard error <= (4 * pairs)^(-1/2)."""
    if cfg.grid is None:
        raise ExperimentError(f"{name} experiment needs an evaluation grid")
    if not isinstance(sampler.space, EuclideanSpace):
        raise ExperimentError(f"{name} experiment needs a sampler in R^d, "
                              "the space of its evaluation lattice")
    if len(cfg.grid) != sampler.space.dim:
        raise ExperimentError(f"config field 'grid' has {len(cfg.grid)} axes, but the "
                              f"sampler draws points of R^{sampler.space.dim}")
    grid = LatticeGrid(cfg.grid)
    return grid, _population_depth_on(grid.points, sampler, cfg.pairs, cfg.seed)


def supnorm_experiment(cfg: ExperimentConfig) -> ConvergenceReport:
    """Distribution of the largest depth error over the evaluation grid,
    per sample size."""
    sampler = make_sampler(cfg.sampler)
    grid, truth = _lattice_truth(cfg, sampler, "supnorm")

    def sup_error(sample):
        return float(np.max(np.abs(batch_depth(grid, sample).values - truth)))

    per_n = _replicate(cfg, sampler, cfg.n_schedule, sup_error)
    return ConvergenceReport("supnorm", cfg.n_schedule, cfg.replications,
                             cfg.seed, {"sup_error": _stat_block(per_n, cfg.n_schedule)})


def levelset_experiment(cfg: ExperimentConfig, lam: float) -> ConvergenceReport:
    """Hausdorff distance between empirical and population level sets on
    the grid, and between their inner lattice boundaries, per sample size.

    The population level set is the lattice points whose population depth
    (as in `supnorm_experiment`) is at least `lam`; off the line it carries
    the Monte Carlo error of that depth.  An empty empirical level set is
    +inf from the population's: its two distances, and the quartiles and
    medians that reach them, are +inf (null in the JSON report).
    """
    if not 0 <= lam < math.inf:
        raise DegenerateExperimentError(f"level must be finite and nonnegative, got {lam}")
    sampler = make_sampler(cfg.sampler)
    grid, truth = _lattice_truth(cfg, sampler, "levelset")
    space = sampler.space
    true_mask = truth >= lam
    if not true_mask.any():
        raise DegenerateExperimentError(
            f"population level set at {lam} misses the evaluation grid")
    true_pts = grid.points[true_mask]
    true_bpts = grid.points[inner_boundary(true_mask, grid)]

    def distances(sample):
        ls = level_set(batch_depth(grid, sample), lam)
        if len(ls.members) == 0:
            return math.inf, math.inf
        d_set = hausdorff(grid.points[ls.members], true_pts, space)
        emp_boundary = boundary_points(ls)
        d_bdry = hausdorff(grid.points[emp_boundary], true_bpts, space)
        return d_set, d_bdry

    results = _replicate(cfg, sampler, cfg.n_schedule, distances)
    blocks = {name: _stat_block(results[..., pick], cfg.n_schedule)
              for name, pick in (("set_hausdorff", 0), ("boundary_hausdorff", 1))}
    blocks["level"] = lam
    return ConvergenceReport("levelset", cfg.n_schedule, cfg.replications,
                             cfg.seed, blocks)


# ---------------------------------------------------------------------------
# Limit-law check


@dataclass(frozen=True)
class CltReport:
    """Empirical vs target covariance of the scaled depth errors.

    `target_cov` is the product-moment target 4*(E[f_i f_j] - E f_i E f_j)
    with both indicators evaluated on one shared sample pair;
    `projection_cov`, available for closed-form 1-d samplers, is the
    classical projection (Hajek) covariance of the pairwise-count
    statistic, 4*Cov(g_i(Y), g_j(Y)) with g the conditional coverage.
    """

    n: int
    replications: int
    points: tuple
    empirical_cov: np.ndarray
    target_cov: np.ndarray
    target_se: np.ndarray
    projection_cov: np.ndarray | None
    truth: np.ndarray

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "replications": self.replications,
            "points": [list(np.atleast_1d(p)) for p in self.points],
            "empirical_cov": self.empirical_cov.tolist(),
            "target_cov": self.target_cov.tolist(),
            "target_se": self.target_se.tolist(),
            "projection_cov": None if self.projection_cov is None
            else self.projection_cov.tolist(),
            "population_depth": self.truth.tolist(),
        }


def projection_cov_1d(points, cdf) -> np.ndarray:
    """Closed-form projection covariance matrix on the line.

    The conditional coverage of x given one endpoint y is
    (1-F(x)) for y < x and F(x) for y > x, which makes
    Cov(g_i, g_j) elementary in the CDF values.
    """
    xs = np.asarray(points, dtype=float).reshape(-1)
    F = np.asarray(cdf(xs), dtype=float)
    k = len(xs)
    out = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            a, b = sorted((i, j), key=lambda t: xs[t])
            fa, fb = F[a], F[b]
            e_gg = fa * (1 - fa) * (1 - fb) + (fb - fa) * fa * (1 - fb) \
                + (1 - fb) * fa * fb
            ld_i = 2 * F[i] * (1 - F[i])
            ld_j = 2 * F[j] * (1 - F[j])
            out[i, j] = 4.0 * (e_gg - ld_i * ld_j)
    return out


def clt_experiment(cfg: ExperimentConfig) -> CltReport:
    """Empirical covariance of sqrt(n) * (depth error) at the query
    points across replications, against the pair-moment target."""
    if cfg.replications < 500:
        raise ExperimentError(
            f"the covariance check needs >= 500 replications, got {cfg.replications}")
    if not cfg.points:
        raise ExperimentError("clt experiment needs query points")
    sampler = make_sampler(cfg.sampler)
    if isinstance(sampler.space, BHVSpace):
        raise ExperimentError("clt experiment needs a sampler in R^d or on the "
                              "sphere: its report lists the query points' coordinates")
    n = cfg.n_schedule[-1]
    pts = sampler.space.coerce_points(list(cfg.points))
    truth = _population_depth_on(pts, sampler, cfg.pairs, cfg.seed)
    k = len(pts)
    root_n = math.sqrt(n)

    def scaled_error(sample):
        return root_n * (batch_depth(pts, sample).values - truth)

    errors = _replicate(cfg, sampler, (n,), scaled_error)[0]
    empirical = np.atleast_2d(np.cov(errors.T, ddof=1))
    p_vec, p_mat = p2_matrix(pts, sampler, cfg.pairs, seed=cfg.seed)
    target = 4.0 * (p_mat - np.outer(p_vec, p_vec))
    se = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            var = p_mat[i, j] * (1 - p_mat[i, j]) \
                + p_vec[j] ** 2 * p_vec[i] * (1 - p_vec[i]) \
                + p_vec[i] ** 2 * p_vec[j] * (1 - p_vec[j])
            se[i, j] = 4.0 * math.sqrt(var / cfg.pairs)
    projection = None
    if sampler.cdf is not None:
        projection = projection_cov_1d(np.asarray(pts)[:, 0], sampler.cdf)
    return CltReport(n, cfg.replications, tuple(map(tuple, np.asarray(pts))),
                     empirical, target, se, projection, np.asarray(truth))


# ---------------------------------------------------------------------------
# JSON entry point


def run_config(config: dict) -> dict:
    """Run the experiment described by a JSON config dict.

    Keys: experiment (supnorm | levelset | clt), lambda for levelset, and
    the ExperimentConfig fields; supnorm and levelset need a grid, clt points.
    """
    config = dict(config)
    kind = config.pop("experiment", None)
    lam = _field(config, "lambda", float, None)
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in config:
            raise ExperimentError(f"missing config field {f.name!r}")
    unknown = sorted(set(config) - set(_CONFIG_FIELDS))
    if unknown:
        raise ExperimentError(f"unknown config fields: {unknown}")
    cfg = ExperimentConfig(**config)
    if kind == "supnorm":
        return supnorm_experiment(cfg).to_dict()
    if kind == "levelset":
        if lam is None:
            raise ExperimentError("levelset experiment needs a lambda")
        return levelset_experiment(cfg, lam).to_dict()
    if kind == "clt":
        return clt_experiment(cfg).to_dict()
    raise ExperimentError(f"unknown experiment {kind!r}")
