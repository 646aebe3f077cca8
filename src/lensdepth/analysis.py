"""Applied depth workflows: depth-depth coordinates for two-group
comparison, level-based outlier flagging, deepest-observation reports,
and per-group diameter curves.

Depths of a point against the group containing it are leave-one-out:
pairs involving the point itself are excluded, since they always cover
it and would inflate self-depths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .depth import (
    DepthError,
    DepthField,
    Sample,
    _pair_count,
    _query_counts,
    batch_depth,
    self_depth_field,
)
from .dispersion import PsiCurve, psi_curve


@dataclass(frozen=True)
class DepthDepthRecord:
    """One point's depth against each of two groups."""

    index: int
    depth0: float
    depth1: float
    group: int | None


def loo_depth_against(points, sample: Sample, threads: int = 1) -> np.ndarray:
    """Depths of explicit points against `sample`, leave-one-out where a
    point is exactly equal to a sample point (equal coordinates, or an
    equal tree); a distinct point at distance 0 keeps its plain depth."""
    if sample.n < 3:
        raise DepthError(f"leave-one-out depth needs n >= 3, have {sample.n}")
    points, dq, counts = _query_counts(points, sample, threads)
    values = counts / _pair_count(sample.n)
    dmat = sample.distance_matrix
    loo_pairs = _pair_count(sample.n - 1)
    for q in np.flatnonzero((dq == 0.0).any(axis=1)):
        same = [e for e in np.flatnonzero(dq[q] == 0.0)
                if np.all(points[q] == sample.points[e])]
        if not same:
            continue
        e = same[0]
        # Pairs involving e: in-lens iff max(dq[q,i], dq[q,e]) <= d(e,i);
        # equal points have dq[q,e] == 0, so the test is dq[q,i] <= d(e,i).
        covering_with_e = int((np.delete(dq[q], e) <= np.delete(dmat[e], e)).sum())
        values[q] = (counts[q] - covering_with_e) / loo_pairs
    return values


def depth_depth(sample0: Sample, sample1: Sample, points=None,
                threads: int = 1) -> list[DepthDepthRecord]:
    """Depth of each point with respect to both groups.

    With `points=None` the pooled group points are evaluated, each
    leave-one-out within its own group and plainly against the other.
    Explicit points that equal a group member exactly are evaluated
    leave-one-out against that group.
    """
    if sample0.space is not sample1.space and sample0.space.kind != sample1.space.kind:
        raise DepthError("groups live in different spaces")
    if min(sample0.n, sample1.n) < 3:
        raise DepthError("each group needs at least 3 points")
    records = []
    if points is None:
        own0 = self_depth_field(sample0, threads=threads).values
        other0 = batch_depth(sample0.points, sample1, threads=threads).values
        for i in range(sample0.n):
            records.append(DepthDepthRecord(i, float(own0[i]), float(other0[i]), 0))
        own1 = self_depth_field(sample1, threads=threads).values
        other1 = batch_depth(sample1.points, sample0, threads=threads).values
        for i in range(sample1.n):
            records.append(DepthDepthRecord(sample0.n + i, float(other1[i]),
                                            float(own1[i]), 1))
        return records
    d0 = loo_depth_against(points, sample0, threads=threads)
    d1 = loo_depth_against(points, sample1, threads=threads)
    for i in range(len(points)):
        records.append(DepthDepthRecord(i, float(d0[i]), float(d1[i]), None))
    return records


def outliers(field: DepthField, lam: float) -> np.ndarray:
    """Indices with depth strictly below the level; exactly the
    complement of the level set's members."""
    return np.flatnonzero(field.values < lam)


def deepest_pair(field: DepthField) -> int:
    """Index of the deepest observation; ties break to the lowest index."""
    if len(field.values) == 0:
        raise DepthError("empty depth field")
    return int(np.argmax(field.values))


def diameter_curve_by_group(groups: dict[str, Sample], lambdas,
                            threads: int = 1) -> dict[str, PsiCurve]:
    """Per-group diameter curves of the leave-one-out depth level sets,
    evaluated over each group's own sample points."""
    curves: dict[str, PsiCurve] = {}
    for label in sorted(groups):
        sample = groups[label]
        field = self_depth_field(sample, threads=threads)
        curves[label] = psi_curve(field, "diam", lambdas,
                                  pair_matrix=sample.distance_matrix)
    return curves
