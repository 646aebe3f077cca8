"""Applied depth workflows: depth-depth coordinates for two-group
comparison, level-based outlier flagging, and per-group diameter curves.

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
    batch_depth,
    loo_depth_against,
    self_depth_field,
)
from .dispersion import PsiCurve, psi_curve
from .levelsets import level_set


@dataclass(frozen=True)
class DepthDepthRecord:
    """One point's depth against each of two groups."""

    index: int
    depth0: float
    depth1: float
    group: int | None


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
    return np.flatnonzero(~level_set(field, lam).member_mask)


def diameter_curve_by_group(groups: dict[str, Sample],
                            fields: dict[str, DepthField],
                            lambdas) -> dict[str, PsiCurve]:
    """Per-group diameter curves of the leave-one-out depth level sets,
    evaluated over each group's own sample points; `fields[label]` is
    `self_depth_field(groups[label])`."""
    return {label: psi_curve(fields[label], "diam", lambdas,
                             pair_matrix=groups[label].distance_matrix)
            for label in sorted(groups)}
