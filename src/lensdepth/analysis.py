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
    loo_depth_against,
    pooled_depth,
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
    # One type with equal parameters: dimension, frame shape, leaf set.
    spaces = [(type(s.space), vars(s.space)) for s in (sample0, sample1)]
    if spaces[0] != spaces[1]:
        raise DepthError("groups live in different spaces")
    if min(sample0.n, sample1.n) < 3:
        raise DepthError("each group needs at least 3 points")
    if points is None:
        # The pooled points, each left out of its own group only.
        f0, f1 = pooled_depth(sample0, sample1, threads=threads)
        own = np.arange(len(f0)) < sample0.n
        d0, d1, groups = f0.leave_out(own), f1.leave_out(~own), (~own).astype(int).tolist()
    else:
        d0 = loo_depth_against(points, sample0, threads=threads)
        d1 = loo_depth_against(points, sample1, threads=threads)
        groups = [None] * len(d0)
    return [DepthDepthRecord(i, float(a), float(b), g)
            for i, (a, b, g) in enumerate(zip(d0, d1, groups))]


def outliers(field: DepthField, lam: float) -> np.ndarray:
    """Indices with depth strictly below the level; exactly the
    complement of the level set's members."""
    return np.flatnonzero(~level_set(field, lam).member_mask)


def diameter_curve_by_group(fields: dict[str, DepthField], lambdas) -> dict[str, PsiCurve]:
    """Per-group diameter curves of the leave-one-out depth level sets,
    evaluated over each group's own sample points; `fields[label]` is
    that group's `self_depth_field`, whose matrix (none on the line) the
    curve reads."""
    return {label: psi_curve(fields[label], "diam", lambdas) for label in sorted(fields)}
