"""L-space alignment of loop pairs and the gluing decision.

The pairing convention matches a slope r/s on one side with s/r on the other,
so alignment says: every slope is strict for side one, or its reciprocal is
strict for side two.  That quantifier is eliminated exactly: the reciprocal
image of the complement of one interior must land inside the other interior.
"""

from __future__ import annotations

from .detection import (
    SlopeSet,
    arc_in_open_arc,
    in_closed_arc,
    is_lspace_slope,
    lspace_interval,
    solid_torus_like,
)
from .loops import as_loops, rational_longitude


def lspace_aligned(loops1, loops2) -> bool:
    """Every slope is strict for side one or reciprocal-strict for side two."""
    return aligned_intervals(lspace_interval(loops1), lspace_interval(loops2))


def aligned_intervals(i1: SlopeSet, i2: SlopeSet) -> bool:
    """Alignment decided from the two L-space intervals by arc arithmetic."""
    if i1.kind == "empty":
        return False
    if i1.kind == "all_except":
        return i2.interior_contains(i1.a.reciprocal())
    if i1.kind == "all":
        return True
    a, b = i1.a, i1.b
    if a == b:
        # interior is empty: every slope must be reciprocal-strict on side two
        return i2.kind == "all"
    # non-strict side-one slopes form the closed arc [b -> a]; reciprocals
    # give the closed arc [recip(a) -> recip(b)] (reciprocal reverses order)
    c, d = a.reciprocal(), b.reciprocal()
    if i2.kind == "empty":
        return False
    if i2.kind == "all":
        return True
    if i2.kind == "all_except":
        return not in_closed_arc(i2.a, c, d)
    return arc_in_open_arc(c, d, i2.a, i2.b)


def glue_is_lspace(loops1, loops2) -> bool:
    """Whether the pairing of the two loop sets is an L-space complex,
    decided by the gluing theorem rather than the pairing itself.

    A side consisting of solid-torus-like loops behaves like a solid torus:
    the answer is whether the reciprocal of its rational longitude is an
    L-space slope for the other side.  Otherwise the two sides must be
    L-space aligned.
    """
    l1, l2 = as_loops(loops1), as_loops(loops2)
    st1 = all(solid_torus_like(l) for l in l1)
    st2 = all(solid_torus_like(l) for l in l2)
    if st1:
        lam = rational_longitude(l1)
        return is_lspace_slope(l2, lam.reciprocal())
    if st2:
        lam = rational_longitude(l2)
        return is_lspace_slope(l1, lam.reciprocal())
    return lspace_aligned(l1, l2)
