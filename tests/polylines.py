"""Polyline distances for the frontier shape tests.

A polyline is an (n, 2) array of (rho, delta) vertices joined in order; a
one-vertex polyline is that point.
"""

import numpy as np


def _segment_distance(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def point_to_polyline(p, polyline):
    """Distance from the point p to the nearest segment of the polyline."""
    ends = polyline[1:] if len(polyline) > 1 else polyline
    return min(_segment_distance(p, a, b) for a, b in zip(polyline, ends))


def farthest_vertex(a, b):
    """Largest distance from a vertex of polyline a to polyline b."""
    return max(point_to_polyline(p, b) for p in a)


def polyline_hausdorff(a, b):
    """Symmetric Hausdorff distance between two polylines, sampled at their vertices."""
    return max(farthest_vertex(a, b), farthest_vertex(b, a))
