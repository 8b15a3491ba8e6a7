"""Planar geometry: polygons, vectorized point-in-polygon, and a
region-membership index over (point, polygon) pairs.

From-scratch replacement for the reference's OGR feature scans and
``Intersect`` tests (``reference/vyperdatum/core.py:86-158``); no GEOS /
shapely in this environment.

Conventions:

* A polygon is an (n, 2) float64 vertex ring (closed or open; closing
  vertex optional), vertices in any winding order.
* ``points_in_polygon`` is a vectorized even-odd ray cast. Points exactly
  on an edge may land on either side (the fixture generator keeps test
  points off polygon boundaries; convex fixtures additionally carry
  half-plane edge tables so the DuckDB oracle can reproduce membership
  without a geometry library).
"""

from __future__ import annotations

import numpy as np


class Polygon:
    def __init__(self, vertices) -> None:
        v = np.asarray(vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs an (n>=3, 2) vertex array")
        # drop an explicit closing vertex
        if np.all(v[0] == v[-1]):
            v = v[:-1]
        self.vertices = v
        self.min_x, self.min_y = v.min(axis=0)
        self.max_x, self.max_y = v.max(axis=0)

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (self.min_x, self.min_y, self.max_x, self.max_y)

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return points_in_polygon(x, y, self.vertices)

    def intersects_bbox(self, x_min, y_min, x_max, y_max) -> bool:
        """Conservative polygon-vs-rectangle intersection: bbox overlap,
        then accept if any vertex of either shape lies in the other, or
        any edges cross. Sufficient for region *candidate* discovery
        (reference ``set_region_by_bounds`` uses OGR Intersect on the
        data-extent rectangle, core.py:86-158)."""
        if (
            self.max_x < x_min
            or self.min_x > x_max
            or self.max_y < y_min
            or self.min_y > y_max
        ):
            return False
        # any polygon vertex inside the rectangle?
        v = self.vertices
        if np.any(
            (v[:, 0] >= x_min) & (v[:, 0] <= x_max) & (v[:, 1] >= y_min) & (v[:, 1] <= y_max)
        ):
            return True
        # any rectangle corner inside the polygon?
        cx = np.array([x_min, x_max, x_max, x_min])
        cy = np.array([y_min, y_min, y_max, y_max])
        if np.any(self.contains(cx, cy)):
            return True
        # edge-crossing check
        rect = np.array(
            [[x_min, y_min], [x_max, y_min], [x_max, y_max], [x_min, y_max]]
        )
        closed = np.vstack([v, v[:1]])
        rclosed = np.vstack([rect, rect[:1]])
        for i in range(len(closed) - 1):
            for j in range(4):
                if _segments_cross(closed[i], closed[i + 1], rclosed[j], rclosed[j + 1]):
                    return True
        return False


def _segments_cross(p1, p2, q1, q2) -> bool:
    d1 = np.cross(q2 - q1, p1 - q1)
    d2 = np.cross(q2 - q1, p2 - q1)
    d3 = np.cross(p2 - p1, q1 - p1)
    d4 = np.cross(p2 - p1, q2 - p1)
    return bool(((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)))


def points_in_polygon(x: np.ndarray, y: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Vectorized even-odd ray cast: horizontal ray to +x.

    Loops over edges (polygons are small, point arrays are big) — the
    vectorization axis is points, which is the scale axis.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    v = np.asarray(vertices, dtype=np.float64)
    n = v.shape[0]
    inside = np.zeros(x.shape, dtype=bool)
    x1, y1 = v[-1]
    for k in range(n):
        x2, y2 = v[k]
        if y1 != y2:
            cond = (y1 > y) != (y2 > y)
            # x coordinate of edge at the point's y
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= cond & (x < xi)
        x1, y1 = x2, y2
    return inside


def polygon_to_wkb(vertices: np.ndarray) -> bytes:
    """Minimal WKB (little-endian, Polygon, single ring, auto-closed) so
    the region catalog stores standard geometry bytes."""
    import struct

    v = np.asarray(vertices, dtype=np.float64)
    if not np.all(v[0] == v[-1]):
        v = np.vstack([v, v[:1]])
    out = [struct.pack("<BII", 1, 3, 1), struct.pack("<I", len(v))]
    for px, py in v:
        out.append(struct.pack("<dd", px, py))
    return b"".join(out)


def polygon_from_wkb(buf: bytes) -> Polygon:
    import struct

    byte_order, geom_type = struct.unpack_from("<BI", buf, 0)
    if byte_order != 1 or geom_type != 3:
        raise ValueError("only little-endian single-ring WKB Polygon supported")
    (nrings,) = struct.unpack_from("<I", buf, 5)
    if nrings != 1:
        raise ValueError("only single-ring polygons supported")
    (npts,) = struct.unpack_from("<I", buf, 9)
    pts = np.frombuffer(buf, dtype="<f8", count=npts * 2, offset=13).reshape(npts, 2)
    return Polygon(pts)


class STRtree:
    """Region-membership index over a catalog's polygons (VDatum scale,
    ~52 regions, reference ``vdatum_validation.py:1334-1382``): a
    per-geometry bbox table and a padded edge table, queried by array
    operations over every (point, geometry) pair at once.

    Each ring is padded to the longest by repeating its last vertex: a
    padded edge has zero length, so it never flips the even-odd count,
    and every geometry walks the same number of edges.
    """

    def __init__(self, geoms: list[Polygon]) -> None:
        self.geoms = list(geoms)
        n = len(self.geoms)
        self.bounds = np.array([g.bounds for g in self.geoms], dtype=np.float64).reshape(n, 4)
        n_vert = max([len(g.vertices) for g in self.geoms], default=0)
        rings = np.empty((n, n_vert, 2), dtype=np.float64)
        for i, g in enumerate(self.geoms):
            v = g.vertices
            rings[i, :len(v)] = v
            rings[i, len(v):] = v[-1]
        # (n_vert, 4, n): edge k of geometry g runs from vertex k-1 to
        # vertex k (edge 0 closes the ring, as ``points_in_polygon``
        # walks it), stored as x1, y1, x2, y2 rows per edge
        self.edges = np.concatenate(
            [np.roll(rings, 1, axis=1), rings], axis=2).transpose(1, 2, 0).copy()

    def query_points(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Boolean membership matrix (n_points, n_geoms): a per-point
        bbox test against every geometry, then one even-odd edge walk
        over all surviving (geometry, point) pairs. A NaN coordinate
        fails every bbox test, so it is a member of nothing."""
        x = np.asarray(x, np.float64)
        y = np.asarray(y, np.float64)
        b = self.bounds[:, :, None]
        member = (x >= b[:, 0]) & (x <= b[:, 2]) & (y >= b[:, 1]) & (y <= b[:, 3])
        gi, pt = np.divmod(np.flatnonzero(member), len(x))  # geometry-major
        count = np.bincount(gi, minlength=len(self.geoms))  # edges fill by repeat
        px, py = x[pt], y[pt]
        inside = np.zeros(pt.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for x1, y1, x2, y2 in self.edges:
                x1, y1 = np.repeat(x1, count), np.repeat(y1, count)
                x2, y2 = np.repeat(x2, count), np.repeat(y2, count)
                # the expression of ``points_in_polygon``; a horizontal
                # (or padded) edge has cond False, so its NaN xi is moot
                cond = (y1 > py) != (y2 > py)
                xi = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                inside ^= cond & (px < xi)
        member[gi, pt] = inside
        return member.T
