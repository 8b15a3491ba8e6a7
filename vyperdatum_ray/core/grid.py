"""Separation-surface grids and bilinear interpolation.

This is the from-scratch replacement for PROJ ``vgridshift`` /
``gdal.Warp`` used by the reference (``core.py:309``,
``raster.py:268-285``): a regular node-registered grid of separation
values with an affine geotransform, sampled by bilinear interpolation.

Coverage semantics match the reference's points path: a sample outside
the grid extent, or one whose 2x2 interpolation neighborhood touches a
NaN (nodata) node, evaluates to ``+inf``; the caller masks with
``~isinf`` exactly like ``reference/vyperdatum/core.py:445-446``.

The interpolation expression is written in a fixed operation order so a
SQL oracle re-implementing it over the same stored nodes produces
bit-identical float64 results:

    gx  = (lon - origin_x) / dx
    gy  = (lat - origin_y) / dy
    ix0 = floor(gx) clamped to [0, nx-2];  fx = gx - ix0
    iy0 = floor(gy) clamped to [0, ny-2];  fy = gy - iy0
    v   = (1-fx)*(1-fy)*v00 + fx*(1-fy)*v10 + (1-fx)*fy*v01 + fx*fy*v11

That expression lives in one kernel, ``bilinear``. ``GridStack`` feeds
it many grids at once (every pipeline step of a batch's (point, region)
pairs, one block of pairs per call); ``SeparationGrid.interpolate``
feeds it one.
Grids have at least two nodes per axis (one bilinear cell).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SeparationGrid:
    """A regular separation grid.

    ``values[iy, ix]`` is the node at
    ``(origin_x + ix * dx, origin_y + iy * dy)``; ``dx, dy > 0``;
    NaN nodes are nodata. A ``Catalog`` makes the ``values`` of its
    grids read-only (see catalog.py); a grid of its own stays writable.
    """

    origin_x: float
    origin_y: float
    dx: float
    dy: float
    values: np.ndarray  # shape (ny, nx), float64

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    def interpolate(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Bilinear sample; +inf outside coverage (extent or NaN corner).
        One grid is a one-entry stack: the same kernel as ``GridStack``."""
        return bilinear(np.ravel(self.values), self.origin_x, self.origin_y,
                        self.dx, self.dy, self.nx, self.ny, 0, lon, lat)

    def node_xy(self, ix: np.ndarray, iy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.origin_x + np.asarray(ix) * self.dx, self.origin_y + np.asarray(iy) * self.dy

    def nearest_node(self, lon: np.ndarray, lat: np.ndarray):
        """Index of the nearest grid node (ties resolve to the lower index
        via round-half-even on the fractional grid coordinate)."""
        gx = (np.asarray(lon, np.float64) - self.origin_x) / self.dx
        gy = (np.asarray(lat, np.float64) - self.origin_y) / self.dy
        ix = np.clip(np.rint(gx), 0, self.nx - 1).astype(np.int64)
        iy = np.clip(np.rint(gy), 0, self.ny - 1).astype(np.int64)
        return ix, iy

    def knn_nodes(self, lon: np.ndarray, lat: np.ndarray, k: int = 4):
        """k nearest grid nodes per point from the per-cell sorted
        neighbor candidate set (north_rule J5: 'kNN grid-node lookup uses
        per-cell sorted neighbor lists').

        For a regular grid the candidate set of the containing cell is
        the (2r)x(2r) node window around the cell corners; candidates are
        sorted by (squared distance, iy, ix) — deterministic tie-break —
        and the first k returned. Returns (ix, iy, dist2) arrays of shape
        (n, k).
        """
        r = 1
        while (2 * r) * (2 * r) < k:
            r += 1
        gx = (np.asarray(lon, np.float64) - self.origin_x) / self.dx
        gy = (np.asarray(lat, np.float64) - self.origin_y) / self.dy
        ix0 = np.clip(np.floor(gx).astype(np.int64), 0, self.nx - 2)
        iy0 = np.clip(np.floor(gy).astype(np.int64), 0, self.ny - 2)
        offs = np.arange(-r + 1, r + 1)  # window [-r+1, r] around cell corner
        cand_ix = np.clip(ix0[:, None] + offs[None, :], 0, self.nx - 1)  # (n, 2r)
        cand_iy = np.clip(iy0[:, None] + offs[None, :], 0, self.ny - 1)
        # cartesian product of the window -> (n, 4r^2)
        cix = np.repeat(cand_ix[:, :, None], offs.size, axis=2).reshape(len(gx), -1)
        ciy = np.repeat(cand_iy[:, None, :], offs.size, axis=1).reshape(len(gx), -1)
        dx_ = self.origin_x + cix * self.dx - np.asarray(lon, np.float64)[:, None]
        dy_ = self.origin_y + ciy * self.dy - np.asarray(lat, np.float64)[:, None]
        d2 = dx_ * dx_ + dy_ * dy_
        # lexicographic sort: distance, then iy, then ix (stable tie-break)
        order = np.lexsort((cix, ciy, d2), axis=-1)[:, :k]
        take = np.take_along_axis
        return (
            take(cix, order, axis=1),
            take(ciy, order, axis=1),
            take(d2, order, axis=1),
        )


def bilinear(values, origin_x, origin_y, dx, dy, nx, ny, offset, lon, lat):
    """The bilinear kernel in the operation order of the module
    docstring, over grids stored row-major in one flat ``values``
    array. The grid parameters (``offset`` is the grid's node (0, 0) in
    ``values``) are scalars, or per-point arrays that let one call
    sample a different grid at every point."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    gx = (lon - origin_x) / dx
    gy = (lat - origin_y) / dy
    inside = (gx >= 0.0) & (gx <= nx - 1) & (gy >= 0.0) & (gy <= ny - 1)

    ix0 = np.clip(np.floor(gx), 0, nx - 2)
    iy0 = np.clip(np.floor(gy), 0, ny - 2)
    fx = gx - ix0
    fy = gy - iy0
    # Out-of-range coordinates produce garbage indices; park them at
    # node (0, 0). The flat index is integer-valued, so exact in float.
    k00 = np.where(inside, offset + iy0 * nx + ix0, offset).astype(np.int64)
    k01 = k00 + np.asarray(nx).astype(np.int64)

    v00 = values[k00]
    v10 = values[k00 + 1]
    v01 = values[k01]
    v11 = values[k01 + 1]
    out = (
        (1.0 - fx) * (1.0 - fy) * v00
        + fx * (1.0 - fy) * v10
        + (1.0 - fx) * fy * v01
        + fx * fy * v11
    )
    bad = ~inside | np.isnan(v00) | np.isnan(v10) | np.isnan(v01) | np.isnan(v11)
    return np.where(bad, np.inf, out)


@dataclass
class GridStack:
    """Several grids flattened into one ``values`` array, with a table
    of per-grid parameters, so one ``bilinear`` call samples grid
    ``gid[i]`` at point ``i``."""

    values: np.ndarray  # every grid's nodes, row-major, end to end
    # (7, n_grids) float64 rows: origin_x, origin_y, dx, dy, nx, ny and
    # the offset of node (0, 0) in ``values`` (counts are exact floats,
    # so the kernel does no int-to-float conversions)
    params: np.ndarray

    @classmethod
    def of(cls, grids: list[SeparationGrid]) -> "GridStack":
        sizes = [g.values.size for g in grids]
        offsets = np.cumsum([0] + sizes[:-1])
        params = np.array([[g.origin_x, g.origin_y, g.dx, g.dy, g.nx, g.ny, off]
                           for g, off in zip(grids, offsets)], dtype=np.float64)
        return cls(
            values=np.concatenate([np.ravel(g.values) for g in grids] or [np.empty(0)]),
            params=params.T.reshape(7, len(grids)).copy(),
        )

    def interpolate(self, gid: np.ndarray, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Grid ``gid[..., i]`` sampled at ``(lon[i], lat[i])``: one grid
        per point for an (n,) ``gid``, one per row and point for an
        (S, n) one (a point's S pipeline steps in one kernel call), in
        blocks of about ``BLOCK`` samples."""
        out = np.empty(gid.shape, dtype=np.float64)
        width = max(1, BLOCK * len(lon) // max(gid.size, 1))
        for lo in range(0, len(lon), width):
            hi = lo + width
            out[..., lo:hi] = bilinear(self.values, *np.take(self.params, gid[..., lo:hi], axis=1),
                                       lon[lo:hi], lat[lo:hi])
        return out


# Samples per ``GridStack.interpolate`` kernel call. Bounds the kernel's
# ~20 live temporaries to ~64 KiB each, so memory per call does not grow
# with the batch. One call over ~15k points (~2 MiB of temporaries per
# step) made glibc trim and re-fault its heap every step: ~40k minor
# faults per sf0.1 pass, half the transform's time. 8192 leaves ~14k;
# 1024-4096 leave none but cost more in per-call overhead than that.
BLOCK = 8192


def grid_from_long(
    origin_x: float,
    origin_y: float,
    dx: float,
    dy: float,
    nx: int,
    ny: int,
    ix: np.ndarray,
    iy: np.ndarray,
    v: np.ndarray,
) -> SeparationGrid:
    """Build a grid from long-form (ix, iy, value) node rows; absent nodes
    are NaN (nodata). This is the storage format of the grid catalog
    parquet (SQL-joinable for the DuckDB oracle)."""
    values = np.full((ny, nx), np.nan, dtype=np.float64)
    values[np.asarray(iy, np.int64), np.asarray(ix, np.int64)] = np.asarray(v, np.float64)
    return SeparationGrid(origin_x, origin_y, dx, dy, values)
