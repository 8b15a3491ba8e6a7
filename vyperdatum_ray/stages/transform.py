"""DatumTransformer: the per-region vertical-datum transform
(SURVEY.md M1-M5, A3, T2/T3).

Per-worker cached state: separation grids (flattened into one
``core/grid.GridStack``), parsed per-region pipelines (as a table of
grid ids and signs per step) and composed per-region uncertainties are
prepared ONCE per worker process and catalog content in ``__init__``
(the flagship's tasks reuse the instance, see
``pipelines/flagship._cached_state``); ``__call__`` is pure vectorized
numpy per Arrow batch, winner first: each round evaluates one
(row, region) membership pair per still-open row, starting from the
row's last member region in catalog order, so the work scales with
rows, not with pairs. No Python loop over regions; the rounds are
bounded by the largest membership count of a row.

Semantics re-expressed from ``reference/vyperdatum/core.py:357-462``:

* input z sign-flipped when the input CRS is a depth
  (``core.py:397-399``); output flip = +1 height / -1 depth
  (``core.py:400-403``),
* per (row, region) pair (``separation``): optional 3-D horizontal hop
  to the region's geoid frame (``core.py:426-429`` — the real
  NAD83<->ITRF 14-param Helmert of ``core/helmert.py``, so z gains the
  frame separation before the grid steps), then the composed
  grid-shift pipeline (forward: z - grid, inverse: z + grid, cf.
  ``raster.py:278-285``), every step's grid sampled in one kernel call
  per block of the round's pairs, then added step by step in pipeline
  order. The raster path (``pipelines/raster.py``) calls the same
  method at z = 0 for its per-region separations: this class is the
  engine's only owner of the regional pipeline state,
* when the OUTPUT horizontal frame differs from both the input frame
  and the region's geoid frame, the reference's 3-D z-correction
  ``new_z - (z - diffz)`` applies, with diffz from the input->output
  frame hop (``core.py:438-444``),
* points outside a grid evaluate to +inf; the last member region in
  catalog order with a finite result wins — the reference's
  catalog-order overwrite of valid results (``core.py:445-453``). A
  row's last pair is tried first, and a row whose z is not finite
  falls back to its previous pair in the next round, so only the
  pairs at or after each row's winner are evaluated,
* per-region scalar uncertainty stamped on valid rows
  (``core.py:313-355``), region_index = catalog position (int8, -1
  outside all coverage, ``core.py:415``),
* final z rounded to 3 decimals (``core.py:462``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from vyperdatum_ray.core.grid import GridStack
from vyperdatum_ray.core.helmert import frame_hop
from vyperdatum_ray.core.pipeline_algebra import (get_regional_pipeline, parse_pipeline,
                                                  resolve_grid_key)
from vyperdatum_ray.core.uncertainty import compose_uncertainty
from vyperdatum_ray.stages.region_join import mask_column_names, membership_words


def last_member(words: np.ndarray) -> np.ndarray:
    """Each row's highest set bit over its (n, W) uint64 membership
    words (bit i of word w is region 64 * w + i), -1 for a row with
    none. A 32-bit half converts to float64 exactly, and ``frexp``'s
    exponent is its highest set bit plus one (0 for zero)."""
    last = np.full(len(words), -1, dtype=np.int64)
    for w in range(words.shape[1]):  # later words hold later regions
        hi = np.frexp((words[:, w] >> np.uint64(32)).astype(np.float64))[1]
        lo = np.frexp((words[:, w] & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
        top = np.where(hi > 0, hi + 31, lo - 1)
        last = np.where(top >= 0, top + 64 * w, last)
    return last


class DatumTransformer:
    def __init__(
        self,
        catalog_ref,
        from_datum: str = "ellipse",
        to_datum: str = "mllw",
        in_is_height: bool = True,
        out_is_height: bool = False,
        z_col: str | None = None,
        out_col: str = "z_out",
        out_frame: str | None = None,
        emit_xy: bool = False,
    ) -> None:
        self.catalog = ray.get(catalog_ref) if isinstance(catalog_ref, ray.ObjectRef) else catalog_ref
        self.from_datum = from_datum
        self.to_datum = to_datum
        self.in_is_height = in_is_height
        self.flip = 1.0 if out_is_height else -1.0
        self.z_col = z_col
        self.out_col = out_col
        from vyperdatum_ray.catalog import INPUT_FRAME

        self.input_frame = INPUT_FRAME
        self.out_frame = out_frame or INPUT_FRAME
        self.emit_xy = emit_xy

        # Per-region prepared state: pipeline steps (with GEOID/REGION
        # substituted), grids resolved, uncertainty composed.
        self.region_steps = []
        self.region_unc = []
        self.region_frames = []
        for r in self.catalog.regions:
            pipeline = get_regional_pipeline(from_datum, to_datum, r.name, r.geoid_name)
            steps = parse_pipeline(pipeline)
            # resolve each grid key with the .tif extension fallback
            # (vypercrs.py:1044-1092); an unresolvable grid invalidates
            # the pipeline -> region skipped entirely (core.py:430-433)
            resolved = [(resolve_grid_key(s.grid_key, self.catalog.grids), s.sign)
                        for s in steps]
            if any(k is None for k, _ in resolved):
                self.region_steps.append(None)
            else:
                self.region_steps.append(
                    [(self.catalog.grids[k], sign) for k, sign in resolved]
                )
            self.region_unc.append(
                compose_uncertainty(
                    from_datum,
                    to_datum,
                    self.catalog.sigmas.get(r.name, {}),
                    self.catalog.geoid_sigmas.get(r.geoid_name, 0.0),
                )
            )
            self.region_frames.append(r.geoid_frame)
        self.region_names = np.array([r.name for r in self.catalog.regions], dtype=object)
        # each region's name, then "" for a row no region covers
        self.region_strings = pa.array([*self.region_names, ""], pa.string())

        # The same state as per-region arrays, gathered per (row, region)
        # pair in ``__call__``: every distinct step grid in one stack, a
        # (steps, R) table of grid ids and signs, each region's position
        # in ``hop_frames`` (-1: no hop) and whether it takes the
        # output-frame z-correction.
        stack: dict[int, int] = {}  # id(grid) -> stack position
        grids = []
        # every region expands the same datum-pair template, so every
        # resolved region has the same number of steps
        n_steps = max([len(st) for st in self.region_steps if st], default=0)
        # membership bits of the regions whose grids all resolved, one
        # uint64 word per 64 regions as in ``region_join``'s mask columns
        resolved = np.zeros(64 * len(mask_column_names(len(self.region_steps))), dtype=bool)
        resolved[:len(self.region_steps)] = [st is not None for st in self.region_steps]
        self.resolved_words = np.packbits(resolved, bitorder="little").view("<u8")
        self.step_grid = np.zeros((n_steps, len(self.region_steps)), dtype=np.int64)
        self.step_sign = np.zeros((n_steps, len(self.region_steps)), dtype=np.float64)
        for i, st in enumerate(self.region_steps):
            for j, (grid, sign) in enumerate(st or ()):
                if id(grid) not in stack:
                    stack[id(grid)] = len(grids)
                    grids.append(grid)
                self.step_grid[j, i] = stack[id(grid)]
                self.step_sign[j, i] = sign
        self.grids = GridStack.of(grids)
        self.hop_frames = sorted({f for f in self.region_frames if f != self.input_frame})
        self.hop_code = np.array(
            [self.hop_frames.index(f) if f in self.hop_frames else -1
             for f in self.region_frames], dtype=np.int64)
        self.out_corr = np.array(
            [self.out_frame not in (self.input_frame, f) for f in self.region_frames], dtype=bool)
        self.unc = np.array(self.region_unc, dtype=np.float64)

    def separation(self, regs: np.ndarray, lon: np.ndarray, lat: np.ndarray,
                   z: np.ndarray):
        """Region ``regs[i]``'s pipeline applied to point ``i``: the
        optional hop to the region's geoid frame, then every grid step
        added in pipeline order. Returns the hopped ``(lon, lat)`` and
        the new z; the inputs are not modified. A point outside a step
        grid reads +inf, and two such steps of opposite sign add to
        NaN: both mean no coverage, which every caller tests with
        ``isfinite``, so neither is worth a warning."""
        hop = self.hop_code[regs]
        if (hop >= 0).any():
            lon, lat, z = lon.copy(), lat.copy(), z.copy()
            for code, f in enumerate(self.hop_frames):
                sel = np.nonzero(hop == code)[0]
                if len(sel):
                    # real 3-D NAD83->ITRF hop (core.py:426-429): lon/lat
                    # move ~1 m and z gains the frame separation
                    lon[sel], lat[sel], z[sel] = frame_hop(lon[sel], lat[sel], z[sel], f)
        steps = self.grids.interpolate(self.step_grid[:, regs], lon, lat)
        with np.errstate(invalid="ignore"):
            for sign, grid_z in zip(self.step_sign[:, regs], steps):
                z = z + sign * grid_z
        return lon, lat, z

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        n = len(lon)
        if self.z_col is not None:
            z_in = batch.column(self.z_col).to_numpy(zero_copy_only=False).astype(np.float64)
        else:
            z_in = np.zeros(n, dtype=np.float64)
        if not self.in_is_height:
            z_in = z_in * -1.0  # depth -> height (core.py:397-399)

        # Winner first (core.py:445-453): each round evaluates every open
        # row's last remaining member region; a row whose z is not
        # finite drops that member and is open in the next round. A
        # pair's arithmetic does not depend on the other pairs in its
        # round, so this is the answer of evaluating every pair and
        # keeping each row's last finite one. isfinite, not the
        # reference's ~isinf: two out-of-coverage step grids with
        # opposite signs compose to inf - inf = NaN, equally "no
        # coverage". Regions with an unresolvable grid are never
        # members (core.py:430-433).
        words = np.stack(membership_words(batch), axis=1) & self.resolved_words
        ans_z = np.full(n, np.nan, dtype=np.float64)
        ans_unc = np.full(n, np.nan, dtype=np.float64)
        ans_region = np.full(n, -1, dtype=np.int8)
        ans_x = np.full(n, np.nan, dtype=np.float64)
        ans_y = np.full(n, np.nan, dtype=np.float64)
        out_hop = None
        rows = np.arange(n)
        while len(rows):
            regs = last_member(words[rows])
            has = regs >= 0
            rows, regs = rows[has], regs[has]
            if not len(rows):
                break
            px, py, z = self.separation(regs, lon[rows], lat[rows], z_in[rows])
            far = self.out_corr[regs]
            k = np.nonzero(far)[0]
            if len(k):
                # output frame differs from input AND geoid frame: 3-D
                # z-correction new_z - (z - diffz) (core.py:438-444)
                if out_hop is None:
                    out_hop = frame_hop(lon, lat, z_in, self.out_frame)
                z[k] = z[k] - (z_in[rows[k]] - out_hop[2][rows[k]])

            ok = np.isfinite(z)
            w = rows[ok]
            ans_z[w] = self.flip * z[ok]
            ans_unc[w] = self.unc[regs[ok]]
            ans_region[w] = regs[ok]
            if self.emit_xy and self.out_frame != self.input_frame:
                # the region's hopped lon/lat when its geoid frame is
                # the output frame, the input->output hop otherwise
                ans_x[w], ans_y[w] = px[ok], py[ok]
                wf = w[far[ok]]
                if len(wf):  # then out_hop was computed above
                    ans_x[wf], ans_y[wf] = out_hop[0][wf], out_hop[1][wf]
            rows, regs = rows[~ok], regs[~ok]
            words[rows, regs >> 6] &= ~(np.uint64(1) << (regs & 63).astype(np.uint64))

        ans_z = np.round(ans_z, 3)  # core.py:462
        covered = ans_region >= 0
        out = (
            batch.append_column(self.out_col, pa.array(ans_z, pa.float64()))
            .append_column("unc", pa.array(ans_unc, pa.float64()))
            .append_column("region_index", pa.array(ans_region, pa.int8()))
            .append_column("region", self.region_strings.take(
                np.where(covered, ans_region, len(self.region_names))))
        )
        if self.emit_xy:
            if self.out_frame == self.input_frame:
                ans_x[covered], ans_y[covered] = lon[covered], lat[covered]
            out = (out.append_column("x_out", pa.array(ans_x, pa.float64()))
                      .append_column("y_out", pa.array(ans_y, pa.float64())))
        return out
