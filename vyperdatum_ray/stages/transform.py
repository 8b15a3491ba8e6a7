"""DatumTransformer: the per-region vertical-datum transform
(SURVEY.md M1-M5, A3, T2/T3).

Per-worker cached state: separation grids, parsed per-region pipelines
and composed per-region uncertainties are prepared ONCE per worker
process and catalog content in ``__init__`` (the flagship's tasks reuse
the instance, see ``pipelines/flagship._cached_state``); ``__call__``
is pure vectorized numpy per Arrow batch.

Semantics re-expressed from ``reference/vyperdatum/core.py:357-462``:

* input z sign-flipped when the input CRS is a depth
  (``core.py:397-399``); output flip = +1 height / -1 depth
  (``core.py:400-403``),
* per region, in catalog order: optional 3-D horizontal hop to the
  region's geoid frame (``core.py:426-429`` — the real NAD83<->ITRF
  14-param Helmert of ``core/helmert.py``, so z gains the frame
  separation before the grid steps), run the composed grid-shift
  pipeline (forward: z - grid, inverse: z + grid, cf.
  ``raster.py:278-285``),
* when the OUTPUT horizontal frame differs from both the input frame
  and the region's geoid frame, the reference's 3-D z-correction
  ``new_z - (z - diffz)`` applies, with diffz from the input->output
  frame hop (``core.py:438-444``),
* points outside a grid evaluate to +inf; only finite results are
  written into the answer arrays so later regions overwrite earlier
  ones ONLY where they are valid (``core.py:445-453``),
* per-region scalar uncertainty stamped on valid rows
  (``core.py:313-355``), region_index = catalog position (int8, -1
  outside all coverage, ``core.py:415``),
* final z rounded to 3 decimals (``core.py:462``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from vyperdatum_ray.core.helmert import frame_hop
from vyperdatum_ray.core.pipeline_algebra import get_regional_pipeline, parse_pipeline
from vyperdatum_ray.core.uncertainty import compose_uncertainty


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
        from vyperdatum_ray.core.pipeline_algebra import resolve_grid_key

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

    def __call__(self, batch: pa.Table) -> pa.Table:
        from vyperdatum_ray.stages.region_join import membership_words

        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        mask_words = membership_words(batch)  # 1 word per 64 regions
        n = len(lon)
        if self.z_col is not None:
            z_in = batch.column(self.z_col).to_numpy(zero_copy_only=False).astype(np.float64)
        else:
            z_in = np.zeros(n, dtype=np.float64)
        if not self.in_is_height:
            z_in = z_in * -1.0  # depth -> height (core.py:397-399)

        ans_z = np.full(n, np.nan, dtype=np.float64)
        ans_unc = np.full(n, np.nan, dtype=np.float64)
        ans_region = np.full(n, -1, dtype=np.int8)
        out_hop = None  # lazily computed input->output frame hop
        if self.emit_xy:
            ans_x = np.full(n, np.nan, dtype=np.float64)
            ans_y = np.full(n, np.nan, dtype=np.float64)

        for i, steps in enumerate(self.region_steps):
            if steps is None:
                continue
            member = (mask_words[i >> 6] >> np.uint64(i & 63)) & np.uint64(1) == 1
            if not member.any():
                continue
            idx = np.nonzero(member)[0]
            gframe = self.region_frames[i]
            if gframe != self.input_frame:
                # real 3-D NAD83->ITRF hop (core.py:426-429): lon/lat
                # move ~1 m and z gains the frame separation
                rlon, rlat, z = frame_hop(lon[idx], lat[idx], z_in[idx], gframe)
            else:
                rlon, rlat = lon[idx], lat[idx]
                z = z_in[idx].copy()
            for grid, sign in steps:
                z = z + sign * grid.interpolate(rlon, rlat)
            if self.out_frame != self.input_frame and self.out_frame != gframe:
                # output frame differs from input AND geoid frame: 3-D
                # z-correction new_z - (z - diffz) (core.py:438-444)
                if out_hop is None:
                    out_hop = frame_hop(lon, lat, z_in, self.out_frame)
                z = z - (z_in[idx] - out_hop[2][idx])
            # ~isinf in the reference (core.py:445-446); isfinite here
            # because two out-of-coverage step grids with opposite signs
            # compose to inf - inf = NaN, which is equally "no coverage".
            valid = np.isfinite(z)
            w = idx[valid]
            ans_z[w] = self.flip * z[valid]
            ans_unc[w] = self.region_unc[i]
            ans_region[w] = i
            if self.emit_xy:
                if self.out_frame == self.input_frame:
                    ans_x[w], ans_y[w] = lon[w], lat[w]
                elif self.out_frame == gframe:
                    ans_x[w], ans_y[w] = rlon[valid], rlat[valid]
                else:
                    ans_x[w], ans_y[w] = out_hop[0][w], out_hop[1][w]

        ans_z = np.round(ans_z, 3)  # core.py:462
        covered = ans_region >= 0
        region_str = np.where(covered, self.region_names[np.maximum(ans_region, 0)], "")
        out = (
            batch.append_column(self.out_col, pa.array(ans_z, pa.float64()))
            .append_column("unc", pa.array(ans_unc, pa.float64()))
            .append_column("region_index", pa.array(ans_region, pa.int8()))
            .append_column("region", pa.array(region_str, pa.string()))
        )
        if self.emit_xy:
            out = (out.append_column("x_out", pa.array(ans_x, pa.float64()))
                      .append_column("y_out", pa.array(ans_y, pa.float64())))
        return out
