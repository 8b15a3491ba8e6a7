"""Stateless geocode + filter stages (SURVEY.md M10).

Plain per-batch functions on Arrow tables, run in the substrate's tasks
(``exchange.map``, the flagship's shard task) — no per-worker state. The
``text``/``url`` columns pass through as zero-copy Arrow slices
(input_hint: byte-identical text per url).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from vyperdatum_ray.core.geocode import geocode_arrays


def geocode_batch(batch: pa.Table) -> pa.Table:
    """Append lat/lon/geocode_src parsed from url/text."""
    lat, lon, src = geocode_arrays(batch.column("url"), batch.column("text"))
    return (
        batch.append_column("lat", pa.array(lat, pa.float64()))
        .append_column("lon", pa.array(lon, pa.float64()))
        .append_column("geocode_src", src)
    )


def keep_geocoded(batch: pa.Table) -> pa.Table:
    """Drop rows without coordinates (NaN lat) — vectorized filter inside
    the batch's task (cheaper than ds.filter(row_fn))."""
    return batch.filter(pc.is_valid(batch.column("geocode_src")))
