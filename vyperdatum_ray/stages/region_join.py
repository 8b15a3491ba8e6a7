"""RegionJoiner: the broadcast spatial join (SURVEY.md J1/J2, T1).

Per-worker cached state: the region-membership index
(``core/geometry.STRtree``: per-region bbox and padded edge tables) is
built ONCE per worker process and catalog content in ``__init__`` from
the broadcast catalog (one ``ray.put`` per session, zero-copy
``ray.get`` here; the flagship's tasks reuse the instance across shards
and jobs, see ``pipelines/flagship._cached_state`` — the region catalog
is tiny relative to the data, so the join needs no shuffle; cf.
reference ``set_region_by_bounds``/per-region transform loop,
core.py:86-158, 421-453, which re-opens polygon files per call).
``__call__`` tests every row against every region at once, with no
loop over regions.

Emits ``region_mask`` — a uint64 bitmask of catalog-order region
memberships per point (explicit point-in-polygon, as the north_star
mandates) — and ``pip_region_index``, the last containing region in
catalog order (int8, -1 when none; the catalog-order overwrite rule of
core.py:421-453 before grid-coverage fallback is applied downstream).

Catalogs past 64 regions (VDatum today is 52,
vdatum_validation.py:1334-1382, but external-region upserts can grow
one) spill extra membership words into ``region_mask_1``,
``region_mask_2``, ... uint64 columns — the single-word fast path and
its schema are unchanged for every catalog that fits. The int8
region INDEX caps support at 127 regions (the driver-contract TINYINT
column), asserted loudly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

MAX_REGIONS = 127  # region_index is int8 (TINYINT in the SQL contract)


def mask_column_names(n_regions: int) -> list[str]:
    """Membership-word column names for a catalog of this size."""
    n_words = max(1, -(-n_regions // 64))
    return ["region_mask"] + [f"region_mask_{w}" for w in range(1, n_words)]


def membership_words(batch: pa.Table) -> list[np.ndarray]:
    """Collect the membership bitmask word columns present in a batch
    (one uint64 array per 64 catalog regions)."""
    words = [batch.column("region_mask").to_numpy(zero_copy_only=False)]
    w = 1
    while f"region_mask_{w}" in batch.column_names:
        words.append(
            batch.column(f"region_mask_{w}").to_numpy(zero_copy_only=False))
        w += 1
    return words


class RegionJoiner:
    def __init__(self, catalog_ref) -> None:
        self.catalog = ray.get(catalog_ref) if isinstance(catalog_ref, ray.ObjectRef) else catalog_ref
        if len(self.catalog.regions) > MAX_REGIONS:
            raise NotImplementedError(
                f"region_index is int8: at most {MAX_REGIONS} regions "
                f"(catalog has {len(self.catalog.regions)})")
        self.tree = self.catalog.tree()

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy(zero_copy_only=False)
        lat = batch.column("lat").to_numpy(zero_copy_only=False)
        member = self.tree.query_points(lon, lat)  # (n, R) bool
        n_regions = member.shape[1]
        names = mask_column_names(n_regions)
        # pad to whole words: bit i of word w is region 64 * w + i
        bits = np.zeros((len(lon), 64 * len(names)), dtype=bool)
        bits[:, :n_regions] = member
        mask = np.packbits(bits, axis=1, bitorder="little").view("<u8")
        # the highest member region (later catalog order overwrites):
        # the max of 1-based region numbers, 0 for no region, minus one
        number = np.arange(1, n_regions + 1, dtype=np.uint8)
        pip_idx = (member * number).max(axis=1, initial=0).astype(np.int8) - np.int8(1)
        out = batch
        for w, name in enumerate(names):
            out = out.append_column(name, pa.array(mask[:, w], pa.uint64()))
        return out.append_column("pip_region_index", pa.array(pip_idx, pa.int8()))
