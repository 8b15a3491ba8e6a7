"""Region / grid / sigma catalog.

The reference discovers its catalog by globbing a VDatum directory
(polygon KMLs ``core.py:884-912``, GTX grids ``core.py:847-881``, sigma
file ``core.py:915-969``) and mutates process-global state. Here the
catalog is an immutable value object built once on the driver from
parquet tables, broadcast via ``ray.put`` (once per Ray session and
catalog content; read zero-copy from the object store once per worker
process, whose prepared state is cached keyed by ``content_key``), and
fingerprinted with an MD5 version hash (reference ``core.py:1063-1147``)
recorded in lineage checkpoints.

Immutable is enforced, not a convention: ``Catalog`` is a frozen
dataclass, its regions a tuple, its grid mapping read-only and every
grid's ``values`` array ``writeable=False``, so an in-place edit
raises (the two small sigma tables stay plain dicts that no code
edits). That is what lets the keys be computed once: the structure
fingerprint, the per-grid fingerprints and ``content_key`` are each
hashed on first use and memoized on the instance (an md5 over every
grid value, 1.47 ms on the 22-grid fixture catalog and 4.99 ms on the
242-grid ``geo_dense`` one, paid once per catalog instead of twice per
sink run). A changed catalog is a new value, from
``dataclasses.replace`` or ``core.config.register_external_region``,
and starts with no memo; a ``copy.deepcopy`` or a pickle (``ray.put``)
drops the memo too, and its grid arrays come back read-only.

Catalog tables (see ``vyperdatum_ray/fixtures.py`` for the deterministic
synthetic instance):

* ``region_catalog.parquet`` — region, region_ord, geoid_name,
  geoid_frame, polygon_wkb, bbox (the NAD83<->ITRF hop for non-NAD83
  geoid frames is the real 14-param Helmert in ``core/helmert.py``)
* ``region_edges.parquet``   — convex half-plane edge coefficients
  (SQL-oracle support; the engine itself uses generic ray-cast PIP)
* ``grid_meta.parquet`` / ``grid_values.parquet`` — long-form separation
  grids keyed by ``grid_key`` ('<region>/<surface>' or a geoid name)
* ``sigma.parquet`` / ``sigma_geoid.parquet`` — uncertainty tables
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

from vyperdatum_ray.core.geometry import Polygon, STRtree, polygon_from_wkb
from vyperdatum_ray.core.grid import SeparationGrid, grid_from_long

INPUT_FRAME = "NAD83(2011)"  # the frame geocoded lon/lat are referenced to


@dataclass(frozen=True)
class RegionInfo:
    name: str
    ord: int
    geoid_name: str
    geoid_frame: str  # hop target frame; see core.helmert.FRAME_PARAMS
    polygon: Polygon


@dataclass(frozen=True)
class Catalog:
    regions: tuple[RegionInfo, ...]  # a list is taken and stored as a tuple
    grids: Mapping[str, SeparationGrid]  # stored read-only
    sigmas: dict[str, dict[str, float]]  # region -> surface -> sigma (m)
    geoid_sigmas: dict[str, float]  # geoid name -> sigma (m)
    version: str = "unversioned"

    def __post_init__(self):
        # The catalog takes its grid arrays over: they are made read-only
        # in place, also for the caller that built them.
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "grids", MappingProxyType(dict(self.grids)))
        object.__setattr__(self, "_memos", {})
        for g in self.grids.values():
            g.values.flags.writeable = False

    def __getstate__(self) -> dict:
        # A copy or a pickle carries no memo (a mappingproxy does not
        # pickle, so the grids travel as a plain dict) ...
        state = {k: v for k, v in self.__dict__.items() if k != "_memos"}
        return {**state, "grids": dict(self.grids)}

    def __setstate__(self, state: dict) -> None:
        # ... and comes back sealed like a built catalog.
        self.__dict__.update(state)
        self.__post_init__()

    def _memoized(self, name: str, build):
        """``build()``, run on this instance's first call for ``name``."""
        if name not in self._memos:
            self._memos[name] = build()
        return self._memos[name]

    @property
    def region_names(self) -> list[str]:
        return [r.name for r in self.regions]

    def tree(self) -> STRtree:
        return self._memoized("tree", lambda: STRtree([r.polygon for r in self.regions]))

    def grid_fingerprints(self) -> dict[str, str]:
        """Per-grid content fingerprint (md5 over geometry scalars +
        node values) — the engine's analogue of the reference's
        per-version grid-hash DB (vdatum_validation.py:1384-1394).
        Drives the fine-grained lineage staleness rule: a changed grid
        invalidates only the shards whose output touched its region.
        Hashed once per instance; each call returns a fresh dict."""
        return dict(self._memoized("grids", lambda: {
            key: _grid_fingerprint(g) for key, g in self.grids.items()}))

    def structure_fingerprint(self) -> str:
        """Fingerprint of everything that is NOT grid values: region
        names/order/polygons/geoids and the sigma tables. A change here
        can move points between regions, so it invalidates ALL lineage
        (no per-shard attribution is possible)."""
        return self._memoized("structure", self._structure_fingerprint)

    def _structure_fingerprint(self) -> str:
        from vyperdatum_ray.core.geometry import polygon_to_wkb

        h = hashlib.md5()
        for r in self.regions:
            h.update(f"{r.ord}|{r.name}|{r.geoid_name}|{r.geoid_frame}|".encode())
            h.update(polygon_to_wkb(r.polygon.vertices))
        h.update(json.dumps(self.sigmas, sort_keys=True).encode())
        h.update(json.dumps(self.geoid_sigmas, sort_keys=True).encode())
        return h.hexdigest()[:16]

    def content_key(self) -> str:
        """Identity of everything a transform reads: the version plus
        the structure and per-grid fingerprints lineage trusts. The
        version alone is not enough — ``register_external_region`` only
        suffixes it, and same-version catalogs with swapped grids are
        legal values. Hashed once per instance."""
        return self._memoized("content", self._content_key)

    def _content_key(self) -> str:
        h = hashlib.md5(self.structure_fingerprint().encode())
        h.update(json.dumps(self.grid_fingerprints(), sort_keys=True).encode())
        return f"{self.version}:{h.hexdigest()[:16]}"

    def regions_for_bounds(self, x_min, y_min, x_max, y_max) -> list[str]:
        """Region candidate discovery for a data extent — semantics of the
        reference's ``set_region_by_bounds`` (core.py:86-158): rectangle
        vs region polygon intersection, catalog order preserved."""
        out = []
        for r in self.regions:
            if r.polygon.intersects_bbox(x_min, y_min, x_max, y_max):
                out.append(r.name)
        return out

    @classmethod
    def from_dir(cls, path: str) -> "Catalog":
        rc = pq.read_table(os.path.join(path, "region_catalog.parquet"))
        regions = []
        for row in rc.sort_by("region_ord").to_pylist():
            regions.append(
                RegionInfo(
                    name=row["region"],
                    ord=int(row["region_ord"]),
                    geoid_name=row["geoid_name"],
                    geoid_frame=row["geoid_frame"],
                    polygon=polygon_from_wkb(row["polygon_wkb"]),
                )
            )

        meta = pq.read_table(os.path.join(path, "grid_meta.parquet")).to_pylist()
        vals = pq.read_table(os.path.join(path, "grid_values.parquet"))
        ix = np.asarray(vals["ix"])
        iy = np.asarray(vals["iy"])
        v = np.asarray(vals["v"])
        # Each grid's value rows, in file order, from one stable sort of
        # the dictionary-encoded keys (not one full key compare per grid).
        keys = pc.dictionary_encode(vals["grid_key"].combine_chunks())
        codes = keys.indices.to_numpy()
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes, minlength=len(keys.dictionary)))
        rows = dict(zip(keys.dictionary.to_pylist(), np.split(order, ends[:-1])))
        grids: dict[str, SeparationGrid] = {}
        for m in meta:
            sel = rows.get(m["grid_key"], order[:0])
            grids[m["grid_key"]] = grid_from_long(
                m["origin_x"], m["origin_y"], m["dx"], m["dy"],
                int(m["nx"]), int(m["ny"]), ix[sel], iy[sel], v[sel],
            )

        sig = pq.read_table(os.path.join(path, "sigma.parquet")).to_pylist()
        sigmas = {
            row["region"]: {k: float(val) for k, val in row.items() if k != "region"}
            for row in sig
        }
        gsig = pq.read_table(os.path.join(path, "sigma_geoid.parquet")).to_pylist()
        geoid_sigmas = {row["geoid_name"]: float(row["sigma"]) for row in gsig}

        version = fingerprint_dir(
            path,
            [
                "region_catalog.parquet",
                "region_edges.parquet",
                "grid_meta.parquet",
                "grid_values.parquet",
                "sigma.parquet",
                "sigma_geoid.parquet",
            ],
        )
        return cls(regions=regions, grids=grids, sigmas=sigmas,
                   geoid_sigmas=geoid_sigmas, version=version)


def _grid_fingerprint(g: SeparationGrid) -> str:
    h = hashlib.md5()
    h.update(np.array([g.origin_x, g.origin_y, g.dx, g.dy], dtype=np.float64).tobytes())
    # shape participates: a byte-identical values buffer under a
    # different (ny, nx) interpolates differently and must not
    # fingerprint as the same grid
    h.update(np.array(g.values.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(g.values))  # no bytes copy
    return h.hexdigest()[:16]


def fingerprint_dir(path: str, names: list[str]) -> str:
    """MD5 fingerprint over the catalog files — the transform-version
    string recorded in lineage (reference hashes every grid + sigma file,
    core.py:1063-1147)."""
    h = hashlib.md5()
    for name in names:
        fp = os.path.join(path, name)
        if os.path.exists(fp):
            with open(fp, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
    return h.hexdigest()[:16]
