"""Seeded input generation for the benchmark workloads.

Every workload's inputs are written as one fixture-shaped directory:
catalog tables, ``pages/part-NNNN.parquet`` shards and a
``_MANIFEST.json`` stamped with ``vyperdatum_ray.fixtures.FIXTURE_VERSION``
(read at run time, so ``ensure_fixtures`` accepts the directory and never
regenerates it). ``write_tpch`` adds TPC-H-shaped tables beside them. The same seed
gives byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from vyperdatum_ray import fixtures as F
from vyperdatum_ray.core.geometry import polygon_to_wkb

DATA_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         ".bench_data")

# Rows per workload at scale 1.0 (the smoke test runs a smaller scale).
SIZES = {
    "geo_sink": dict(shards=4, rows=6_000),
    "geo_text": dict(shards=6, rows=1_500),
    "geo_dense": dict(shards=6, rows=3_500),
}
WORKLOAD_TAG = {"geo_sink": 1, "geo_text": 2, "geo_dense": 3}
TPCH_TAG, TPCH_LINEITEM = 4, 30_000

# Source mix (none, url_query, url_path, text) per page population.
STANDARD_MIX = [0.40, 0.27, 0.18, 0.15]  # the repository fixture's mix
TEXT_MIX = [0.80, 0.03, 0.02, 0.15]      # low geocodable share, text-led

_WORDS = ("tidal datum survey chart sounding shoreline vessel harbor "
          "bathymetry benchmark gauge record station channel depth water "
          "level archive coastal marine notes estuary inlet buoy current "
          "sediment dredging navigation report season crew").split()


def use_bench_data_root() -> None:
    """Resolve fixture directories under ``DATA_ROOT``, so that
    ``fixture_dir(sf)`` is ``sf`` itself for a directory made here. Only
    the driver resolves fixture directories: the engine hands its Ray
    tasks and actors file paths, never an sf name."""
    F.DATA_ROOT = DATA_ROOT


def generate(workload: str, seed: int, out_dir: str, scale: float = 1.0) -> dict:
    """Write the workload's inputs under ``out_dir``; return the manifest."""
    size = SIZES[workload]
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_TAG[workload]]))
    os.makedirs(out_dir, exist_ok=True)
    rows = max(50, int(size["rows"] * scale))
    if workload == "geo_dense":
        _write_dense_catalog(out_dir, rng)
    else:
        F._write_catalog(out_dir)  # the fixed four-region fixture catalog
    paths = []
    for s in range(size["shards"]):
        if workload == "geo_text":
            table = _text_pages(rng, rows, s * rows)
        elif workload == "geo_dense":
            table = _dense_pages(rng, rows, s * rows)
        else:
            table = _standard_pages(rng, rows, s * rows)
        paths.append(_write_shard(out_dir, s, table))
    manifest = {
        "fixture_version": F.FIXTURE_VERSION,
        "sf_name": os.path.basename(os.path.normpath(out_dir)),
        "n_pages": rows * size["shards"],
        "dir": out_dir,
        "pages": paths,
        "catalog_dir": out_dir,
        "seed": seed,
    }
    with open(os.path.join(out_dir, "_MANIFEST.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    return manifest


def _write_shard(out_dir: str, s: int, table: pa.Table) -> str:
    pages_dir = os.path.join(out_dir, "pages")
    os.makedirs(pages_dir, exist_ok=True)
    path = os.path.join(pages_dir, f"part-{s:04d}.parquet")
    pq.write_table(table, path)
    return path


def _pages_table(url, text, first_idx: int) -> pa.Table:
    n = len(url)
    idx = np.arange(first_idx, first_idx + n, dtype=np.int64)
    ts = (np.int64(1704067200_000_000) + idx * 1_000_000).view("datetime64[us]")
    langs = np.array(["en", "es", "de", "fr"], dtype=object)[idx % 4]
    html = [f"<html><body><h1>doc {i}</h1></body></html>".encode() for i in idx]
    return pa.table({
        "url": pa.array(url, pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array(html, pa.binary()),
        "text": pa.array(text, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })


def _first_line(i: int, src: int, lat: float, lon: float, host: int) -> tuple[str, str]:
    """(url, first text line) in the fixture's three geocodable shapes."""
    if src == 1:
        return (f"https://host{host}.example/p/{i}?lat={lat:.5f}&lon={lon:.5f}",
                f"Document {i} concerning shoreline change.")
    if src == 2:
        return (f"https://host{host}.example/map/@{lat:.5f},{lon:.5f}/view",
                f"Document {i} concerning shoreline change.")
    if src == 3:
        return (f"https://host{host}.example/p/{i}",
                f"Site survey at {lat:.5f} N, {abs(lon):.5f} W for record {i}.")
    return (f"https://host{host}.example/p/{i}",
            f"Document {i} without coordinates.")


def _standard_pages(rng: np.random.Generator, n: int, first: int) -> pa.Table:
    """Fixture-like mix: ~60% geocodable, hot coastal clusters, the
    NaN-notch cluster and a band outside every region."""
    src = rng.choice(4, size=n, p=STANDARD_MIX)
    lon, lat = F._sample_coords(rng, n)
    host = rng.integers(0, 97, n)
    url, text = [], []
    for k in range(n):
        u, line = _first_line(first + k, src[k], lat[k], lon[k], host[k])
        url.append(u)
        text.append(line + "\nAll rights reserved.")
    return _pages_table(url, text, first)


def _text_pages(rng: np.random.Generator, n: int, first: int) -> pa.Table:
    """Multi-KB bodies with a low, mostly text-sourced geocodable share."""
    src = rng.choice(4, size=n, p=TEXT_MIX)
    lon, lat = F._sample_coords(rng, n)
    host = rng.integers(0, 97, n)
    words = np.array(_WORDS, dtype=object)
    # a pool of body lines; each page joins ~40 of them (~3 KB)
    pool = [" ".join(words[rng.integers(0, len(words), 12)]).capitalize() + "."
            for _ in range(256)]
    picks = rng.integers(0, len(pool), (n, 40))
    url, text = [], []
    for k in range(n):
        u, line = _first_line(first + k, src[k], lat[k], lon[k], host[k])
        url.append(u)
        text.append("\n".join([line] + [pool[j] for j in picks[k]]))
    return _pages_table(url, text, first)


# Dense catalog: 8 x 6 overlapping convex hexagons over the fixture
# area, one framed in ITRF2014, one with a no-data notch in its tss grid.
DENSE_COLS, DENSE_ROWS = 8, 6
DENSE_GRID_N = 24
DENSE_EXTENT = (-76.6, 33.4, -72.4, 37.6)


def _dense_specs(rng: np.random.Generator) -> list[tuple]:
    x0, y0, x1, y1 = DENSE_EXTENT
    sx = (x1 - x0) / DENSE_COLS
    sy = (y1 - y0) / DENSE_ROWS
    specs = []
    for r in range(DENSE_ROWS):
        for c in range(DENSE_COLS):
            k = r * DENSE_COLS + c
            cx = x0 + (c + 0.5) * sx + rng.uniform(-0.1, 0.1) * sx
            cy = y0 + (r + 0.5) * sy + rng.uniform(-0.1, 0.1) * sy
            radius = rng.uniform(0.55, 0.85)
            itrf = k == DENSE_COLS * DENSE_ROWS // 2
            specs.append((f"DNS{k:02d}_8301", round(cx, 4), round(cy, 4),
                          round(radius, 4),
                          "sxgeoid17b" if itrf else "sgeoid12x",
                          "ITRF2014" if itrf else "NAD83(2011)"))
    return specs


def _write_dense_catalog(out_dir: str, rng: np.random.Generator) -> None:
    specs = _dense_specs(rng)
    notch_region = specs[DENSE_COLS + 2][0]
    cat_rows, edge_rows, meta_rows, sigma_rows = [], [], [], []
    keys, ixs, iys, vals = [], [], [], []

    def add_grid(key, x0, y0, x1, y1, n, coeffs, cx, cy, notch=None):
        dx, dy = (x1 - x0) / (n - 1), (y1 - y0) / (n - 1)
        xs, ys = x0 + dx * np.arange(n), y0 + dy * np.arange(n)
        v = F._grid_field(xs, ys, coeffs, cx, cy)
        if notch is not None:
            X, Y = np.meshgrid(xs, ys)
            v = np.where((X - notch[0]) ** 2 + (Y - notch[1]) ** 2 <= notch[2] ** 2,
                         np.nan, v)
        meta_rows.append(dict(grid_key=key, origin_x=x0, origin_y=y0, dx=dx, dy=dy,
                              nx=n, ny=n))
        iy, ix = np.nonzero(~np.isnan(v))
        keys.extend([key] * len(ix))
        ixs.append(ix.astype(np.int32))
        iys.append(iy.astype(np.int32))
        vals.append(v[iy, ix])

    for ordinal, (name, cx, cy, r, geoid, frame) in enumerate(specs):
        verts = F.hexagon(cx, cy, r)
        cat_rows.append(dict(region=name, region_ord=ordinal, geoid_name=geoid,
                             geoid_frame=frame,
                             min_x=verts[:, 0].min(), min_y=verts[:, 1].min(),
                             max_x=verts[:, 0].max(), max_y=verts[:, 1].max(),
                             polygon_wkb=polygon_to_wkb(verts)))
        closed = np.vstack([verts, verts[:1]])
        for e in range(6):
            (px0, py0), (px1, py1) = closed[e], closed[e + 1]
            ax, ay = py1 - py0, -(px1 - px0)
            edge_rows.append(dict(region=name, region_ord=ordinal, edge_ord=e,
                                  ax=ax, ay=ay, b=ax * px0 + ay * py0))
        gx0, gy0 = verts[:, 0].min() - F.GRID_MARGIN, verts[:, 1].min() - F.GRID_MARGIN
        gx1, gy1 = verts[:, 0].max() + F.GRID_MARGIN, verts[:, 1].max() + F.GRID_MARGIN
        for surface in F.SURFACES:
            notch = (cx, cy, 0.25 * r) if (name == notch_region and surface == "tss") else None
            add_grid(f"{name}/{surface}", gx0, gy0, gx1, gy1, DENSE_GRID_N,
                     F._grid_coeffs(rng, surface), cx, cy, notch)
        sig = rng.uniform(0.008, 0.035, len(F.SIGMA_COLS)).round(3)
        sigma_rows.append(dict(region=name, **dict(zip(F.SIGMA_COLS, sig.tolist()))))
    for geoid in sorted(F.GEOID_SIGMAS):
        a = F.AREA
        add_grid(geoid, a[0], a[1], a[2], a[3], F.GEOID_GRID_N,
                 F._grid_coeffs(rng, "geoid"), (a[0] + a[2]) / 2, (a[1] + a[3]) / 2)

    def put(rows_or_table, name):
        t = rows_or_table if isinstance(rows_or_table, pa.Table) else pa.Table.from_pylist(rows_or_table)
        pq.write_table(t, os.path.join(out_dir, name))

    put(cat_rows, "region_catalog.parquet")
    put(edge_rows, "region_edges.parquet")
    put(meta_rows, "grid_meta.parquet")
    put(pa.table({"grid_key": pa.array(keys, pa.string()), "ix": np.concatenate(ixs),
                  "iy": np.concatenate(iys), "v": np.concatenate(vals)}),
        "grid_values.parquet")
    put(sigma_rows, "sigma.parquet")
    put([dict(geoid_name=k, sigma=v) for k, v in sorted(F.GEOID_SIGMAS.items())],
        "sigma_geoid.parquet")


def _dense_pages(rng: np.random.Generator, n: int, first: int) -> pa.Table:
    """Every page geocodable from a short url; ~95% of points inside the
    dense catalog's extent, the rest in a band around it."""
    x0, y0, x1, y1 = DENSE_EXTENT
    inside = rng.random(n) < 0.95
    lon = np.where(inside, rng.uniform(x0, x1, n), rng.uniform(x0 - 0.6, x1 + 0.6, n))
    lat = np.where(inside, rng.uniform(y0, y1, n), rng.uniform(y0 - 0.6, y1 + 0.6, n))
    lon, lat = np.round(lon, 5), np.round(lat, 5)
    url = [f"https://h{(first + k) % 97}.example/?lat={lat[k]:.5f}&lon={lon[k]:.5f}&i={first + k}"
           for k in range(n)]
    text = [f"Sounding {first + k}." for k in range(n)]
    return _pages_table(url, text, first)


def write_tpch(out_dir: str, seed: int, scale: float = 1.0) -> None:
    """TPC-H-shaped tables with the schema and value domains of the
    repository's test data (the relational queries and their oracles
    read ``<dir>/<table>.parquet``)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, TPCH_TAG]))
    n_line = max(500, int(TPCH_LINEITEM * scale))
    n_ord = max(100, n_line // 4)
    n_cust = max(20, n_ord // 10)
    n_part = max(20, n_line // 30)
    n_supp = max(10, n_line // 600)

    def dates(lo: str, days: int, n: int) -> pa.Array:
        base = np.datetime64(lo, "us")
        return pa.array(base + rng.integers(0, days, n).astype("timedelta64[D]"),
                        pa.timestamp("us"))

    def money(lo: float, hi: float, n: int) -> np.ndarray:
        return np.round(rng.uniform(lo, hi, n), 2)

    def put(name: str, cols: dict) -> None:
        pq.write_table(pa.table(cols), os.path.join(out_dir, f"{name}.parquet"))

    regions = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
    put("region", {"r_regionkey": pa.array(np.arange(5), pa.int32()),
                   "r_name": pa.array(regions)})
    put("nation", {"n_nationkey": pa.array(np.arange(25), pa.int32()),
                   "n_name": pa.array([f"NATION_{i}" for i in range(25)]),
                   "n_regionkey": pa.array(np.arange(25) % 5, pa.int32())})
    put("customer", {
        "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_cust)]),
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
        "c_acctbal": pa.array(money(-999.0, 9999.0, n_cust)),
        "c_mktsegment": pa.array(rng.choice(
            ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"], n_cust)),
    })
    put("supplier", {
        "s_suppkey": pa.array(np.arange(n_supp), pa.int64()),
        "s_name": pa.array([f"Supplier#{i:09d}" for i in range(n_supp)]),
        "s_nationkey": pa.array(rng.integers(0, 25, n_supp), pa.int32()),
        "s_acctbal": pa.array(money(-999.0, 9999.0, n_supp)),
    })
    put("part", {
        "p_partkey": pa.array(np.arange(n_part), pa.int64()),
        "p_name": pa.array(rng.choice(["large ring", "hot bolt", "blue ring",
                                       "odd rod", "big widget"], n_part)),
        "p_brand": pa.array([f"Brand#{b}" for b in rng.integers(1, 26, n_part)]),
        "p_type": pa.array(rng.choice(["ECONOMY", "LARGE", "MEDIUM", "PROMO",
                                       "SMALL", "STANDARD"], n_part)),
        "p_size": pa.array(rng.integers(1, 51, n_part), pa.int32()),
        "p_retailprice": pa.array(np.round(900.0 + np.arange(n_part) * 0.1, 2)),
    })
    put("orders", {
        "o_orderkey": pa.array(np.arange(n_ord), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_ord), pa.int64()),
        "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], n_ord)),
        "o_totalprice": pa.array(money(900.0, 400000.0, n_ord)),
        "o_orderdate": dates("1995-01-01", 2404, n_ord),
        "o_orderpriority": pa.array(rng.choice(
            ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"], n_ord)),
    })
    put("lineitem", {
        "l_orderkey": pa.array(rng.integers(0, n_ord, n_line), pa.int64()),
        "l_partkey": pa.array(rng.integers(0, n_part, n_line), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, n_supp, n_line), pa.int64()),
        "l_linenumber": pa.array(rng.integers(1, 8, n_line), pa.int32()),
        "l_quantity": pa.array(rng.integers(1, 51, n_line).astype(np.float64)),
        "l_extendedprice": pa.array(money(900.0, 105000.0, n_line)),
        "l_discount": pa.array(rng.integers(0, 11, n_line) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, n_line) / 100.0),
        "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n_line)),
        "l_linestatus": pa.array(rng.choice(["F", "O"], n_line)),
        "l_shipdate": dates("1995-01-02", 2498, n_line),
    })
