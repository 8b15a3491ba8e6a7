"""The winner-first datum transform against an all-pairs reference.

``DatumTransformer`` evaluates each row's last member region first and
falls back one member per round. ``_all_pairs`` below is the algorithm
it replaced: every (row, region) pair evaluated, then each row's last
pair with a finite z kept. The catalog is built so that every branch
of the overwrite rule is taken: overlapping regions whose last member
has a coverage hole (and a NaN notch) at the point, a row that needs
three rounds, points that a member region holds but no member grid
covers, a region with an unresolvable grid, and an ITRF-framed region
that wins at some points and loses at others."""

import numpy as np
import pyarrow as pa
import pytest

from vyperdatum_ray.catalog import Catalog, RegionInfo
from vyperdatum_ray.core.geometry import Polygon
from vyperdatum_ray.core.grid import SeparationGrid
from vyperdatum_ray.core.helmert import frame_hop
from vyperdatum_ray.stages.region_join import RegionJoiner, membership_words
from vyperdatum_ray.stages.transform import DatumTransformer

SURFACES = ("tss", "mllw", "mhw")


def _grid(x0, y0, x1, y1, seed, notch=None):
    """A 0.1-degree grid over [x0, x1] x [y0, y1]; ``notch`` = (x, y)
    puts a NaN node there."""
    nx, ny = int(round((x1 - x0) / 0.1)) + 1, int(round((y1 - y0) / 0.1)) + 1
    values = np.round(np.random.default_rng(seed).normal(0.0, 2.0, (ny, nx)), 3)
    if notch is not None:
        values[int(round((notch[1] - y0) / 0.1)), int(round((notch[0] - x0) / 0.1))] = np.nan
    return SeparationGrid(x0, y0, 0.1, 0.1, values)


def _square(x0, y0, x1, y1):
    return Polygon(np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]]))


# name, geoid frame, polygon, grid extent (None: the tss grid is
# missing), NaN notch. Later regions overwrite earlier ones.
REGIONS = [
    ("BASE", "NAD83(2011)", (-76.0, 34.0, -74.0, 36.0), (-76.0, 34.0, -74.0, 36.0), None),
    # ITRF-framed; its grids cover only its west half
    ("ITRF", "ITRF2014", (-75.6, 34.4, -74.4, 35.6), (-75.6, 34.4, -75.0, 35.6), None),
    # NaN notch at (-75.0, 35.0), on ITRF's coverage seam
    ("TOP", "NAD83(2011)", (-75.3, 34.7, -74.7, 35.3), (-75.3, 34.7, -74.7, 35.3), (-75.0, 35.0)),
    # unresolvable: its polygon holds everything, and it is never used
    ("NOGRID", "NAD83(2011)", (-77.0, 33.0, -73.0, 37.0), None, None),
    # holds points that no grid of its own covers
    ("FAR", "ITRF2008", (-73.9, 34.0, -73.5, 34.4), (-73.9, 34.3, -73.8, 34.4), None),
]

# point -> region index that must win
CASES = {
    (-75.90, 35.90): 0,   # BASE only
    (-75.40, 34.50): 1,   # BASE + ITRF, ITRF covers: ITRF wins
    (-74.50, 34.50): 0,   # ITRF's hole: falls back to BASE
    (-75.20, 34.80): 2,   # BASE + ITRF + TOP: TOP wins, ITRF loses
    (-75.06, 35.06): 1,   # TOP's notch, ITRF covers: falls back to ITRF
    (-74.95, 35.05): 0,   # TOP's notch and ITRF's hole: three rounds, BASE
    (-73.60, 34.10): -1,  # FAR holds it, no grid covers it
    (-73.85, 34.35): 4,   # FAR's own grid covers it
    (-72.00, 30.00): -1,  # outside every region
}

PARAMS = [
    {},
    # the output frame differs from the input and from some geoid frames
    dict(out_frame="ITRF2014", emit_xy=True, z_col="z_in"),
    dict(out_frame="ITRF2008", emit_xy=True, z_col="z_in", out_is_height=True),
    # depth input
    dict(from_datum="mllw", to_datum="ellipse", in_is_height=False,
         out_is_height=True, z_col="z_in"),
    dict(from_datum="navd88", to_datum="mhw", emit_xy=True, z_col="z_in"),
    dict(emit_xy=True),
]


@pytest.fixture(scope="module")
def catalog():
    grids = {"G": _grid(-77.0, 33.0, -73.0, 37.0, seed=1)}
    regions, sigmas = [], {}
    for k, (name, frame, poly, extent, notch) in enumerate(REGIONS):
        regions.append(RegionInfo(name=name, ord=k, geoid_name="G", geoid_frame=frame,
                                  polygon=_square(*poly)))
        for s, surface in enumerate(SURFACES):
            if extent is None and surface == "tss":
                continue
            grids[f"{name}/{surface}"] = _grid(*(extent or poly), seed=10 * k + s,
                                               notch=notch if surface == "tss" else None)
        sigmas[name] = {s: 0.01 * (k + 1) for s in ("tss", "mhhw", "mhw", "mlw",
                                                    "mllw", "dtl", "mtl")}
    return Catalog(regions=regions, grids=grids, sigmas=sigmas, geoid_sigmas={"G": 0.02})


@pytest.fixture(scope="module")
def batch(catalog):
    """The named cases, a dense lattice over every region, and NaN
    coordinates, joined to the catalog."""
    xs, ys = np.meshgrid(np.arange(-76.2, -73.2, 0.03), np.arange(33.8, 36.2, 0.03))
    lon = np.concatenate([[p[0] for p in CASES], np.round(xs.ravel(), 2), [np.nan, -75.0]])
    lat = np.concatenate([[p[1] for p in CASES], np.round(ys.ravel(), 2), [35.0, np.nan]])
    z = np.round(np.random.default_rng(2).normal(0.0, 5.0, len(lon)), 3)
    return RegionJoiner(catalog)(pa.table({
        "lon": pa.array(lon, pa.float64()), "lat": pa.array(lat, pa.float64()),
        "z_in": pa.array(z, pa.float64())}))


def _all_pairs(t, batch):
    """Every (row, region) pair evaluated with ``t``'s prepared state,
    row first, then region ascending; each row keeps its last pair with
    a finite z."""
    lon = batch.column("lon").to_numpy(zero_copy_only=False)
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    n = len(lon)
    if t.z_col is not None:
        z_in = batch.column(t.z_col).to_numpy(zero_copy_only=False).astype(np.float64)
    else:
        z_in = np.zeros(n, dtype=np.float64)
    if not t.in_is_height:
        z_in = z_in * -1.0

    words = np.stack(membership_words(batch), axis=1).astype("<u8")
    n_regions = len(t.region_steps)
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=n_regions, bitorder="little")
    bits &= np.array([st is not None for st in t.region_steps], dtype=np.uint8)
    pr, pg = np.divmod(np.flatnonzero(bits), n_regions)

    px, py, z = lon[pr], lat[pr], z_in[pr]
    hop = t.hop_code[pg]
    for code, f in enumerate(t.hop_frames):
        sel = np.nonzero(hop == code)[0]
        if len(sel):
            px[sel], py[sel], z[sel] = frame_hop(px[sel], py[sel], z[sel], f)
    with np.errstate(invalid="ignore"):
        for grid_id, sign in zip(t.step_grid, t.step_sign):
            z = z + sign[pg] * t.grids.interpolate(grid_id[pg], px, py)
    out_hop = None
    k = np.nonzero(t.out_corr[pg])[0]
    if len(k):
        out_hop = frame_hop(lon, lat, z_in, t.out_frame)
        z[k] = z[k] - (z_in[pr[k]] - out_hop[2][pr[k]])

    ok = np.nonzero(np.isfinite(z))[0]
    ok_rows = pr[ok]
    last = np.ones(len(ok), dtype=bool)
    last[:-1] = ok_rows[1:] != ok_rows[:-1]
    win, w = ok[last], ok_rows[last]
    ans_z = np.full(n, np.nan, dtype=np.float64)
    ans_unc = np.full(n, np.nan, dtype=np.float64)
    ans_region = np.full(n, -1, dtype=np.int8)
    ans_z[w] = t.flip * z[win]
    ans_unc[w] = t.unc[pg[win]]
    ans_region[w] = pg[win]
    ans_z = np.round(ans_z, 3)
    region_str = np.where(ans_region >= 0, t.region_names[np.maximum(ans_region, 0)], "")
    out = (batch.append_column(t.out_col, pa.array(ans_z, pa.float64()))
           .append_column("unc", pa.array(ans_unc, pa.float64()))
           .append_column("region_index", pa.array(ans_region, pa.int8()))
           .append_column("region", pa.array(region_str, pa.string())))
    if t.emit_xy:
        ans_x = np.full(n, np.nan, dtype=np.float64)
        ans_y = np.full(n, np.nan, dtype=np.float64)
        if t.out_frame == t.input_frame:
            ans_x[w], ans_y[w] = lon[w], lat[w]
        else:
            ans_x[w], ans_y[w] = px[win], py[win]
            far = w[t.out_corr[pg[win]]]
            if len(far):
                ans_x[far], ans_y[far] = out_hop[0][far], out_hop[1][far]
        out = (out.append_column("x_out", pa.array(ans_x, pa.float64()))
                  .append_column("y_out", pa.array(ans_y, pa.float64())))
    return out


def test_catalog_takes_every_branch(catalog, batch):
    t = DatumTransformer(catalog)
    assert t.region_steps[3] is None  # NOGRID is unresolvable
    assert t.region_frames[1] == "ITRF2014"
    got = t(batch).column("region_index").to_numpy()[:len(CASES)]
    assert got.tolist() == list(CASES.values())
    # rows whose last resolved member is not the winner: the fallback
    # rounds decide them
    pip = batch.column("pip_region_index").to_numpy()[:len(CASES)]
    assert (pip[got >= 0] != got[got >= 0]).sum() >= 3


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: ",".join(sorted(p)) or "default")
def test_winner_first_matches_all_pairs(catalog, batch, params):
    t = DatumTransformer(catalog, **params)
    got, want = t(batch), _all_pairs(t, batch)
    assert got.schema == want.schema
    for name in want.column_names:
        a = got.column(name).to_numpy(zero_copy_only=False)
        b = want.column(name).to_numpy(zero_copy_only=False)
        if a.dtype == object:
            assert a.tolist() == b.tolist(), name
        else:
            assert a.tobytes() == b.tobytes(), name
    region = got.column("region_index").to_numpy()
    assert (region == 1).any() and (region == 2).any() and (region == 0).any()
    assert (region == -1).any()
