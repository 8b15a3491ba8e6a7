"""Property-based tests (hypothesis) for the pure core math: bilinear
interpolation bounds/exactness, pipeline-algebra involutions, cell-id
determinism and containment, and the vectorized region join and datum
transform against the per-region loops they replaced."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from vyperdatum_ray.core.grid import SeparationGrid
from vyperdatum_ray.core.pipeline_algebra import (
    DATUM_DEFINITION,
    get_regional_pipeline,
    inverse_datum_def,
    parse_pipeline,
)

coords = st.floats(-179.0, 179.0, allow_nan=False)
lats = st.floats(-89.0, 89.0, allow_nan=False)


def _grid(vals_seed: int) -> SeparationGrid:
    rng = np.random.default_rng(vals_seed)
    return SeparationGrid(
        origin_x=-76.0, origin_y=34.0, dx=0.1, dy=0.1,
        values=rng.normal(0, 1, (21, 21)),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10), st.floats(-76.0, -74.0), st.floats(34.0, 36.0))
def test_bilinear_within_cell_bounds(seed, lon, lat):
    """An interpolated value lies within [min, max] of its 2x2 corner
    nodes (convex combination), or is +inf outside coverage."""
    g = _grid(seed)
    v = g.interpolate(np.array([lon]), np.array([lat]))[0]
    gx = (lon - g.origin_x) / g.dx
    gy = (lat - g.origin_y) / g.dy
    if not (0 <= gx <= g.nx - 1 and 0 <= gy <= g.ny - 1):
        assert np.isinf(v)
        return
    ix0 = int(np.clip(np.floor(gx), 0, g.nx - 2))
    iy0 = int(np.clip(np.floor(gy), 0, g.ny - 2))
    corners = g.values[iy0:iy0 + 2, ix0:ix0 + 2]
    assert corners.min() - 1e-12 <= v <= corners.max() + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.integers(0, 20), st.integers(0, 20))
def test_bilinear_exact_at_nodes(seed, ix, iy):
    g = _grid(seed)
    x, y = g.node_xy(np.array([ix]), np.array([iy]))
    v = g.interpolate(x, y)[0]
    # (origin + i*d - origin)/d is not exactly i in floats; the engine
    # and the SQL oracle share the identical expression, so parity is
    # exact even though node recovery is only ~1e-15-exact
    np.testing.assert_allclose(v, g.values[iy, ix], rtol=0, atol=3e-12)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(DATUM_DEFINITION)))
def test_double_inverse_is_identity(datum):
    d = DATUM_DEFINITION[datum]
    assert inverse_datum_def(inverse_datum_def(d)) == d


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(set(DATUM_DEFINITION) - {"noaa chart datum", "noaa chart height"})),
    st.sampled_from(sorted(set(DATUM_DEFINITION) - {"noaa chart datum", "noaa chart height"})),
)
def test_pipeline_signs_cancel_on_round_trip(a, b):
    """Composing a->b then b->a yields steps whose per-grid signed
    counts sum to zero (the algebraic inverse property behind the
    numeric round-trip test)."""
    p_ab = get_regional_pipeline(a, b, "R", "G")
    p_ba = get_regional_pipeline(b, a, "R", "G")
    totals: dict[str, float] = {}
    for p in (p_ab, p_ba):
        for s in parse_pipeline(p):
            totals[s.grid_key] = totals.get(s.grid_key, 0.0) + s.sign
    assert all(v == 0.0 for v in totals.values()), totals


@settings(max_examples=200, deadline=None)
@given(coords, lats)
def test_cell_ids_deterministic_and_tile_consistent(lon, lat):
    from vyperdatum_ray.core.cells import hex_cell_id, s2_cell_id, tile_id

    a1 = s2_cell_id(np.array([lon]), np.array([lat]), 13)[0]
    a2 = s2_cell_id(np.array([lon]), np.array([lat]), 13)[0]
    assert a1 == a2
    h1 = hex_cell_id(np.array([lon]), np.array([lat]), 9)[0]
    h2 = hex_cell_id(np.array([lon]), np.array([lat]), 9)[0]
    assert h1 == h2
    t = tile_id(np.array([lon]), np.array([lat]))[0]
    # tile id encodes floor-binned lat/lon consistently
    assert t == int(np.floor((lat + 90.0) / 0.25)) * 4096 + int(np.floor((lon + 180.0) / 0.25))


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 2**31 - 1),
    shift=st.integers(-25, 25),
)
def test_dhash_brightness_invariance_and_hamming_axioms(seed, shift):
    """dHash compares neighboring cells, so any uniform brightness
    shift that doesn't clip leaves the hash EXACTLY unchanged; and the
    vectorized popcount distance satisfies the metric axioms it's used
    under (identity, symmetry)."""
    from vyperdatum_ray.pipelines.multimodal import dhash64, hamming64

    rng = np.random.default_rng(seed)
    img = rng.integers(30, 221, size=(24, 32, 3)).astype(np.uint8)
    h0 = dhash64(img)
    shifted = (img.astype(np.int64) + shift).astype(np.uint8)  # no clip in [5,245]
    assert dhash64(shifted) == h0
    other = dhash64(rng.integers(0, 256, size=(24, 32, 3)).astype(np.uint8))
    a = np.array([h0, h0, other], dtype=np.uint64)
    b = np.array([h0, other, h0], dtype=np.uint64)
    d = hamming64(a, b)
    assert d[0] == 0
    assert d[1] == d[2] <= 64


# Geocoder inputs: pattern-shaped pieces whose numbers may be near
# misses (integers, bare or signed fractions, empty, digit runs of 20 or
# more, a fullwidth digit), mixed with the patterns' literal fragments,
# repeated fragments, fragments cut short (so that a pattern may span
# two rows of the value buffer), multi-byte characters, words and NULL.
_digits = st.builds("{}{}".format, st.sampled_from(["", "0"]), st.integers(10**19, 10**40))
_num = st.one_of(
    st.builds("{}.{}".format, st.integers(0, 999), st.integers(0, 99999)),
    st.builds("-{}.{}".format, st.integers(0, 999), st.integers(0, 99999)),
    st.builds("{}{}.{}".format, st.sampled_from(["", "-"]), _digits, _digits),
    st.integers(-99, 99).map(str),
    st.sampled_from(["", ".5", "7.", "-", "\uff11.5", "1.\uff15", "--1.5", "1.2.3"]),
)
_geo_piece = st.one_of(
    st.sampled_from(["lat=", "&lon=", "?", "/@", ",", " N, ", " S, ", " E", " W",
                     "0", "42", ".", "-", "harbor ", "site", " ", "\n", "\u00e9",
                     "\uff11", "\u00a0", "lat=lat=", "/@/@", "1.2.3", "--1.5",
                     " N, N, ", "?lat", "/", "@", " N", ", "]),
    _num,
    st.builds("{}lat={}&lon={}".format, st.sampled_from(["?", "&", "/", ""]), _num, _num),
    st.builds("/@{},{}".format, _num, _num),
    st.builds("{}{}{}, {} {}".format, _num, st.sampled_from([" ", "\u00a0"]),
              st.sampled_from("NSE"), _num, st.sampled_from("EWS")),
)
_geo_cell = st.one_of(st.none(), st.lists(_geo_piece, max_size=8).map("".join))


def _geocode_without_prefilter(url, text):
    """Reference geocoder: extract_regex over EVERY row of each source,
    first match in the fixed precedence url_query > url_path > text."""
    import pyarrow.compute as pc

    from vyperdatum_ray.core.geocode import (_TEXT_NAMED, _URL_PATH_NAMED,
                                             _URL_QUERY_NAMED)

    n = len(url)
    lat, lon, src = np.full(n, np.nan), np.full(n, np.nan), [None] * n
    for col, pattern, name in ((url, _URL_QUERY_NAMED, "url_query"),
                               (url, _URL_PATH_NAMED, "url_path"),
                               (text, _TEXT_NAMED, "text")):
        for i, m in enumerate(pc.extract_regex(col, pattern).to_pylist()):
            if m is None or src[i] is not None:
                continue
            la, lo = float(m["lat"]), float(m["lon"])
            if name == "text":
                la = -la if m["ns"] == "S" else la
                lo = -lo if m["ew"] == "W" else lo
            lat[i], lon[i], src[i] = la, lo, name
    return lat, lon, src


def _layouts(cells, cut):
    """One column's values in every Arrow layout the geocoder reads in
    place or must see through: plain ``string``, ``large_string``, a
    slice of a longer array, a multi-chunk ``ChunkedArray`` (one empty
    chunk) and a ``from_buffers`` array whose NULL slots span bytes that
    would geocode."""
    import pyarrow as pa

    plain = pa.array(cells, pa.string())
    pad = ["?lat=1.5&lon=2.5 /@3.5,4.5 5.5 N, 6.5 E"]
    spanning = pa.array([pad[0] if c is None else c for c in cells], pa.string())
    valid = np.array([c is not None for c in cells])
    bitmap = pa.py_buffer(np.packbits(valid, bitorder="little"))
    return [
        plain,
        pa.array(cells, pa.large_string()),
        pa.array(pad + cells + pad, pa.string()).slice(1, len(cells)),
        pa.array(pad * 2 + cells, pa.large_string()).slice(2),
        pa.chunked_array([plain.slice(0, cut), pa.array([], pa.string()), plain.slice(cut)]),
        pa.StringArray.from_buffers(len(cells), spanning.buffers()[1], spanning.buffers()[2],
                                    bitmap, int((~valid).sum())),
    ]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(_geo_cell, _geo_cell), min_size=1, max_size=24), st.integers(0, 24))
def test_geocode_prefilter_is_lossless(rows, cut):
    """The byte scanner's anchor prefilter never drops a row the full
    patterns would geocode, and a candidate the patterns reject falls
    through: in every layout, geocode_arrays equals the prefilter-free
    regex reference bit for bit."""
    import pyarrow as pa

    from vyperdatum_ray.core.geocode import geocode_arrays

    urls, texts = [u for u, _ in rows], [t for _, t in rows]
    rlat, rlon, rsrc = _geocode_without_prefilter(pa.array(urls, pa.string()),
                                                  pa.array(texts, pa.string()))
    cut = min(cut, len(rows))
    for url, text in zip(_layouts(urls, cut), _layouts(texts, len(rows) - cut)):
        lat, lon, src = geocode_arrays(url, text)
        assert lat.tobytes() == rlat.tobytes()
        assert lon.tobytes() == rlon.tobytes()
        assert src.to_pylist() == rsrc


def test_geocode_long_digit_runs():
    """Digit runs of 10^5 bytes at every number of all three patterns, on
    both sides of the text leg's comma: the scanner equals the regex
    reference, and its windowed walks stay far below the 10^5 numpy
    passes (seconds) that a byte-at-a-time walk would take."""
    import time

    import pyarrow as pa

    from vyperdatum_ray.core.geocode import geocode_arrays

    d = "7" * 100_000
    url = pa.array([f"http://x/?lat={d}.{d}&lon=-{d}.5", f"http://x/@{d}.1,2.{d}",
                    f"http://x/?lat={d}", f"http://x/?lat=1.{d}5&lon=", None])
    text = pa.array(["", "", f"at {d}.{d} N, 1.{d} W and 3.5 N, ", f"{d} N, {d}.5 E",
                     f"{d}.{d} S, {d}.{d} E"])
    t0 = time.process_time()
    lat, lon, src = geocode_arrays(url, text)
    assert time.process_time() - t0 < 2.0
    rlat, rlon, rsrc = _geocode_without_prefilter(url, text)
    assert lat.tobytes() == rlat.tobytes() and lon.tobytes() == rlon.tobytes()
    assert src.to_pylist() == rsrc == ["url_query", "url_path", "text", None, "text"]


# ------------------------------------------------ region join + transform
# The vectorized RegionJoiner / DatumTransformer against the per-region
# loops they replaced, bit for bit, on random catalogs.

_TRANSFORM_PARAMS = [
    {},
    # output frame differs from the input (and from some geoid frames)
    dict(out_frame="ITRF2014", emit_xy=True, z_col="z_in"),
    dict(out_frame="ITRF2008", emit_xy=True, z_col="z_in", out_is_height=True),
    dict(from_datum="mllw", to_datum="ellipse", in_is_height=False,
         out_is_height=True, z_col="z_in"),
    dict(from_datum="navd88", to_datum="mhw", emit_xy=True, z_col="z_in"),
]


def _random_grid(rng, x0, y0, x1, y1):
    nx, ny = int(rng.integers(2, 8)), int(rng.integers(2, 8))
    dx, dy = (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1)
    values = np.round(rng.normal(0.0, 2.0, (ny, nx)), 3)
    if rng.random() < 0.4:  # a NaN notch: nodata nodes
        values[rng.integers(0, ny), rng.integers(0, nx)] = np.nan
    return SeparationGrid(x0, y0, dx, dy, values)


def _random_catalog(rng, n_regions: int):
    """Overlapping star-shaped (mostly concave) regions with 3-11
    vertices on a 0.01-degree lattice, a few geoid frames, per-region
    grids that cover part of each region (some NaN-notched, some stored
    under the ``.tif`` fallback key, now and then one missing so its
    region is skipped) and two geoids."""
    from vyperdatum_ray.catalog import Catalog, RegionInfo
    from vyperdatum_ray.core.geometry import Polygon

    grids = {g: _random_grid(rng, -76.6, 33.6, float(rng.uniform(-74.2, -73.4)), 36.4)
             for g in ("g0", "g1")}
    regions, sigmas = [], {}
    for i in range(n_regions):
        cx, cy = rng.uniform(-76.0, -74.0), rng.uniform(34.0, 36.0)
        k = int(rng.integers(3, 12))
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        rad = rng.uniform(0.1, 0.7, k)
        verts = np.round(np.stack([cx + rad * np.cos(ang), cy + rad * np.sin(ang)], 1), 2)
        name = f"R{i}"
        poly = Polygon(verts)
        regions.append(RegionInfo(
            name=name, ord=i, geoid_name=str(rng.choice(["g0", "g1"])),
            geoid_frame=str(rng.choice(["NAD83(2011)", "NAD83(2011)", "ITRF2014", "ITRF2008"])),
            polygon=poly))
        for surface in ("tss", "mllw", "mhw"):
            if rng.random() < 0.04:
                continue  # unresolvable grid: the region is skipped
            x0, y0, x1, y1 = np.round(np.array(poly.bounds) + rng.uniform(-0.2, 0.2, 4), 2)
            key = f"{name}/{surface}" + (".tif" if rng.random() < 0.1 else "")
            grids[key] = _random_grid(rng, x0, y0, max(x1, x0 + 0.05), max(y1, y0 + 0.05))
        sigmas[name] = {s: float(np.round(rng.uniform(0, 0.05), 3))
                        for s in ("tss", "mhhw", "mhw", "mlw", "mllw", "dtl", "mtl")}
    return Catalog(regions=regions, grids=grids, sigmas=sigmas,
                   geoid_sigmas={"g0": 0.015, "g1": 0.021})


def _random_points(rng, catalog, n_random: int, specials: bool):
    """Random points on the polygons' lattice plus, with ``specials``,
    points exactly on polygon vertices and bbox edges, on grid extents
    and node lines, and non-finite coordinates."""
    xs = list(np.round(rng.uniform(-76.8, -73.2, n_random), 2))
    ys = list(np.round(rng.uniform(33.2, 36.8, n_random), 2))
    if specials:
        for r in catalog.regions:
            p = r.polygon
            v = p.vertices[rng.integers(0, len(p.vertices))]
            my = np.round((p.min_y + p.max_y) / 2, 2)
            mx = np.round((p.min_x + p.max_x) / 2, 2)
            xs += [v[0], p.min_x, p.max_x, mx, mx]
            ys += [v[1], my, my, p.min_y, p.max_y]
        for g in catalog.grids.values():
            xs += [g.origin_x, g.origin_x + (g.nx - 1) * g.dx, g.origin_x + g.dx]
            ys += [g.origin_y, g.origin_y + (g.ny - 1) * g.dy, g.origin_y + 2 * g.dy]
        xs += [np.nan, -75.0, np.inf]
        ys += [35.0, np.nan, 35.0]
    return np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)


def _reference_join(catalog, batch):
    """The per-region RegionJoiner loop (without the batch-wide bbox
    prune that blanked a whole batch holding a NaN coordinate)."""
    import pyarrow as pa

    from vyperdatum_ray.stages.region_join import mask_column_names

    x = batch.column("lon").to_numpy(zero_copy_only=False)
    y = batch.column("lat").to_numpy(zero_copy_only=False)
    memb = np.zeros((len(x), len(catalog.regions)), dtype=bool)
    for gi, r in enumerate(catalog.regions):
        g = r.polygon
        cand = (x >= g.min_x) & (x <= g.max_x) & (y >= g.min_y) & (y <= g.max_y)
        if cand.any():
            idx = np.nonzero(cand)[0]
            memb[idx, gi] = g.contains(x[idx], y[idx])
    n_words = max(1, -(-memb.shape[1] // 64))
    mask = np.zeros((n_words, len(x)), dtype=np.uint64)
    pip_idx = np.full(len(x), -1, dtype=np.int8)
    for i in range(memb.shape[1]):
        col = memb[:, i]
        mask[i >> 6] |= col.astype(np.uint64) << np.uint64(i & 63)
        pip_idx[col] = i  # later catalog order overwrites
    out = batch
    for w, name in enumerate(mask_column_names(memb.shape[1])):
        out = out.append_column(name, pa.array(mask[w], pa.uint64()))
    return out.append_column("pip_region_index", pa.array(pip_idx, pa.int8()))


def _reference_transform(t, batch):
    """The per-region DatumTransformer loop over ``t``'s per-region
    state: every member region in catalog order, later finite results
    overwriting earlier ones."""
    import pyarrow as pa

    from vyperdatum_ray.core.helmert import frame_hop
    from vyperdatum_ray.stages.region_join import membership_words

    lon = batch.column("lon").to_numpy(zero_copy_only=False)
    lat = batch.column("lat").to_numpy(zero_copy_only=False)
    mask_words = membership_words(batch)
    n = len(lon)
    if t.z_col is not None:
        z_in = batch.column(t.z_col).to_numpy(zero_copy_only=False).astype(np.float64)
    else:
        z_in = np.zeros(n, dtype=np.float64)
    if not t.in_is_height:
        z_in = z_in * -1.0
    ans_z = np.full(n, np.nan, dtype=np.float64)
    ans_unc = np.full(n, np.nan, dtype=np.float64)
    ans_region = np.full(n, -1, dtype=np.int8)
    ans_x = np.full(n, np.nan, dtype=np.float64)
    ans_y = np.full(n, np.nan, dtype=np.float64)
    out_hop = None
    for i, steps in enumerate(t.region_steps):
        if steps is None:
            continue
        member = (mask_words[i >> 6] >> np.uint64(i & 63)) & np.uint64(1) == 1
        if not member.any():
            continue
        idx = np.nonzero(member)[0]
        gframe = t.region_frames[i]
        if gframe != t.input_frame:
            rlon, rlat, z = frame_hop(lon[idx], lat[idx], z_in[idx], gframe)
        else:
            rlon, rlat = lon[idx], lat[idx]
            z = z_in[idx].copy()
        for grid, sign in steps:
            z = z + sign * grid.interpolate(rlon, rlat)
        if t.out_frame != t.input_frame and t.out_frame != gframe:
            if out_hop is None:
                out_hop = frame_hop(lon, lat, z_in, t.out_frame)
            z = z - (z_in[idx] - out_hop[2][idx])
        valid = np.isfinite(z)
        w = idx[valid]
        ans_z[w] = t.flip * z[valid]
        ans_unc[w] = t.region_unc[i]
        ans_region[w] = i
        if t.out_frame == t.input_frame:
            ans_x[w], ans_y[w] = lon[w], lat[w]
        elif t.out_frame == gframe:
            ans_x[w], ans_y[w] = rlon[valid], rlat[valid]
        else:
            ans_x[w], ans_y[w] = out_hop[0][w], out_hop[1][w]
    ans_z = np.round(ans_z, 3)
    region_str = np.where(ans_region >= 0, t.region_names[np.maximum(ans_region, 0)], "")
    out = (batch.append_column(t.out_col, pa.array(ans_z, pa.float64()))
           .append_column("unc", pa.array(ans_unc, pa.float64()))
           .append_column("region_index", pa.array(ans_region, pa.int8()))
           .append_column("region", pa.array(region_str, pa.string())))
    if t.emit_xy:
        out = (out.append_column("x_out", pa.array(ans_x, pa.float64()))
                  .append_column("y_out", pa.array(ans_y, pa.float64())))
    return out


def test_grid_stack_matches_each_grid_across_blocks():
    """A stacked evaluation spanning several kernel blocks equals each
    grid's own ``interpolate`` bit for bit: offsets, shapes and the
    block seams are exact."""
    from vyperdatum_ray.core.grid import BLOCK, GridStack

    rng = np.random.default_rng(11)
    grids = [_random_grid(rng, x0, 34.0 + k, x0 + rng.uniform(0.3, 2.0), 35.5 + k)
             for k, x0 in enumerate(rng.uniform(-76.5, -74.5, 6))]
    n = 3 * BLOCK + 5
    gid = rng.integers(0, len(grids), n)
    lon = np.round(rng.uniform(-77.0, -72.0, n), 3)
    lat = np.round(rng.uniform(33.5, 41.5, n), 3)
    got = GridStack.of(grids).interpolate(gid, lon, lat)
    want = np.empty(n)
    for k, g in enumerate(grids):
        want[gid == k] = g.interpolate(lon[gid == k], lat[gid == k])
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).any() and np.isinf(got).any()


def _assert_same_bytes(got, want):
    assert got.column_names == want.column_names
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        assert a.type == b.type, name
        if name == "region":
            assert a.to_pylist() == b.to_pylist(), name
        else:
            a = a.to_numpy(zero_copy_only=False)
            assert a.tobytes() == b.to_numpy(zero_copy_only=False).tobytes(), name


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_regions=st.one_of(st.integers(1, 9), st.just(65)),
    n_random=st.integers(0, 120),
    specials=st.booleans(),
    params=st.sampled_from(_TRANSFORM_PARAMS),
)
@example(seed=1, n_regions=65, n_random=200, specials=True, params=_TRANSFORM_PARAMS[1])
@example(seed=2, n_regions=5, n_random=0, specials=False, params=_TRANSFORM_PARAMS[0])
def test_vectorized_join_and_transform_match_per_region_loops(
        seed, n_regions, n_random, specials, params):
    import pyarrow as pa

    from vyperdatum_ray.stages.region_join import RegionJoiner
    from vyperdatum_ray.stages.transform import DatumTransformer

    rng = np.random.default_rng(seed)
    catalog = _random_catalog(rng, n_regions)
    lon, lat = _random_points(rng, catalog, n_random, specials)
    batch = pa.table({"lon": pa.array(lon, pa.float64()),
                      "lat": pa.array(lat, pa.float64()),
                      "z_in": pa.array(np.round(rng.normal(0, 5, len(lon)), 3), pa.float64())})
    joined = RegionJoiner(catalog)(batch)
    _assert_same_bytes(joined, _reference_join(catalog, batch))
    transformer = DatumTransformer(catalog, **params)
    _assert_same_bytes(transformer(joined), _reference_transform(transformer, joined))
