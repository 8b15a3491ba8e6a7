"""Property-based tests (hypothesis) for the pure core math: bilinear
interpolation bounds/exactness, pipeline-algebra involutions, cell-id
determinism and containment."""

import numpy as np
from hypothesis import given, settings, strategies as st

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
# misses (integers, bare or signed fractions, empty), mixed with the
# patterns' literal fragments, words and NULL.
_num = st.one_of(
    st.builds("{}.{}".format, st.integers(0, 999), st.integers(0, 99999)),
    st.builds("-{}.{}".format, st.integers(0, 999), st.integers(0, 99999)),
    st.integers(-99, 99).map(str),
    st.sampled_from(["", ".5", "7.", "-"]),
)
_geo_piece = st.one_of(
    st.sampled_from(["lat=", "&lon=", "?", "/@", ",", " N, ", " S, ", " E", " W",
                     "0", "42", ".", "-", "harbor ", "site", " ", "\n"]),
    _num,
    st.builds("{}lat={}&lon={}".format, st.sampled_from(["?", "&", "/", ""]), _num, _num),
    st.builds("/@{},{}".format, _num, _num),
    st.builds("{} {}, {} {}".format, _num, st.sampled_from("NSE"), _num,
              st.sampled_from("EWS")),
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_geo_cell, _geo_cell), min_size=1, max_size=24))
def test_geocode_prefilter_is_lossless(rows):
    """The prefilters (url substrings, one text regex) never drop a row
    the full patterns would geocode, and a candidate the pattern rejects
    falls through: geocode_arrays equals the prefilter-free reference
    bit for bit."""
    import pyarrow as pa

    from vyperdatum_ray.core.geocode import geocode_arrays

    url = pa.array([u for u, _ in rows], pa.string())
    text = pa.array([t for _, t in rows], pa.string())
    lat, lon, src = geocode_arrays(url, text)
    rlat, rlon, rsrc = _geocode_without_prefilter(url, text)
    assert lat.tobytes() == rlat.tobytes()
    assert lon.tobytes() == rlon.tobytes()
    assert src.to_pylist() == rsrc
