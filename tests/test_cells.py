import numpy as np

from vyperdatum_ray.core.cells import (
    hex_cell_center,
    hex_cell_id,
    s2_cell_center,
    s2_cell_id,
    s2_cell_level,
    tile_id,
)


def test_s2_level_and_face_bits():
    rng = np.random.default_rng(0)
    lon = rng.uniform(-180, 180, 50000)
    lat = rng.uniform(-89.9, 89.9, 50000)
    for level in (5, 13, 30):
        cid = s2_cell_id(lon, lat, level)
        assert np.all(s2_cell_level(cid) == level)
        faces = np.unique(cid >> np.uint64(61))
        assert set(faces.tolist()) <= set(range(6))


def test_s2_center_roundtrip_containment():
    """The cell center decoded from the id must re-encode to the same
    cell, and lie within one cell diagonal of the probe point."""
    rng = np.random.default_rng(1)
    lon = rng.uniform(-180, 180, 20000)
    lat = rng.uniform(-85, 85, 20000)
    cid = s2_cell_id(lon, lat, 13)
    clon, clat = s2_cell_center(cid, 13)
    assert np.array_equal(s2_cell_id(clon, clat, 13), cid)
    err = np.hypot((clon - lon) * np.cos(np.radians(lat)), clat - lat)
    assert err.max() < 360.0 / (4 * 2**13)  # < one leaf-cell-angle * 2^17... one cell diag


def test_s2_deterministic_and_local():
    lon = np.array([-75.123456])
    lat = np.array([35.654321])
    a = s2_cell_id(lon, lat, 13)
    b = s2_cell_id(lon + 1e-9, lat + 1e-9, 13)
    assert a == s2_cell_id(lon, lat, 13)
    assert a == b  # 1e-9 deg never crosses a level-13 boundary from a generic point


def test_hex_center_within_circumradius():
    rng = np.random.default_rng(2)
    lon = rng.uniform(-77, -72, 20000)
    lat = rng.uniform(33, 38, 20000)
    h = hex_cell_id(lon, lat, 9)
    hx, hy = hex_cell_center(h)
    assert np.hypot(hx - lon, hy - lat).max() <= 0.0018 * 1.0001
    assert np.unique(h >> np.uint64(56)).tolist() == [9]


def test_hex_resolution_hierarchy_coarsens():
    rng = np.random.default_rng(3)
    lon = rng.uniform(-77, -72, 5000)
    lat = rng.uniform(33, 38, 5000)
    n9 = len(np.unique(hex_cell_id(lon, lat, 9)))
    n5 = len(np.unique(hex_cell_id(lon, lat, 5)))
    assert n5 < n9


def test_tile_id_formula():
    import duckdb

    rng = np.random.default_rng(4)
    lon = np.round(rng.uniform(-77, -72, 10000), 5)
    lat = np.round(rng.uniform(33, 38, 10000), 5)
    mine = tile_id(lon, lat)
    con = duckdb.connect()
    import pandas as pd

    con.register("t", pd.DataFrame({"lon": lon, "lat": lat}))
    sql = (
        "SELECT CAST(floor((lat + 90.0) / 0.25) AS BIGINT) * 4096 "
        "+ CAST(floor((lon + 180.0) / 0.25) AS BIGINT) AS tid FROM t"
    )
    theirs = con.execute(sql).fetchnumpy()["tid"]
    assert np.array_equal(mine, theirs)


def _s2_two_bit_ids(lon, lat, level):
    """S2 ids with the Hilbert position walked one level (2 bits) at a
    time from the module's projection and 2-bit tables."""
    from vyperdatum_ray.core import cells as C

    face, u, v = C._xyz_to_face_uv(*C._lonlat_to_xyz(lon, lat))
    i, j = C._st_to_ij(C._uv_to_st(u)), C._st_to_ij(C._uv_to_st(v))
    n = np.zeros(i.shape, dtype=np.uint64)
    bits = (face & C._S2_SWAP).astype(np.uint64)
    for k in range(29, 29 - level, -1):
        pos = C._IJ_TO_POS[bits, (((i >> k) & 1) * 2 + ((j >> k) & 1)).astype(np.uint64)]
        n = (n << np.uint64(2)) | pos
        bits = bits ^ C._POS_TO_ORIENTATION[pos]
    shift = np.uint64(61 - 2 * level)
    return ((face.astype(np.uint64) << np.uint64(61)) | (n << shift)
            | (np.uint64(1) << (shift - np.uint64(1))))


def test_s2_table_walk_matches_two_bit_walk_at_every_level():
    """The 4-levels-per-step table walk gives the 2-bit walk's ids at
    every level 0-30 (whole steps, remainders of 1-3 levels), on all six
    cube faces, their edges and corners, and both poles."""
    rng = np.random.default_rng(4)
    corner = np.degrees(np.arctan(1 / np.sqrt(2)))  # cube-corner latitude
    lon = [0.0, 90.0, 180.0, -90.0, 0.0, 0.0, 45.0, -45.0, 135.0, -135.0]
    lat = [0.0, 0.0, 0.0, 0.0, 90.0, -90.0, 0.0, 0.0, 0.0, 0.0]
    for lo in (45.0, 135.0, -45.0, -135.0):  # the eight cube corners
        lon += [lo, lo]
        lat += [corner, -corner]
    for lo in (0.0, 90.0, 180.0, -90.0):  # polar-face edges
        lon += [lo, lo]
        lat += [45.0, -45.0]
    lon = np.concatenate([lon, rng.uniform(-180, 180, 20000), np.nextafter(lon, 1e3)])
    lat = np.concatenate([lat, np.degrees(np.arcsin(rng.uniform(-1, 1, 20000))),
                          np.nextafter(lat, -1e3)])
    faces = set()
    for level in range(31):
        got = s2_cell_id(lon, lat, level)
        assert np.array_equal(got, _s2_two_bit_ids(lon, lat, level)), level
        faces |= set((got >> np.uint64(61)).tolist())
    assert faces == set(range(6))
