"""Grid interpolation unit tests (semantics of the reference's
vgridshift execution: inf outside coverage, core.py:445-446)."""

import numpy as np

from vyperdatum_ray.core.grid import SeparationGrid, grid_from_long


def make_linear_grid(a=2.0, bx=0.5, by=-0.25):
    xs = np.arange(10) * 0.1 - 76.0
    ys = np.arange(8) * 0.2 + 34.0
    X, Y = np.meshgrid(xs, ys)
    return SeparationGrid(-76.0, 34.0, 0.1, 0.2, a + bx * (X + 76) + by * (Y - 34))


def test_bilinear_exact_on_linear_field():
    g = make_linear_grid()
    rng = np.random.default_rng(0)
    lon = rng.uniform(-76.0, -76.0 + 0.9, 1000)
    lat = rng.uniform(34.0, 34.0 + 1.4, 1000)
    expect = 2.0 + 0.5 * (lon + 76) - 0.25 * (lat - 34)
    got = g.interpolate(lon, lat)
    assert np.allclose(got, expect, atol=1e-12)


def test_grid_nodes_exact():
    g = make_linear_grid()
    # interior nodes: the extent-edge nodes can fall a float-ulp outside
    # the [0, n-1] grid-coordinate range (mirrored exactly by the SQL
    # oracle, so parity is unaffected)
    ix = np.array([0, 3, 8])
    iy = np.array([0, 2, 6])
    x, y = g.node_xy(ix, iy)
    assert np.allclose(g.interpolate(x, y), g.values[iy, ix])


def test_outside_extent_is_inf():
    g = make_linear_grid()
    out = g.interpolate(np.array([-77.0, -76.0, -75.0]), np.array([35.0, 40.0, 34.5]))
    assert np.isinf(out[0]) and np.isinf(out[1]) and np.isinf(out[2])


def test_nan_corner_is_inf():
    g = make_linear_grid()
    g.values[3, 4] = np.nan
    # a point whose 2x2 neighborhood includes node (ix=4, iy=3)
    lon = np.array([-76.0 + 0.1 * 3.5])
    lat = np.array([34.0 + 0.2 * 2.5])
    assert np.isinf(g.interpolate(lon, lat)[0])
    # far from the NaN node the grid still interpolates
    assert np.isfinite(g.interpolate(np.array([-75.95]), np.array([34.1]))[0])


def test_grid_from_long_roundtrip():
    g = make_linear_grid()
    iy, ix = np.nonzero(~np.isnan(g.values))
    g2 = grid_from_long(g.origin_x, g.origin_y, g.dx, g.dy, g.nx, g.ny, ix, iy, g.values[iy, ix])
    assert np.array_equal(g2.values, g.values)


def test_nearest_and_knn_nodes():
    g = make_linear_grid()
    lon = np.array([-75.97, -75.52])
    lat = np.array([34.05, 34.93])
    ix, iy = g.nearest_node(lon, lat)
    assert ix.tolist() == [0, 5] and iy.tolist() == [0, 5]
    kx, ky, kd = g.knn_nodes(lon, lat, k=4)
    # distances sorted ascending, first equals the nearest node
    assert np.all(np.diff(kd, axis=1) >= 0)
    assert kx[0, 0] == ix[0] and ky[0, 0] == iy[0]
    assert kx.shape == (2, 4)


def test_catalog_load_groups_every_grids_rows(tmp_path):
    """``Catalog.from_dir`` on a many-grid catalog whose value rows are
    interleaved across grids, with duplicate nodes (the later row wins)
    and one grid without value rows: every grid equals what a per-key
    mask over ``grid_values.parquet`` selects."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from vyperdatum_ray.catalog import Catalog
    from vyperdatum_ray.fixtures import ensure_fixtures

    src = ensure_fixtures("/root/testdata/sf0.001")["catalog_dir"]
    for name in ("region_catalog.parquet", "region_edges.parquet",
                 "sigma.parquet", "sigma_geoid.parquet"):
        shutil.copy(f"{src}/{name}", tmp_path / name)
    meta = pq.read_table(f"{src}/grid_meta.parquet")
    vals = pq.read_table(f"{src}/grid_values.parquet")
    rng = np.random.default_rng(7)
    metas, parts = [], []
    for copy in range(8):  # 8 x the fixture's grids, renamed
        metas.append(meta.set_column(0, "grid_key", pa.array(
            [f"{k}#{copy}" for k in meta["grid_key"].to_pylist()])))
        parts.append(pa.table({
            "grid_key": [f"{k}#{copy}" for k in vals["grid_key"].to_pylist()],
            "ix": vals["ix"], "iy": vals["iy"],
            "v": pa.array(vals["v"].to_numpy() + copy)}))
    long = pa.concat_tables(parts)
    dup = long.slice(0, 500)  # the same nodes again, other values
    dup = dup.set_column(3, "v", pa.array(dup["v"].to_numpy() + 0.5))
    long = pa.concat_tables([long, dup])
    long = long.take(rng.permutation(long.num_rows))
    empty = metas[0].slice(0, 1).set_column(0, "grid_key", pa.array(["NOVALUES/x"]))
    meta_all = pa.concat_tables(metas + [empty])
    pq.write_table(meta_all, tmp_path / "grid_meta.parquet")
    pq.write_table(long, tmp_path / "grid_values.parquet", row_group_size=50_000)

    cat = Catalog.from_dir(str(tmp_path))
    gk = np.asarray(long["grid_key"])
    assert len(cat.grids) == meta_all.num_rows
    for m in meta_all.to_pylist():
        sel = gk == m["grid_key"]
        want = grid_from_long(m["origin_x"], m["origin_y"], m["dx"], m["dy"],
                              int(m["nx"]), int(m["ny"]), np.asarray(long["ix"])[sel],
                              np.asarray(long["iy"])[sel], np.asarray(long["v"])[sel])
        got = cat.grids[m["grid_key"]]
        assert (got.origin_x, got.origin_y, got.dx, got.dy) == (
            want.origin_x, want.origin_y, want.dx, want.dy)
        np.testing.assert_array_equal(got.values, want.values)
    assert np.isnan(cat.grids["NOVALUES/x"].values).all()
