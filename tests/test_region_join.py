"""A non-finite coordinate affects only its own row: it joins no region
and gets no transform, and every other row of its batch keeps its
answer (the membership test is per row, never pruned by batch-wide
coordinate bounds)."""

import numpy as np
import pyarrow as pa
import pytest

# rows in regions A, B, C (the (-75.0, 37.0) row) and D of the
# four-region fixture catalog, which the geo_sink benchmark workload
# also uses
LON = [-75.2, -74.35, -75.0, -73.3]
LAT = [34.9, 35.9, 37.0, 34.3]


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    from vyperdatum_ray import fixtures
    from vyperdatum_ray.catalog import Catalog

    out = str(tmp_path_factory.mktemp("catalog"))
    fixtures._write_catalog(out)
    return Catalog.from_dir(out)


def _batch(lon, lat) -> pa.Table:
    return pa.table({"url": [f"u{i}" for i in range(len(lon))],
                     "lon": pa.array(lon, pa.float64()),
                     "lat": pa.array(lat, pa.float64())})


def _check(base: pa.Table, bad: pa.Table, n_bad: int) -> None:
    """``bad`` is ``base`` with ``n_bad`` non-finite rows appended."""
    assert bad.slice(0, base.num_rows).equals(base)
    tail = bad.slice(base.num_rows).to_pydict()
    assert tail["pip_region_index"] == [-1] * n_bad
    assert tail["region_mask"] == [0] * n_bad
    assert tail["region_index"] == [-1] * n_bad
    assert np.isnan(np.array(tail["z_out"], dtype=float)).all()
    assert np.isnan(np.array(tail["unc"], dtype=float)).all()


def test_nan_row_does_not_blank_its_batch(catalog):
    from vyperdatum_ray.stages.region_join import RegionJoiner
    from vyperdatum_ray.stages.transform import DatumTransformer

    join, transform = RegionJoiner(catalog), DatumTransformer(catalog)
    base = transform(join(_batch(LON, LAT)))
    assert base.column("pip_region_index").to_pylist() == [0, 1, 2, 3]
    assert base.column("region_index").to_pylist() == [0, 1, 2, 3]
    bad = transform(join(_batch(LON + [np.nan, -75.0, np.inf],
                                LAT + [37.0, np.nan, 35.0])))
    _check(base, bad, 3)


def test_nan_row_dataset_path(ray_session, catalog):
    """``join_transform_batch`` (the state-plane queries' PIP + transform
    after an inverse projection) over a one-block Dataset."""
    import ray.data

    from vyperdatum_ray.pipelines.flagship import _shard_kwargs, join_transform_batch

    kwargs = _shard_kwargs(catalog, from_datum="ellipse", to_datum="mllw",
                           in_is_height=True, out_is_height=False)

    def run(table: pa.Table) -> pa.Table:
        ds = ray.data.from_arrow(table).map_batches(
            join_transform_batch, fn_kwargs=kwargs, batch_format="pyarrow",
            batch_size=None, num_cpus=1)
        return pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by("url")

    base = run(_batch(LON, LAT))
    bad = run(_batch(LON + [np.nan], LAT + [37.0]))
    _check(base, bad, 1)
