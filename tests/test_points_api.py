"""Array-level transform_points API (reference VyperPoints parity):
NaN propagation (M6), sample_distance accelerator agreement, z-input
handling, inverse round-trip (F2)."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def catalog():
    from vyperdatum_ray.catalog import Catalog
    from vyperdatum_ray.fixtures import ensure_fixtures

    return Catalog.from_dir(ensure_fixtures(SF)["catalog_dir"])


def test_nan_propagation(catalog):
    from vyperdatum_ray.points import transform_points

    x = np.array([-75.2, np.nan, -75.25])
    y = np.array([35.0, 35.0, np.nan])
    _, _, z, unc, ridx = transform_points(catalog, x, y)
    assert np.isfinite(z[0]) and np.isfinite(unc[0]) and ridx[0] >= 0
    assert np.isnan(z[1]) and np.isnan(z[2])
    assert ridx[1] == -1 and ridx[2] == -1


def test_outside_coverage(catalog):
    from vyperdatum_ray.points import transform_points

    _, _, z, unc, ridx = transform_points(
        catalog, np.array([-60.0]), np.array([10.0])
    )
    assert np.isnan(z[0]) and ridx[0] == -1


def test_z_input_offset(catalog):
    """z_out is linear in z_in: shifting input height by 1 m shifts the
    depth output by -1 m (flip)."""
    from vyperdatum_ray.points import transform_points

    x = np.array([-75.2])
    y = np.array([35.0])
    _, _, z0, _, _ = transform_points(catalog, x, y, np.array([0.0]))
    _, _, z1, _, _ = transform_points(catalog, x, y, np.array([1.0]))
    assert abs((z1[0] - z0[0]) + 1.0) < 1e-9


def test_sampled_close_to_exact(catalog):
    """Sampled path: same region selection, z within the cell-size
    gradient band (reference test_points.py:34-44 uses a looser band for
    the sampled variant)."""
    from vyperdatum_ray.points import transform_points

    rng = np.random.default_rng(5)
    x = rng.uniform(-75.5, -74.9, 200)
    y = rng.uniform(34.7, 35.3, 200)
    _, _, z_exact, _, r_exact = transform_points(catalog, x, y)
    _, _, z_samp, _, r_samp = transform_points(catalog, x, y, sample_distance=0.01)
    both = (r_exact >= 0) & (r_samp >= 0)
    assert both.sum() > 100
    assert np.nanmax(np.abs(z_exact[both] - z_samp[both])) < 0.05
    # region agreement away from boundaries: overwhelming majority equal
    assert (r_exact[both] == r_samp[both]).mean() > 0.95


def test_inverse_round_trip(catalog):
    """ellipse->mllw then mllw->ellipse returns the original height
    (F2; reference test_vypercrs.py:73-88 inverse semantics)."""
    from vyperdatum_ray.points import transform_points

    x = np.array([-75.2, -75.15, -74.4])
    y = np.array([35.0, 35.05, 35.6])
    z0 = np.array([10.0, -3.0, 0.0])
    _, _, depth, _, r1 = transform_points(catalog, x, y, z0)
    assert (r1 >= 0).all()
    _, _, back, _, r2 = transform_points(
        catalog, x, y, depth, from_datum="mllw", to_datum="ellipse",
        in_is_height=False, out_is_height=True,
    )
    assert (r2 == r1).all()
    # two 3-decimal roundings -> +/-0.002 band (test_core.py:99-101 style)
    assert np.max(np.abs(back - z0)) <= 0.002


def test_sampled_path_adds_input_z(catalog):
    """sample_distance must add the caller's z to the sampled cell sep
    (reference points.py:86 z_sep[bins] + z), not discard it."""
    from vyperdatum_ray.points import transform_points

    x = np.array([-75.2, -75.2])
    y = np.array([35.0, 35.0])
    z = np.array([0.0, 5.0])
    _, _, zs, _, r = transform_points(catalog, x, y, z, sample_distance=0.01)
    assert (r >= 0).all()
    # depth output: +5 m input height -> -5 m on the depth
    assert abs((zs[1] - zs[0]) + 5.0) < 1e-9


def test_sampled_path_negative_coordinates(catalog):
    """Cell-key packing must survive negative cell indices (southern /
    western hemisphere): outside-catalog points return -1, not garbage
    centers."""
    from vyperdatum_ray.points import transform_points

    x = np.array([-75.2, 150.0, -75.25])
    y = np.array([35.0, -35.0, 35.01])
    _, _, zs, _, r = transform_points(catalog, x, y, sample_distance=0.05)
    assert r[0] >= 0 and np.isfinite(zs[0])
    assert r[1] == -1 and np.isnan(zs[1])
    assert r[2] >= 0 and np.isfinite(zs[2])


def test_same_version_grid_swap_not_served_stale(catalog):
    """A catalog whose one grid is shifted by 1 m under the same version
    moves exactly the points that region wins by 1 m, in both the exact
    and the sampled path, and the first catalog still gives its own
    answer afterwards: nothing built for one catalog serves the other."""
    import dataclasses

    from vyperdatum_ray.points import transform_points

    region = catalog.regions[0].name
    key = f"{region}/tss"
    grids = dict(catalog.grids)
    grids[key] = dataclasses.replace(grids[key], values=grids[key].values + 1.0)
    swapped = dataclasses.replace(catalog, grids=grids)
    assert swapped.version == catalog.version

    rng = np.random.default_rng(7)
    x = rng.uniform(-75.5, -74.9, 300)
    y = rng.uniform(34.7, 35.3, 300)
    for kw in ({}, {"sample_distance": 0.01}):
        _, _, z1, _, r1 = transform_points(catalog, x, y, **kw)
        _, _, z2, _, r2 = transform_points(swapped, x, y, **kw)
        _, _, z3, _, r3 = transform_points(catalog, x, y, **kw)
        np.testing.assert_array_equal(r2, r1)
        moved = r1 == 0
        assert moved.sum() > 10
        np.testing.assert_allclose(np.abs(z2[moved] - z1[moved]), 1.0, atol=2e-3)
        np.testing.assert_array_equal(z2[~moved], z1[~moved])
        np.testing.assert_array_equal(z3, z1)
        np.testing.assert_array_equal(r3, r1)


def test_state_is_built_once_per_catalog_content_and_parameters(catalog, monkeypatch):
    """Repeated calls on one catalog, on an equal copy of it, or on the
    sampled path reuse one ``JoinTransform``; new parameters build
    another."""
    import copy
    from collections import OrderedDict

    from vyperdatum_ray.pipelines import flagship
    from vyperdatum_ray.points import transform_points

    builds = []

    class Counting(flagship.JoinTransform):
        def __init__(self, *args, **kwargs):
            builds.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(flagship, "JoinTransform", Counting)
    monkeypatch.setattr(flagship, "_state_cache", OrderedDict())
    x, y = np.array([-75.2, -75.25]), np.array([35.0, 35.01])
    first = transform_points(catalog, x, y)
    np.testing.assert_array_equal(transform_points(catalog, x, y)[2], first[2])
    np.testing.assert_array_equal(transform_points(copy.deepcopy(catalog), x, y)[2], first[2])
    transform_points(catalog, x, y, sample_distance=0.01)
    assert len(builds) == 1
    transform_points(catalog, x, y, to_datum="mhw")
    assert len(builds) == 2
