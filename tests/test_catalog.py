"""The catalog is an immutable value keyed once: an in-place edit of a
built catalog raises, its keys are hashed on first use and memoized,
copies and pickles keep its key and its read-only grids, and a
``dataclasses.replace``d catalog is a new value with a new key."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def catalog():
    from vyperdatum_ray.catalog import Catalog
    from vyperdatum_ray.fixtures import ensure_fixtures

    return Catalog.from_dir(ensure_fixtures(SF)["catalog_dir"])


@pytest.fixture
def fingerprints(monkeypatch):
    """The grids hashed by ``Catalog.grid_fingerprints``' builder, one
    entry per call, in call order."""
    from vyperdatum_ray import catalog as catalog_mod

    calls = []
    build = catalog_mod._grid_fingerprint

    def counting(g):
        calls.append(g)
        return build(g)

    monkeypatch.setattr(catalog_mod, "_grid_fingerprint", counting)
    return calls


def test_in_place_edits_of_a_built_catalog_raise(catalog):
    key, grid = next(iter(catalog.grids.items()))
    before = catalog.content_key()
    with pytest.raises(ValueError, match="read-only"):
        grid.values[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        grid.values += 0.01
    with pytest.raises(dataclasses.FrozenInstanceError):
        catalog.version = "vNext"
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.values = grid.values + 0.01
    with pytest.raises(TypeError):
        catalog.grids[key] = grid
    with pytest.raises(TypeError):
        catalog.regions[0] = catalog.regions[1]
    assert catalog.content_key() == before


def test_keys_are_hashed_once_per_instance(catalog, fingerprints):
    fresh = dataclasses.replace(catalog)
    key = fresh.content_key()
    assert len(fingerprints) == len(fresh.grids)
    assert fresh.content_key() == key == catalog.content_key()
    assert fresh.grid_fingerprints() == catalog.grid_fingerprints()
    fresh.structure_fingerprint()
    assert len(fingerprints) == len(fresh.grids)
    # each call hands out its own dict: editing one leaves the memo whole
    fresh.grid_fingerprints().clear()
    assert len(fresh.grid_fingerprints()) == len(fresh.grids)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
                         ids=["deepcopy", "pickle"])
def test_copies_keep_the_key_and_read_only_grids_but_no_memo(catalog, fingerprints, clone):
    key = catalog.content_key()
    twin = clone(catalog)
    assert all(not g.values.flags.writeable for g in twin.grids.values())
    assert type(twin.grids) is type(catalog.grids)
    assert isinstance(twin.regions, tuple)
    n = len(fingerprints)
    assert twin.content_key() == key
    assert len(fingerprints) - n == len(twin.grids)  # hashed afresh, not carried


def test_a_replaced_catalog_gets_a_new_key(catalog):
    key = catalog.content_key()
    name = next(iter(catalog.grids))
    grid = catalog.grids[name]
    shifted = dataclasses.replace(catalog, grids={
        **catalog.grids, name: dataclasses.replace(grid, values=grid.values + 0.01)})
    assert shifted.version == catalog.version
    assert shifted.content_key() != key
    assert shifted.grid_fingerprints()[name] != catalog.grid_fingerprints()[name]
    assert not shifted.grids[name].values.flags.writeable
    renamed = dataclasses.replace(catalog, regions=[
        dataclasses.replace(catalog.regions[0], name="RENAMED"), *catalog.regions[1:]])
    assert renamed.structure_fingerprint() != catalog.structure_fingerprint()
    assert renamed.content_key() != key
    assert catalog.content_key() == key
    np.testing.assert_array_equal(catalog.grids[name].values, grid.values)


def test_a_catalog_from_ray_get_keeps_read_only_grids(ray_session, catalog):
    import ray

    got = ray.get(ray.put(catalog))
    assert all(not g.values.flags.writeable for g in got.grids.values())
    name = next(iter(got.grids))
    with pytest.raises(TypeError):
        got.grids[name] = got.grids[name]
    assert got.content_key() == catalog.content_key()
