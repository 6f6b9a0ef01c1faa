"""Regression tests for the determinism fixes this analyzer forced.

Each test pins the *repaired* behavior of a site the first full lint
run flagged: filesystem enumeration no longer leaks directory order,
arbitrary-set-element selections are now canonical.
"""

import os

import pytest

from repro._util import FrozenVector
from repro.boolean.minimize import minimize
from repro.errors import CoverError
from repro.pipeline import DiskArtifactCache
from repro.pipeline import store as store_module


def vec(**kwargs):
    return FrozenVector(kwargs)


class TestStoreInventoryOrder:
    def test_entries_ignore_directory_order(self, tmp_path,
                                            monkeypatch):
        """_entries() must return the same inventory whatever order
        the filesystem hands names back in."""
        store = DiskArtifactCache(str(tmp_path))
        for digest in ("a" * 64, "b" * 64, "c" * 64):
            assert store.put(("sg", digest), {"d": digest})
        forward = store._entries()

        real_walk = os.walk

        def adversarial_walk(top, **kwargs):
            for dirpath, dirnames, filenames in real_walk(top,
                                                          **kwargs):
                yield (dirpath, list(reversed(dirnames)),
                       list(reversed(filenames)))

        monkeypatch.setattr(store_module.os, "walk", adversarial_walk)
        assert store._entries() == forward

    def test_entries_are_name_sorted(self, tmp_path):
        store = DiskArtifactCache(str(tmp_path))
        for digest in ("c" * 64, "a" * 64, "b" * 64):
            assert store.put(("sg", digest), {"d": digest})
        names = [os.path.basename(path)
                 for _, path in store._entries()]
        assert names == sorted(names)


class TestCanonicalWitnesses:
    def test_overlap_error_names_the_least_vector(self):
        """minimize() reports the *minimum* overlapping vector, not an
        arbitrary set element."""
        on = [vec(x=0, y=1), vec(x=1, y=1)]
        off = [vec(x=1, y=1), vec(x=0, y=1), vec(x=1, y=0)]
        with pytest.raises(CoverError) as excinfo:
            minimize(on, off, support=("x", "y"))
        # min of {01-packed=2, 11-packed=3} is 2 -> bits printed
        # LSB-first as "01"
        assert "vector 01" in str(excinfo.value)
