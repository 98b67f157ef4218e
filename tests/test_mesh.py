"""Tests for the mesh topology and controller placement."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.mesh import MeshTopology
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def mesh() -> MeshTopology:
    return MeshTopology(8, 8, 4)


class TestGeometry:
    def test_coords_core_at_roundtrip(self, mesh):
        for core in range(mesh.n_cores):
            r, c = mesh.coords(core)
            assert mesh.core_at(r, c) == core

    def test_coords_out_of_range(self, mesh):
        with pytest.raises(ConfigError):
            mesh.coords(64)
        with pytest.raises(ConfigError):
            mesh.core_at(8, 0)

    def test_hops_is_manhattan(self, mesh):
        assert mesh.hops(0, 63) == 14
        assert mesh.hops(0, 7) == 7
        assert mesh.hops(0, 0) == 0

    def test_distance_table_matches_hops(self, mesh):
        table = mesh.core_distances
        for a in (0, 9, 35, 63):
            for b in (0, 7, 56, 63):
                assert table[a][b] == mesh.hops(a, b)

    @given(
        a=st.integers(min_value=0, max_value=63),
        b=st.integers(min_value=0, max_value=63),
        c=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=100, deadline=None)
    def test_metric_properties(self, mesh, a, b, c):
        assert mesh.hops(a, b) == mesh.hops(b, a)
        assert mesh.hops(a, b) >= 0
        assert (mesh.hops(a, b) == 0) == (a == b)
        assert mesh.hops(a, c) <= mesh.hops(a, b) + mesh.hops(b, c)


class TestControllers:
    def test_anchors_sit_on_row_ends(self, mesh):
        assert mesh.mc_anchor(0) == (0, 0)
        assert mesh.mc_anchor(1) == (0, 7)
        assert mesh.mc_anchor(2) == (7, 0)
        assert mesh.mc_anchor(3) == (7, 7)

    def test_prefix_cluster_always_reaches_a_controller(self, mesh):
        # Even a one-core secure cluster contains MC0's anchor tile.
        assert mesh.mc_anchor_core(0) == 0

    def test_suffix_cluster_always_reaches_a_controller(self, mesh):
        assert mesh.mc_anchor_core(3) == 63

    def test_top_bottom_split(self, mesh):
        assert mesh.top_mcs == [0, 1]
        assert mesh.bottom_mcs == [2, 3]
        assert mesh.is_top_mc(0) and not mesh.is_top_mc(2)

    def test_hops_to_mc_includes_edge_hop(self, mesh):
        assert mesh.hops_to_mc(0, 0) == 1  # same tile + off-edge hop
        assert mesh.hops_to_mc(63, 3) == 1

    def test_mc_distance_table(self, mesh):
        table = mesh.mc_distances
        for core in (0, 18, 63):
            for mc in range(4):
                assert table[core][mc] == mesh.hops_to_mc(core, mc)

    def test_two_controller_mesh(self):
        mesh = MeshTopology(4, 4, 2)
        assert mesh.mc_anchor(0) == (0, 0)
        assert mesh.mc_anchor(1) == (3, 3)

    def test_odd_controller_count_rejected(self):
        with pytest.raises(ConfigError):
            MeshTopology(4, 4, 3)

    def test_rows_of_cores(self, mesh):
        assert mesh.rows_of_cores([0, 1, 9, 63]) == [0, 1, 7]

    def test_dropped_mesh_is_collected(self):
        """The distance tables are cached on the mesh itself, so a
        mesh nobody holds is freed (a cache keyed on ``self`` would
        keep every mesh ever built alive)."""
        mesh = MeshTopology(4, 4, 2)
        assert mesh.core_distances[0][15] == 6
        assert mesh.mc_distances is mesh.mc_distances
        ref = weakref.ref(mesh)
        del mesh
        gc.collect()
        assert ref() is None
