"""L2-to-MC mappings: validation, presets, partial regions."""

import pytest

from repro.arch.clustering import (Cluster, L2ToMCMapping, grid_mapping,
                                   grid_shape_for, mapping_m1, mapping_m2,
                                   partial_grid_mapping)
from repro.arch.placement import corners, perimeter
from repro.arch.topology import Mesh


@pytest.fixture(scope="module")
def mesh():
    return Mesh(8, 8)


@pytest.fixture(scope="module")
def mc_nodes(mesh):
    return corners(mesh)


class TestValidation:
    def test_unequal_clusters_rejected(self, mesh, mc_nodes):
        clusters = [Cluster(tuple(range(0, 32)), (0, 1)),
                    Cluster(tuple(range(32, 64)), (2,))]
        with pytest.raises(ValueError):
            L2ToMCMapping(mesh, mc_nodes, clusters)

    def test_core_overlap_rejected(self, mesh, mc_nodes):
        clusters = [Cluster(tuple(range(0, 33)), (0, 1)),
                    Cluster(tuple(range(32, 64)) + (0,), (2, 3))]
        with pytest.raises(ValueError):
            L2ToMCMapping(mesh, mc_nodes, clusters)

    def test_incomplete_cover_rejected(self, mesh, mc_nodes):
        clusters = [Cluster(tuple(range(0, 16)), (0, 1)),
                    Cluster(tuple(range(16, 32)), (2, 3))]
        with pytest.raises(ValueError):
            L2ToMCMapping(mesh, mc_nodes, clusters)

    def test_mc_reuse_rejected(self, mesh, mc_nodes):
        clusters = [Cluster(tuple(range(0, 32)), (0, 1)),
                    Cluster(tuple(range(32, 64)), (1, 2))]
        with pytest.raises(ValueError):
            L2ToMCMapping(mesh, mc_nodes, clusters)

    def test_partial_allows_subset(self, mesh, mc_nodes):
        clusters = [Cluster(tuple(range(0, 8)), (0,))]
        mapping = L2ToMCMapping(mesh, mc_nodes, clusters, partial=True)
        assert mapping.num_threads == 8


class TestM1(object):
    def test_shape(self, mesh, mc_nodes):
        m1 = mapping_m1(mesh, mc_nodes)
        assert m1.num_clusters == 4
        assert m1.cores_per_cluster == 16
        assert m1.mcs_per_cluster == 1

    def test_nearest_matching(self, mesh, mc_nodes):
        """Each quadrant gets its own corner's controller."""
        m1 = mapping_m1(mesh, mc_nodes)
        for cluster in m1.clusters:
            mc_node = m1.mc_nodes[cluster.mc_indices[0]]
            assert mc_node in cluster.cores

    def test_desired_mc_is_cluster_mc(self, mesh, mc_nodes):
        m1 = mapping_m1(mesh, mc_nodes)
        for core in range(64):
            cluster = m1.cluster_of_core(core)
            assert m1.desired_mc_index(core) in m1.mcs_of_cluster(cluster)

    def test_thread_binding_cluster_major(self, mesh, mc_nodes):
        m1 = mapping_m1(mesh, mc_nodes)
        clusters = [m1.cluster_of_thread(t) for t in range(64)]
        # threads 0-15 in cluster 0, 16-31 in cluster 1, ...
        for t in range(64):
            assert clusters[t] == t // 16


class TestM2:
    def test_shape(self, mesh, mc_nodes):
        m2 = mapping_m2(mesh, mc_nodes)
        assert m2.num_clusters == 2
        assert m2.cores_per_cluster == 32
        assert m2.mcs_per_cluster == 2

    def test_odd_mc_count_rejected(self, mesh):
        with pytest.raises(ValueError):
            mapping_m2(mesh, [0, 7, 56])

    def test_locality_tradeoff(self, mesh, mc_nodes):
        m1 = mapping_m1(mesh, mc_nodes)
        m2 = mapping_m2(mesh, mc_nodes)
        assert m1.avg_distance_to_mc() < m2.avg_distance_to_mc()


class TestGridMapping:
    def test_eight_mcs(self, mesh):
        nodes = perimeter(mesh, 8)
        mapping = grid_mapping(mesh, nodes, 8)
        assert mapping.num_clusters == 8
        assert mapping.cores_per_cluster == 8

    def test_sixteen_mcs(self, mesh):
        nodes = perimeter(mesh, 16)
        mapping = grid_mapping(mesh, nodes, 16)
        assert mapping.num_clusters == 16
        assert mapping.mcs_per_cluster == 1

    def test_uneven_split_rejected(self, mesh, mc_nodes):
        with pytest.raises(ValueError):
            grid_mapping(mesh, mc_nodes, 3)

    def test_grid_shape_for(self, mesh):
        cx, cy = grid_shape_for(mesh, 4)
        assert cx * cy == 4
        with pytest.raises(ValueError):
            grid_shape_for(Mesh(5, 5), 4)

    def test_small_mesh(self):
        mesh = Mesh(4, 4)
        mapping = mapping_m1(mesh, corners(mesh))
        assert mapping.cores_per_cluster == 4


class TestPartialGrid:
    def test_left_half(self, mesh, mc_nodes):
        mapping = partial_grid_mapping(mesh, mc_nodes, 0, 0, 4, 8, 2)
        assert mapping.partial
        assert mapping.num_threads == 32
        # the region's controllers are the two west corners
        used = {m for c in mapping.clusters for m in c.mc_indices}
        used_nodes = {mc_nodes[m] for m in used}
        assert used_nodes == {0, 56}

    def test_untileable_region(self, mesh, mc_nodes):
        with pytest.raises(ValueError):
            partial_grid_mapping(mesh, mc_nodes, 0, 0, 3, 5, 7)

    def test_avg_distance(self, mesh, mc_nodes):
        mapping = partial_grid_mapping(mesh, mc_nodes, 0, 0, 4, 8, 2)
        assert mapping.avg_distance_to_mc() < 6


class TestMappingMemo:
    """Preset mappings are built once per machine shape and shared:
    every run on that machine gets the same object, and nothing mutates
    it."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        from repro.arch import clustering
        clustering.machine_mapping.cache_clear()
        counts = {"grid": 0, "balanced": 0}

        def counted(kind, build):
            def wrapper(*args, **kwargs):
                counts[kind] += 1
                return build(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(clustering, "grid_mapping",
                            counted("grid", clustering.grid_mapping))
        monkeypatch.setattr(clustering, "balanced_mapping",
                            counted("balanced",
                                    clustering.balanced_mapping))
        yield counts
        clustering.machine_mapping.cache_clear()

    @staticmethod
    def _token(mapping):
        from repro.sim.run import _mapping_token
        return (_mapping_token(mapping), list(mapping.core_order),
                mapping.mesh.width, mapping.mesh.height)

    def test_one_build_per_machine(self, builds):
        import repro
        from repro.arch.clustering import resolve_mapping
        from repro.arch.config import MachineConfig
        from repro.workloads import build_workload
        program = build_workload("swim", 0.2)
        config = MachineConfig.scaled_default().with_(
            interleaving="cache_line")
        for optimized in (True, True, False):
            repro.run(program=program, config=config, optimized=optimized)
        resolve_mapping(config, "M1")
        assert builds == {"grid": 1, "balanced": 0}
        resolve_mapping(config, "M2")
        resolve_mapping(config.with_(num_mcs=8), "M1")
        assert builds == {"grid": 3, "balanced": 0}
        edge = config.with_(mc_placement="P2")
        for name in ("M1", "voronoi", "M1"):
            resolve_mapping(edge, name)
        assert builds == {"grid": 3, "balanced": 1}

    def test_runs_leave_the_shared_mapping_unchanged(self, builds):
        import repro
        from repro.arch.config import MachineConfig
        from repro.workloads import build_workload
        program = build_workload("swim", 0.2)
        base = MachineConfig.scaled_default()
        configs = [(base.with_(interleaving="cache_line"), "auto"),
                   (base.with_(interleaving="page"), "auto"),
                   (base.with_(interleaving="page"), "first_touch"),
                   (base.with_(interleaving="cache_line",
                               shared_l2=True), "auto")]
        for config, policy in configs:
            mapping = config.default_mapping()
            before = self._token(mapping)
            for optimized in (False, True):
                repro.run(program=program, config=config,
                          optimized=optimized,
                          page_policy=policy if not optimized else "auto")
            assert config.default_mapping() is mapping
            assert self._token(mapping) == before

    def test_run_key_matches_a_freshly_built_mapping(self, builds):
        from repro.arch.config import MachineConfig
        from repro.sim.run import RunSpec
        from repro.workloads import build_workload
        program = build_workload("swim", 0.2)
        config = MachineConfig.scaled_default()
        mesh = config.mesh()
        fresh = mapping_m1(mesh, config.mc_nodes(mesh))
        shared = RunSpec(program=program, config=config, optimized=True)
        built = RunSpec(program=program, config=config, mapping=fresh,
                        optimized=True)
        assert shared.key() == built.key()
