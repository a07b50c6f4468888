"""Integration tests: the paper's Figure 4 Jacobi program end-to-end."""

import numpy as np
import pytest

from repro.apps.jacobi import build_jacobi
from repro.distributions import Block, BlockCyclic, Custom, Cyclic
from repro.machine.cost import IDEAL, IPSC2, NCUBE7
from repro.meshes.partition import coordinate_bisection
from repro.meshes.regular import five_point_grid, reference_sweep
from repro.meshes.unstructured import average_degree, random_unstructured_mesh


def oracle(mesh, init, sweeps):
    v = np.asarray(init, dtype=np.float64).copy()
    for _ in range(sweeps):
        v = reference_sweep(mesh, v)
    return v


def _edge_loop_mesh(n_nodes, seed, locality_sort, jitter=0.35):
    """``random_unstructured_mesh`` as first written — a row-wise unique
    of the edges and a Python loop over them filling ``adj`` — kept as
    the oracle of the vectorised construction."""
    from scipy.spatial import Delaunay

    from repro.meshes.regular import MeshArrays

    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n_nodes)))
    xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)[:n_nodes]
    pts = pts + rng.uniform(-jitter, jitter, size=pts.shape)
    if locality_sort:
        pts = pts[np.lexsort((pts[:, 0], pts[:, 1]))]
    simplices = Delaunay(pts).simplices
    edges = np.concatenate(
        [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]], axis=0
    )
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    degree = np.zeros(n_nodes, dtype=np.int64)
    np.add.at(degree, edges[:, 0], 1)
    np.add.at(degree, edges[:, 1], 1)
    width = int(degree.max())
    adj = np.zeros((n_nodes, width), dtype=np.int64)
    fill = np.zeros(n_nodes, dtype=np.int64)
    for a, b in edges:
        adj[a, fill[a]] = b
        fill[a] += 1
        adj[b, fill[b]] = a
        fill[b] += 1
    count = fill
    coef = np.zeros((n_nodes, width), dtype=np.float64)
    live = np.arange(width)[None, :] < count[:, None]
    weights = np.where(count > 0, 1.0 / np.maximum(count, 1), 0.0)
    coef[live] = np.repeat(weights, count)
    return MeshArrays(n=n_nodes, width=width, adj=adj, count=count, coef=coef), pts


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_regular_grid_matches_oracle(self, p, rng):
        mesh = five_point_grid(8, 8)
        init = rng.random(mesh.n)
        prog = build_jacobi(mesh, p, machine=IDEAL, initial=init)
        prog.run(sweeps=4)
        np.testing.assert_allclose(prog.solution, oracle(mesh, init, 4))

    @pytest.mark.parametrize("dist_mk", [
        lambda n, p: Cyclic(),
        lambda n, p: BlockCyclic(3),
    ], ids=["cyclic", "block_cyclic"])
    def test_alternative_distributions(self, dist_mk, rng):
        """Paper §2.4: 'a variety of distribution patterns can easily be
        tried by trivial modification of this program'."""
        mesh = five_point_grid(8, 8)
        init = rng.random(mesh.n)
        prog = build_jacobi(mesh, 4, machine=IDEAL, initial=init,
                            dist=dist_mk(mesh.n, 4))
        prog.run(sweeps=3)
        np.testing.assert_allclose(prog.solution, oracle(mesh, init, 3))

    def test_custom_partition_distribution(self, rng):
        mesh, pts = random_unstructured_mesh(120, seed=1)
        owners = coordinate_bisection(pts, 4)
        init = rng.random(mesh.n)
        prog = build_jacobi(mesh, 4, machine=IDEAL, initial=init,
                            dist=Custom(owners))
        prog.run(sweeps=3)
        np.testing.assert_allclose(prog.solution, oracle(mesh, init, 3))

    def test_unstructured_mesh(self, rng):
        mesh, _ = random_unstructured_mesh(150, seed=2)
        init = rng.random(mesh.n)
        prog = build_jacobi(mesh, 8, machine=IDEAL, initial=init)
        prog.run(sweeps=5)
        np.testing.assert_allclose(prog.solution, oracle(mesh, init, 5))

    def test_rectangular_nonsquare_grid(self, rng):
        mesh = five_point_grid(4, 16)
        init = rng.random(mesh.n)
        prog = build_jacobi(mesh, 4, machine=IDEAL, initial=init)
        prog.run(sweeps=3)
        np.testing.assert_allclose(prog.solution, oracle(mesh, init, 3))

    def test_jacobi_converges_to_flat_field(self):
        """Physics sanity: repeated averaging smooths towards consensus."""
        mesh = five_point_grid(8, 8)
        rng = np.random.default_rng(0)
        init = rng.random(mesh.n)
        prog = build_jacobi(mesh, 4, machine=IDEAL, initial=init)
        prog.run(sweeps=60)
        assert prog.solution.std() < init.std() / 10


class TestAnalysisPaths:
    def test_copy_loop_compile_time_relax_runtime(self):
        mesh = five_point_grid(8, 8)
        prog = build_jacobi(mesh, 4, machine=IDEAL)
        res = prog.run(sweeps=1)
        strategies = res.strategies()
        assert strategies["jacobi-copy"] == "compile-time"
        assert strategies["jacobi-relax"] == "inspector"

    def test_inspector_amortised_across_sweeps(self):
        mesh = five_point_grid(8, 8)
        p1 = build_jacobi(mesh, 4, machine=NCUBE7)
        r1 = p1.run(sweeps=1)
        p100 = build_jacobi(mesh, 4, machine=NCUBE7)
        r100 = p100.run(sweeps=20)
        # inspector runs once in both cases
        assert r100.inspector_time == pytest.approx(r1.inspector_time, rel=1e-9)
        assert r100.inspector_overhead < r1.inspector_overhead

    def test_executor_time_linear_in_sweeps(self):
        mesh = five_point_grid(8, 8)
        r2 = build_jacobi(mesh, 4, machine=NCUBE7).run(sweeps=2)
        r6 = build_jacobi(mesh, 4, machine=NCUBE7).run(sweeps=6)
        # Receive-wait attribution varies slightly with clock skew around
        # the first sweep, so linearity holds to ~1%, not exactly.
        assert r6.executor_time == pytest.approx(3 * r2.executor_time, rel=0.01)


class TestMachineProfiles:
    def test_ipsc_faster_than_ncube(self):
        mesh = five_point_grid(16, 16)
        rn = build_jacobi(mesh, 4, machine=NCUBE7).run(sweeps=2)
        ri = build_jacobi(mesh, 4, machine=IPSC2).run(sweeps=2)
        assert ri.total_time < rn.total_time
        assert ri.inspector_time < rn.inspector_time

    def test_more_processors_faster_executor(self):
        mesh = five_point_grid(16, 16)
        times = [
            build_jacobi(mesh, p, machine=NCUBE7).run(sweeps=2).executor_time
            for p in (1, 2, 4, 8)
        ]
        assert times == sorted(times, reverse=True)

    def test_ncube_inspector_u_shape(self):
        """The inspector curve dips then rises (paper Figure 7 behaviour):
        with the calibrated combine cost the P=16 inspector is cheaper than
        both the P=2 and P=128 inspectors on the NCUBE at the paper's
        128x128 mesh."""
        mesh = five_point_grid(128, 128)
        insp = {
            p: build_jacobi(mesh, p, machine=NCUBE7).run(sweeps=1).inspector_time
            for p in (2, 16, 128)
        }
        assert insp[16] < insp[2]
        assert insp[16] < insp[128]


class TestMeshes:
    def test_five_point_counts(self):
        mesh = five_point_grid(4, 5)
        # corners 2, edges 3, interior 4
        assert mesh.count.min() == 2 and mesh.count.max() == 4
        assert mesh.total_references() == int(mesh.count.sum())

    def test_five_point_adjacency_symmetric(self):
        mesh = five_point_grid(6, 7)
        live = np.arange(mesh.width)[None, :] < mesh.count[:, None]
        edges = set()
        for i in range(mesh.n):
            for j in range(mesh.count[i]):
                edges.add((i, int(mesh.adj[i, j])))
        assert all((b, a) in edges for a, b in edges)

    def test_coefficients_row_stochastic(self):
        mesh = five_point_grid(5, 5)
        np.testing.assert_allclose(mesh.coef.sum(axis=1), 1.0)

    def test_reference_sweep_identity_for_isolated(self):
        mesh = five_point_grid(1, 1)  # one node, zero neighbours
        v = np.array([3.0])
        np.testing.assert_array_equal(reference_sweep(mesh, v), v)

    def test_unstructured_degree_near_six(self):
        """Paper §4: 2-d unstructured nodes average ~six neighbours."""
        mesh, _ = random_unstructured_mesh(500, seed=3)
        assert 5.0 <= average_degree(mesh) <= 7.0

    def test_unstructured_adjacency_symmetric(self):
        mesh, _ = random_unstructured_mesh(100, seed=4)
        edges = set()
        for i in range(mesh.n):
            for j in range(mesh.count[i]):
                edges.add((i, int(mesh.adj[i, j])))
        assert all((b, a) in edges for a, b in edges)

    def test_unstructured_deterministic_by_seed(self):
        m1, p1 = random_unstructured_mesh(80, seed=5)
        m2, p2 = random_unstructured_mesh(80, seed=5)
        np.testing.assert_array_equal(m1.adj, m2.adj)
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("locality_sort", [True, False])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("n", [3, 4, 80, 1000, 4000])
    def test_unstructured_matches_edge_loop_oracle(self, n, seed, locality_sort):
        mesh, pts = random_unstructured_mesh(n, seed=seed,
                                             locality_sort=locality_sort)
        ref, ref_pts = _edge_loop_mesh(n, seed, locality_sort)
        np.testing.assert_array_equal(pts, ref_pts)
        for name in ("adj", "count", "coef"):
            got, want = getattr(mesh, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_mesh_validate_catches_bad_adj(self):
        mesh = five_point_grid(3, 3)
        mesh.adj[0, 0] = 99
        with pytest.raises(AssertionError):
            mesh.validate()


class TestPartitioners:
    def test_block_partition_matches_block_dist(self):
        from repro.meshes.partition import block_partition

        owners = block_partition(10, 3)
        assert owners.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]

    def test_bisection_balanced(self):
        from repro.meshes.partition import coordinate_bisection, partition_imbalance

        rng = np.random.default_rng(0)
        pts = rng.random((1000, 2))
        for p in (2, 4, 7, 8):
            owners = coordinate_bisection(pts, p)
            assert partition_imbalance(owners, p) < 1.05
            assert set(np.unique(owners)) == set(range(p))

    def test_bisection_cuts_fewer_edges_than_random(self):
        from repro.meshes.partition import coordinate_bisection, edge_cut

        mesh, pts = random_unstructured_mesh(400, seed=6)
        rcb = coordinate_bisection(pts, 8)
        rng = np.random.default_rng(1)
        rand = rng.integers(0, 8, size=mesh.n)
        assert edge_cut(mesh.adj, mesh.count, rcb) < edge_cut(
            mesh.adj, mesh.count, rand
        )
