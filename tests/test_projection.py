import math
import re

import numpy as np
import pytest

from stylecast import projection
from stylecast.projection import (
    KNN_BLOCK, KNN_ROUNDING, SIGMA_ITERS, SIGMA_TOL, LayoutPoint, ProjectionError, cast_latent,
    emit_scatter_svg, fuzzy_knn_graph, optimize_layout, project_latents, read_latents,
    smooth_sigma, write_latents,
)


def gaussian_clusters(n_per=60, d=32, sep=10.0, seed=0, centers=3):
    rng = np.random.default_rng(seed)
    pts, labels = [], []
    for c in range(centers):
        center = np.zeros(d)
        center[c] = sep
        pts.append(rng.standard_normal((n_per, d)) + center)
        labels += [c] * n_per
    return np.vstack(pts), labels


def knn_purity(points: list[LayoutPoint], k: int = 10) -> float:
    xy = np.array([[p.x, p.y] for p in points])
    labels = np.array([p.label for p in points])
    d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    purities = []
    for i in range(len(points)):
        nn = np.argpartition(d[i], k)[:k]
        purities.append((labels[nn] == labels[i]).mean())
    return float(np.mean(purities))


class TestFuzzyGraph:
    def test_nearest_neighbor_weight_is_one(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((20, 4))
        g = fuzzy_knn_graph(pts, k=5)
        # column 0 holds each node's nearest neighbor (d == rho)
        assert np.allclose(g.weights[:, 0], 1.0)

    def test_duplicate_pair_mutual_weight_one(self):
        pts = np.vstack([np.zeros(3), np.zeros(3),
                         np.random.default_rng(2).standard_normal((8, 3)) + 5.0])
        g = fuzzy_knn_graph(pts, k=3)
        sym = {(i, j): w for i, j, w in g.sym_edges}
        assert abs(sym[(0, 1)] - 1.0) < 1e-12

    def test_three_collinear_points_bisection_oracle(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        g = fuzzy_knn_graph(pts, k=2)
        target = math.log2(2)
        for i in range(3):
            nd = np.sort(np.abs(pts[:, 0] - pts[i, 0]))[1:3]
            rho = nd.min()
            attainable = (nd == rho).sum() <= target
            psum = float(np.exp(-np.maximum(nd - g.rhos[i], 0.0) / g.sigmas[i]).sum())
            if attainable:  # end nodes: constraint met within 1e-5
                assert abs(psum - target) < 1e-5, f"node {i}: {psum}"
            else:           # middle node: both neighbors tie at rho, sum is pinned at 2
                assert abs(psum - 2.0) < 1e-12

    def test_sigma_constraint_random_data(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, 8))
        k = 6
        g = fuzzy_knn_graph(pts, k)
        target = math.log2(k)
        for i in range(40):
            idx = g.neighbors[i]
            nd = np.sqrt(((pts[idx] - pts[i]) ** 2).sum(-1))
            psum = float(np.exp(-np.maximum(nd - g.rhos[i], 0.0) / g.sigmas[i]).sum())
            assert abs(psum - target) < 1e-5

    def test_all_weights_in_unit_interval(self):
        rng = np.random.default_rng(4)
        g = fuzzy_knn_graph(rng.standard_normal((30, 5)), k=4)
        assert np.all(g.weights > 0.0) and np.all(g.weights <= 1.0)
        ws = np.array([w for _, _, w in g.sym_edges])
        assert np.all(ws > 0.0) and np.all(ws <= 1.0 + 1e-12)

    def test_degree_pre_symmetrization(self):
        rng = np.random.default_rng(5)
        g = fuzzy_knn_graph(rng.standard_normal((25, 3)), k=4)
        assert g.neighbors.shape == (25, 4)

    def test_too_few_points(self):
        with pytest.raises(ProjectionError):
            fuzzy_knn_graph(np.zeros((3, 2)), k=3)
        with pytest.raises(ProjectionError):
            fuzzy_knn_graph(np.zeros((10, 2)), k=1)


# -- loop references for the array code ---------------------------------------------


def reference_sigma(dists, k):
    """Per-row scalar bisection: the loop that smooth_sigma runs in lockstep."""
    rho = float(dists.min())
    adj = np.maximum(dists - rho, 0.0)
    target = math.log2(k)
    lo, hi, mid = 0.0, math.inf, 1.0
    for _ in range(SIGMA_ITERS):
        psum = float(np.exp(-adj / mid).sum())
        if abs(psum - target) < SIGMA_TOL:
            break
        if psum > target:
            hi = mid
            mid = (lo + hi) / 2.0
        else:
            lo = mid
            mid = mid * 2.0 if hi == math.inf else (lo + hi) / 2.0
    return rho, mid


def reference_graph(points, k):
    """Dense distances, one neighbor search by (exact distance, index) and sigma solve
    per row, dict fuzzy union. A squared distance below the product's rounding bound
    is taken exact."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    sq = (pts ** 2).sum(axis=1)
    dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T), 0.0))
    np.fill_diagonal(dist, np.inf)
    neighbors = np.zeros((n, k), dtype=np.int64)
    weights = np.zeros((n, k))
    rhos, sigmas = np.zeros(n), np.zeros(n)
    for i in range(n):
        exact = ((pts - pts[i]) ** 2).sum(axis=1)
        exact[i] = np.inf
        idx = np.lexsort((np.arange(n), exact))[:k]
        near_zero = exact[idx] < KNN_ROUNDING * (sq[i] + sq.max())
        nd = np.where(near_zero, np.sqrt(exact[idx]), dist[i][idx])
        rhos[i], sigmas[i] = reference_sigma(nd, k)
        neighbors[i] = idx
        weights[i] = np.exp(-np.maximum(nd - rhos[i], 0.0) / sigmas[i])
    directed = {(i, int(j)): float(w) for i in range(n)
                for j, w in zip(neighbors[i], weights[i])}
    sym = {}
    for (i, j), w in directed.items():
        key = (min(i, j), max(i, j))
        if key not in sym:
            wr = directed.get((j, i), 0.0)
            sym[key] = w + wr - w * wr
    return neighbors, rhos, sigmas, sorted(sym.items())


def reference_layout(graph, epochs, seed, a=1.58, b=0.9, negative_samples=5, clip=4.0):
    """Per-edge loop with the epoch's forces all taken from its starting positions."""
    n = graph.n
    rng = np.random.default_rng(seed)
    emb = rng.uniform(-10.0, 10.0, size=(n, 2))
    edges = [(int(i), int(j), float(w)) for i, j, w in graph.sym_edges]
    near = {(i, j) for i, j, _ in edges} | {(j, i) for i, j, _ in edges}
    for epoch in range(epochs):
        alpha = 1.0 - epoch / epochs
        snap = emb.copy()
        pulls, pushes = [], []
        for i, j, w in edges:
            diff = snap[i] - snap[j]
            d2 = float(diff @ diff)
            coeff = (-2.0 * a * b * d2 ** (b - 1.0)) / (a * d2 ** b + 1.0) if d2 > 0 else 0.0
            pulls.append((i, j, np.clip(coeff * diff, -clip, clip) * w))
        draws = rng.integers(n, size=len(edges) * negative_samples)
        for e, other in enumerate(draws):
            i = edges[e // negative_samples][0]
            if other != i and (i, other) not in near:
                diff = snap[i] - snap[other]
                d2 = float(diff @ diff)
                coeff = (2.0 * b) / ((0.001 + d2) * (a * d2 ** b + 1.0))
                pushes.append((i, np.clip(coeff * diff, -clip, clip)))
        for i, j, g in pulls:
            emb[i] += alpha * g
            emb[j] -= alpha * g
        for i, g in pushes:
            emb[i] += alpha * g
    return emb


def oracle_cases():
    rng = np.random.default_rng(11)
    dup = rng.standard_normal((30, 4))
    yield "random", rng.standard_normal((80, 8)), 6
    yield "duplicates", np.vstack([dup, dup[:12], dup[:5]]), 5   # copies tie at rho
    yield "k=2", rng.standard_normal((25, 3)), 2
    yield "n=k+1", rng.standard_normal((9, 5)), 8
    yield "lattice", np.array([[x, y] for x in range(6) for y in range(6)], float), 4


class TestArrayCodeOracle:
    @pytest.mark.parametrize("name,pts,k", list(oracle_cases()),
                             ids=[c[0] for c in oracle_cases()])
    def test_graph_matches_loop_reference(self, name, pts, k):
        # one block computes pts @ pts.T like the reference, so the distance bits
        # agree; exact ties at the k-th neighbor go to the lower index in both
        assert len(pts) <= KNN_BLOCK
        neighbors, rhos, sigmas, sym = reference_graph(pts, k)
        g = fuzzy_knn_graph(pts, k)
        assert np.array_equal(g.neighbors, neighbors)
        assert np.array_equal(g.rhos, rhos)
        np.testing.assert_allclose(g.sigmas, sigmas, rtol=1e-9)
        edges = np.asarray(g.sym_edges)
        assert edges.shape == (len(sym), 3) and len(g.sym_edges) == len(sym)
        assert [(int(i), int(j)) for i, j, _ in edges] == [key for key, _ in sym]
        np.testing.assert_allclose(edges[:, 2], [w for _, w in sym], rtol=1e-9)

    def test_blocked_distances_match_dense(self):
        pts = np.random.default_rng(12).standard_normal((KNN_BLOCK + 70, 16))
        neighbors, rhos, sigmas, sym = reference_graph(pts, 10)
        g = fuzzy_knn_graph(pts, 10)
        assert np.array_equal(g.neighbors, neighbors)
        np.testing.assert_allclose(g.rhos, rhos, rtol=1e-9)
        np.testing.assert_allclose(g.sigmas, sigmas, rtol=1e-9)
        assert [(int(i), int(j)) for i, j, _ in g.sym_edges] == [key for key, _ in sym]

    @pytest.mark.parametrize("block", [7, 64, 10_000])
    def test_duplicate_neighbors_do_not_depend_on_the_block(self, monkeypatch, block):
        # more rows than KNN_BLOCK, each base point present two to four times:
        # every exact tie at the k-th neighbor goes to the lower index, and the
        # distance between copies is 0 whatever the block's product rounds it to
        base = np.random.default_rng(14).standard_normal((100, 16))
        pts = np.vstack([base, base, base[:60], base[:50], base[:5]])
        assert len(pts) > KNN_BLOCK
        neighbors, rhos, sigmas, sym = reference_graph(pts, 5)
        monkeypatch.setattr(projection, "KNN_BLOCK", block)
        g = fuzzy_knn_graph(pts, 5)
        assert np.array_equal(g.neighbors, neighbors)
        assert [(int(i), int(j)) for i, j, _ in g.sym_edges] == [key for key, _ in sym]
        assert np.array_equal(g.rhos, rhos) and not rhos.any()
        np.testing.assert_allclose(g.sigmas, sigmas, rtol=1e-9)
        np.testing.assert_allclose(g.sym_edges[:, 2], [w for _, w in sym], rtol=1e-9)

    def test_layout_matches_edge_loop_reference(self):
        pts, labels = gaussian_clusters(n_per=15, d=6, centers=2, seed=15)
        g = fuzzy_knn_graph(pts, k=4)
        got = optimize_layout(g, epochs=6, seed=3, labels=labels)
        want = reference_layout(g, epochs=6, seed=3)
        np.testing.assert_allclose([(p.x, p.y) for p in got], want, rtol=1e-9, atol=1e-9)

    def test_single_row_equals_its_batch_row(self):
        rng = np.random.default_rng(13)
        d = np.sort(np.abs(rng.standard_normal((40, 7))), axis=1)
        d[3] = d[3, 0]  # all tied at rho: the target is out of reach
        rho, sigma = smooth_sigma(d, 7)
        for r in (0, 3, 39):
            rho1, sigma1 = smooth_sigma(d[r:r + 1], 7)
            assert rho1.shape == sigma1.shape == (1,)
            assert rho1[0] == rho[r] and sigma1[0] == sigma[r]


class TestLayout:
    def test_two_points_converge_close(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                        [100.0, 100.0, 100.0], [100.0, 100.0, 100.0],
                        [200.0, 0.0, 100.0], [200.0, 0.0, 100.0]])
        g = fuzzy_knn_graph(pts, k=2)
        points = optimize_layout(g, epochs=300, seed=1, labels=[0] * 6)
        d01 = math.dist((points[0].x, points[0].y), (points[1].x, points[1].y))
        assert d01 < 0.2  # below 2 * min_dist for the a=1.58, b=0.9 curve

    def test_cluster_purity(self):
        pts, labels = gaussian_clusters(n_per=60)
        g = fuzzy_knn_graph(pts, k=10)
        points = optimize_layout(g, epochs=150, seed=2, labels=labels)
        assert knn_purity(points, k=10) >= 0.9

    def test_same_seed_identical_layout(self):
        pts, labels = gaussian_clusters(n_per=25, centers=2)
        g = fuzzy_knn_graph(pts, k=5)
        a = optimize_layout(g, epochs=50, seed=7, labels=labels)
        b = optimize_layout(g, epochs=50, seed=7, labels=labels)
        assert all((p.x, p.y) == (q.x, q.y) for p, q in zip(a, b))

    def test_empty_graph_rejected(self):
        from stylecast.projection import FuzzyGraph
        empty = FuzzyGraph(n=0, k=2, neighbors=np.zeros((0, 2), dtype=np.int64),
                           weights=np.zeros((0, 2)), rhos=np.zeros(0), sigmas=np.zeros(0),
                           sym_edges=[])
        with pytest.raises(ProjectionError):
            optimize_layout(empty, epochs=200, seed=0, labels=[])


@pytest.fixture(scope="module")
def projected():
    pts, labels = gaussian_clusters(n_per=40, centers=3, seed=8)
    return pts, labels, project_latents(pts, labels, k=8, epochs=120, seed=3)


class TestCast:
    def test_training_latent_lands_on_its_cluster(self, projected):
        pts, labels, result = projected
        probe = cast_latent(pts[5], result)
        assert probe.is_overlay
        centroids = []
        for c in range(3):
            xs = [p.x for p, l in zip(result.points, labels) if l == c]
            ys = [p.y for p, l in zip(result.points, labels) if l == c]
            centroids.append((np.mean(xs), np.mean(ys)))
        dists = [math.dist((probe.x, probe.y), c) for c in centroids]
        assert int(np.argmin(dists)) == labels[5]
        # weight concentration: the duplicate point dominates the interpolation
        own = math.dist((probe.x, probe.y), (result.points[5].x, result.points[5].y))
        others = [math.dist((centroids[c][0], centroids[c][1]), centroids[labels[5]])
                  for c in range(3) if c != labels[5]]
        assert own < min(others)

    def test_overlay_inside_convex_hull(self, projected):
        pts, labels, result = projected
        probe = cast_latent(pts[50] + 0.1, result)
        xs = [p.x for p in result.points]
        ys = [p.y for p in result.points]
        assert min(xs) - 1e-9 <= probe.x <= max(xs) + 1e-9
        assert min(ys) - 1e-9 <= probe.y <= max(ys) + 1e-9

    @pytest.mark.parametrize("n_points", [120, 4])  # 4 < k: every point is a neighbor
    def test_batch_equals_one_row_casts(self, projected, n_points):
        from stylecast.projection import ProjectionResult
        pts, labels, full = projected
        result = full if n_points == len(pts) else ProjectionResult(
            points=full.points[:n_points], latents=pts[:n_points], k=full.k)
        rng = np.random.default_rng(16)
        probes = np.vstack([pts[:3], pts[40:45] + 0.3 * rng.standard_normal((5, pts.shape[1])),
                            pts[7:8], np.zeros((1, pts.shape[1]))])
        batch = cast_latent(probes, result)
        assert len(batch) == len(probes)
        for probe, got in zip(probes, batch):
            alone = cast_latent(probe, result)
            assert isinstance(alone, LayoutPoint) and alone.is_overlay and got.is_overlay
            # a product over m rows may round apart from one over a single row;
            # probes[:3] and probes[8] are training latents, at exact distance 0
            np.testing.assert_allclose((got.x, got.y), (alone.x, alone.y), rtol=0, atol=1e-12)
        assert len(cast_latent(probes[:1], result)) == 1
        assert cast_latent(probes[:0], result) == []

    def test_cast_on_empty_layout_rejected(self):
        from stylecast.projection import ProjectionResult
        empty = ProjectionResult(points=[], latents=np.zeros((0, 4)), k=5)
        with pytest.raises(ProjectionError):
            cast_latent(np.zeros(4), empty)


class TestLatentFile:
    def test_round_trip(self, tmp_path):
        arr = np.random.default_rng(9).standard_normal((7, 5)).astype(np.float32)
        p = tmp_path / "lat.bin"
        write_latents(p, arr)
        back = read_latents(p)
        assert back.shape == (7, 5)
        assert np.array_equal(back, arr)

    def test_header_matches_spec(self, tmp_path):
        arr = np.ones((3, 4), dtype=np.float32)
        p = tmp_path / "lat.bin"
        write_latents(p, arr)
        blob = p.read_bytes()
        assert np.array_equal(np.frombuffer(blob[:8], dtype="<u4"), [3, 4])
        assert len(blob) == 8 + 3 * 4 * 4

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(np.array([5, 5], dtype="<u4").tobytes() + b"\x00" * 8)
        with pytest.raises(ProjectionError):
            read_latents(p)


class TestSvg:
    def points(self, n=10, overlays=1):
        rng = np.random.default_rng(10)
        pts = [LayoutPoint(float(x), float(y), int(l))
               for x, y, l in zip(rng.uniform(0, 1, n), rng.uniform(0, 1, n),
                                  rng.integers(0, 3, n))]
        for _ in range(overlays):
            pts.append(LayoutPoint(0.5, 0.5, -1, is_overlay=True))
        return pts

    def test_one_circle_per_point(self, tmp_path):
        pts = self.points(12, overlays=0)
        out = tmp_path / "s.svg"
        emit_scatter_svg(pts, ["a", "b", "c"], out)
        svg = out.read_text()
        # scatter circles separate from the 3 legend swatches
        assert svg.count("<circle") == 12 + 3
        assert svg.startswith("<svg")

    def test_overlay_black_and_painted_last(self, tmp_path):
        pts = self.points(6, overlays=1)
        out = tmp_path / "s.svg"
        emit_scatter_svg(pts, ["a", "b", "c"], out)
        svg = out.read_text()
        circles = re.findall(r'<circle[^>]*r="3"[^>]*>', svg)
        assert len(circles) == 7
        assert 'fill="#000000"' in circles[-1]

    def test_single_point_centered(self, tmp_path):
        out = tmp_path / "s.svg"
        emit_scatter_svg([LayoutPoint(3.0, 4.0, 0)], ["only"], out)
        svg = out.read_text()
        m = re.search(r'<circle cx="([\d.]+)" cy="([\d.]+)" r="3"', svg)
        assert (float(m.group(1)), float(m.group(2))) == (500.0, 500.0)

    def test_legend_names_escaped(self, tmp_path):
        out = tmp_path / "s.svg"
        emit_scatter_svg(self.points(4, 0), ["a&b", "x<y", "z"], out)
        svg = out.read_text()
        assert "a&amp;b" in svg and "x&lt;y" in svg

    def test_well_formed_xml(self, tmp_path):
        import xml.etree.ElementTree as ET
        out = tmp_path / "s.svg"
        emit_scatter_svg(self.points(8, 2), ["a", "b", "c"], out)
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")
        assert root.get("viewBox") == "0 0 1000 1000"

    def test_no_points_rejected(self, tmp_path):
        with pytest.raises(ProjectionError):
            emit_scatter_svg([], ["a"], tmp_path / "s.svg")
