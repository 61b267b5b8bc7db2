"""Tests for the Bloch-sphere branch-and-bound: its cell geometry, and the
search on an objective whose minimum is known."""

import decimal

import numpy as np
import pytest

from spptkit import sphere

from helpers import cell_offsets


class ToyObjective:
    """value(e) = c + the Bloch angle from e to p.  By the angle's triangle
    inequality a cell of Bloch radius r round a centre bounds it by the
    centre's value less r, L r / 2 for L = 2.  The polish goes straight to p
    from within a Bloch angle of 0.5, above every first-level cell's
    radius, and stays where it starts otherwise; the search's start is
    ``start``."""

    lipschitz = 2.0

    def __init__(self, p, c, start):
        self.p, self.c, self.start = p, c, (start, "start")

    def value(self, e):
        return self.c + sphere._bloch_angle(e, self.p[None, :])[..., 0]

    def bounds(self, e, radius, above):
        value = self.value(e)
        return value, value - radius, np.zeros(len(e))

    def polish(self, e, start):
        value = float(self.value(e))
        if value - self.c < 0.5:
            return self.p, "payload", self.c
        return e, start, value


class TestToyObjective:
    P = sphere._bloch(1.0, 2.0)
    NEAR = sphere._bloch(1.2, 2.1)      # Bloch angle below 0.5 from P
    FAR = sphere._bloch(np.pi, 0.0)     # the south pole, 2.14 from P

    def test_a_start_near_the_minimum_finds_it_without_bounding_a_cell(self):
        result = sphere.search(ToyObjective(self.P, 0.0, self.NEAR), 1e-3)
        assert result.conclusion == "Found"
        assert len(result.found) == 1
        e, payload = result.found[0]
        assert np.array_equal(e, self.P) and payload == "payload"
        assert result.worst == 0.0 and result.bound == 0.0
        assert len(result.minima) == 1
        assert result.work == {"evaluations": 0, "levels": 0, "first_order": 0, "polishes": 1}

    def test_finds_the_minimum(self):
        result = sphere.search(ToyObjective(self.P, 0.0, self.FAR), 1e-3)
        assert result.conclusion == "Found"
        assert len(result.found) == 1
        e, payload = result.found[0]
        assert np.array_equal(e, self.P) and payload == "payload"
        assert result.worst == 0.0
        # the start's polish fails and is the first minimum; the first
        # level's best centre is polished onto p
        assert result.minima[0]["residual"] > 1e-3
        assert result.work["levels"] == 1 and result.work["polishes"] == 2

    @pytest.mark.parametrize("threshold", [1e-3, 0.0999])
    def test_certifies_a_bound_when_the_minimum_is_above_the_threshold(self, threshold):
        result = sphere.search(ToyObjective(self.P, 0.1, self.FAR), threshold)
        assert result.conclusion == "NoneFound"
        assert not result.found
        assert threshold <= result.bound <= 0.1
        assert result.worst == 0.1
        # the cells round p must shrink to a radius below 0.1 - threshold to
        # be excluded
        assert result.work["levels"] > 1
        assert result.work["polishes"] == len(result.minima) > 0
        # the start's polish stays far from p, and the first level's best
        # centre is polished onto it; no later centre's value, at least c,
        # is below the least value seen, c
        assert result.work["polishes"] == 2

    @pytest.mark.parametrize("threshold", [1e-3, 0.0999])
    def test_a_start_that_reaches_the_minimum_is_the_only_polish(self, threshold):
        result = sphere.search(ToyObjective(self.P, 0.1, self.NEAR), threshold)
        assert result.conclusion == "NoneFound"
        assert threshold <= result.bound <= 0.1
        assert result.worst == 0.1 and result.minima[0]["residual"] == 0.1
        assert result.work["levels"] > 1 and result.work["polishes"] == 1

    def test_without_polishes_the_start_is_not_polished(self, monkeypatch):
        monkeypatch.setattr(sphere, "_POLISH_PER_LEVEL", 0)
        result = sphere.search(ToyObjective(self.P, 0.1, self.NEAR), 1e-3)
        assert result.conclusion == "NoneFound"
        assert result.work["polishes"] == len(result.minima) == 0


class TestFirstLevel:
    def test_is_one_read_only_grid(self):
        cells = sphere._FIRST_LEVEL
        n_theta, n_phi = sphere._INITIAL_CELLS
        # the rows at the poles have half as many azimuthal cells, twice as wide
        counts = np.full(n_theta, n_phi)
        counts[[0, -1]] = n_phi // 2
        theta = np.repeat((2 * np.arange(n_theta) + 1) * (np.pi / (2 * n_theta)), counts)
        h_theta = np.full(len(theta), np.pi / (2 * n_theta))
        h_phi = np.repeat(np.pi / counts, counts)
        phi = (2 * np.concatenate([np.arange(count) for count in counts]) + 1) * h_phi
        assert len(theta) == 112
        fresh = (theta, phi, h_theta, h_phi, sphere._bloch(theta, phi),
                 sphere._cell_radius(theta, h_theta, h_phi))
        for kept, built in zip(cells, fresh, strict=True):
            assert kept.dtype == built.dtype and kept.shape == built.shape
            assert kept.tobytes() == built.tobytes()
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 0


def haversine_angle(theta, d_theta, d_phi):
    """Bloch angle between (theta, phi) and (theta + d_theta, phi + d_phi)."""
    hav = (np.sin(d_theta / 2) ** 2
           + np.sin(theta) * np.sin(theta + d_theta) * np.sin(d_phi / 2) ** 2)
    return 2 * np.arcsin(np.sqrt(hav))


def exact_bloch_angle(e: np.ndarray, other: np.ndarray) -> float:
    """The Bloch angle between two float qubit vectors, from 2 atan(s / c)
    with s = |<e_perp, e'>| and c = |<e, e'>| in 50-digit decimals; for
    s / c below 1e-8, atan(x) = x (1 - x^2 / 3) to double precision."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        re = [decimal.Decimal(float(z.real)) for z in (*e, *other)]
        im = [decimal.Decimal(float(z.imag)) for z in (*e, *other)]
        # <e, e'> = conj(e0) e'0 + conj(e1) e'1, <e_perp, e'> = e0 e'1 - e1 e'0
        c = abs(complex_abs2(re[0] * re[2] + im[0] * im[2] + re[1] * re[3] + im[1] * im[3],
                             re[0] * im[2] - im[0] * re[2] + re[1] * im[3] - im[1] * re[3]))
        s = abs(complex_abs2(re[0] * re[3] - im[0] * im[3] - re[1] * re[2] + im[1] * im[2],
                             re[0] * im[3] + im[0] * re[3] - re[1] * im[2] - im[1] * re[2]))
        x = s / c
        assert x < decimal.Decimal("1e-8")
        return float(2 * x * (1 - x * x / 3))


def complex_abs2(re: decimal.Decimal, im: decimal.Decimal) -> decimal.Decimal:
    return (re * re + im * im).sqrt()


class TestBlochAngle:
    def test_small_angles_read_to_relative_1e_6(self):
        # 2 arccos |<e, e'>| reads these as 0 or misses them by up to ~7e-8;
        # the atan2 form keeps them to within 1e-6 relative
        rng = np.random.default_rng(23)
        starts = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
        starts += [sphere._bloch(*rng.uniform(0.0, np.pi, 2)) for _ in range(6)]
        for e in starts:
            e_perp = np.array([-np.conj(e[1]), np.conj(e[0])])
            for gamma in np.logspace(-10, -8, 9):
                phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2))
                other = phase[0] * (np.cos(gamma / 2) * e
                                    + phase[1] * np.sin(gamma / 2) * e_perp)
                got = sphere._bloch_angle(e, other[None, :])[0]
                exact = exact_bloch_angle(e, other)
                assert abs(got - exact) <= 1e-6 * exact, (e, gamma, got, exact)
                assert abs(exact - gamma) <= 1e-5 * gamma

    def test_matches_the_haversine_angle(self):
        rng = np.random.default_rng(24)
        theta, phi = rng.uniform(0.0, np.pi, (2, 50)), rng.uniform(0.0, 2 * np.pi, (2, 50))
        e = sphere._bloch(theta[0], phi[0])
        other = sphere._bloch(theta[1], phi[1])
        got = np.array([sphere._bloch_angle(a, b[None, :])[0] for a, b in zip(e, other)])
        np.testing.assert_allclose(got, haversine_angle(theta[0], theta[1] - theta[0],
                                                        phi[1] - phi[0]), rtol=1e-12)


class TestCellRadius:
    @pytest.mark.parametrize("h", [np.pi / 16, 1e-3, 5e-10],
                             ids=["first-level", "1e-3", "1e-9-wide"])
    def test_dense_sampling_within_radius(self, h):
        rng = np.random.default_rng(4)
        # random cells, and the cells touching each pole
        theta = np.concatenate([rng.uniform(h, np.pi - h, 300), [h, np.pi - h]])
        radius = sphere._cell_radius(theta, h, h)
        assert np.all(radius > 0)
        corners = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        offsets = np.vstack([corners, rng.uniform(-1.0, 1.0, size=(2000, 2))]) * h
        angles = haversine_angle(theta[:, None], offsets[None, :, 0], offsets[None, :, 1])
        assert np.all(angles <= radius[:, None])
        # the haversine angles are the Bloch angles of the qubit vectors
        if h >= 1e-3:
            phi = rng.uniform(0.0, 2 * np.pi, len(theta))
            e = sphere._bloch(theta, phi)
            for j in range(0, len(offsets), 100):
                other = sphere._bloch(theta + offsets[j, 0], phi + offsets[j, 1])
                overlap = np.minimum(np.abs(np.sum(np.conj(e) * other, axis=1)), 1.0)
                np.testing.assert_allclose(2 * np.arccos(overlap), angles[:, j], atol=1e-7)


def generations(count):
    """The cells of the first ``count`` levels of a search that excludes no
    cell, as (theta, phi, h_theta, h_phi), the first level first."""
    cells = sphere._FIRST_LEVEL[:4]
    for _ in range(count):
        yield cells
        cells = sphere._children(*cells)


def random_cells(rng, n=300):
    """Cells with half-widths drawn log-uniformly up to pi / 8, inside the
    rectangle: every split kind occurs among them, the phi-only one too,
    which the first levels of a search without exclusions never make."""
    h_theta, h_phi = np.pi / 8 * 10.0 ** rng.uniform(-3.0, 0.0, (2, n))
    theta = rng.uniform(h_theta, np.pi - h_theta)
    return theta, rng.uniform(0.0, 2 * np.pi, n), h_theta, h_phi


def split_kind(cells):
    """Per cell, the axes ``_split`` halves it along: "theta", "phi" or "both"."""
    theta, phi, h_theta, h_phi = cells
    along_theta, along_phi = sphere._split(theta, h_theta, h_phi)
    return np.where(along_theta & along_phi, "both", np.where(along_theta, "theta", "phi"))


def containing(cells, theta, phi):
    """For points (theta, phi), the number of cells that hold each one."""
    c_theta, c_phi, h_theta, h_phi = cells
    inside = ((np.abs(theta[:, None] - c_theta) <= h_theta)
              & (np.abs(phi[:, None] - c_phi) <= h_phi))
    return inside.sum(axis=1)


class TestCellGeometry:
    """Every level tiles the sphere's (theta, phi) rectangle, and every
    cell's radius bounds the Bloch angle to its points, so excluding a cell
    leaves no direction unsearched."""

    def test_levels_tile_the_rectangle(self):
        rng = np.random.default_rng(40)
        theta, phi = rng.uniform(0.0, np.pi, 4000), rng.uniform(0.0, 2 * np.pi, 4000)
        for level, cells in enumerate(generations(4), start=1):
            # no gap or overlap: the areas add up to the rectangle's, and
            # every point lies in exactly one cell
            area = np.sum(4.0 * cells[2] * cells[3])
            assert abs(area - 2 * np.pi ** 2) <= 1e-12 * area, level
            assert np.all(containing(cells, theta, phi) == 1), level
            # the rectangle's edges are cell edges
            assert np.isclose(np.min(cells[0] - cells[2]), 0.0, atol=1e-15)
            assert np.isclose(np.max(cells[0] + cells[2]), np.pi, atol=1e-15)
            assert np.isclose(np.min(cells[1] - cells[3]), 0.0, atol=1e-15)
            assert np.isclose(np.max(cells[1] + cells[3]), 2 * np.pi, atol=1e-15)
            # every half-width at most pi / 8, as _cell_radius's proof asks
            assert np.all(np.maximum(cells[2], cells[3]) <= np.pi / 8)

    def test_each_split_kind_tiles_its_parent(self):
        rng = np.random.default_rng(41)
        seen = set()
        for cells in [*generations(5), random_cells(rng)]:
            kinds = split_kind(cells)
            for kind in ("theta", "phi", "both"):
                pick = np.flatnonzero(kinds == kind)[:20]
                if not len(pick):
                    continue
                seen.add(kind)
                parents = tuple(a[pick] for a in cells)
                children = sphere._children(*parents)
                count = 4 if kind == "both" else 2
                assert len(children[0]) == count * len(pick)
                for i in range(len(pick)):
                    # each parent's children come together, in order
                    parent = tuple(a[i:i + 1] for a in parents)
                    child = tuple(a[count * i:count * (i + 1)] for a in children)
                    assert np.all(containing(parent, *child[:2]) == 1)
                    assert np.isclose(np.sum(child[2] * child[3]),
                                      parents[2][i] * parents[3][i], rtol=1e-13)
                    offsets = rng.uniform(-1.0, 1.0, size=(500, 2))
                    points = (parent[0] + parent[2] * offsets[:, 0],
                              parent[1] + parent[3] * offsets[:, 1])
                    assert np.all(containing(child, *points) == 1)
        assert seen == {"theta", "phi", "both"}

    def test_radius_bounds_every_sampled_point(self):
        rng = np.random.default_rng(42)
        checked = {"first": 0, "theta": 0, "phi": 0, "both": 0}
        for level, cells in enumerate([*generations(5), random_cells(rng)], start=1):
            if level == 1:
                self.assert_within_radius(cells, rng)
                checked["first"] += len(cells[0])
            kinds = split_kind(cells)
            for kind in ("theta", "phi", "both"):
                pick = np.flatnonzero(kinds == kind)
                if len(pick):
                    pick = rng.choice(pick, min(len(pick), 24), replace=False)
                    children = sphere._children(*(a[pick] for a in cells))
                    self.assert_within_radius(children, rng)
                    checked[kind] += len(children[0])
        assert checked["first"] == 112 and min(checked.values()) > 0

    @staticmethod
    def assert_within_radius(cells, rng, points=600):
        theta, phi, h_theta, h_phi = cells
        offsets = cell_offsets(rng, points)
        e = sphere._bloch(theta[:, None] + h_theta[:, None] * offsets[:, 0],
                                   phi[:, None] + h_phi[:, None] * offsets[:, 1])
        radius = sphere._cell_radius(theta, h_theta, h_phi)
        centres = sphere._bloch(theta, phi)
        for centre, sampled, r in zip(centres, e, radius):
            assert np.all(sphere._bloch_angle(centre, sampled) <= r)
