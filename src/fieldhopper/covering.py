"""Covering a square field with M equal disks.

The solver minimizes the covering radius directly: the square is split into
the Voronoi cells of the current centers (clipped to the square), each center
relocates to the center of the minimum enclosing circle of its cell, and the
configuration radius is the largest cell vertex distance.  Both quantities
are exact for a given configuration, so no evaluation grid is involved.
Multistart (structured grids plus random layouts) with small perturbation
kicks escapes poor local optima.

Results are always computed on the unit square and scaled, so plans for
different field sizes are exactly similar.  A normalized table of covering
radii and tour lengths is cached to CSV so planners never re-run the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tours import solve_tsp

Pt = tuple[float, float]

UNIT_SQUARE: list[Pt] = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


# ---------------------------------------------------------------------------
# exact cell geometry

def _clip_halfplane(poly: list[Pt], nx: float, ny: float, c: float) -> list[Pt]:
    """Keep the part of a convex polygon with nx*x + ny*y <= c."""
    if not poly:
        return poly
    out: list[Pt] = []
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        s1 = nx * x1 + ny * y1 - c
        s2 = nx * x2 + ny * y2 - c
        if s1 <= 0.0:
            out.append((x1, y1))
            if s2 > 0.0:
                t = s1 / (s1 - s2)
                out.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
        elif s2 <= 0.0:
            t = s1 / (s1 - s2)
            out.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return out


def _voronoi_cells(centers: np.ndarray) -> list[list[Pt]]:
    """Voronoi cell of each center, clipped to the unit square."""
    m = len(centers)
    cells: list[list[Pt]] = []
    for i in range(m):
        cix, ciy = centers[i]
        poly = list(UNIT_SQUARE)
        for j in range(m):
            if j == i or not poly:
                continue
            cjx, cjy = centers[j]
            nx, ny = cjx - cix, cjy - ciy
            c = 0.5 * (cjx * cjx + cjy * cjy - cix * cix - ciy * ciy)
            poly = _clip_halfplane(poly, nx, ny, c)
        cells.append(poly)
    return cells


def _circle_from(points: list[Pt]) -> tuple[float, float, float]:
    if not points:
        return 0.0, 0.0, 0.0
    if len(points) == 1:
        return points[0][0], points[0][1], 0.0
    if len(points) == 2:
        (x1, y1), (x2, y2) = points
        cx, cy = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
        return cx, cy, math.hypot(x1 - cx, y1 - cy)
    (ax, ay), (bx, by), (cx_, cy_) = points
    d = 2.0 * (ax * (by - cy_) + bx * (cy_ - ay) + cx_ * (ay - by))
    if abs(d) < 1e-14:
        # collinear: fall back to the farthest pair
        pairs = [(points[0], points[1]), (points[0], points[2]), (points[1], points[2])]
        far = max(pairs, key=lambda p: (p[0][0] - p[1][0]) ** 2 + (p[0][1] - p[1][1]) ** 2)
        return _circle_from(list(far))
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx_ * cx_ + cy_ * cy_
    ux = (a2 * (by - cy_) + b2 * (cy_ - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx_ - bx) + b2 * (ax - cx_) + c2 * (bx - ax)) / d
    return ux, uy, math.hypot(ax - ux, ay - uy)


def _in_circle(p: Pt, circle: tuple[float, float, float]) -> bool:
    cx, cy, r = circle
    return math.hypot(p[0] - cx, p[1] - cy) <= r * (1.0 + 1e-12) + 1e-15


def _mec(points: list[Pt]) -> tuple[float, float, float]:
    """Welzl's minimum enclosing circle (points lists here are tiny)."""
    pts = list(points)
    circle = (0.0, 0.0, -1.0)
    for i, p in enumerate(pts):
        if circle[2] >= 0.0 and _in_circle(p, circle):
            continue
        circle = (p[0], p[1], 0.0)
        for j in range(i):
            q = pts[j]
            if _in_circle(q, circle):
                continue
            circle = _circle_from([p, q])
            for k in range(j):
                s = pts[k]
                if _in_circle(s, circle):
                    continue
                circle = _circle_from([p, q, s])
    return circle


def _config_radius(centers: np.ndarray, cells: list[list[Pt]]) -> float:
    worst = 0.0
    for (cx, cy), cell in zip(centers, cells):
        for x, y in cell:
            d = math.hypot(x - cx, y - cy)
            if d > worst:
                worst = d
    return worst


def cover_radius(centers: np.ndarray) -> float:
    """Exact covering radius of the unit square for the given centers."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    return _config_radius(centers, _voronoi_cells(centers))


# ---------------------------------------------------------------------------
# local search

def _relocate_once(centers: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    cells = _voronoi_cells(centers)
    radius = _config_radius(centers, cells)
    new = centers.copy()
    for i, cell in enumerate(cells):
        if len(cell) < 3:
            new[i] = rng.random(2)
            continue
        cx, cy, _ = _mec(cell)
        new[i] = (min(max(cx, 0.0), 1.0), min(max(cy, 0.0), 1.0))
    return new, radius


def _descend(
    centers: np.ndarray, rng: np.random.Generator, max_iter: int = 120
) -> tuple[float, np.ndarray]:
    best_r = math.inf
    best_c = centers.copy()
    cur = centers.copy()
    for _ in range(max_iter):
        new, radius = _relocate_once(cur, rng)
        if radius < best_r:
            best_r = radius
            best_c = cur.copy()
        if np.max(np.abs(new - cur)) < 1e-10:
            cur = new
            break
        cur = new
    radius = cover_radius(cur)
    if radius < best_r:
        best_r, best_c = radius, cur.copy()
    return best_r, best_c


def _grid_starts(m: int) -> list[np.ndarray]:
    starts = []
    for k in range(1, m + 1):
        if m % k:
            continue
        l = m // k
        xs = (np.arange(k) + 0.5) / k
        ys = (np.arange(l) + 0.5) / l
        grid = np.array([(x, y) for x in xs for y in ys])
        starts.append(grid)
        if k > 1 and l > 1:
            stag = grid.copy().reshape(k, l, 2)
            stag[1::2, :, 1] = np.clip(stag[1::2, :, 1] + 0.5 / l, 0.0, 1.0)
            starts.append(stag.reshape(-1, 2))
    return starts


def _row_starts(m: int) -> list[np.ndarray]:
    """Balanced row partitions (e.g. 3-2-3) that plain grids cannot express."""
    starts = []
    for rows in (2, 3, 4):
        if rows >= m:
            continue
        base, extra = divmod(m, rows)
        if extra == 0:
            continue  # already covered by the factor grids
        for heavy_low in (True, False):
            heavy = range(extra) if heavy_low else range(rows - extra, rows)
            counts = [base + 1 if i in heavy else base for i in range(rows)]
            pts = []
            for i, count in enumerate(counts):
                y = (i + 0.5) / rows
                pts.extend(((j + 0.5) / count, y) for j in range(count))
            starts.append(np.array(pts))
    return starts


def _ring_starts(m: int) -> list[np.ndarray]:
    """Rings (optionally with center points) around the square middle."""
    starts = []
    for inner in (0, 1, 2):
        outer = m - inner
        if outer < 3:
            continue
        ang = 2.0 * math.pi * (np.arange(outer) + 0.5) / outer
        ring = 0.5 + 0.36 * np.column_stack([np.cos(ang), np.sin(ang)])
        if inner == 0:
            starts.append(ring)
        elif inner == 1:
            starts.append(np.vstack([ring, [[0.5, 0.5]]]))
        else:
            starts.append(np.vstack([ring, [[0.4, 0.5], [0.6, 0.5]]]))
    return starts


def _square_ring_starts(m: int) -> list[np.ndarray]:
    """Points laid out on a square contour (pinwheel-style coverings)."""
    if m < 4:
        return []
    starts = []
    for margin in (0.17, 0.25):
        for phase in (0.0, math.pi / m):
            ang = 2.0 * math.pi * (np.arange(m) + 0.5) / m + phase
            dx, dy = np.cos(ang), np.sin(ang)
            scale = (0.5 - margin) / np.maximum(np.abs(dx), np.abs(dy))
            starts.append(0.5 + scale[:, None] * np.column_stack([dx, dy]))
    return starts


KICK_SCALES = (0.3, 0.15, 0.08, 0.04)


def solve_unit_covering(
    m: int, seed: int, restarts: int = 60
) -> list[tuple[float, np.ndarray]]:
    """Best covering layouts of the unit square, sorted by radius.

    Each start descends to a relocation fixed point and is then kicked with
    progressively smaller perturbations: large kicks hop between basins,
    small ones escape shallow stalls without leaving a good basin.
    """
    if m == 1:
        return [(math.sqrt(0.5), np.array([[0.5, 0.5]]))]
    rng = np.random.default_rng(seed)
    candidates: list[tuple[float, np.ndarray]] = []
    structured = _grid_starts(m) + _row_starts(m) + _ring_starts(m) + _square_ring_starts(m)
    starts = [s for s in structured if len(s) == m]
    while len(starts) < restarts:
        starts.append(rng.random((m, 2)))
    for start in starts:
        r, c = _descend(np.array(start, dtype=float), rng)
        for scale in KICK_SCALES:
            kicked = np.clip(c + rng.normal(scale=scale * r, size=c.shape), 0.0, 1.0)
            r2, c2 = _descend(kicked, rng)
            if r2 < r:
                r, c = r2, c2
        candidates.append((r, c))
    candidates.sort(key=lambda rc: rc[0])
    return candidates


def _canonical(centers: np.ndarray) -> np.ndarray:
    idx = np.lexsort((centers[:, 0], centers[:, 1]))
    return centers[idx]


# ---------------------------------------------------------------------------
# normalized table

@dataclass(frozen=True)
class CoveragePlan:
    """M disk centers covering one square field, and their common radius."""

    radius: float
    centers: np.ndarray


@dataclass(frozen=True)
class TableRow:
    m: int
    delta: float
    alpha: float
    centers: np.ndarray


class NormalizedCoverageTable:
    """Unit-square covering radii and tour lengths, indexed by M.

    ``delta`` is the covering radius and ``alpha`` the closed-tour length
    through the M centers (no separate depot leg), both for a unit field.
    Among near-optimal layouts (within 0.5% in radius) the one with the
    shortest tour is kept, since the tour is what the planner pays for.
    """

    VERSION = "v1"

    def __init__(self, rows: dict[int, TableRow] | None = None,
                 seed: int = 0, restarts: int = 60):
        self.rows: dict[int, TableRow] = dict(rows or {})
        self.seed = seed
        self.restarts = restarts

    @property
    def max_m(self) -> int:
        return max(self.rows) if self.rows else 0

    def delta(self, m: int) -> float:
        return self.rows[m].delta

    def alpha(self, m: int) -> float:
        return self.rows[m].alpha

    def centers(self, m: int) -> np.ndarray:
        return self.rows[m].centers.copy()

    def ensure(self, m_max: int) -> "NormalizedCoverageTable":
        for m in range(1, m_max + 1):
            if m not in self.rows:
                self.rows[m] = self._build_row(m)
        return self

    def _build_row(self, m: int) -> TableRow:
        candidates = solve_unit_covering(m, self.seed + m, self.restarts)
        best_r = candidates[0][0]
        # near-ties in radius are interchangeable covers; prefer the layout
        # whose tour (what the mission actually pays for) is shortest
        distinct: dict[tuple, tuple[float, np.ndarray]] = {}
        for r, centers in candidates:
            if r > best_r * 1.005:
                break
            key = tuple(np.round(_canonical(centers), 3).ravel())
            if key not in distinct:
                distinct[key] = (r, centers)
            if len(distinct) >= 16:
                break
        scored = []
        for r, centers in distinct.values():
            tour = solve_tsp(centers, centers[0])
            scored.append((tour.total_distance, r, centers))
        alpha, delta, centers = min(scored, key=lambda s: s[0])
        if m == 1:
            alpha = 0.0
        return TableRow(m=m, delta=delta, alpha=alpha, centers=_canonical(centers))

    def plan(self, m: int, area_side: float) -> CoveragePlan:
        """Scale the cached unit layout to a square of side ``area_side``."""
        if m < 1:
            raise ValueError("m must be at least 1")
        if area_side <= 0:
            raise ValueError("area_side must be positive")
        self.ensure(m)
        row = self.rows[m]
        return CoveragePlan(radius=row.delta * area_side, centers=row.centers * area_side)

    def save(self, path: str | Path) -> None:
        path = Path(path)
        lines = [
            f"# fieldhopper-coverage-table {self.VERSION} seed={self.seed} restarts={self.restarts}",
            "M,delta,alpha,centers",
        ]
        for m in sorted(self.rows):
            row = self.rows[m]
            cells = ",".join(f"{float(x)!r};{float(y)!r}" for x, y in row.centers)
            lines.append(f"{m},{float(row.delta)!r},{float(row.alpha)!r},{cells}")
        path.write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "NormalizedCoverageTable":
        path = Path(path)
        rows: dict[int, TableRow] = {}
        seed = 0
        restarts = 60
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line.split():
                    if token.startswith("seed="):
                        seed = int(token[5:])
                    elif token.startswith("restarts="):
                        restarts = int(token[9:])
                continue
            if line.startswith("M,"):
                continue
            parts = line.split(",")
            m = int(parts[0])
            delta = float(parts[1])
            alpha = float(parts[2])
            centers = np.array(
                [[float(v) for v in cell.split(";")] for cell in parts[3:]]
            )
            rows[m] = TableRow(m=m, delta=delta, alpha=alpha, centers=centers)
        return cls(rows, seed=seed, restarts=restarts)


@dataclass(frozen=True)
class AlphaFit:
    """Least-squares fit alpha(M) ~ sqrt(c*M) + d with its relative l2 error."""

    c: float
    d: float
    rel_error: float

    def __call__(self, m: np.ndarray | float) -> np.ndarray | float:
        return np.sqrt(self.c * np.asarray(m, dtype=float)) + self.d


def fit_alpha(table: NormalizedCoverageTable) -> AlphaFit:
    """Fit the normalized tour length against sqrt(M).

    sqrt(c*M) + d is linear in (sqrt(M), 1), so this is a plain linear
    least-squares problem.  Rows with a zero tour (the single-stop row) are
    excluded: the fitted form cannot pass through zero, and leaving the row
    in only skews the intercept.
    """
    ms = np.array(sorted(table.rows), dtype=float)
    alphas = np.array([table.alpha(int(m)) for m in ms])
    keep = alphas > 0.0
    ms, alphas = ms[keep], alphas[keep]
    if len(ms) < 2:
        raise ValueError("need at least two rows with nonzero tours to fit")
    basis = np.column_stack([np.sqrt(ms), np.ones_like(ms)])
    (e, d), *_ = np.linalg.lstsq(basis, alphas, rcond=None)
    fitted = basis @ [e, d]
    rel = float(np.linalg.norm(alphas - fitted) / np.linalg.norm(alphas))
    return AlphaFit(c=float(e * e), d=float(d), rel_error=rel)
