"""Covering a square field with M equal disks.

The solver minimizes the covering radius directly: the square is split into
the Voronoi cells of the current centers (clipped to the square), each center
relocates to the center of the minimum enclosing circle of its cell, and the
configuration radius is the largest cell vertex distance.  Both quantities
are exact for a given configuration, so no evaluation grid is involved.
Multistart (structured grids plus random layouts) with small perturbation
kicks escapes poor local optima.  The starts descend together, one kick
phase at a time: one array pass clips the cells of every start for each
relocation step.  Each start draws its random numbers from its own stream
spawned from the seed, so the batch gives what solving one start at a time
would.

Results are always computed on the unit square and scaled, so plans for
different field sizes are exactly similar.  A normalized table of covering
radii and tour lengths is cached to CSV.  Planners only read its rows: the
packaged table (M up to 24) is the default, and a row it lacks is an error,
never a solve.  Only ``ensure`` (the ``coverage-table`` command) runs the
solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .tours import solve_tsp

Pt = tuple[float, float]

UNIT_SQUARE: list[Pt] = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


# ---------------------------------------------------------------------------
# exact cell geometry, for a batch of layouts at once

def _clip(verts: np.ndarray, count: np.ndarray, nx: np.ndarray, ny: np.ndarray,
          c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep the part of each convex polygon with nx*x + ny*y <= c.

    Polygon k holds ``count[k]`` vertices in ``verts[k]``, followed by a copy
    of its first vertex that closes the last edge, then padding.  Walking each
    edge (x1, y1) -> (x2, y2), an inside start vertex is kept and an edge that
    crosses the line adds its crossing point, in that order.
    """
    n, w, _ = verts.shape
    x, y = verts[..., 0], verts[..., 1]
    s = nx[:, None] * x + ny[:, None] * y - c[:, None]
    s1, s2 = s[:, :-1], s[:, 1:]
    inside = s <= 0.0
    valid = np.arange(w - 1) < count[:, None]
    emit = np.empty((n, w - 1, 2), dtype=bool)
    emit[..., 0] = valid & inside[:, :-1]
    emit[..., 1] = valid & (inside[:, :-1] != inside[:, 1:])
    t = np.divide(s1, s1 - s2, out=np.zeros_like(s1), where=emit[..., 1])
    pts = np.empty((n, w - 1, 2, 2))
    pts[:, :, 0] = verts[:, :-1]
    pts[:, :, 1, 0] = x[:, :-1] + t * (x[:, 1:] - x[:, :-1])
    pts[:, :, 1, 1] = y[:, :-1] + t * (y[:, 1:] - y[:, :-1])
    new_count = emit.sum(axis=(1, 2))
    rows = np.repeat(np.arange(n), new_count)
    slots = np.arange(rows.size) - np.repeat(np.cumsum(new_count) - new_count, new_count)
    out = np.zeros((n, int(new_count.max()) + 1, 2))
    out[rows, slots] = pts[emit]
    out[np.arange(n), new_count] = out[:, 0]
    return out, new_count


def _voronoi(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Voronoi cells of every center of a (B, M, 2) batch, clipped to the unit square.

    Cell i of a layout is the square clipped against the bisector with each
    other center j in increasing j.  Returns the (B*M, V, 2) closed vertex
    rows of ``_clip`` and their counts, cell i of layout b in row b*M + i.
    """
    b, m, _ = centers.shape
    own = centers.reshape(b * m, 2)
    cix, ciy = own[:, 0], own[:, 1]
    verts = np.tile(np.array(UNIT_SQUARE + UNIT_SQUARE[:1]), (b * m, 1, 1))
    count = np.full(b * m, len(UNIT_SQUARE))
    i = np.tile(np.arange(m), b)
    first = np.repeat(np.arange(b) * m, m)
    for k in range(m - 1):
        j = first + k + (k >= i)
        cjx, cjy = own[j, 0], own[j, 1]
        c = 0.5 * (cjx * cjx + cjy * cjy - cix * cix - ciy * ciy)
        verts, count = _clip(verts, count, cjx - cix, cjy - ciy, c)
    return verts, count


def _radii(centers: np.ndarray, verts: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Covering radius of each layout: its largest cell vertex distance.

    Squared distances pick the few vertices that can be farthest; the
    distance itself is ``math.hypot``, so radii do not depend on numpy's
    hypot rounding.
    """
    b, m, _ = centers.shape
    own = centers.reshape(b * m, 1, 2)
    dx, dy = verts[..., 0] - own[..., 0], verts[..., 1] - own[..., 1]
    d2 = np.where(np.arange(verts.shape[1]) < count[:, None], dx * dx + dy * dy, -1.0)
    top = np.repeat(d2.reshape(b, -1).max(axis=1), m)
    rows, cols = np.nonzero(d2 >= top[:, None] * (1.0 - 1e-9))
    radius = np.zeros(b)
    dist = list(map(math.hypot, dx[rows, cols].tolist(), dy[rows, cols].tolist()))
    np.maximum.at(radius, rows // m, dist)
    return radius


def _mec_center(pts: list) -> tuple[float, float]:
    """Center of the minimum enclosing circle, by Welzl's incremental scheme.

    A point is inside within ``r*(1 + 1e-12) + 1e-15``; collinear triples fall
    back to their farthest pair.  Cells are often rectangles with four
    cocircular vertices, so the visiting order decides the last bits.
    """
    cx = cy = 0.0
    lim = -1.0
    for i, (px, py) in enumerate(pts):
        if lim >= 0.0 and math.hypot(px - cx, py - cy) <= lim:
            continue
        cx, cy, lim = px, py, 1e-15
        for j in range(i):
            qx, qy = pts[j]
            if math.hypot(qx - cx, qy - cy) <= lim:
                continue
            cx, cy = 0.5 * (px + qx), 0.5 * (py + qy)
            lim = math.hypot(px - cx, py - cy) * (1.0 + 1e-12) + 1e-15
            for k in range(j):
                sx, sy = pts[k]
                if math.hypot(sx - cx, sy - cy) <= lim:
                    continue
                d = 2.0 * (px * (qy - sy) + qx * (sy - py) + sx * (py - qy))
                if abs(d) < 1e-14:
                    pairs = [((px, py), (qx, qy)), ((px, py), (sx, sy)), ((qx, qy), (sx, sy))]
                    (ax, ay), (bx, by) = max(
                        pairs, key=lambda e: (e[0][0] - e[1][0]) ** 2 + (e[0][1] - e[1][1]) ** 2
                    )
                    cx, cy = 0.5 * (ax + bx), 0.5 * (ay + by)
                    r = math.hypot(ax - cx, ay - cy)
                else:
                    a2, b2, c2 = px * px + py * py, qx * qx + qy * qy, sx * sx + sy * sy
                    cx = (a2 * (qy - sy) + b2 * (sy - py) + c2 * (py - qy)) / d
                    cy = (a2 * (sx - qx) + b2 * (px - sx) + c2 * (qx - px)) / d
                    r = math.hypot(px - cx, py - cy)
                lim = r * (1.0 + 1e-12) + 1e-15
    return cx, cy


def cover_radius(centers: np.ndarray) -> float:
    """Exact covering radius of the unit square for the given centers."""
    batch = np.atleast_2d(np.asarray(centers, dtype=float))[None]
    return float(_radii(batch, *_voronoi(batch))[0])


# ---------------------------------------------------------------------------
# local search

KICK_SCALES = (0.3, 0.15, 0.08, 0.04)
MAX_ITER = 120


def _descend(layouts: np.ndarray, rngs: list[np.random.Generator]) -> tuple[np.ndarray, np.ndarray]:
    """Relocate every layout of a (B, M, 2) batch until it stops moving.

    Each step moves every center to the center of the minimum enclosing
    circle of its Voronoi cell.  A layout stops once no center moves by 1e-10
    or after MAX_ITER steps, and its final layout is measured too.  Returns
    each layout's best radius and the layout that reached it.
    """
    b, m, _ = layouts.shape
    cur = layouts.copy()
    best_r, best_c = np.full(b, math.inf), cur.copy()
    lanes = np.arange(b)  # the layouts measured in this pass
    moving = np.ones(b, dtype=bool)  # which of them take another step
    for step in range(MAX_ITER + 1):
        verts, count = _voronoi(cur[lanes])
        radius = _radii(cur[lanes], verts, count)
        better = radius < best_r[lanes]
        best_r[lanes[better]] = radius[better]
        best_c[lanes[better]] = cur[lanes[better]]
        rows = (np.flatnonzero(moving)[:, None] * m + np.arange(m)).ravel()
        lanes = lanes[moving]
        if not lanes.size:
            break
        # one relocation step of every layout still moving.  Reseeds are not
        # rare: at M=8 the descents of the ring start and of one square-contour
        # start put two centers on one point after seven relocation steps.
        # Their bisector reads 0 <= c with c a rounding residue (-5.6e-17),
        # which clips both cells to nothing.  Such a cell has no circle to move
        # to, so its center is reseeded with two uniforms from its layout's
        # stream.
        moved = []
        for k, (cell, size) in enumerate(zip(verts[rows].tolist(), count[rows].tolist())):
            if size < 3:
                moved.append(rngs[lanes[k // m]].random(2))
                continue
            x, y = _mec_center(cell[:size])
            moved.append((min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0)))
        new = np.array(moved).reshape(-1, m, 2)
        still = np.abs(new - cur[lanes]).max(axis=(1, 2)) < 1e-10
        moving = ~still & (step + 1 < MAX_ITER)
        cur[lanes] = new
    return best_r, best_c


def _descend_starts(starts: np.ndarray, rngs: list[np.random.Generator]) -> list[tuple[float, np.ndarray]]:
    """Descend, kick and re-descend every start of a (B, M, 2) batch.

    The starts descend together, one kick phase at a time.  After the first
    descent, each start's best layout is kicked once per KICK_SCALES entry by
    a normal of standard deviation ``scale * radius`` and descends again; a
    kicked descent that lowers the start's radius replaces its best layout.

    Start k draws its reseeds and kicks from ``rngs[k]`` alone, in the order
    it needs them, so a batch gives what B one-start calls give.  Returns the
    (radius, centers) of every start, in start order.
    """
    m = starts.shape[1]
    r, c = _descend(starts, rngs)
    for scale in KICK_SCALES:
        kicks = [rng.normal(0.0, scale * rk, (m, 2)) for rng, rk in zip(rngs, r.tolist())]
        kicked_r, kicked_c = _descend(np.clip(c + np.array(kicks), 0.0, 1.0), rngs)
        better = kicked_r < r
        r[better], c[better] = kicked_r[better], kicked_c[better]
    return [(float(r[k]), c[k].copy()) for k in range(len(r))]


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


def _starts(m: int, seed: int, restarts: int) -> tuple[np.ndarray, list[np.random.Generator]]:
    """The structured layouts, then random ones up to ``restarts``, and one
    stream per start spawned from ``seed``; random start k is drawn from its own."""
    structured = _grid_starts(m) + _row_starts(m) + _ring_starts(m) + _square_ring_starts(m)
    streams = np.random.SeedSequence(seed).spawn(max(restarts, len(structured)))
    rngs = [np.random.default_rng(stream) for stream in streams]
    starts = structured + [rng.random((m, 2)) for rng in rngs[len(structured):]]
    return np.array(starts, dtype=float), rngs


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
    candidates = _descend_starts(*_starts(m, seed, restarts))
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


class MissingRowError(LookupError):
    """A plan asked for an M that its covering table has no row for; a mission
    planner sets ``report`` to its report of the M it priced before."""

    report = None


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
        scored = []
        for r, centers in distinct.values():
            tour = solve_tsp(centers, centers[0])
            scored.append((tour.total_distance, r, centers))
        alpha, delta, centers = min(scored, key=lambda s: s[0])
        return TableRow(m=m, delta=delta, alpha=alpha, centers=_canonical(centers))

    def plan(self, m: int, area_side: float) -> CoveragePlan:
        """Scale the cached unit layout to a square of side ``area_side``.

        Reads the table only: an M without a row raises
        :class:`MissingRowError` instead of solving one.
        """
        if m < 1:
            raise ValueError("m must be at least 1")
        if area_side <= 0:
            raise ValueError("area_side must be positive")
        if m not in self.rows:
            raise MissingRowError(
                f"the covering table has no row for M={m} (its largest M is {self.max_m});"
                " add rows with `fieldhopper coverage-table --extend`"
            )
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
    def packaged(cls) -> "NormalizedCoverageTable":
        """The table shipped with the package, M = 1..24: every planner's default."""
        return cls.load(resources.files("fieldhopper.data") / "coverage_table_v1.csv")

    @classmethod
    def load(cls, path: str | Path) -> "NormalizedCoverageTable":
        """Read a table CSV; a malformed row raises ``ValueError`` naming ``path:line``."""
        path = Path(path)
        rows: dict[int, TableRow] = {}
        seed = 0
        restarts = 60
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            if line.startswith("#"):
                for token in line.split():
                    if token.startswith("seed="):
                        seed = int(token[5:])
                    elif token.startswith("restarts="):
                        restarts = int(token[9:])
            elif line and not line.startswith("M,"):
                try:  # M,delta,alpha,x;y,... with exactly M centers
                    m, delta, alpha, *cells = line.split(",")
                    pairs = (cell.split(";") for cell in cells)
                    centers = np.array([[float(x), float(y)] for x, y in pairs])
                    row = TableRow(m=int(m), delta=float(delta), alpha=float(alpha), centers=centers)
                    if len(centers) != row.m:
                        raise ValueError(f"{len(centers)} centers for M = {row.m}")
                    if not (math.isfinite(row.delta) and math.isfinite(row.alpha)
                            and np.isfinite(centers).all()):
                        raise ValueError("every value must be finite")
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad row {line!r}: {exc}") from exc
                rows[row.m] = row
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
