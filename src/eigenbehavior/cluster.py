"""Average-linkage agglomerative clustering with a deterministic merge order.

The linkage between two clusters is the arithmetic mean of the distances over
all cross pairs of their elements.  Merging continues until either all
inter-cluster linkages exceed a threshold or a target cluster count is
reached.  Ties are broken toward the pair with the smaller cluster id, then
the smaller partner id, where a cluster's running id is the smallest original
element index it contains.  One engine, merge_histories, grows such trees
from a stack of their condensed triangles, which it only reads, in one
private, tree-major working copy, each tree's cells one row, and records
each as (i, j, distance) rows.  The stack's height selects its step: a stack
of one tree (agglomerate's population tree, or a chunk of one mode tree)
takes the single-tree step, _grow_tree, which caches each row's least cell,
rescans the rows a merge leaves stale and gathers 1-D rows; a stack of two
or more takes the batched step, which keeps no cache and rescans no row: one
argmin over each tree's cells finds its merge, every live tree once a pass
(Mullner's "primitive" algorithm, arXiv:1109.2378).  A pass reads every cell
of its stack, which suits the mode trees' chunks, cut to about
trace.BLOCK_CELLS cells.  Both make the same merges, bit for bit.  One cut,
merge_roots, reads any prefix of those records as each slot's root.
agglomerate runs both on a DistanceMatrix, the package's one distance type:
the condensed triangle of the pairwise distances, checked once when it is
built.  The condensed triangle is the package's one pairwise layout: no n x n
distance array is built.  row_runs is its one row layout: every walk over its
rows (the engine's copy, l1_triangles, distance_cdfs) reads or writes each
row's run through it.  pair_index places single pairs: AMVD, whose users run
in row-count order, scatters through it, the similarity triangle writes each
row's pairs (a, j > a) and adds its pairs (j < a, a) through it, and the
similarity replay's gate reads through it.  _l1_of_columns is the package's
one L1 kernel, on rows held as location columns: pairwise_l1, which AMVD
uses, and l1_triangles, which gives the mode trees and the summary distances
their triangles and makes its columns once, call it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from . import trace

_MONOTONE_SLACK = 1e-12

# Each metric the pipeline builds, by its --metric name, with its largest distance.
METRIC_MAX = {"eigen": 1.0, "amvd": 2.0, "onavg": 2.0, "centroid05": 2.0, "centroid09": 2.0}


@dataclass
class Partition:
    """Clustering result: element -> contiguous cluster id, plus merge
    history, the (merges, 3) float rows (i, j, distance) of merge_histories'
    record, in merge order; (0, 3) when nothing merged."""

    assignment: dict[Hashable, int]
    merge_history: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))

    def clusters(self) -> list[list[Hashable]]:
        """Members per cluster id; each member list sorted."""
        out: dict[int, list[Hashable]] = {}
        for element, cid in self.assignment.items():
            out.setdefault(cid, []).append(element)
        return [sorted(out[cid]) for cid in sorted(out)]

    def sizes(self) -> list[int]:
        return [len(members) for members in self.clusters()]


def pairwise_l1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., m, L) x (..., k, L) -> (..., m, k): L1 distances between the rows
    of a and the rows of b, matrix by matrix, from their location columns
    (``_columns``, made once when b is a) by ``_l1_of_columns``."""
    a_cols = _columns(a)
    return _l1_of_columns(a_cols, a_cols if b is a else _columns(b))


def _columns(rows: np.ndarray) -> np.ndarray:
    """(..., n, L) -> (L, ..., n): one contiguous array per location column."""
    return np.moveaxis(np.asarray(rows, dtype=float), -1, 0).copy()


def _l1_of_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(L, ..., m) x (L, ..., k) -> (..., m, k): L1 distances between the
    rows whose location columns a and b hold.

    The terms are added one location column at a time, in index order, as a
    per-pair loop over the columns adds them, so the bits are that loop's.
    """
    out = np.zeros(np.broadcast_shapes(a.shape[1:-1], b.shape[1:-1]) + (a.shape[-1], b.shape[-1]))
    term = np.empty_like(out)
    for a_col, b_col in zip(a, b, strict=True):
        np.subtract(a_col[..., :, None], b_col[..., None, :], out=term)
        out += np.abs(term, out=term)
    return out


def pair_index(n: int, i, j):
    """Position of the pair (i, j), i < j, of n elements in their condensed
    upper triangle: the i < j pairs in row-major order."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


def row_runs(values: np.ndarray, n: int) -> list[np.ndarray]:
    """Views of the condensed triangle values of n elements, one per row a <
    n - 1: the run of its pairs (a, j > a), in order; no runs when n <= 1."""
    return np.split(values, np.cumsum(np.arange(n - 1, 1, -1))) if n > 1 else []


def l1_triangles(rows: np.ndarray) -> np.ndarray:
    """(..., n, L) -> (..., n(n - 1) / 2): the condensed triangle of the L1
    distances between the rows of each matrix, in row_runs order.  The rows'
    location columns are made once; rows [lo, hi) are measured against every
    later row from slices of them, in blocks of about trace.BLOCK_CELLS cells,
    and each row a's j > a run is copied into the triangle; every pair's
    terms are added in column order, as one whole-array pairwise_l1 adds
    them."""
    *stack, n, _ = rows.shape
    columns = _columns(rows)
    values = np.empty((n * (n - 1) // 2, *stack))  # pairs first: each run is one block
    runs = row_runs(values, n)
    for lo, hi in trace.budget_blocks(np.full(n - 1, math.prod(stack) * (n - 1)), trace.BLOCK_CELLS):
        block = _l1_of_columns(columns[..., lo:hi], columns[..., lo + 1 :])
        for a in range(lo, hi):
            runs[a][:] = np.moveaxis(block[..., a - lo, a - lo :], -1, 0)
        del block  # freed before the next block is made
    return np.moveaxis(values, 0, -1)


@dataclass
class DistanceMatrix:
    """Pairwise distances with a metric name and element ids.

    values is the condensed upper triangle, the i < j pairs of the ids in
    row-major order (see row_runs), so symmetry and a zero diagonal hold by
    construction.  Building one is its one check: distinct ids, flagged ids
    among them, n(n - 1) / 2 float64 values for n ids, all finite, and [0,
    METRIC_MAX] for a metric listed there.  Everything that takes a
    DistanceMatrix trusts it.
    """

    values: np.ndarray
    metric: str
    ids: tuple[str, ...]
    flagged_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.ids = tuple(self.ids)
        self.flagged_ids = tuple(self.flagged_ids)
        if len(set(self.ids)) < self.n:
            repeated = [i for i, count in Counter(self.ids).items() if count > 1]
            raise ValueError(f"ids must be distinct; repeated: {repeated}")
        strangers = sorted(set(self.flagged_ids) - set(self.ids))
        if strangers:
            raise ValueError(f"flagged_ids must be among the ids; not there: {strangers}")
        self.values = np.asarray(self.values, dtype=float)
        pairs = self.n * (self.n - 1) // 2
        if self.values.shape != (pairs,):
            raise ValueError(f"values must be the {pairs} pair distances of {self.n} ids")
        if not self.values.size:
            return
        low, high = self.values.min(), self.values.max()  # NaN if any value is NaN
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("distances must not be NaN or infinite")
        top = METRIC_MAX.get(self.metric)
        if top is not None and (low < -1e-9 or high > top + 1e-9):
            raise ValueError(f"{self.metric} distances must lie in [0, {top}]")

    @property
    def n(self) -> int:
        return len(self.ids)


def agglomerate(
    dm: DistanceMatrix, threshold: float | None = None, target_count: int | None = None
) -> Partition:
    """Cluster the elements of dm, keyed by dm.ids, by average linkage.

    Exactly one of threshold / target_count selects the stop rule.  Under the
    threshold rule, merging proceeds while the smallest inter-cluster linkage
    is <= threshold (a NaN threshold is refused); under the count rule, until
    target_count clusters remain.  Merge distances are checked to be
    non-decreasing on every run.  dm is only read.
    """
    if target_count is not None and not 1 <= target_count <= dm.n:
        raise ValueError(f"target_count must lie in [1, {dm.n}]")
    merges = merge_histories(dm.values[None], threshold=threshold, target_count=target_count)
    _, cluster_of = np.unique(merge_roots(merges)[0], return_inverse=True)
    return Partition(dict(zip(dm.ids, cluster_of.tolist())), merges[0, ~np.isnan(merges[0, :, 2])])


def merge_histories(
    triangles: np.ndarray,
    mask: np.ndarray | None = None,
    threshold: float | None = None,
    target_count: int | None = None,
) -> np.ndarray:
    """Average-linkage merge records of a (B, n(n - 1) / 2) stack of condensed
    distance triangles, each in row_runs order.

    Returns a (B, n, 3) float array: each tree's merges as (i, j, distance)
    rows, i < j, in merge order, then NaN rows.  n follows from the stack's
    width (1 for a width of 0).  mask, (B, n) booleans, marks the elements of
    each triangle that take part; the others are ignored.  Each tree stops on
    its own, under exactly one of the two rules of agglomerate (the count rule
    stops at <= target_count active elements).  The distances must be finite;
    they are not validated here.  The stack is only read: the engine works in
    one private, tree-major copy, (B, n(n + 1) / 2), whose row is one tree's
    cells: for each a in turn, an inf cell for the pair (a, a) and then row
    a's run of pairs (a, j > a).  No n x n array is built.

    A tree's first least cell in that order is the symmetric matrix's
    row-major first argmin, (i, j), so merges follow the smallest-id tie rule
    in exactly the greedy global order.  A merge gathers rows i and j, run and
    column, and scatters their Lance-Williams average into row i and inf into
    row j.

    The stack's height selects the step, and both make the same merges: a
    stack of one tree is grown by _grow_tree, one merge at a time on
    Python-int rows, with a cache of each row's least cell; a stack of two or
    more by the batched step below, which keeps no cache: one argmin over
    each live tree's cells finds its merge, every live tree once a pass.  A
    pass reads every cell of its stack, which suits the mode trees' chunks,
    cut to about trace.BLOCK_CELLS cells, not a stack of large trees.
    """
    if (threshold is None) == (target_count is None):
        raise ValueError("give exactly one of threshold or target_count")
    if threshold is not None and math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    triangles = np.asarray(triangles, dtype=float)
    n_trees, n_pairs = triangles.shape
    n = (1 + math.isqrt(1 + 8 * n_pairs)) // 2
    if n * (n - 1) // 2 != n_pairs:
        raise ValueError(f"{n_pairs} is not the pair count of a condensed triangle")
    cols = np.arange(n)
    start = cols * (2 * n + 1 - cols) // 2  # the place of each row's (a, a) cell
    below = start - cols  # the cell (a, k), a <= k, sits at below[a] + k
    n_cells = n * (n + 1) // 2
    work = np.empty((n_trees, n_cells))
    work[:, start] = np.inf
    for a, run in enumerate(row_runs(triangles.T, n)):
        work[:, start[a] + 1 : start[a] + n - a] = run.T

    def row_cells(rows: np.ndarray) -> np.ndarray:
        """The places, in a tree's row of work, of each of rows' cells (row,
        k), k < n: (k, row) in row k's run for k < row, then row's own run."""
        return np.where(cols < rows[:, None], below + rows[:, None], below[rows, None] + cols)

    active = np.ones((n_trees, n), bool) if mask is None else np.asarray(mask, dtype=bool)
    dead_trees, dead_rows = np.nonzero(~active)
    work[dead_trees[:, None], row_cells(dead_rows)] = np.inf
    n_active = active.sum(axis=1)
    merges = np.full((n_trees, n, 3), np.nan)
    floor = 1 if target_count is None else target_count
    if n_trees == 1:
        _grow_tree(work[0], start, int(n_active[0]) - floor, threshold, merges[0])
        return merges
    flat = work.reshape(-1)  # tree t's cell c sits at t * n_cells + c
    row_of = np.repeat(cols, n - cols)  # the row a and column k of each cell (a, k)
    col_of = np.arange(n_cells) - np.repeat(below, n - cols)
    sizes = np.ones((n_trees, n), dtype=np.int64)
    last = np.full(n_trees, -np.inf)
    steps = np.zeros(n_trees, dtype=np.intp)
    hist_i, hist_j, hist_d = np.moveaxis(merges, 2, 0)  # views that fill merges

    live = np.flatnonzero(n_active > floor)
    while live.size:
        cell = work.argmin(axis=1)[live]  # each tree's first least cell: the tie rule
        dist = work[live, cell]
        if threshold is not None:
            keep = dist <= threshold
            live, cell, dist = live[keep], cell[keep], dist[keep]
            if not live.size:
                break
        falling = np.flatnonzero(dist < last[live] - _MONOTONE_SLACK)
        if falling.size:
            k = falling[0]
            raise AssertionError(
                f"average-linkage monotonicity violated: {dist[k]} after {last[live[k]]}"
            )
        i, j = row_of[cell], col_of[cell]
        tree_at = live[:, None] * n_cells
        cells_i, cells_j = tree_at + row_cells(i), tree_at + row_cells(j)
        row_i, row_j = flat[cells_i], flat[cells_j]
        last[live] = dist
        hist_i[live, steps[live]] = i
        hist_j[live, steps[live]] = j
        hist_d[live, steps[live]] = dist
        steps[live] += 1

        # Lance-Williams update for average linkage, result stored in row i.
        # The (a, a) cells and dead rows hold inf, which it keeps.
        ni, nj = sizes[live, i][:, None], sizes[live, j][:, None]
        flat[cells_i] = (ni * row_i + nj * row_j) / (ni + nj)
        flat[cells_j] = np.inf
        sizes[live, i] += sizes[live, j]
        n_active[live] -= 1
        live = live[n_active[live] > floor]
    return merges


def _grow_tree(
    work: np.ndarray,
    start: np.ndarray,
    n_merges: int,
    threshold: float | None,
    record: np.ndarray,
) -> None:
    """merge_histories' step for a stack of one tree: at most n_merges merges
    of the 1-D working copy work, whose row a's (a, a) cell sits at start[a],
    recorded into record, (n, 3).  It holds no per-tree array, so a merge
    costs a few calls on 1-D rows, not a pass over every cell.

    It caches each row's least distance over its own run only, from one
    reduceat over the rows.  i is the first row holding the least cache and
    j = i + the argmin of i's run, the first column holding it: the
    row-major first argmin, as the batched step finds it.  Rows i and j are
    each gathered through one index, the (k, r) cells of the earlier rows k
    at start[k] - k + r and then r's own run; the Lance-Williams average is
    scattered into row i and inf into row j.  Row i, and every row a whose
    cache equals its old (a, i), a < i, or its old (a, j), a < j, then
    rescan their runs one at a time, found with one flatnonzero over the
    caches; every other row a < i takes its new (a, i) when that is smaller
    than its cache.
    """
    cache = np.minimum.reduceat(work, start)
    n = len(cache)
    below = start - np.arange(n)  # (k, r), k < r, sits at below[k] + r
    starts = start.tolist()
    sizes = [1] * n
    last = -math.inf

    def row_cells(r: int) -> np.ndarray:
        """Places in work of the cells (r, k), k < n: (k, r) in row k's run
        for k < r, then r's own run."""
        cells = np.arange(starts[r] - r, starts[r] - r + n)
        cells[:r] = below[:r] + r
        return cells

    for step in range(n_merges):
        i = int(cache.argmin())
        dist = float(cache[i])
        if threshold is not None and dist > threshold:
            break
        if dist < last - _MONOTONE_SLACK:
            raise AssertionError(f"average-linkage monotonicity violated: {dist} after {last}")
        last = dist
        j = i + int(work[starts[i] : starts[i] + n - i].argmin())
        record[step] = i, j, dist
        cells_i, cells_j = row_cells(i), row_cells(j)
        row_i, row_j = work[cells_i], work[cells_j]
        # the stale rows, found before the average overwrites rows i and j
        stale = row_j[:j] == cache[:j]
        stale[:i] |= row_i[:i] == cache[:i]
        stale &= cache[:j] < np.inf  # not the dead rows, whose cells are all inf
        stale[i] = True

        # Lance-Williams update for average linkage, result stored in row i:
        # the batched step's (ni * row_i + nj * row_j) / (ni + nj), in place.
        ni, nj = sizes[i], sizes[j]
        merged = np.multiply(row_i, ni, out=row_i)
        merged += np.multiply(row_j, nj, out=row_j)
        merged /= ni + nj
        work[cells_i] = merged
        work[cells_j] = np.inf
        sizes[i] = ni + nj
        np.minimum(cache[:i], merged[:i], out=cache[:i])
        cache[j] = np.inf
        for a in np.flatnonzero(stale).tolist():
            cache[a] = np.minimum.reduce(work[starts[a] : starts[a] + n - a])


def merge_roots(merges: np.ndarray, threshold: float = math.inf) -> np.ndarray:
    """Each slot's root in a (B, n, 3) stack of merge_histories records:
    (B, n) ints, the earliest slot of the slot's cluster after each tree's
    merges before its first one above threshold (a NaN row ends a record).
    Each slot a counted merge (i, j) absorbs points at i < j, and the pointers
    are followed to the roots."""
    n_trees, n, _ = merges.shape
    tree, step = np.nonzero(np.logical_and.accumulate(merges[..., 2] <= threshold, axis=1))
    parent = np.tile(np.arange(n), (n_trees, 1))
    parent[tree, merges[tree, step, 1].astype(np.intp)] = merges[tree, step, 0]
    up = np.take_along_axis(parent, parent, axis=1)
    while not np.array_equal(up, parent):  # each pass doubles the hops taken
        parent, up = up, np.take_along_axis(up, up, axis=1)
    return parent


def distance_cdfs(partition: Partition, dm: DistanceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Sorted intra-cluster and inter-cluster pair distance samples of dm's ids."""
    cluster_of = np.array([partition.assignment[element] for element in dm.ids])
    same = np.empty(dm.values.shape, bool)
    for a, run in enumerate(row_runs(same, dm.n)):
        np.equal(cluster_of[a], cluster_of[a + 1 :], out=run)
    return np.sort(dm.values[same]), np.sort(dm.values[~same])
