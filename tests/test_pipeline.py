"""End-to-end wiring of the grouping pipeline on a small planted trace."""

from __future__ import annotations

import sys
import warnings
from collections import Counter, defaultdict

import numpy as np
import pytest

from eigenbehavior import (
    AssociationMatrix,
    AssociationRecord,
    GroupSpec,
    PopulationTable,
    SynthSpec,
    TraceConfig,
    agglomerate,
    build_distance_matrix,
    build_matrices,
    distance_cdfs,
    eigen_sets_for,
    generate,
    jaccard,
    partition_from_labels,
    run_pipeline,
    summary_table,
    summary_vectors,
)
from eigenbehavior import cluster, distances, summaries, trace
from eigenbehavior.cluster import METRIC_MAX
from eigenbehavior.pipeline import METRICS

import distances_oracle
from conftest import benchmark_spec, count_calls, rebind, unfold


@pytest.fixture(scope="module")
def planted():
    spec = SynthSpec(
        n_locations=4,
        n_days=12,
        groups=(
            GroupSpec(6, ((1.0, 0.0, 0.0, 0.0),), (1.0,), p_online=0.9),
            GroupSpec(6, ((0.0, 0.0, 1.0, 0.0),), (1.0,), p_online=0.9),
        ),
        seed=31,
        noise_epsilon=0.03,
    )
    records, truth = generate(spec)
    return records, truth, TraceConfig(*spec.trace_span)


@pytest.mark.parametrize("metric", METRICS)
def test_build_distance_matrix_dispatch(planted, metric):
    """Every --metric name builds a matrix under that name."""
    records, _, config = planted
    built = run_pipeline(build_matrices(records, config), target_count=2)
    column = summary_vectors(built.matrices, built.eigen_sets).column(metric)
    assert (column is None) == (metric in ("eigen", "amvd"))
    dm = build_distance_matrix(built.matrices, metric, built.eigen_sets, column)
    assert dm.metric == metric
    assert dm.n == 12
    with pytest.raises(ValueError, match="unknown metric"):
        build_distance_matrix(built.matrices, "cosine", built.eigen_sets)


@pytest.mark.parametrize("metric", ["eigen", "amvd", "onavg", "centroid05"])
def test_pipeline_recovers_planted_groups(planted, metric):
    records, truth, config = planted
    result = run_pipeline(build_matrices(records, config), metric=metric, target_count=2)
    assert jaccard(result.partition, partition_from_labels(truth)) == 1.0
    assert result.partition.n_clusters == 2
    assert len(result.profiles) == 2
    dm = result.distance_matrix
    intra, inter = distance_cdfs(result.partition, dm)
    assert intra.max() < inter.min()
    assert dm.n == 12


@pytest.mark.parametrize(
    "metric,kept",
    [("eigen", True), ("amvd", True), ("onavg", False), ("centroid05", False), ("centroid09", False)],
)
def test_never_online_user_is_flagged_or_dropped_by_metric(planted, metric, kept):
    """eigen and amvd keep a never-online user, flagged at the metric maximum;
    the summary metrics drop it from the distances and the partition.  The
    summary pass, which every metric runs once, warns once that it skipped it."""
    records, _, config = planted
    rows = records.rows()
    offline = AssociationRecord("zz-offline", rows[0].location_id, -100, -10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_pipeline(build_matrices(rows + [offline], config), metric=metric, target_count=3)
    dropped = [str(w.message) for w in caught if "all-offline" in str(w.message)]
    assert dropped == ["summary_vectors: skipped all-offline users: ['zz-offline']"]
    dm = result.distance_matrix
    assert "zz-offline" in result.matrices
    if kept:
        assert dm.flagged_ids == ("zz-offline",)
        dead = dm.ids.index("zz-offline")
        assert np.all(np.delete(unfold(dm)[dead], dead) == METRIC_MAX[dm.metric])
        assert "zz-offline" in result.partition.assignment
    else:
        assert "zz-offline" not in dm.ids and dm.flagged_ids == ()
        assert "zz-offline" not in result.partition.assignment


def test_summary_table_reads_pipeline_eigen_sets(planted, monkeypatch):
    """run_pipeline returns the summary table of its own eigen sets: the only
    eigen-behaviors it computes are eigen_sets_for's, one per online user,
    and group_profiles', one per cluster with online members, all through
    eigen_decompositions."""
    records, _, config = planted
    matrices = build_matrices(records, config)
    want = summary_table(matrices, summary_vectors(matrices, eigen_sets_for(matrices)))
    calls, decomposed = Counter(), []
    count_calls(monkeypatch, summaries, "eigen_behaviors", calls)
    count_calls(monkeypatch, summaries, "eigen_decompositions", calls, decomposed)
    result = run_pipeline(build_matrices(records, config), target_count=2)
    assert calls["eigen_behaviors"] == 0
    online_users = sum(m.online.any() for m in matrices.values())
    assert sum(decomposed) == online_users + sum(p.eigen is not None for p in result.profiles)
    assert list(result.summary_table) == ["onavg", "centroid@0.5", "centroid@0.9", "svd"]
    assert result.summary_table == want


@pytest.mark.parametrize("metric", METRICS)
def test_a_run_grows_each_mode_tree_once_and_averages_each_user_once(planted, monkeypatch, metric):
    """Every metric's run builds one set of summaries: one _mode_cuts call for
    every user's trees, and one _onavgs pass over every user of the table,
    whose all-offline user's average is then dropped."""
    records, _, config = planted
    rows = records.rows()
    offline = AssociationRecord("zz-offline", rows[0].location_id, -100, -10)
    calls, averaged = Counter(), []
    count_calls(monkeypatch, summaries, "_mode_cuts", calls)
    count_calls(monkeypatch, summaries, "_onavgs", calls, averaged)
    with pytest.warns(UserWarning, match="skipped all-offline users"):
        result = run_pipeline(build_matrices(rows + [offline], config), metric=metric, target_count=2)
    assert calls == {"_mode_cuts": 1, "_onavgs": 1}
    assert averaged == [len(result.matrices)]


@pytest.mark.parametrize("metric", METRICS)
def test_a_run_reads_only_the_tables_online_mask(planted, monkeypatch, metric):
    """Every stage reads the rows and the online mask of the population
    table, which computed the mask once: no stage of a run, an all-offline
    user in it, asks the table for a user's AssociationMatrix view, and
    nothing asks any AssociationMatrix for its online slots."""
    records, _, config = planted
    rows = records.rows()
    offline = AssociationRecord("zz-offline", rows[0].location_id, -100, -10)
    table = build_matrices(rows + [offline], config)
    asked = []
    view = PopulationTable.__getitem__
    monkeypatch.setattr(PopulationTable, "__getitem__", lambda t, user: asked.append(("view", user)) or view(t, user))
    monkeypatch.setattr(AssociationMatrix, "online", property(lambda m: asked.append(("online", m.user_id))))
    with pytest.warns(UserWarning, match="skipped all-offline users"):
        result = run_pipeline(table, metric=metric, target_count=2)
    assert asked == []
    assert result.profiles and result.matrices is table
    assert "zz-offline" in table and asked == [("view", "zz-offline")]  # the patches were live


def test_population_threshold_route(planted):
    records, truth, config = planted
    table = build_matrices(records, config)
    dm = run_pipeline(table, target_count=2).distance_matrix
    partition = agglomerate(dm, threshold=0.5)
    assert jaccard(partition, partition_from_labels(truth)) == 1.0
    assert run_pipeline(table, threshold=0.5).partition.assignment == partition.assignment
    with pytest.raises(ValueError, match="exactly one"):
        run_pipeline(table)


@pytest.mark.parametrize("metric", ["eigen", "amvd", "onavg"])
def test_a_pipeline_run_validates_its_distance_matrix_once(planted, metric):
    """The check runs when the DistanceMatrix is built; clustering trusts it.
    Calls are counted by code object, whatever name a module binds."""
    records, _, config = planted
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is cluster.DistanceMatrix.__post_init__.__code__:
            calls.append(frame.f_back.f_back.f_code.co_name)  # who called __init__

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_pipeline(build_matrices(records, config), metric=metric, target_count=2)
    finally:
        sys.setprofile(previous)
    builders = {
        "eigen": "eigen_distance_matrix",
        "amvd": "amvd_distance_matrix",
        "onavg": "summary_l1_distance",
    }
    assert calls == [builders[metric]]


def test_eigen_pipeline_builds_sets_and_table_once(planted, monkeypatch):
    records, _, config = planted
    calls = Counter()

    def counting(name):
        original = getattr(distances, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("sim_matrix", "eigen_sets_for"):
        monkeypatch.setattr(distances, name, counting(name))
    # a user whose only session lies before the trace horizon is all offline
    rows = records.rows()
    offline = AssociationRecord("zz-offline", rows[0].location_id, -100, -10)
    with pytest.warns(UserWarning, match="skipped all-offline users"):
        result = run_pipeline(build_matrices(rows + [offline], config), metric="eigen", target_count=3)
    assert calls == {"sim_matrix": 1, "eigen_sets_for": 1}
    # the other metrics build no sim table
    for metric in ("amvd", "onavg", "centroid05"):
        calls.clear()
        run_pipeline(build_matrices(records, config), metric=metric, target_count=2)
        assert calls == {"eigen_sets_for": 1}, metric

    dm = result.distance_matrix
    assert dm.flagged_ids == ("zz-offline",)
    table, sim_ids = distances_oracle.normalized_sim_table(
        {u: s for u, s in result.eigen_sets.items() if s is not None}
    )
    assert "zz-offline" not in sim_ids
    live = [dm.ids.index(u) for u in sim_ids]
    square = unfold(dm)
    np.testing.assert_array_equal(
        square[np.ix_(live, live)], np.clip(1.0 - (table + table.T) / 2.0, 0.0, 1.0)
    )
    dead = dm.ids.index("zz-offline")
    assert np.all(np.delete(square[dead], dead) == 1.0)


# The passes that cut their blocks from trace.BLOCK_CELLS, by the name of
# the function that calls budget_blocks.
CELL_COUNTED = (
    "_user_blocks",
    "eigen_sets_for",
    "_onavgs",
    "_mode_cuts",
    "significances",
    "l1_triangles",
    "amvd_distance_matrix",
    "sim_matrix",
)


def test_one_block_budget_reaches_every_pass(tmp_path, monkeypatch):
    """trace.BLOCK_CELLS, patched alone to 4096 cells, cuts every cell-counted
    pass over the benchmark population's 120 users into several blocks, and
    no pass asks budget_blocks for more.  Every result keeps its bits: the
    records and truth, the matrices, and each metric's eigen sets, summary
    table, distances, partition, merges and profiles.  The eigen distances
    alone may move, by at most 2**-53 (1.1e-16, half a unit in the last
    place of 1), since the similarity blocks' products change shape; their
    partition and merge pairs do not."""
    spec = benchmark_spec(tmp_path, monkeypatch, 120, 3)

    def run():
        records, truth = generate(spec)
        table = build_matrices(records, TraceConfig(*spec.trace_span))
        return records, truth, table, {m: run_pipeline(table, metric=m, target_count=13) for m in METRICS}

    want_records, want_truth, want_table, want = run()
    cut = defaultdict(list)  # each caller's (budget, blocks) per call
    original = trace.budget_blocks

    def recorded(sizes, budget):
        blocks = original(sizes, budget)
        cut[sys._getframe(1).f_code.co_name].append((budget, len(blocks)))
        return blocks

    rebind(monkeypatch, original, recorded)
    monkeypatch.setattr(trace, "BLOCK_CELLS", 4096)
    records, truth, table, got = run()
    for name in CELL_COUNTED:
        assert max(budget for budget, _ in cut[name]) <= 4096, name
        assert max(blocks for _, blocks in cut[name]) > 1, name

    assert truth == want_truth
    for column in ("users", "locations", "user", "loc", "start", "end"):
        assert np.array_equal(getattr(records, column), getattr(want_records, column)), column
    assert table.users == want_table.users and table.rows.tobytes() == want_table.rows.tobytes()
    for metric in METRICS:
        result, expected = got[metric], want[metric]
        assert result.eigen_sets.keys() == expected.eigen_sets.keys()
        for user, eigen in result.eigen_sets.items():
            other = expected.eigen_sets[user]
            assert (eigen is None) == (other is None), user
            if eigen is not None:
                assert eigen.vectors.tobytes() == other.vectors.tobytes(), user
                assert eigen.weights.tobytes() == other.weights.tobytes(), user
        assert result.summary_table == expected.summary_table, metric
        dm, want_dm = result.distance_matrix, expected.distance_matrix
        assert (dm.ids, dm.flagged_ids, dm.metric) == (want_dm.ids, want_dm.flagged_ids, want_dm.metric)
        pairs = [(i, j) for i, j, _ in result.partition.merge_history]
        assert pairs == [(i, j) for i, j, _ in expected.partition.merge_history], metric
        assert result.partition.assignment == expected.partition.assignment, metric
        merged = np.array([d for *_, d in result.partition.merge_history])
        want_merged = np.array([d for *_, d in expected.partition.merge_history])
        if metric == "eigen":
            assert np.abs(dm.values - want_dm.values).max() <= 2.0**-53
            assert np.abs(merged - want_merged).max() <= 2.0**-53
        else:
            assert dm.values.tobytes() == want_dm.values.tobytes(), metric
            assert merged.tobytes() == want_merged.tobytes(), metric
        for profile, other in zip(result.profiles, expected.profiles, strict=True):
            assert (profile.cluster_id, profile.members) == (other.cluster_id, other.members)
            assert profile.top_power == other.top_power
            assert profile.eigen.vectors.tobytes() == other.eigen.vectors.tobytes()
            assert profile.eigen.weights.tobytes() == other.eigen.weights.tobytes()
