"""End-to-end wiring of the grouping pipeline on a small planted trace."""

from __future__ import annotations

import sys
import warnings
from collections import Counter

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
from eigenbehavior import cluster, distances, summaries
from eigenbehavior.cluster import METRIC_MAX
from eigenbehavior.pipeline import METRICS

import distances_oracle
from conftest import count_calls, unfold


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
