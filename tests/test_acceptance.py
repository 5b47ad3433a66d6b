"""Acceptance suite: nine population-scale checks, one PASS line per check.

Every check runs a capability end to end on seeded synthetic populations and
prints the measured margin next to the tolerance it is held to, so a green
run doubles as a numbers report.  Fine-grained unit and oracle tests live in
the sibling test modules; this file gates only the headline behaviors.
"""

from __future__ import annotations

import io
import json
import os
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from conftest import (
    OVERLAP_SHARES,
    digest_tree,
    matrix_from_rows,
    planted_five_spec,
    profile_half_config,
    sim_overlap_spec,
    sim_trace_spec,
    table_of,
    unfold,
)
from eigenbehavior import (
    DAY_SECONDS,
    EigenBehaviorSet,
    EncounterStream,
    SimConfig,
    TraceConfig,
    amvd_distance_matrix,
    build_matrices,
    build_messages,
    centroid_first_mode,
    cross_significance,
    distance_cdfs,
    eigen_behaviors,
    eigen_distance_matrix,
    generate,
    group_power_scatter,
    jaccard,
    onavg,
    partition_from_labels,
    power_captured,
    rank_size_fit,
    run_pipeline,
    significance,
    sim_matrix,
    sim_triangle,
    simulate,
    spec_from_json,
    split_trace,
    top_groups_share,
)
from eigenbehavior.cli import main


def _report(capsys, message: str) -> None:
    with capsys.disabled():
        print(f"\n{message}")


@pytest.fixture(scope="module")
def planted_run():
    """One clustering run over the 500-user planted population, with its wall time."""
    spec = planted_five_spec()
    records, truth = generate(spec)
    start = time.perf_counter()
    result = run_pipeline(
        build_matrices(records, TraceConfig(0.0, spec.n_days * DAY_SECONDS)),
        metric="eigen",
        target_count=5,
    )
    took = time.perf_counter() - start
    return result, truth, took


# ---------------------------------------------------------------- check 1 ---


def test_first_eigen_direction_dominates_rival_summaries(mixed_population, capsys):
    """For all 200 mixed-mode users, the first eigen-behavior vector scores at
    least as high as the online average, both centroid summaries, and the best
    of 1000 seeded random unit directions (slack 1e-9); wall time < 30 s."""
    start = time.perf_counter()
    matrices, _ = mixed_population
    rng = np.random.default_rng(987654321)
    directions = rng.normal(size=(1000, 40))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    worst = np.inf
    for user_id, m in matrices.items():
        first = eigen_behaviors(m).vectors[0]
        score = significance(m, first)
        rivals = {
            "onavg": significance(m, onavg(m)),
            "centroid@0.5": significance(m, centroid_first_mode(m, 0.5)),
            "centroid@0.9": significance(m, centroid_first_mode(m, 0.9)),
            "random": float(
                np.abs(m.rows @ directions.T).sum(axis=0).max() / np.abs(m.rows).sum()
            ),
        }
        for name, rival in rivals.items():
            assert score >= rival - 1e-9, (
                f"{user_id}: first eigen-behavior ({score:.6f}) loses to "
                f"{name} ({rival:.6f})"
            )
        worst = min(worst, score - max(rivals.values()))
    took = time.perf_counter() - start
    assert took < 30.0, f"summary scan took {took:.1f}s, budget 30s"
    _report(
        capsys,
        f"PASS 1/9 first eigen-direction beats onavg, centroids, and 1000 random "
        f"directions for all {len(matrices)} users (min margin {worst:.4f}, "
        f"{took:.1f}s < 30s)",
    )


# ---------------------------------------------------------------- check 2 ---


def test_power_capture_monotone_complete_and_five_enough(mixed_population, capsys):
    """Captured power is monotone in k and 1.0 at full rank; the squared
    singular values sum to the squared Frobenius norm within 1e-8 relative;
    and >= 90% of users (each planted with <= 3 modes) reach 0.90 captured
    power with five components."""
    matrices, _ = mixed_population
    worst_rel = 0.0
    reached = 0
    for user_id, m in matrices.items():
        svals = np.linalg.svd(m.rows, compute_uv=False)
        frob = float((m.rows**2).sum())
        assert frob > 0, f"{user_id} has no online time"
        rel = abs(float((svals**2).sum()) - frob) / frob
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-8, f"{user_id}: spectrum/Frobenius mismatch {rel:.2e}"

        caps = np.array([power_captured(m, k) for k in range(1, m.n_locations + 1)])
        assert np.all(np.diff(caps) >= -1e-12), f"{user_id}: captured power not monotone"
        assert abs(caps[-1] - 1.0) <= 1e-9, f"{user_id}: full rank captures {caps[-1]}"
        share5 = float((svals[:5] ** 2).sum() / (svals**2).sum())
        assert abs(caps[4] - share5) <= 1e-9, f"{user_id}: k=5 share disagrees"
        if caps[4] >= 0.90:
            reached += 1
    fraction = reached / len(matrices)
    assert fraction >= 0.90, f"only {fraction:.0%} of users reach 0.90 at k=5"
    _report(
        capsys,
        f"PASS 2/9 captured power monotone and complete for all {len(matrices)} "
        f"users (worst spectrum mismatch {worst_rel:.1e} <= 1e-8); five components "
        f"capture >= 90% of power for {fraction:.0%} of users (need >= 90%)",
    )


# ---------------------------------------------------------------- check 3 ---


def _nearest_neighbor_oracle(a_rows, b_rows) -> float:
    """Sequential pure-Python mean of nearest-neighbor cityblock distances."""
    mins = []
    for a in a_rows:
        best = None
        for b in b_rows:
            d = 0.0
            for x, y in zip(a, b):
                d += abs(float(x) - float(y))
            if best is None or d < best:
                best = d
        mins.append(best)
    return float(np.mean(np.array(mins)))


def test_distance_oracle_ranges_and_speedup(capsys):
    """Set distances equal the exhaustive oracle exactly (20 users x 30 rows);
    every metric respects its range on >= 1e5 random inputs; and the spectral
    route beats the set route by >= 10x wall clock at 200 users x 60 rows."""
    rng = np.random.default_rng(56565656)

    def random_matrices(count, t):
        out = {}
        for i in range(count):
            rows = rng.dirichlet(np.full(40, 0.4), size=t)
            rows[rng.choice(t, size=max(1, t // 10), replace=False)] = 0.0
            out[f"u{i:05d}"] = matrix_from_rows(rows, user_id=f"u{i:05d}")
        return table_of(out)

    # exact oracle agreement
    small = random_matrices(20, 30)
    dm = amvd_distance_matrix(small)
    ids, square = dm.ids, unfold(dm)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a = small[ids[i]].rows[small[ids[i]].rows.sum(axis=1) > 0]
            b = small[ids[j]].rows[small[ids[j]].rows.sum(axis=1) > 0]
            expected = (_nearest_neighbor_oracle(a, b) + _nearest_neighbor_oracle(b, a)) / 2.0
            assert square[i, j] == expected, f"({ids[i]},{ids[j]}) oracle mismatch"

    # ranges on bulk random inputs
    bulk = random_matrices(320, 10)  # 320*319 = 102,080 directed set distances
    bulk_dm = amvd_distance_matrix(bulk)
    assert bulk_dm.values.min() >= 0.0 and bulk_dm.values.max() <= 2.0 + 1e-12

    sets = []
    for _ in range(1000):  # 1e6 similarity and distance values
        k = int(rng.integers(1, 6))
        q, _ = np.linalg.qr(rng.normal(size=(40, k)))
        weights = np.sort(rng.dirichlet(np.ones(k)))[::-1]
        sets.append(EigenBehaviorSet(q.T, weights))
    for _, sims in sim_matrix(sets):  # the raw products, one row block at a time
        assert sims.min() >= -1e-12 and sims.max() <= 1.0 + 1e-12
    spectral_bulk = eigen_distance_matrix({f"r{i:04d}": s for i, s in enumerate(sets)})
    assert spectral_bulk.values.min() >= 0.0 and spectral_bulk.values.max() <= 1.0

    # wall-clock comparison at population scale, truncated to 5 components
    timing = random_matrices(200, 60)
    start = time.perf_counter()
    amvd_distance_matrix(timing)
    set_route = time.perf_counter() - start
    start = time.perf_counter()
    full = {u: eigen_behaviors(m) for u, m in timing.items()}
    truncated = {u: EigenBehaviorSet(s.vectors[:5], s.weights[:5]) for u, s in full.items()}
    eigen_distance_matrix(truncated)
    spectral_route = time.perf_counter() - start
    speedup = set_route / spectral_route
    assert speedup >= 10.0, f"speedup only {speedup:.1f}x"
    _report(
        capsys,
        f"PASS 3/9 set distances match the exhaustive oracle exactly (190 pairs); "
        f"ranges hold on 102k set + 1M spectral random inputs; spectral route "
        f"{speedup:.0f}x faster ({set_route:.2f}s vs {spectral_route:.3f}s, need >= 10x)",
    )


# ---------------------------------------------------------------- check 4 ---


def test_planted_group_recovery(planted_run, capsys):
    """Five planted groups of 100 users (noise 0.05) are recovered with pair
    agreement >= 0.9 and fully separated within/between distance samples,
    in under 60 s."""
    result, truth, took = planted_run
    agreement = jaccard(result.partition, partition_from_labels(truth))
    assert agreement >= 0.9, f"pair agreement {agreement:.4f} < 0.9"
    dm = result.distance_matrix
    intra, inter = distance_cdfs(result.partition, dm)
    max_intra = float(intra[-1])
    min_inter = float(inter[0])
    assert max_intra < min_inter, f"overlap: intra max {max_intra} >= inter min {min_inter}"
    assert took < 60.0, f"pipeline took {took:.1f}s, budget 60s"
    _report(
        capsys,
        f"PASS 4/9 planted groups recovered: pair agreement {agreement:.4f} >= 0.9; "
        f"within/between distances separate (max {max_intra:.4f} < min {min_inter:.4f}); "
        f"{took:.1f}s < 60s",
    )


# ---------------------------------------------------------------- check 5 ---


def test_group_validation_scatter_and_significance(planted_run, capsys):
    """Every recovered group's joint top-4 power beats its size-matched random
    sample, and the in-group significance mean exceeds the out-of-group mean
    by >= 0.5."""
    result, _, _ = planted_run
    points = group_power_scatter(result.profiles, result.matrices, seed=0)
    min_margin = min(p.coherent_power - p.random_power for p in points)
    for p in points:
        assert p.coherent_power > p.random_power, (
            f"cluster {p.cluster_id} (size {p.size}): coherent {p.coherent_power:.4f} "
            f"<= random {p.random_power:.4f}"
        )
    cross = cross_significance(result.profiles, result.matrices)
    gap = cross.own_mean - cross.other_mean
    assert gap >= 0.5, f"significance gap {gap:.4f} < 0.5"
    _report(
        capsys,
        f"PASS 5/9 all {len(points)} groups sit above the random diagonal "
        f"(min margin {min_margin:.4f}); in-group significance {cross.own_mean:.4f} "
        f"vs out-of-group {cross.other_mean:.4f} (gap {gap:.4f} >= 0.5)",
    )


# ---------------------------------------------------------------- check 6 ---


def test_rank_size_slope_and_top_share(capsys):
    """Cluster sizes planted as round(1000 * rank^-0.75) for ranks 1..100 fit a
    log-log slope of -0.75 +/- 0.05, and the top-10 share is reproduced
    exactly from the planted sizes."""
    sizes = [int(round(1000.0 * rank**-0.75)) for rank in range(1, 101)]
    labels = {}
    uid = 0
    for cluster_id, size in enumerate(sizes):
        for _ in range(size):
            labels[f"u{uid:05d}"] = cluster_id
            uid += 1
    partition = partition_from_labels(labels)
    slope, _ = rank_size_fit(partition)
    assert abs(slope + 0.75) <= 0.05, f"slope {slope:.4f} outside -0.75 +/- 0.05"
    share = top_groups_share(partition, 10)
    expected = sum(sorted(sizes, reverse=True)[:10]) / sum(sizes)
    assert share == expected, f"top-10 share {share} != planted {expected}"
    _report(
        capsys,
        f"PASS 6/9 rank-size fit over 100 planted clusters: slope {slope:.4f} "
        f"(need -0.75 +/- 0.05); top-10 share {share:.4f} matches planted sizes exactly",
    )


# ---------------------------------------------------------------- check 7 ---


def _pair_agreement_oracle(p_assign, q_assign, elements) -> float:
    both = only_p = only_q = 0
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            in_p = p_assign[elements[i]] == p_assign[elements[j]]
            in_q = q_assign[elements[i]] == q_assign[elements[j]]
            both += in_p and in_q
            only_p += in_p and not in_q
            only_q += in_q and not in_p
    total = both + only_p + only_q
    return both / total if total else 1.0


def test_partition_agreement_matches_pair_oracle(capsys):
    """The contingency-based pair agreement equals the brute-force pair scan
    exactly on 100 random 100-element partition pairs, and self-agreement
    is exactly 1."""
    rng = np.random.default_rng(24242424)
    elements = [f"e{i:03d}" for i in range(100)]
    for trial in range(100):
        p_labels = {e: int(c) for e, c in zip(elements, rng.integers(0, rng.integers(2, 13), 100))}
        q_labels = {e: int(c) for e, c in zip(elements, rng.integers(0, rng.integers(2, 13), 100))}
        p = partition_from_labels(p_labels)
        q = partition_from_labels(q_labels)
        expected = _pair_agreement_oracle(p_labels, q_labels, elements)
        assert jaccard(p, q) == expected, f"trial {trial}: oracle mismatch"
        assert jaccard(p, p) == 1.0 and jaccard(q, q) == 1.0
    _report(
        capsys,
        "PASS 7/9 pair agreement equals the brute-force oracle exactly on 100 "
        "random partition pairs (N=100); self-agreement is exactly 1",
    )


# ---------------------------------------------------------------- check 8 ---


def live_sims(result):
    """The similarity triangle of a pipeline result's users with eigen sets."""
    return sim_triangle({u: s for u, s in result.eigen_sets.items() if s is not None})


def test_dissemination_scheme_orderings(capsys):
    """On a 500-user trace (profiles from the first 30 days, replay on the
    second 30): flooding delivery >= every scheme (slack 1e-9); the oracle
    scheme leaks nothing; similarity overhead is non-increasing over
    thresholds 0.3/0.5/0.7/0.9; similarity@0.3 reaches >= 80% of flooding's
    delivery at <= 60% of its overhead; custody transmissions never exceed
    the hop budget.  Full sweep < 2 min."""
    start = time.perf_counter()
    spec = sim_trace_spec()
    records, _ = generate(spec)
    first, second, split_time = split_trace(records, 0.5, span=spec.trace_span)
    result = run_pipeline(
        build_matrices(first, TraceConfig(0.0, split_time)), metric="eigen", target_count=10
    )
    messages = build_messages(result.partition, creation_time=split_time)
    encounters = EncounterStream(second)

    sim_values, sim_ids = live_sims(result)
    runs = {
        "flooding": simulate(messages, encounters, SimConfig("flooding")),
        "centralized": simulate(messages, encounters, SimConfig("centralized")),
        "rtx": simulate(messages, encounters, SimConfig("rtx", p=1.0, ttl_factor=3.0)),
    }
    thresholds = (0.3, 0.5, 0.7, 0.9)
    for threshold in thresholds:
        runs[f"similarity@{threshold}"] = simulate(
            messages,
            encounters,
            SimConfig("similarity", sim_threshold=threshold),
            sim_values=sim_values,
            sim_ids=sim_ids,
        )
    took = time.perf_counter() - start

    flooding = runs["flooding"].aggregate
    for name, outcome in runs.items():
        assert outcome.aggregate.delivery_ratio <= flooding.delivery_ratio + 1e-9, (
            f"{name} delivers {outcome.aggregate.delivery_ratio:.4f} > flooding "
            f"{flooding.delivery_ratio:.4f}"
        )
    assert runs["centralized"].leaked == 0, f"{runs['centralized'].leaked} leaked receipts"

    overheads = [runs[f"similarity@{t}"].aggregate.overhead for t in thresholds]
    assert all(a >= b for a, b in zip(overheads, overheads[1:])), (
        f"similarity overhead not non-increasing: {overheads}"
    )

    low = runs["similarity@0.3"].aggregate
    delivery_ratio = low.delivery_ratio / flooding.delivery_ratio
    overhead_ratio = low.overhead / flooding.overhead
    assert delivery_ratio >= 0.8, f"similarity@0.3 delivery ratio {delivery_ratio:.3f} < 0.8"
    assert overhead_ratio <= 0.6, f"similarity@0.3 overhead ratio {overhead_ratio:.3f} > 0.6"

    budgets = {m.message_id: int(round(3.0 * (len(m.targets) + 1))) for m in messages}
    for message_id, budget in budgets.items():
        spent = runs["rtx"].per_message[message_id].overhead
        assert spent <= budget, f"{message_id}: {spent} transmissions > budget {budget}"

    assert took < 120.0, f"sweep took {took:.1f}s, budget 120s"
    _report(
        capsys,
        f"PASS 8/9 scheme orderings hold over {len(messages)} messages / "
        f"{len(encounters)} encounters: flooding dominates; zero oracle leakage; "
        f"similarity overhead {overheads} non-increasing; similarity@0.3 delivers "
        f"{delivery_ratio:.0%} of flooding at {overhead_ratio:.0%} overhead "
        f"(need >= 80% at <= 60%); custody within budget; {took:.0f}s < 120s",
    )


def test_similarity_thresholds_change_overhead_on_overlapping_modes(capsys):
    """On a trace whose groups overlap in a shared building, the similarity
    scheme's overhead strictly falls over thresholds 0.3/0.5/0.7/0.9, while
    still reaching every receiver flooding reaches.  The fixture above has
    one overhead at every threshold, so only this one shows the threshold
    acts."""
    spec = sim_overlap_spec()
    records, _ = generate(spec)
    first, second, split_time = split_trace(records, 0.5, span=spec.trace_span)
    result = run_pipeline(
        build_matrices(first, TraceConfig(0.0, split_time)), metric="eigen", target_count=len(OVERLAP_SHARES)
    )
    messages = build_messages(result.partition, creation_time=split_time)
    encounters = EncounterStream(second)
    flooding = simulate(messages, encounters, SimConfig("flooding")).aggregate
    sim_values, sim_ids = live_sims(result)
    thresholds = (0.3, 0.5, 0.7, 0.9)
    outcomes = [
        simulate(
            messages,
            encounters,
            SimConfig("similarity", sim_threshold=threshold),
            sim_values=sim_values,
            sim_ids=sim_ids,
        ).aggregate
        for threshold in thresholds
    ]
    overheads = [outcome.overhead for outcome in outcomes]
    assert all(a > b for a, b in zip(overheads, overheads[1:])), (
        f"similarity overhead not strictly decreasing: {overheads}"
    )
    for threshold, outcome in zip(thresholds, outcomes):
        assert outcome.delivery_ratio >= flooding.delivery_ratio - 1e-9, (
            f"similarity@{threshold} delivers {outcome.delivery_ratio:.4f} < flooding "
            f"{flooding.delivery_ratio:.4f}"
        )
    _report(
        capsys,
        f"PASS 8/9 on overlapping modes ({len(messages)} messages / {len(encounters)} "
        f"encounters) similarity overhead {overheads} strictly falls over thresholds "
        f"{list(thresholds)} at flooding's delivery",
    )


# ---------------------------------------------------------------- check 9 ---


SPEC9 = {
    "n_locations": 4,
    "n_days": 8,
    "seed": 11,
    "noise_epsilon": 0.02,
    "groups": [
        {"size": 8, "p_online": 0.9, "modes": [{"weights": [1, 0, 0, 0], "prob": 1.0}]},
        {"size": 8, "p_online": 0.9, "modes": [{"weights": [0, 1, 0, 0], "prob": 1.0}]},
        {"size": 8, "p_online": 0.9, "modes": [{"weights": [0, 0, 1, 0], "prob": 1.0}]},
    ],
}

SCENARIO9 = {
    "split_fraction": 0.5,
    "schemes": [
        {"scheme": "flooding"},
        {"scheme": "centralized"},
        {"scheme": "similarity", "sim_threshold": 0.5},
        {"scheme": "rtx", "p": 0.5, "ttl_factor": 3},
    ],
}


def test_cli_reruns_byte_identical(tmp_path, monkeypatch, capsys):
    """Every CLI subcommand rerun with identical inputs and seeds writes
    byte-identical files (manifest timestamps pinned via SOURCE_DATE_EPOCH,
    the standard reproducible-output override) and prints identical text."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1755388800")
    spec_path = tmp_path / "population.json"
    spec_path.write_text(json.dumps(SPEC9))
    config_path = tmp_path / "window.json"
    records, _ = generate(spec_from_json(str(spec_path)))
    config_path.write_text(json.dumps(profile_half_config(records)))
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO9))

    digests = {}
    compare_texts = []
    for tag in ("a", "b"):
        synth_dir = tmp_path / f"synth_{tag}"
        assert main(["synth", str(spec_path), "--out", str(synth_dir)]) == 0
        pipe_dir = tmp_path / f"pipe_{tag}"
        assert (
            main(
                [
                    "pipeline",
                    str(synth_dir / "trace.csv"),
                    "--config",
                    str(config_path),
                    "--clusters",
                    "3",
                    "--out",
                    str(pipe_dir),
                ]
            )
            == 0
        )
        sim_dir = tmp_path / f"sim_{tag}"
        assert (
            main(
                [
                    "simulate",
                    str(synth_dir / "trace.csv"),
                    "--pipeline",
                    str(pipe_dir),
                    "--scenario",
                    str(scenario_path),
                    "--out",
                    str(sim_dir),
                ]
            )
            == 0
        )
        digests[tag] = {
            "synth": digest_tree(synth_dir),
            "pipeline": digest_tree(pipe_dir),
            "simulate": digest_tree(sim_dir),
        }

    for _ in range(2):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert (
                main(
                    [
                        "compare",
                        str(tmp_path / "pipe_a" / "partition.csv"),
                        str(tmp_path / "pipe_b" / "partition.csv"),
                    ]
                )
                == 0
            )
        compare_texts.append(buffer.getvalue())

    n_files = 0
    for command in ("synth", "pipeline", "simulate"):
        assert digests["a"][command] == digests["b"][command], f"{command} outputs differ"
        n_files += len(digests["a"][command])
    assert compare_texts[0] == compare_texts[1] == "1.0000\n"
    _report(
        capsys,
        f"PASS 9/9 synth, pipeline, simulate, and compare reruns are byte-identical "
        f"({n_files} files hashed per run, manifests included)",
    )
