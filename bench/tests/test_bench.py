"""Tests of the benchmark's own logic: generation, the oracle, tracing."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

EXPECT_KEYS = {
    "verify": {"passed", "commutant_dimension"},
    "form": {"invariance_verified_if_exists"},
    "form-twisted": {"invariance_verified_if_exists"},
    "dual": {"chords_match_if_nondegenerate"},
    "equiv-root": {"verdict"},
    "equiv-distinct": {"verdict"},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic(workload):
    first = workloads.generate(workload, 7, 30)
    assert first == workloads.generate(workload, 7, 30)
    assert first != workloads.generate(workload, 8, 30)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_job_has_its_expected_verdict(workload):
    documents, jobs, probes = workloads.generate(workload, 3, 60)
    for job in jobs + probes:
        assert job["expect"]["exit"] == 0
        assert EXPECT_KEYS[job["kind"]] <= set(job["expect"])
        assert job["argv"][0] == job["kind"].split("-")[0]
        for arg in job["argv"]:
            assert not arg.endswith(".json") or arg in documents
    verdicts = {job["expect"].get("verdict") for job in jobs}
    if workload == "corpus-equiv-dual":
        assert verdicts == {None, "equivalent", "distinct"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_probes_are_the_known_defect_inputs(workload):
    _, jobs, probes = workloads.generate(workload, 5, 60)
    assert bool(probes) == (workload != "corpus-verify-form")
    for probe in probes:
        if probe["kind"] == "equiv-root":
            assert "--tree2" not in probe["argv"] and "--params2" not in probe["argv"]
        else:
            assert probe["kind"] == "verify" and "--max-order" not in probe["argv"]
    for job in jobs:
        if job["kind"] == "equiv-root":
            assert "--tree2" in job["argv"] and "--params2" in job["argv"]
        if job["kind"] == "verify" and job["max_label"] > 60:
            assert "--max-order" in job["argv"]


def test_cache_clearers_reach_the_field_context_cache():
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    import run
    from coxrep.cyclotomic import field_context

    field_context(7)
    clearers = run.cache_clearers()
    assert field_context.cache_clear in clearers
    for clear in clearers:
        clear()
    assert field_context.cache_info().currsize == 0


def test_involution_index_matches_the_library():
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    from coxrep.cyclotomic import field_context
    from coxrep.forms import involutive_automorphisms

    for n in (1, 2, 5, 7, 10, 12, 24, 40, 60, 84):
        indices = [a.index for a in involutive_automorphisms(field_context(n))]
        assert workloads.first_involution_index(n) == (indices[1:] or [None])[0]


def _verify_output(computed, passed):
    return json.dumps({
        "passed": passed,
        "good_morphism": {"passed": passed, "checks": [
            {"pair": [0, 0], "expected": 1, "computed": 1, "passed": True},
            {"pair": [0, 1], "expected": 61, "computed": computed,
             "passed": computed == 61}]},
        "char_poly_checks": [{"pair": ["s1", "s2"], "char_poly_closed_form": True}],
        "commutant_dimension": 1,
    })


def test_check_attributes_known_defects_and_nothing_else():
    _, _, probes = workloads.generate("scale", 1, 3)
    verify = next(j for j in probes if j["kind"] == "verify" and j["max_label"] > 60)
    assert workloads.check(verify, 0, _verify_output(61, True)) is None
    assert workloads.check(verify, 3, _verify_output(None, False)) == "max-order"
    assert workloads.check(verify, 3, _verify_output(59, False)) == "unexplained"
    assert workloads.check(verify, 4, "") == "unexplained"
    low = dict(verify, max_label=13)
    assert workloads.check(low, 3, _verify_output(None, False)) == "order-shortlist"

    equiv = {"kind": "equiv-root", "nontrivial_alpha": True,
             "expect": {"exit": 0, "verdict": "equivalent"}}
    distinct = json.dumps({"verdict": "distinct"})
    assert workloads.check(equiv, 0, json.dumps({"verdict": "equivalent"})) is None
    assert workloads.check(equiv, 0, distinct) == "root2-defaults"
    assert workloads.check(dict(equiv, nontrivial_alpha=False), 0, distinct) == "unexplained"


def test_self_time_on_a_hand_built_span_tree():
    # main [0, 10] > verify [1, 9] > eliminate [2, 5], eliminate [6, 8] > mul-free leaf
    durations = [10.0, 8.0, 3.0, 2.0, 0.5]
    parents = [-1, 0, 1, 1, 3]
    assert tracing.self_times(durations, parents) == [2.0, 3.0, 3.0, 1.5, 0.5]


def test_summary_counts_nested_same_name_spans_once():
    tracer = tracing.Tracer()
    tracer.names[:] = ["cli.main", "linalg.charpoly", "linalg.charpoly", "trace.hook"]
    tracer.starts[:] = [0.0, 1.0, 2.0, 5.0]
    tracer.ends[:] = [10.0, 6.0, 4.0, 5.5]
    tracer.parents[:] = [-1, 0, 1, 0]
    tracer.jobs[:] = [0, 0, 0, 0]
    metrics = tracer.summary(jobs=1, overhead=1.0)
    assert metrics["linalg.charpoly.calls"] == 2
    assert metrics["linalg.charpoly.s"] == 5.0
    assert metrics["linalg.charpoly.self_s"] == 5.0
    assert metrics["cli.main.self_s"] == 4.5
    assert metrics["layer.cli.self_s"] == 4.5


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
