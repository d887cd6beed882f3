"""Tests of the benchmark itself.

Run from the root of the checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench

The traced-run tests run each workload once untraced and once traced
(about 45 s for ``certify`` and ``fibre``, 15 s for ``query`` on a 2-core
machine).
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import LAYERS  # noqa: E402


def test_relabelled_group_is_the_same_group_in_another_order():
    from cohomkit.groups import builtin_group, group_from_generators

    for name in run.GENERATORS:
        G = builtin_group(name)
        files, tables = set(), set()
        for seed in range(6):
            data = run.relabelled_group(name, seed)
            assert data == run.relabelled_group(name, seed)
            H = group_from_generators(data["generators"], label=name)
            assert H.order == G.order
            assert H.is_abelian() == G.is_abelian()
            assert sorted(map(H.element_order, range(H.order))) == \
                sorted(map(G.element_order, range(G.order)))
            files.add(json.dumps(data))
            tables.add(json.dumps(H.table))
        assert len(files) > 1
        # Every ordering of the Klein four-group's three involutions is an
        # automorphism, so all its relabellings share one table.
        if name == "klein4":
            assert len(tables) == 1
        else:
            assert len(tables) > 1


def test_gates_reject_changed_invariants():
    fiso = {"s": 1, "verdict": "pass",
            "kernel_checks": [{"degree": d, "kernel_dim": 0}
                              for d in range(1, 7)],
            "onto_witnesses": [
                {"power_degree": 2, "preimage_invariants": [2],
                 "verified": True},
                {"power_degree": 4, "preimage_invariants": [6],
                 "verified": True},
                {"power_degree": 6, "preimage_invariants": [2],
                 "verified": True}]}
    assert run.gate_certify(fiso) == []
    bad = json.loads(json.dumps(fiso))
    bad["onto_witnesses"][1]["preimage_invariants"] = [3]
    assert run.gate_certify(bad)
    bad = json.loads(json.dumps(fiso))
    bad["kernel_checks"][5]["kernel_dim"] = 1
    assert run.gate_certify(bad)

    kappa = {"kernel_nilpotent": [{"kernel_dim": 0}],
             "onto_witnesses": [{"found": True}]}
    assert run.gate_query(kappa) == []
    assert run.gate_query({**kappa, "onto_witnesses": [{"found": False}]})

    rows = [{"group": g, "module": m, "agree": True,
             "direct_projective": m == "ZG"}
            for g in ("c2", "c3", "c6") for m in ("ZG", "Z", "aug")]
    assert run.gate_fibre({"results": rows}) == []
    rows[1]["direct_projective"] = True
    assert run.gate_fibre({"results": rows})


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    trace = {"layers": {}, "top_level_s": 0.0, "factor_builds_in_fact": 0}
    emitted = set(run.layer_metrics(trace, 1.0)) | {"trace.overhead_frac"}
    assert names == emitted
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"norm_cpu_s", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for workload in run.WORKLOADS.values():
        assert set(workload["layers"]) <= set(LAYERS)


def test_speed_probe_counts_and_stops():
    probe = run.SpeedProbe(run.child_env())
    try:
        chunks0, cpu0 = probe.reading()
        time.sleep(0.3)
        chunks1, cpu1 = probe.reading()
    finally:
        probe.stop()
    assert chunks1 > chunks0 and cpu1 > cpu0
    assert probe.proc.returncode is not None


def _share(metrics, labels, wall):
    return sum(metrics[f"{label}.s"]["value"] for label in labels) / wall


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run(workload):
    for sub in ("inputs", "out", "results"):
        (run.WORK / sub).mkdir(parents=True, exist_ok=True)
    record = run.run(workload, seed=3, seconds=0, traced=True)
    children = [c for c in record["children"] if c["kind"] != "setup"]
    assert [c["kind"] for c in children] == ["untraced", "traced"]
    for c in record["children"]:
        assert c["problems"] == [], c
    # the traced report is byte-identical to the untraced one
    assert children[0]["stdout_sha256"] == children[1]["stdout_sha256"]
    result = record["result"]
    assert result["correct"] and result["failed"] == 0
    m = result["metrics"]
    for label in run.WORKLOADS[workload]["layers"]:
        assert m[f"{label}.calls"]["value"] >= 1, label
    assert m["cli.unattributed_s"]["value"] > 0

    wall = children[1]["wall_s"]
    if workload == "certify":
        assert _share(m, ["exact.sparse.factor"], wall) >= 0.80
    if workload == "query":
        assert _share(m, ["exact.sparse.factor"], wall) <= 0.10
        assert _share(m, ["kernels.replay_int", "kernels.replay_mod",
                          "kernels.backsub", "kernels.matvec"], wall) >= 0.60
    if workload == "fibre":
        for name, value in m.items():
            if name.startswith(("resolutions.", "exact.sparse.")):
                assert value["value"] == 0, name
        assert _share(m, ["fibrewise.rational_projectivity_test",
                          "fibrewise.integral_projectivity_test",
                          "fibrewise.fibre_projectivity_test"],
                      wall) >= 0.85
