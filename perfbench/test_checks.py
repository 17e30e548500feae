"""The benchmark's output checks catch tampered outputs.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from repro.circuit.circuit import Circuit  # noqa: E402
from repro.core.compiler import compile_graph  # noqa: E402
from repro.core.strategies import greedy_reduce  # noqa: E402
from repro.core.streaming import compile_stream  # noqa: E402
from repro.graphs.generators import lattice_graph  # noqa: E402
from repro.graphs.lazy import make_stream_spec  # noqa: E402
from repro.pipeline.jobs import BatchJob, run_job  # noqa: E402


def compiled():
    graph = lattice_graph(3, 4)
    return graph, compile_graph(graph, verify=True)


def with_gates(result, gates):
    circuit = Circuit(result.circuit.num_emitters, result.circuit.num_photons)
    circuit.extend(gates)
    return dataclasses.replace(result, circuit=circuit)


def test_correct_circuit_passes():
    graph, result = compiled()
    assert checks.check_circuit(graph, result) == []


def test_circuit_missing_a_gate_is_caught():
    graph, result = compiled()
    tampered = with_gates(result, result.circuit.gates[:-1])
    assert checks.check_circuit(graph, tampered)


def test_circuit_for_another_graph_is_caught():
    graph, _ = compiled()
    other = compile_graph(lattice_graph(4, 3), verify=True)
    assert checks.check_circuit(graph, other)


def test_misreported_cnot_count_is_caught():
    graph, result = compiled()
    metrics = dataclasses.replace(
        result.metrics,
        num_emitter_emitter_cnots=result.metrics.num_emitter_emitter_cnots + 1,
    )
    problems = checks.check_circuit(graph, dataclasses.replace(result, metrics=metrics))
    assert any("CNOT" in problem for problem in problems)


def test_repeat_with_a_different_circuit_is_caught():
    graph, result = compiled()
    ledger = checks.CircuitLedger()
    assert ledger.check("g", graph, result) == []
    assert ledger.check("g", graph, result) == []
    assert ledger.check("g", graph, with_gates(result, result.circuit.gates[:-1]))


def test_stream_differing_from_whole_graph_reduction_is_caught():
    spec = make_stream_spec("percolated", 200, seed=3)
    streamed = compile_stream(spec, collect_operations=True)
    reference = greedy_reduce(spec.materialize())
    assert checks.check_stream_oracle(streamed, reference) == []
    streamed.operations = streamed.operations[:-1]
    assert checks.check_stream_oracle(streamed, reference)


def test_stream_with_missing_emissions_is_caught():
    spec = make_stream_spec("lattice", 400)
    result = compile_stream(spec)
    assert checks.check_stream(spec, result) == []
    assert checks.check_stream(spec, dataclasses.replace(result, num_emissions=399))
    assert checks.check_stream(spec, dataclasses.replace(result, emitters_over_budget=1))


def test_tampered_service_response_is_caught():
    payload = {"family": "tree", "size": 12, "seed": 5, "kind": "compile"}
    record = run_job(BatchJob.from_dict(payload))
    body = {"ok": True, "cache_hit": False, "result": record}
    reference = checks.response_quality(copy.deepcopy(body))
    assert checks.check_response(body, reference) == []
    body["result"]["ours"]["num_emitter_emitter_cnots"] += 1
    assert checks.check_response(body, reference)
    assert checks.check_response({"ok": False, "error": "boom"}, reference)


def test_percentile_needs_ten_samples_beyond_it():
    assert workloads.percentile(range(19), 0.5) is None
    assert workloads.percentile(range(21), 0.5) == 10
    assert workloads.percentile(range(999), 0.99) is None
    assert workloads.percentile(range(1000), 0.99) is not None


def test_benchmark_json_names_the_measured_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].WHY
