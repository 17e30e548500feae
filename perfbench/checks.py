"""Output checks that do not trust the compiler under test.

Each check returns a list of problems (empty when the output is correct);
the benchmark counts an attempt as failed when any check on its output
reports one.  The checks never rely on the compiler's own verdict
(``CompilationResult.verified``): a circuit is replayed on the stabilizer
tableau and its gates re-counted, a stream is compared operation by operation
with the whole-graph reduction of a small instance of the same family, and a
service response is compared with a library compile of the same job.
"""

from __future__ import annotations

import hashlib

from repro.circuit.gates import GateName, TWO_QUBIT_GATES
from repro.circuit.validation import (
    CircuitValidationError,
    validate_circuit_constraints,
    verify_circuit_generates,
)


def circuit_digest(circuit) -> str:
    """SHA-256 over the gate list (names, operands, feed-forward Paulis)."""
    digest = hashlib.sha256()
    for gate in circuit.gates:
        digest.update(repr((
            gate.name.name,
            [(q.kind.value, q.index) for q in gate.qubits],
            [(p, q.kind.value, q.index) for p, q in gate.conditional_paulis],
        )).encode())
    return digest.hexdigest()


def check_circuit(graph, result) -> list[str]:
    """Tableau-verify one compiled circuit and re-count its quality fields."""
    circuit = result.circuit
    problems = []
    try:
        validate_circuit_constraints(circuit)
    except CircuitValidationError as exc:
        problems.append(f"circuit breaks the emitter-photon rules: {exc}")
        return problems
    if not verify_circuit_generates(
        circuit, graph, photon_of_vertex=result.sequence.photon_of_vertex
    ):
        problems.append("circuit does not generate the target graph state")
    emissions = sum(1 for gate in circuit.gates if gate.name is GateName.EMIT)
    if emissions != graph.num_vertices:
        problems.append(f"{emissions} emissions for {graph.num_vertices} vertices")
    ee_gates = sum(1 for gate in circuit.gates if gate.name in TWO_QUBIT_GATES)
    if ee_gates != result.metrics.num_emitter_emitter_cnots:
        problems.append(
            f"reported {result.metrics.num_emitter_emitter_cnots} emitter-emitter "
            f"CNOTs, circuit has {ee_gates}"
        )
    if circuit.num_emitters != result.metrics.num_emitters:
        problems.append("reported emitter count differs from the circuit's")
    return problems


class CircuitLedger:
    """Verify each distinct input's circuit once; later repeats must hash-equal it."""

    def __init__(self) -> None:
        self.digests: dict[object, str] = {}

    def check(self, key, graph, result) -> list[str]:
        digest = circuit_digest(result.circuit)
        if key in self.digests:
            if self.digests[key] != digest:
                return [f"{key}: circuit differs from the first compile of the same input"]
            return []
        self.digests[key] = digest
        return [f"{key}: {problem}" for problem in check_circuit(graph, result)]


def stream_summary(result) -> tuple:
    """Every deterministic field of a stream result (timing excluded)."""
    return (
        result.family, result.num_vertices, result.num_edges, result.num_regions,
        result.window_capacity, result.peak_window_photons, result.num_emitters,
        result.emitters_over_budget, result.num_operations, result.num_emissions,
        result.num_emitter_emitter_gates, tuple(sorted(result.op_counts.items())),
    )


def check_stream(spec, result) -> list[str]:
    """Invariants every streamed compile must meet, at any size."""
    problems = []
    if result.num_vertices != spec.num_vertices:
        problems.append(f"streamed {result.num_vertices} of {spec.num_vertices} vertices")
    if result.num_emissions != result.num_vertices:
        problems.append(
            f"{result.num_emissions} emissions for {result.num_vertices} vertices"
        )
    if result.emitters_over_budget != 0:
        problems.append(f"{result.emitters_over_budget} emitters over budget")
    return problems


def check_stream_oracle(streamed, reference) -> list[str]:
    """A small stream must equal the whole-graph reduction bit for bit.

    ``streamed`` comes from ``compile_stream(spec, collect_operations=True)``
    and ``reference`` from ``greedy_reduce(spec.materialize())``.
    """
    problems = []
    if streamed.operations != reference.operations:
        problems.append(f"{streamed.family}: streamed operations differ from the "
                        "whole-graph reduction")
    if streamed.num_emitters != max(reference.num_emitters, 1):
        problems.append(f"{streamed.family}: streamed emitter count differs")
    return problems


def response_quality(body) -> dict | None:
    """The deterministic part of a ``/compile`` response (timing excluded)."""
    if not isinstance(body, dict) or not body.get("ok"):
        return None
    ours = dict((body.get("result") or {}).get("ours") or {})
    ours.pop("compile_time_seconds", None)
    return ours or None


def check_response(body, reference: dict) -> list[str]:
    """A response must be ``ok`` and equal the library compile of its job."""
    if not isinstance(body, dict) or not body.get("ok"):
        error = body.get("error") if isinstance(body, dict) else body
        return [f"request failed: {error}"]
    if response_quality(body) != reference:
        return ["response metrics differ from a library compile of the same job"]
    return []
