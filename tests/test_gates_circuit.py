"""Tests for the gate datatypes and the Circuit container constraints."""

from __future__ import annotations

import pickle

import pytest

from repro.circuit.circuit import Circuit
from repro.circuit.gates import (
    SHARED_QUBIT_INDICES,
    Gate,
    GateName,
    Qubit,
    QubitKind,
    emitter,
    photon,
)
from repro.core.compiler import compile_graph
from repro.core.reduction import ReductionOp, ReductionOpType
from repro.graphs.generators import lattice_graph


class TestQubit:
    def test_shorthand_constructors(self):
        assert emitter(2) == Qubit(QubitKind.EMITTER, 2)
        assert photon(0).is_photon
        assert emitter(1).is_emitter

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            photon(-1)
        with pytest.raises(ValueError):
            emitter(-1)
        with pytest.raises(ValueError):
            Qubit(QubitKind.PHOTON, -1)

    def test_shorthands_share_instances_below_the_bound(self):
        assert emitter(3) is emitter(3)
        assert photon(3) is photon(3)
        assert emitter(3) is not photon(3)
        beyond = SHARED_QUBIT_INDICES + 5
        assert photon(beyond) == photon(beyond)
        assert photon(beyond) is not photon(beyond)

    def test_repr(self):
        assert repr(emitter(3)) == "e3"
        assert repr(photon(7)) == "p7"


class TestSlottedIR:
    def test_ir_records_have_no_instance_dict(self):
        records = (
            emitter(0),
            Gate(GateName.CNOT, (emitter(0), emitter(1)), tag="stem"),
            ReductionOp(ReductionOpType.DISCONNECT, emitter=0, emitter_b=1),
        )
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_circuit_survives_a_pickle_round_trip(self):
        result = compile_graph(lattice_graph(2, 3))
        circuit = result.circuit
        restored = pickle.loads(pickle.dumps(circuit))
        assert restored.gates == circuit.gates
        assert (restored.num_emitters, restored.num_photons) == (
            circuit.num_emitters,
            circuit.num_photons,
        )
        op = ReductionOp(ReductionOpType.ABSORB_LEAF, emitter=1, photon=4, tag="x")
        assert pickle.loads(pickle.dumps(op)) == op


class TestGateValidation:
    def test_single_qubit_gate_arity(self):
        with pytest.raises(ValueError):
            Gate(GateName.H, (emitter(0), emitter(1)))

    def test_two_qubit_gate_arity(self):
        with pytest.raises(ValueError):
            Gate(GateName.CZ, (emitter(0),))

    def test_duplicate_operands_rejected(self):
        with pytest.raises(ValueError):
            Gate(GateName.CZ, (emitter(0), emitter(0)))

    def test_no_operands_rejected(self):
        with pytest.raises(ValueError):
            Gate(GateName.H, ())

    def test_conditional_paulis_only_on_measurement(self):
        with pytest.raises(ValueError):
            Gate(GateName.H, (emitter(0),), conditional_paulis=(("Z", photon(0)),))

    def test_invalid_conditional_pauli_name(self):
        with pytest.raises(ValueError):
            Gate(
                GateName.MEASURE_Z,
                (emitter(0),),
                conditional_paulis=(("Q", photon(0)),),
            )

    def test_emitter_emitter_flag(self):
        assert Gate(GateName.CZ, (emitter(0), emitter(1))).is_emitter_emitter_gate
        assert not Gate(GateName.EMIT, (emitter(0), photon(0))).is_emitter_emitter_gate

    def test_involves(self):
        gate = Gate(GateName.CZ, (emitter(0), emitter(1)))
        assert gate.involves(emitter(0))
        assert not gate.involves(photon(0))


class TestCircuitConstraints:
    def test_registry_bounds(self):
        circuit = Circuit(num_emitters=1, num_photons=1)
        with pytest.raises(ValueError):
            circuit.add_cz(0, 1)
        with pytest.raises(ValueError):
            circuit.add_emission(0, 5)

    def test_photon_photon_gate_rejected(self):
        circuit = Circuit(num_emitters=1, num_photons=2)
        circuit.add_emission(0, 0)
        circuit.add_emission(0, 1)
        with pytest.raises(ValueError):
            circuit.append(Gate(GateName.CZ, (photon(0), photon(1))))

    def test_emitter_photon_two_qubit_gate_rejected(self):
        circuit = Circuit(num_emitters=1, num_photons=1)
        circuit.add_emission(0, 0)
        with pytest.raises(ValueError):
            circuit.append(Gate(GateName.CNOT, (emitter(0), photon(0))))

    def test_photon_gate_before_emission_rejected(self):
        circuit = Circuit(num_emitters=1, num_photons=1)
        with pytest.raises(ValueError):
            circuit.add_single(GateName.H, photon(0))

    def test_double_emission_rejected(self):
        circuit = Circuit(num_emitters=1, num_photons=1)
        circuit.add_emission(0, 0)
        with pytest.raises(ValueError):
            circuit.add_emission(0, 0)

    def test_emission_operand_kinds(self):
        circuit = Circuit(num_emitters=1, num_photons=1)
        with pytest.raises(ValueError):
            circuit.append(Gate(GateName.EMIT, (photon(0), emitter(0))))

    def test_measurement_of_photon_rejected(self):
        circuit = Circuit(num_emitters=1, num_photons=1)
        circuit.add_emission(0, 0)
        with pytest.raises(ValueError):
            circuit.append(Gate(GateName.MEASURE_Z, (photon(0),)))

    def test_conditional_on_unemitted_photon_rejected(self):
        circuit = Circuit(num_emitters=1, num_photons=1)
        with pytest.raises(ValueError):
            circuit.add_measure(0, conditional_paulis=[("Z", photon(0))])

    def test_valid_emission_sequence(self):
        circuit = Circuit(num_emitters=2, num_photons=2)
        circuit.add_single(GateName.H, emitter(0))
        circuit.add_cz(0, 1)
        circuit.add_emission(0, 0)
        circuit.add_single(GateName.H, photon(0))
        circuit.add_emission(1, 1)
        circuit.add_measure(0, conditional_paulis=[("Z", photon(0))])
        circuit.add_reset(1)
        assert circuit.num_gates == 7
        assert circuit.emitted_photons == {0, 1}


class TestCircuitQueries:
    def build(self) -> Circuit:
        circuit = Circuit(num_emitters=2, num_photons=2)
        circuit.add_single(GateName.H, emitter(0))
        circuit.add_cz(0, 1)
        circuit.add_cnot(0, 1)
        circuit.add_emission(0, 0)
        circuit.add_emission(1, 1)
        circuit.add_single(GateName.H, photon(1))
        return circuit

    def test_counts(self):
        circuit = self.build()
        assert circuit.count(GateName.EMIT) == 2
        assert circuit.count(GateName.H) == 2
        assert circuit.num_emitter_emitter_gates() == 2

    def test_gates_on(self):
        circuit = self.build()
        assert len(circuit.gates_on(emitter(0))) == 4
        assert len(circuit.gates_on(photon(1))) == 2

    def test_emission_gate_of(self):
        circuit = self.build()
        gate = circuit.emission_gate_of(0)
        assert gate is not None and gate.qubits[0] == emitter(0)
        assert circuit.emission_gate_of(5) is None

    def test_copy_independence(self):
        circuit = self.build()
        clone = circuit.copy()
        clone.add_reset(0)
        assert clone.num_gates == circuit.num_gates + 1

    def test_gates_property_returns_copy(self):
        circuit = self.build()
        gates = circuit.gates
        gates.append("junk")
        assert circuit.num_gates == 6

    def test_concatenate(self):
        a = self.build()
        b = Circuit(num_emitters=2, num_photons=2)
        b.add_reset(0)
        merged = Circuit.concatenate([Circuit(2, 2), b])
        assert merged.num_gates == 1
        with pytest.raises(ValueError):
            Circuit.concatenate([])
        with pytest.raises(ValueError):
            Circuit.concatenate([a, Circuit(1, 2)])

    def test_pretty(self):
        circuit = self.build()
        text = circuit.pretty(max_gates=2)
        assert "more gates" in text
        assert "EMIT" in circuit.pretty()

    def test_negative_registry_rejected(self):
        with pytest.raises(ValueError):
            Circuit(-1, 2)
        with pytest.raises(ValueError):
            Circuit(1, -2)
