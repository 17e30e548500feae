"""Qubit and gate datatypes of the emitter-photon circuit IR.

Two qubit species exist (paper §II.B):

* **emitter** qubits — matter qubits (quantum dots, colour centres, atoms)
  that are initialised in ``|0>``, support arbitrary single-qubit Cliffords,
  two-qubit gates *among themselves*, measurement and reset;
* **photon** qubits — flying qubits that do not exist before their emission;
  the first gate acting on a photon must be the emission, after which only
  single-qubit gates (and terminal measurements, not used here) are allowed.

Gates are immutable slotted records; a circuit is a list of gates (see
:mod:`repro.circuit.circuit`).  :func:`emitter` and :func:`photon` hand out
shared :class:`Qubit` instances for small indices, so the gates of the many
circuits a long-running process keeps cached do not each carry their own
operand objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = [
    "QubitKind",
    "Qubit",
    "emitter",
    "photon",
    "SHARED_QUBIT_INDICES",
    "GateName",
    "Gate",
    "SINGLE_QUBIT_GATES",
    "TWO_QUBIT_GATES",
    "EMISSION_GATE",
    "MEASUREMENT_GATES",
    "INVERSE_GATE",
]


class QubitKind(str, enum.Enum):
    """The two physical qubit species of the deterministic scheme."""

    EMITTER = "emitter"
    PHOTON = "photon"


@dataclass(frozen=True, order=True, slots=True)
class Qubit:
    """A qubit identified by its species and an index within that species."""

    kind: QubitKind
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"qubit index must be >= 0, got {self.index}")

    @property
    def is_emitter(self) -> bool:
        return self.kind is QubitKind.EMITTER

    @property
    def is_photon(self) -> bool:
        return self.kind is QubitKind.PHOTON

    def __repr__(self) -> str:
        prefix = "e" if self.is_emitter else "p"
        return f"{prefix}{self.index}"


#: Indices below this get one shared :class:`Qubit` per species from
#: :func:`emitter` / :func:`photon`; larger ones (very long streams) are
#: built per call, so the table stays bounded.
SHARED_QUBIT_INDICES = 1024

_EMITTERS = tuple(Qubit(QubitKind.EMITTER, i) for i in range(SHARED_QUBIT_INDICES))
_PHOTONS = tuple(Qubit(QubitKind.PHOTON, i) for i in range(SHARED_QUBIT_INDICES))


def emitter(index: int) -> Qubit:
    """The emitter qubit ``index`` (a shared instance for small indices)."""
    if 0 <= index < SHARED_QUBIT_INDICES:
        return _EMITTERS[index]
    return Qubit(QubitKind.EMITTER, index)


def photon(index: int) -> Qubit:
    """The photon qubit ``index`` (a shared instance for small indices)."""
    if 0 <= index < SHARED_QUBIT_INDICES:
        return _PHOTONS[index]
    return Qubit(QubitKind.PHOTON, index)


class GateName(str, enum.Enum):
    """Names of all gates the compiler can emit."""

    H = "H"
    S = "S"
    SDG = "SDG"
    X = "X"
    Y = "Y"
    Z = "Z"
    SQRT_X = "SQRT_X"
    SQRT_X_DAG = "SQRT_X_DAG"
    CZ = "CZ"
    CNOT = "CNOT"
    EMIT = "EMIT"
    MEASURE_Z = "MEASURE_Z"
    RESET = "RESET"


SINGLE_QUBIT_GATES = frozenset(
    {
        GateName.H,
        GateName.S,
        GateName.SDG,
        GateName.X,
        GateName.Y,
        GateName.Z,
        GateName.SQRT_X,
        GateName.SQRT_X_DAG,
    }
)
TWO_QUBIT_GATES = frozenset({GateName.CZ, GateName.CNOT})
EMISSION_GATE = GateName.EMIT
MEASUREMENT_GATES = frozenset({GateName.MEASURE_Z, GateName.RESET})

INVERSE_GATE: dict[GateName, GateName] = {
    GateName.H: GateName.H,
    GateName.S: GateName.SDG,
    GateName.SDG: GateName.S,
    GateName.X: GateName.X,
    GateName.Y: GateName.Y,
    GateName.Z: GateName.Z,
    GateName.SQRT_X: GateName.SQRT_X_DAG,
    GateName.SQRT_X_DAG: GateName.SQRT_X,
    GateName.CZ: GateName.CZ,
    GateName.CNOT: GateName.CNOT,
}


@dataclass(frozen=True, slots=True)
class Gate:
    """A single circuit operation.

    Attributes:
        name: the gate type.
        qubits: operands.  Convention: for ``CNOT`` the first operand is the
            control; for ``EMIT`` the first operand is the emitter and the
            second the (newly created) photon.
        conditional_paulis: Pauli feed-forward corrections applied when a
            ``MEASURE_Z`` yields outcome 1 — tuples ``(pauli_name, qubit)``
            where ``pauli_name`` is ``"X"``, ``"Y"`` or ``"Z"``.  Only
            meaningful for ``MEASURE_Z`` gates.
        tag: free-form annotation used by the compiler to attribute gates to
            pipeline stages (e.g. ``"stem"``, ``"subgraph:3"``, ``"lc"``).
    """

    name: GateName
    qubits: tuple[Qubit, ...]
    conditional_paulis: tuple[tuple[str, Qubit], ...] = field(default_factory=tuple)
    tag: str = ""

    def __post_init__(self) -> None:
        if not self.qubits:
            raise ValueError("a gate needs at least one operand")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate operands in gate {self.name}: {self.qubits}")
        if self.name in SINGLE_QUBIT_GATES or self.name in MEASUREMENT_GATES:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.name} expects exactly one operand")
        elif self.name in TWO_QUBIT_GATES or self.name is GateName.EMIT:
            if len(self.qubits) != 2:
                raise ValueError(f"{self.name} expects exactly two operands")
        if self.conditional_paulis and self.name is not GateName.MEASURE_Z:
            raise ValueError("conditional Paulis are only allowed on MEASURE_Z gates")
        for pauli_name, _ in self.conditional_paulis:
            if pauli_name not in ("X", "Y", "Z"):
                raise ValueError(f"invalid conditional Pauli {pauli_name!r}")

    # Convenience accessors -------------------------------------------------

    @property
    def is_emitter_emitter_gate(self) -> bool:
        """True for two-qubit gates acting on two emitters (the costly ones)."""
        return (
            self.name in TWO_QUBIT_GATES
            and all(q.is_emitter for q in self.qubits)
        )

    @property
    def is_emission(self) -> bool:
        return self.name is GateName.EMIT

    def involves(self, qubit: Qubit) -> bool:
        return qubit in self.qubits

    def __repr__(self) -> str:
        operands = ", ".join(repr(q) for q in self.qubits)
        suffix = f" [{self.tag}]" if self.tag else ""
        return f"{self.name.value}({operands}){suffix}"
