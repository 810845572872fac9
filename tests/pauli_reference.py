"""Dense Pauli operators built from Kronecker factors.

The program assembles Hamiltonians from bit masks and reads <Z_0 Z_1> from
a parity vector; these dense krons are the tests' independent reference.
"""

import numpy as np

SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(axis, qubit, num_qubits):
    """sigma_axis on `qubit` (qubit 0 the leftmost factor), identity elsewhere."""
    op = np.ones((1, 1), dtype=complex)
    for q in range(num_qubits):
        op = np.kron(op, SIGMA[axis] if q == qubit else np.eye(2))
    return op


def zz(num_qubits):
    """Z_0 Z_1, the readout observable, as a dense matrix."""
    return pauli("z", 0, num_qubits) @ pauli("z", 1, num_qubits)
