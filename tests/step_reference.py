"""Every step unitary of a schedule, and block operators lifted to the register.

The program multiplies the steps only on the support of the factors it
propagates.  The references here take all of them, in the schedule's
`block_basis`, and lift a block-diagonal P to the register as
unfold(P fold(I)): P on the basis's span, zero off it.
"""

import numpy as np

from qdynlearn import qcore


def block_steps(sched, grid):
    """U_k = exp(-i H_k dt) in the schedule's block coordinates, (M, R, R)."""
    basis = qcore.block_basis(sched.num_qubits, sched.tied)
    return qcore.expm_hermitian(qcore.step_hamiltonians(sched, grid, basis),
                                grid.dt)


def lift(basis, p):
    """Register operators (..., d, d) of block-diagonal (..., R, R) ones."""
    return basis.unfold(p @ basis.fold(np.eye(basis.fold_map.shape[1])))


def register_steps(sched, grid):
    """Every step unitary U_k on the whole register, (M, d, d)."""
    basis = qcore.block_basis(sched.num_qubits, sched.tied)
    return lift(basis, block_steps(sched, grid))
