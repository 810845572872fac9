"""Iterative staging: grow a trained N-qubit schedule to N+1 qubits.

Tunneling (and bias) coefficient sets are copied to every qubit of the larger
system, and the trained pair coupling is copied to every pairwise coupling.
Starting the larger system from these values takes far fewer epochs than the
flat initialization.
"""

from __future__ import annotations

import numpy as np

from .schedules import FAMILIES, n_sites


def stage_up(trained):
    """Return the (N+1)-qubit schedule initialized from an N-qubit one.

    Tied source: the shared rows carry over unchanged.  Untied source: qubit
    0's row seeds every qubit and pair (0, 1)'s row seeds every pair; the
    basis structure (n_max or segment count) and T are preserved.
    """
    if type(trained) not in FAMILIES.values():
        raise TypeError(f"unsupported schedule type {type(trained).__name__}")
    n_new = trained.num_qubits + 1
    coeffs = {k: c if trained.tied else np.tile(c[0], (n_sites(n_new, k), 1))
              for k, c in trained.coeffs.items()}
    return type(trained)(n_new, trained.T, coeffs, tied=trained.tied,
                         **trained.structure())
