"""Dense N-qubit linear algebra and unitary time evolution of density matrices.

Everything here works on small dense matrices (dim d = 2^N, N <= 6).  H is
real symmetric, a schedule's coefficients times one stack of unit generators
(`generators`).  Every solve runs in the coordinates of the schedule's
`block_basis`: a tied schedule (the same terms on every qubit and pair)
commutes with every qubit permutation, so in the total-spin basis of
`spin_basis` each step Hamiltonian is one block per distinct spin j,
repeated on each of its copies.  The solves keep one copy of each block,
an (M, R, R) stack with R = sum(2j+1) (9 in place of d = 16 at N = 4), and
fold the copies into the columns of the state's factor.  An untied schedule
is the one-block case: Q = I, R = d, one copy.

Evolution is a stepwise matrix exponential of the midpoint Hamiltonians
(`step_hamiltonians`), taken by `expm_hermitian` without an
eigendecomposition: U = C - iS with C = cos(H dt) and S = sin(H dt) as real
Taylor polynomials, accurate and unitary to round-off.  On the small sides
of the training solves, U comes in the real form R(U) = [[C, S], [-S, C]],
which multiplies as U does, so the step products run in real arithmetic
(numpy makes one BLAS call per matrix of a complex stack); U, or each P_k,
is read off once at the end (`complex_form`).  A state is its square-root
factor F (rho = F F^dagger, d x rank; `DensityMatrix`), and every solve
carries F on the `BlockBasis.support` of the folded factor: the blocks and
copies the state occupies, which a tied H never leaves (|0..0> and GHZ lie
in the symmetric block alone).  `propagate` gives the final factors U F,
with U = U_{M-1} ... U_0 multiplied pairwise (`ordered_product`); the dense
`total_propagator`, U F of F = I, is the tests' reference.  `evolve` keeps
the states along the way: one pairwise scan (`prefix_products`) gives every
P_k = U_{k-1} ... U_0, and one batched product every F_k = P_k F_0;
rho(t_k) is formed on demand.  The density-matrix invariants (Hermiticity,
unit trace, positivity) are preserved to round-off.  No solve diagonalises
a Hamiltonian, and neither does a gradient: `expm_hermitian_pullback`
takes the derivative by reverse mode through the same Taylor polynomial.

The one readout is Z_0 Z_1, diagonal in the computational basis, so a state
enters it only through its populations diag(F F^dagger) (`populations` of
the final factors U F or of an evolved factor unfolded to the register;
normalised counts in `circuit`).  <Z_0 Z_1> weights them by the signs
`zz_parity` (`zz_expectation`), and the witness output is its square,
<Z_0 Z_1>^2 (`output_value`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-9
SPIN_BASIS_TOL = 1e-13

# Register sizes a witness is trained or evaluated on: the readout needs
# qubits 0 and 1, and every register operator is dense in 2^N.
QUBIT_RANGE = range(2, 7)

# Trajectory-solve counter (forward evolutions, RL pair errors, total
# propagators and backward adjoint sweeps each count as one solve).
# Single-threaded bookkeeping used by the cost-structure tests; reset freely.
solve_count = 0


def _tick_solve():
    global solve_count
    solve_count += 1


def check_num_qubits(n, what="num_qubits", error=ValueError):
    """Raise `error` unless `n` is an integer (not a bool) in QUBIT_RANGE."""
    if isinstance(n, bool) or not isinstance(n, int) or n not in QUBIT_RANGE:
        raise error(f"{what} must be an integer in {QUBIT_RANGE.start}.."
                    f"{QUBIT_RANGE.stop - 1}, got {n!r}")


def _check_register_array(a, what):
    """Raise ValueError naming the first NaN or infinity in `a`, or unless
    its last axis has 2^N entries for some N >= 1."""
    if not np.isfinite(a).all():
        index = np.argwhere(~np.isfinite(a))[0].tolist()
        raise ValueError(f"{what} has a non-finite entry {a[tuple(index)]} "
                         f"at {index}")
    if a.shape[-1] < 2 or a.shape[-1] & (a.shape[-1] - 1):
        raise ValueError(f"dimension must be a power of 2, at least 2, "
                         f"got {a.shape[-1]}")


@dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """2^N x 2^N Hermitian, unit-trace, positive-semidefinite state, held as
    its square-root factor F (d, r) alone: `matrix` = F F^dagger.

    A matrix is checked and factored by one `eigh`, F = V_+ sqrt(w_+):
    eigenvalues at round-off of the largest, or tolerated negative ones, are
    dropped, so r is the numerical rank and the last column the largest
    eigenvalue's.  `from_state_vector` keeps the normalised psi as F.
    Equality and hashing are by identity: two states built alike compare
    unequal, and a state (or a pair holding one) can key a set or dict.
    """

    factor: np.ndarray

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        _check_register_array(m, "density matrix")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace differs from 1")
        w, v = np.linalg.eigh(m)
        if w[0] < -POSITIVITY_TOL:
            raise ValueError("density matrix is not positive semidefinite")
        keep = w > len(w) * np.finfo(float).eps * w[-1]
        object.__setattr__(self, "factor", v[:, keep] * np.sqrt(w[keep]))

    @property
    def matrix(self) -> np.ndarray:
        return self.factor @ self.factor.conj().T

    @property
    def dim(self):
        return self.factor.shape[0]

    @property
    def num_qubits(self):
        return self.dim.bit_length() - 1

    @classmethod
    def from_state_vector(cls, psi) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex).ravel()
        _check_register_array(psi, "state vector")
        # Scale by a power of two first: exact, and the norm cannot overflow.
        _, exp = np.frexp(np.abs(psi.view(float)).max(initial=0.0))
        psi = np.ldexp(psi.view(float), -exp).view(complex)
        norm = math.sqrt(psi.real @ psi.real + psi.imag @ psi.imag)
        if norm == 0:
            raise ValueError("zero state vector")
        rho = object.__new__(cls)
        object.__setattr__(rho, "factor", (psi / norm)[:, None])
        return rho


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T]: t_k = k T / M for k = 0..M."""

    T: float
    steps: int

    def __post_init__(self):
        if not 0 < self.T < math.inf:  # also False for NaN
            raise ValueError(f"final time must be in (0, inf), got {self.T!r}")
        if type(self.steps) is not int or self.steps < 1:  # bool is not int
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")

    @property
    def dt(self):
        return self.T / self.steps

    @property
    def times(self):
        return np.linspace(0.0, self.T, self.steps + 1)

    @functools.cached_property
    def midpoints(self):
        """Read-only step midpoints t_k + dt/2, computed once per grid."""
        mid = self.times[:-1] + 0.5 * self.dt
        mid.flags.writeable = False
        return mid


def pair_indices(num_qubits):
    """Ordered qubit pairs (i < j) used for the coupling parameters."""
    return list(itertools.combinations(range(num_qubits), 2))


@functools.lru_cache(maxsize=None)
def _bit_tables(num_qubits):
    """(idx, sigma_x bit masks (N,), sigma_z signs (d, N), zz signs (d, P)).

    Qubit q is bit N-1-q of a basis index: kron order, qubit 0 leftmost.
    """
    idx = np.arange(2**num_qubits)
    masks = 1 << (num_qubits - 1 - np.arange(num_qubits))
    zsigns = np.where(idx[:, None] & masks, -1.0, 1.0)
    i, j = np.array(pair_indices(num_qubits), dtype=int).reshape(-1, 2).T
    tables = (idx, masks, zsigns, zsigns[:, i] * zsigns[:, j])
    for t in tables:
        t.flags.writeable = False
    return tables


def zz_parity(num_qubits):
    """Read-only diagonal of Z_0 Z_1: the parity of qubits 0 and 1, as +-1."""
    return _bit_tables(num_qubits)[3][:, 0]


@functools.lru_cache(maxsize=None)
def register_identity(num_qubits):
    """Read-only complex (d, d) identity: the factors `propagate` maps to U."""
    eye = np.eye(2**num_qubits, dtype=complex)
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=None)
def generators(num_qubits, tied):
    """Read-only unit generators G, real (n_gen, d, d), built on first use.

    Row g is dH/dc_g for column g of a schedule's `eval_many`, i.e. row g of
    its `params.reshape(-1, width)`.  Untied: sigma_x of each qubit, sigma_z
    of each qubit, then sigma_z sigma_z of each pair in `pair_indices` order.
    Tied: the three sums over sites of those kinds.
    """
    idx, masks, zsigns, zzsigns = _bit_tables(num_qubits)
    x = np.zeros((num_qubits, idx.size, idx.size))
    x[np.arange(num_qubits)[:, None], idx, idx ^ masks[:, None]] = 1.0  # bit flip
    z, zz = (np.eye(idx.size) * s.T[:, None, :] for s in (zsigns, zzsigns))
    g = (np.stack([x.sum(0), z.sum(0), zz.sum(0)]) if tied
         else np.concatenate([x, z, zz]))
    g.flags.writeable = False
    return g


def assemble_hamiltonians(coef, gens):
    """H_m = sum_g coef[m, g] gens[g]: (M, n_gen) coefficients to (M, n, n)."""
    n = gens.shape[-1]
    return (coef @ gens.reshape(len(gens), n * n)).reshape(len(coef), n, n)


@functools.lru_cache(maxsize=None)
def spin_basis(num_qubits):
    """Total-spin basis of the register: (Q, ((2j+1, copies), ...)).

    Q (d, d) is orthogonal.  Its columns run over the distinct spins j,
    largest first, copy by copy, each copy ordered by 2 J_z from -2j to 2j
    with <m+1| J_+ |m> > 0, so that every copy of j carries the same blocks
    of sum sigma_x, sum sigma_z and sum sigma_z sigma_z: a Hamiltonian with
    the same terms on every qubit and pair has one distinct block per j.
    Built on first use by Clebsch-Gordan coupling (Condon-Shortley phases),
    one qubit at a time from the empty register's spin 0.  The new qubit is
    the least significant bit, |up> its bit 0; a copy of spin j, n = 2j+1,
    couples to |j+1/2, m'> = a |j, m'-1/2, up> + b |j, m'+1/2, down> and
    |j-1/2, m'> = a |j, m'+1/2, down> - b |j, m'-1/2, up>, with
    a = sqrt(k/n), b = sqrt((n-k)/n) and k = j + m' + 1/2.  Raises
    LinAlgError if `check_spin_basis` finds a residual above its tolerance.
    """
    copies = [np.ones((1, 1))]
    for _ in range(num_qubits):
        coupled = []
        for c in copies:  # (d, n): columns m = -j..j
            n = c.shape[1]
            a = np.sqrt(np.arange(n + 1)) / np.sqrt(n)  # over k = 0..n
            b = a[::-1]
            # column k: |j, m'-1/2> and |j, m'+1/2>, zero outside -j..j
            up, down = np.pad(c, ((0, 0), (1, 0))), np.pad(c, ((0, 0), (0, 1)))
            coupled.append(np.stack([a * up, b * down], 1).reshape(-1, n + 1))
            if n > 1:  # j - 1/2 runs over k = 1..n-1
                coupled.append(np.stack([-b * up, a * down], 1)[..., 1:-1]
                               .reshape(-1, n - 1))
        copies = coupled
    copies.sort(key=lambda c: -c.shape[1])  # largest j first
    sizes = [c.shape[1] for c in copies]
    blocks = tuple((n, sizes.count(n)) for n in sorted(set(sizes))[::-1])
    q = np.hstack(copies)
    check_spin_basis(q, blocks, num_qubits)
    q.flags.writeable = False
    return q, blocks


def check_spin_basis(q, blocks, num_qubits):
    """(|Q^T Q - I|, block residual) of a `spin_basis`, as maxima.

    The block residual is the largest entry of Q^T op Q off identical
    per-copy blocks, over the tied `generators` divided by their spectral
    norms N, N and P.  Raises LinAlgError if either exceeds SPIN_BASIS_TOL.
    """
    orth = np.abs(q.T @ q - np.eye(len(q))).max()
    norms = [num_qubits, num_qubits, max(len(pair_indices(num_qubits)), 1)]
    ops = generators(num_qubits, True) / np.array(norms)[:, None, None]
    rotated = q.T @ ops @ q
    expected = np.zeros_like(rotated)
    start = 0
    for n, copies in blocks:
        stop = start + n * copies
        first = rotated[:, start:start + n, start:start + n]
        expected[:, start:stop, start:stop] = np.kron(np.eye(copies), first)
        start = stop
    block = np.abs(rotated - expected).max()
    if not max(orth, block) <= SPIN_BASIS_TOL:
        raise np.linalg.LinAlgError(
            f"spin basis at N = {num_qubits}: orthogonality residual "
            f"{orth:.1e}, block residual {block:.1e}")
    return orth, block


@dataclass(frozen=True, eq=False)
class BlockBasis:
    """Solve coordinates of a register: one copy of each total-spin block.

    `blocks` lists (2j+1, copies) per distinct spin j, largest first, and a
    block coordinate runs over the first copy of each, R = sum(2j+1) in all.
    `first` (d, R) holds those first-copy columns of `spin_basis`, and
    `gens` (n_gen, R, R) the rotated `generators` first^T G first, exactly
    zero off the diagonal blocks, so every assembled step is block diagonal.
    `fold_map` (R * c_max, d) has row (b, k) = the column of copy k of block
    coordinate b (zero past its block's copies), c_max the most copies of
    any block: a register factor F (d, r) folds to the block factor
    (R, c_max r), copy k of each block in columns k r .. (k+1) r, and the
    copies share each step's block unitary.  The untied basis (and any
    register whose blocks add up to d) is Q = I: R = d, one copy.  A
    `support` basis keeps some blocks and copies: `blocks` counts the kept
    copies, `fold_map` holds their columns and `first` the first kept copy
    of each block, so `fold` projects onto their span, and a block-diagonal
    P is `unfold(P @ fold(I))` on the register.  The arrays are read-only.
    """

    first: np.ndarray
    gens: np.ndarray
    blocks: tuple
    fold_map: np.ndarray

    def __post_init__(self):
        for a in (self.first, self.gens, self.fold_map):
            a.flags.writeable = False

    @property
    def size(self):
        """R = sum(2j+1), the side of a block-coordinate matrix."""
        return self.first.shape[1]

    @property
    def copies(self):
        """c_max, the most copies of any block."""
        return self.fold_map.shape[0] // self.size

    @property
    def spans(self):
        """(start, stop) of each diagonal block along a block coordinate."""
        stops = np.cumsum([n for n, _ in self.blocks]).tolist()
        return tuple(zip([0] + stops[:-1], stops))

    @functools.cached_property
    def identity(self):
        """True when the block coordinates are the register's own (Q = I).

        Then `fold` and `unfold` return their argument, the basis-change
        matmuls by I would only copy it, and `support` returns the basis.
        """
        return np.array_equal(self.fold_map, np.eye(self.fold_map.shape[1]))

    def fold(self, f):
        """Block factors (..., R, c_max r) of register factors (..., d, r)."""
        if self.identity:
            return f
        return (self.fold_map @ f).reshape(*f.shape[:-2], self.size, -1)

    def unfold(self, b):
        """Register factors (..., d, r) of block factors (..., R, c_max r)."""
        if self.identity:
            return b
        r = b.shape[-1] // self.copies
        return self.fold_map.T @ b.reshape(*b.shape[:-2], -1, r)

    def support(self, f):
        """The sub-basis of the blocks and copies where `fold(f)` is nonzero.

        The test is exact, with no tolerance: a Hamiltonian of this basis
        never mixes blocks or copies, so a solve from F stays exactly zero
        on the dropped ones.  The kept blocks keep their rows and rotated
        generators, and their kept copies' `fold_map` columns, in order; a
        factor with full support, or on an `identity` basis, gets this basis.
        Cached by the factor's content, so a state solved again, as each RL
        solve of a training pair is, finds its support without a fold.
        """
        if self.identity:
            return self
        return _content_support(self, f.dtype.str, f.shape, f.tobytes())


@functools.lru_cache(maxsize=64)
def _content_support(basis, dtype, shape, data):
    """`basis.support` of the factor of this dtype, shape and C-order bytes."""
    f = np.frombuffer(data, dtype).reshape(shape)
    occupied = basis.fold(f).reshape(basis.size, basis.copies, -1)
    keep = tuple(tuple(occupied[start:stop].any(axis=(0, 2)).tolist())
                 for start, stop in basis.spans)
    return _support_basis(basis, keep)


@functools.lru_cache(maxsize=None)
def _support_basis(basis, keep):
    """The sub-basis of copy k of block b where keep[b][k], cached."""
    if all(sum(k) == c for k, (_, c) in zip(keep, basis.blocks)):
        return basis
    kept = [(span, np.array(k))
            for span, k in zip(basis.spans, keep) if any(k)]
    blocks = tuple((stop - start, int(k.sum())) for (start, stop), k in kept)
    rows = np.concatenate([np.arange(*span) for span, _ in kept])
    d = basis.fold_map.shape[1]
    fold_map = np.zeros((len(rows), max(c for _, c in blocks), d))
    wide = basis.fold_map.reshape(basis.size, basis.copies, d)
    row = 0
    for (start, stop), k in kept:
        fold_map[row:row + stop - start, :k.sum()] = wide[start:stop, k]
        row += stop - start
    return BlockBasis(first=np.ascontiguousarray(fold_map[:, 0].T),
                      gens=basis.gens[:, rows][:, :, rows], blocks=blocks,
                      fold_map=fold_map.reshape(-1, d))


@functools.lru_cache(maxsize=None)
def block_basis(num_qubits, tied) -> BlockBasis:
    """The read-only `BlockBasis` of a register, built on first use.

    Tied schedules from N = 3 on take the spin blocks of `spin_basis`; below
    that every block has one copy (3 + 1 = d at N = 2), so, like every
    untied schedule, they take Q = I.
    """
    gens = generators(num_qubits, tied)
    d = gens.shape[-1]
    q, blocks = (spin_basis(num_qubits) if tied and num_qubits >= 3
                 else (np.eye(d), ((d, 1),)))
    size, c_max = sum(n for n, _ in blocks), max(c for _, c in blocks)
    fold_map = np.zeros((size, c_max, d))
    mask = np.zeros((size, size), dtype=bool)
    row = col = 0
    for n, copies in blocks:
        cols = q[:, col:col + n * copies].T.reshape(copies, n, d)
        fold_map[row:row + n, :copies] = cols.swapaxes(0, 1)
        mask[row:row + n, row:row + n] = True
        row, col = row + n, col + n * copies
    first = np.ascontiguousarray(fold_map[:, 0].T)
    return BlockBasis(first=first,
                      gens=np.where(mask, first.T @ gens @ first, 0.0),
                      blocks=blocks, fold_map=fold_map.reshape(-1, d))


def _taylor_table():
    """(power count p, coefficients, theta reach) per Taylor degree 2q+1.

    exp(-iX) = C - iS with C = sum_j (-1)^j Y^j / (2j)! and
    S = X sum_j (-1)^j Y^j / (2j+1)!, Y = X^2, both truncated at Y^q (Taylor
    degree 2q+1 in X).  The reach is the largest theta = ||X||_1 for which
    the Taylor remainder sum_{k>2q+1} theta^k / k! stays <= 2^-53 theta.
    Each polynomial is evaluated Paterson-Stockmeyer style from the powers
    I, Y, ..., Y^p: blocks of p coefficients, combined by Horner in Y^p.  Each
    degree's p minimises the matmul count, p - 1 + 2 (blocks - 1) + 2.
    """
    table = []
    for q, p, reach in ((2, 2, 2.40e-3), (4, 2, 9.03e-2), (6, 3, 0.410),
                        (8, 4, 0.977), (12, 4, 2.656)):
        blocks = -(-q // p)  # the last block also takes Y^p
        coef = np.zeros((2, blocks, p + 1))
        for j in range(q + 1):
            b = min(j // p, blocks - 1)
            sign = (-1.0) ** j
            coef[0, b, j - b * p] = sign / math.factorial(2 * j)
            coef[1, b, j - b * p] = sign / math.factorial(2 * j + 1)
        table.append((p, coef, reach))
    return tuple(table)


_TAYLOR = _taylor_table()


def _one_norm(x):
    """theta = ||X||_1 of a stack of symmetric (n, n) matrices.

    The largest absolute row sum, the same as the largest column sum of a
    symmetric X, taken by one matvec over the flattened rows: several times
    cheaper than a sum reduction over the last axis.
    """
    n = x.shape[-1]
    return float((np.abs(x).reshape(-1, n) @ np.ones(n)).max(initial=0.0))


def _taylor_degree(theta):
    """(p, coefficients, squarings) of the `_TAYLOR` degree that serves theta.

    The lowest degree whose reach covers theta; beyond the largest one's
    reach, the squarings s that bring theta / 2^s within it.
    """
    for p, coef, reach in _TAYLOR:
        if theta <= reach:
            break
    squarings = math.ceil(math.log2(theta / reach)) if theta > reach else 0
    return p, coef, squarings


def _scaled_argument(h, dt):
    """(X, p, coefficients, squarings): X = h dt / 2^s and the degree serving it.

    One degree serves the batch, picked a priori from theta = ||h dt||_1,
    the largest absolute column sum over the batch (`_taylor_degree`).
    Raises ValueError if h or dt holds a NaN or an infinity.
    """
    x = np.asarray(h) * dt
    theta = _one_norm(x)
    if not math.isfinite(theta):
        raise ValueError("expm_hermitian: non-finite Hamiltonian entry")
    p, coef, squarings = _taylor_degree(theta)
    if squarings:
        x /= 2.0**squarings
    return x, p, coef, squarings


def _taylor_polynomials(x, p, coef, keep=False, slots=0):
    """(powers, pairs, spare, slots) of the cos and sin polynomials in Y = X^2.

    powers (p+1, ...) holds I, Y, ..., Y^p; pairs[0] (2, ...) the (cos, sin)
    pair, combined from the coefficient blocks by Horner in Y^p:
    pairs[b] = pairs[b+1] Y^p + block b.  With `keep`, pairs holds every
    Horner pair (blocks, 2, ...), which a pullback reads; without, only the
    last.  spare is a (2, ...) scratch pair, and `slots` more arrays of X's
    shape come from the same workspace for the caller.
    """
    # One workspace for every array.  With a fresh array per intermediate,
    # the allocator handed the memory back and page-faulted it in again on
    # every call: at (200, 8, 8), about 300 faults per call, which made it
    # 3-4x slower.
    kept = coef.shape[1] if keep else 1
    start = p + 3 + 2 * kept
    work = np.empty((start + slots, *x.shape), dtype=x.dtype)
    powers, spare = work[:p + 1], work[p + 1:p + 3]
    pairs = work[p + 3:start].reshape(kept, 2, *x.shape)
    powers[0] = np.eye(x.shape[-1])
    np.matmul(x, x, out=powers[1])
    for known, top in _doublings(p):  # Y^(k+1..top) = Y^(1..top-k) Y^k
        np.matmul(powers[1:top - known + 1], powers[known],
                  out=powers[known + 1:top + 1])
    flat_powers = powers.reshape(p + 1, -1)
    pair = pairs[-1]
    np.matmul(coef[:, -1], flat_powers, out=pair.reshape(2, -1))
    for b in range(coef.shape[1] - 2, -1, -1):
        np.matmul(pair, powers[p], out=spare)
        pair = pairs[b] if keep else pair
        np.matmul(coef[:, b], flat_powers, out=pair.reshape(2, -1))
        pair += spare
    return powers, pairs, spare, work[start:]


@functools.lru_cache(maxsize=None)
def _doublings(p):
    """(k, top) per stacked call that forms Y^(k+1..top) from Y^(1..k)."""
    steps, known = [], 1
    while known < p:
        steps.append((known, min(2 * known, p)))
        known = steps[-1][1]
    return tuple(steps)


def _cos_minus_i_sin(x, pair, spare):
    """C - iS = C - i X S' of a (cos, sin) pair, written part by part."""
    u = np.empty(x.shape, dtype=complex)
    u.real = pair[0]
    np.negative(np.matmul(x, pair[1], out=spare), out=u.imag)
    return u


def _real_form(x, pair):
    """R(U) = [[C, S], [-S, C]] of U = C - iS, S = X S', from a (cos, sin)
    pair, written block by block."""
    n = x.shape[-1]
    r = np.empty((*x.shape[:-2], 2 * n, 2 * n))
    r[..., :n, :n] = pair[0]
    np.matmul(x, pair[1], out=r[..., :n, n:])
    r[..., n:, n:] = pair[0]
    np.negative(r[..., :n, n:], out=r[..., n:, :n])
    return r


def complex_form(r):
    """U = C - iS = R[:n, :n] + i R[n:, :n] of real forms R(U) (..., 2n, 2n).

    A complex stack is already U and is returned as it is.
    """
    if np.iscomplexobj(r):
        return r
    n = r.shape[-1] // 2
    u = np.empty((*r.shape[:-2], n, n), dtype=complex)
    u.real = r[..., :n, :n]
    u.imag = r[..., n:, :n]
    return u


# Step stacks whose exponentials come in the real form R(U): sides n up to
# REAL_FORM_MAX_SIDE, in stacks of at least REAL_FORM_MIN_STEPS.  numpy
# makes one BLAS call per matrix of a complex stack; up to that side, this
# costs the products more than the real form's doubled flops, once the
# stack is long enough to pay for writing R(U) and reading U back
# (crossover tables in CHANGES.md).
REAL_FORM_MAX_SIDE = 7
REAL_FORM_MIN_STEPS = 8


def expm_hermitian(h, dt):
    """U = exp(-i h dt) = C - iS for a batch of real symmetric matrices h
    (..., n, n) (hbar = 1), as a real or a complex stack.

    A stack of at least REAL_FORM_MIN_STEPS matrices of side up to
    REAL_FORM_MAX_SIDE comes in the real form R(U) = [[C, S], [-S, C]]
    (..., 2n, 2n), any other as complex U (..., n, n); `complex_form` reads
    U off either.  R multiplies as U does, R(U) R(V) = R(UV), so a product
    of steps is one real matmul per pair of matrices.  C and S are
    truncated cos/sin Taylor series in X = h dt, with no eigendecomposition:
    real matmuls for the real symmetric Hamiltonians assembled here.  One
    degree serves the batch (`_scaled_argument`); beyond the largest
    degree's reach, X is halved s times and the result squared s times.
    Raises ValueError if h or dt holds a NaN or an infinity.
    """
    x, p, coef, squarings = _scaled_argument(h, dt)
    _, pairs, spare, _ = _taylor_polynomials(x, p, coef)
    n = x.shape[-1]
    if n <= REAL_FORM_MAX_SIDE and x.size >= REAL_FORM_MIN_STEPS * n * n:
        u = _real_form(x, pairs[0])
    else:
        u = _cos_minus_i_sin(x, pairs[0], spare[0])
    for _ in range(squarings):
        u = u @ u
    return u


# Bytes of one pullback chunk's workspace, which holds up to 25 (n, n)
# arrays per step.  A (200, 8, 8) stack takes one chunk; at (200, 64, 64),
# chunks of 5 steps took half the time of one workspace of over 100 MB,
# which was page-faulted in afresh on every call.
PULLBACK_CHUNK_BYTES = 2**22


def expm_hermitian_pullback(h, dt, g):
    """Real cotangent W (M, n, n) of h, from the complex cotangent g
    (M, n, n) of each U = `complex_form(expm_hermitian(h, dt))`.

    sum(W * E) = Re sum(conj(g) * dU) for every real direction E, dU the
    derivative of U along E: the exact derivative of the map that
    `expm_hermitian` evaluates, by reverse mode through its own Taylor
    polynomial and squarings (Al-Mohy and Higham, SIAM J. Matrix Anal.
    Appl. 30 (2009) 1639).  The degree is picked for the whole batch, as
    there; the steps then go in chunks whose workspace stays small.
    """
    x, p, coef, squarings = _scaled_argument(h, dt)
    step = max(1, PULLBACK_CHUNK_BYTES // (25 * x[0].nbytes))
    w = np.empty_like(x)
    for k in range(0, len(x), step):
        w[k:k + step] = _pullback(x[k:k + step], p, coef, squarings,
                                  g[k:k + step])
    w *= dt / 2.0**squarings
    return w


def _pullback(x, p, coef, squarings, g):
    """Cotangent of X = h dt / 2^s for the cotangent g of each U (M, n, n).

    Every matrix of the polynomial is a polynomial in the symmetric X, so
    it is its own transpose.  Real matmuls, except the squarings.
    """
    blocks = coef.shape[1]
    powers, pairs, spare, slots = _taylor_polynomials(
        x, p, coef, keep=True, slots=2 * blocks + p + 2)
    if squarings:  # U_{i+1} = U_i U_i: g_i = g_{i+1} U_i^dag + U_i^dag g_{i+1}
        us = [_cos_minus_i_sin(x, pairs[0], spare[0])]
        for _ in range(squarings - 1):
            us.append(us[-1] @ us[-1])
        for u in reversed(us):
            u = u.conj()
            g = g @ u + u @ g
    bars = slots[:2 * blocks].reshape(blocks, 2, *x.shape)  # of each pair
    powers_bar, gi = slots[2 * blocks:-1], slots[-1]  # of I, Y, ..., Y^p
    # U = C - i X S': C takes Re g, S' takes -X Im g and X takes -Im g S'.
    bars[0, 0], gi[...] = g.real, g.imag
    np.negative(np.matmul(x, gi, out=bars[0, 1]), out=bars[0, 1])
    for b in range(blocks - 1):  # pairs[b] = pairs[b+1] Y^p + block b
        np.matmul(bars[b], powers[p], out=bars[b + 1])
    weights = coef.transpose(2, 1, 0).reshape(p + 1, 2 * blocks)[1:]
    np.matmul(weights, bars.reshape(2 * blocks, -1),
              out=powers_bar[1:].reshape(p, -1))
    for b in range(blocks - 1):
        for part in np.matmul(pairs[b + 1], bars[b], out=spare):
            powers_bar[p] += part
    for known, top in reversed(_doublings(p)):
        count = top - known
        upper, products = powers_bar[known + 1:top + 1], spare[:count]
        powers_bar[1:count + 1] += np.matmul(upper, powers[known],
                                             out=products)
        for part in np.matmul(powers[1:count + 1], upper, out=products):
            powers_bar[known] += part
    xbar = np.matmul(powers_bar[1], x)  # Y = X X
    xbar += np.matmul(x, powers_bar[1], out=spare[0])
    xbar -= np.matmul(gi, pairs[0, 1], out=spare[1])
    return xbar


def step_hamiltonians(schedule, grid: TimeGrid, basis: BlockBasis):
    """Real midpoint Hamiltonians H(t_k + dt/2), (M, R, R), in `basis`."""
    coef = schedule.grid_rows(grid) @ schedule.params.reshape(-1, schedule.width).T
    return assemble_hamiltonians(coef, basis.gens)


def _support_steps(schedule, grid: TimeGrid, f):
    """The `support` of factors f, and the (M, R, R) H_k and U_k on it, the
    U_k as `expm_hermitian` gives them: `complex_form` of a product is U."""
    basis = block_basis(schedule.num_qubits, schedule.tied).support(f)
    h = step_hamiltonians(schedule, grid, basis)
    return basis, h, expm_hermitian(h, grid.dt)


def ordered_product(us):
    """U_{M-1} ... U_0 of a real or complex (M, n, n) stack, multiplied
    pairwise."""
    while len(us) > 1:  # U_{2j+1} U_{2j} per level; an odd last factor carries
        even = len(us) // 2 * 2
        pairs = us[1:even:2] @ us[:even:2]
        us = pairs if even == len(us) else np.concatenate([pairs, us[even:]])
    return us[0]


def prefix_products(us):
    """P_k = U_{k-1} ... U_0 for k = 0..M of a (M, n, n) stack, (M+1, n, n).

    P_0 = I, and P has the stack's dtype, real or complex.  A pairwise
    scan: the neighbour products U_{2j+1} U_{2j} give the even P_{2j} by
    recursion, then P_{2j+1} = U_{2j} P_{2j}; about 2M matmuls in about
    2 log2(M) stacked calls.
    """
    m, n = len(us), us.shape[-1]
    if m == 0:
        return np.eye(n, dtype=us.dtype)[None]
    p = np.empty((m + 1, n, n), dtype=us.dtype)
    p[::2] = prefix_products(us[1::2] @ us[:m - 1:2])
    p[1::2] = us[::2] @ p[:-1:2]
    return p


def propagate(schedule, grid: TimeGrid, f) -> np.ndarray:
    """Final factors U F (d, r) of f, solved on its support; counts no solve."""
    basis, _, us = _support_steps(schedule, grid, f)
    return basis.unfold(complex_form(ordered_product(us)) @ basis.fold(f))


@dataclass(frozen=True)
class Trajectory:
    """Forward evolution record in the block coordinates of `basis`.

    `basis` is the `support` of the initial factor: only the spin blocks
    and copies the state occupies, on which every array here lives.
    """

    factors: np.ndarray  # (M+1, R, c_max r): block factors of F_k
    propagators: np.ndarray  # (M+1, R, R): P_k = U_{k-1} ... U_0, P_0 = I
    grid: TimeGrid
    hamiltonians: np.ndarray  # (M, R, R), real: each step's midpoint H
    basis: BlockBasis

    def register_factors(self, k=slice(None)) -> np.ndarray:
        """Register factors F_k (d, r) at step(s) k: rho(t_k) = F_k F_k^dagger."""
        return self.basis.unfold(self.factors[k])

    @property
    def states(self) -> np.ndarray:
        """rho(t_k) for every k, shape (M+1, d, d), formed from the factors."""
        f = self.register_factors()
        return f @ f.conj().swapaxes(-1, -2)


def evolve(rho0: DensityMatrix, schedule, grid: TimeGrid) -> Trajectory:
    """Propagate rho0's factor through the schedule: F_k = P_k F_0.

    That is rho_{k+1} = U_k rho_k U_k^dagger, on the `support` of the
    folded factor, with every P_k from one `prefix_products` scan, read
    off as complex once, and the factors from one batched product.  The
    Hamiltonian is sampled at step midpoints, so piecewise-constant
    schedules whose segments align with the grid are reproduced exactly
    and smooth schedules converge at second order in dt.
    """
    _tick_solve()
    basis, h, us = _support_steps(schedule, grid, rho0.factor)
    props = complex_form(prefix_products(us))
    return Trajectory(factors=props @ basis.fold(rho0.factor),
                      propagators=props, grid=grid, hamiltonians=h,
                      basis=basis)


def total_propagator(schedule, grid: TimeGrid) -> np.ndarray:
    """Product U_{M-1} ... U_0 (d, d) mapping rho(0) to rho(T) by conjugation."""
    _tick_solve()
    return propagate(schedule, grid, register_identity(schedule.num_qubits))


def populations(f) -> np.ndarray:
    """diag(F F^dagger) of a (d, r) factor: |F|^2 summed over its columns.

    Squared once on F's float view, real and imaginary parts interleaved;
    a factor whose last axis is strided is copied first.
    """
    v = np.ascontiguousarray(f, dtype=complex).view(float)
    sq = v * v
    return (sq[..., ::2] + sq[..., 1::2]).sum(axis=-1)


def zz_expectation(p) -> float:
    """<Z_0 Z_1> of a population (or probability) vector of length d."""
    return float(np.dot(zz_parity(len(p).bit_length() - 1), p))


def output_value(p) -> float:
    """Witness output <Z_0 Z_1>^2 of a population vector."""
    zz = zz_expectation(p)
    return zz * zz
