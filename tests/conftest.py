"""Shared fixtures and independent oracle helpers.

The oracle helpers recompute quantities through deliberately naive index
loops so that tests never compare an implementation against itself.
"""

import numpy as np
import pytest
from scipy.linalg import expm

import lazystates as lz


# --------------------------------------------------------------------------
# fixtures
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def su2():
    return lz.build_su_basis(2)


@pytest.fixture(scope="session")
def su3():
    return lz.build_su_basis(3)


@pytest.fixture(scope="session")
def bell():
    return lz.maximally_entangled(2)


@pytest.fixture(scope="session")
def witness():
    """Real two-qubit mixture that is not lazy on either side."""
    return make_witness()


def make_witness():
    zero = np.array([1.0, 0.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    pz = np.outer(zero, zero.conj())
    pp = np.outer(plus, plus.conj())
    return lz.DensityMatrix(2, 2, 0.5 * np.kron(pz, pp) + 0.5 * np.kron(pp, pz))


def marginal_asymmetric_state(side):
    """Accepted state whose raw `side` marginal is beyond the hermiticity tolerance.

    Side A: random_density_matrix(2, 4, 3) plus 0.9e-12 on <0,b|rho|1,b> for
    every b; side B mirrors it on 4 x 2 with <a,0|rho|a,1> for every a.  Each
    entry stays within HERMITICITY_TOL (1e-12), but the partial trace sums
    four of them into a marginal asymmetry of 3.6e-12.
    """
    if side == "A":
        data = lz.random_density_matrix(2, 4, 3).data.copy()
        data[[0, 1, 2, 3], [4, 5, 6, 7]] += 0.9e-12
        return lz.DensityMatrix(2, 4, data)
    data = lz.random_density_matrix(4, 2, 3).data.copy()
    data[[0, 2, 4, 6], [1, 3, 5, 7]] += 0.9e-12
    return lz.DensityMatrix(4, 2, data)


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

def naive_partial_trace(matrix, dim_a, dim_b, side):
    """Index-summed partial trace straight from the definition."""
    matrix = np.asarray(matrix)
    if side == "A":
        out = np.zeros((dim_a, dim_a), dtype=complex)
        for a in range(dim_a):
            for c in range(dim_a):
                for b in range(dim_b):
                    out[a, c] += matrix[a * dim_b + b, c * dim_b + b]
    else:
        out = np.zeros((dim_b, dim_b), dtype=complex)
        for b in range(dim_b):
            for d in range(dim_b):
                for a in range(dim_a):
                    out[b, d] += matrix[a * dim_b + b, a * dim_b + d]
    return out


def naive_commutator_residual(rho, side="A"):
    """Dense commutator norm without reusing any library helpers."""
    na, nb = rho.dim_a, rho.dim_b
    red = naive_partial_trace(rho.data, na, nb, side)
    d = na * nb
    big = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for c in range(d):
            if side == "A":
                a, b = divmod(r, nb)
                ap, bp = divmod(c, nb)
                if b == bp:
                    big[r, c] = red[a, ap]
            else:
                a, b = divmod(r, nb)
                ap, bp = divmod(c, nb)
                if a == ap:
                    big[r, c] = red[b, bp]
    comm = rho.data @ big - big @ rho.data
    return float(np.sqrt((np.abs(comm) ** 2).sum()))


def kron_commutator_residual(rho, side="A"):
    """Frobenius norm of [rho, rho_side (x) I] with the operator built by kron."""
    na, nb = rho.dim_a, rho.dim_b
    red = naive_partial_trace(rho.data, na, nb, side)
    big = np.kron(red, np.eye(nb)) if side == "A" else np.kron(np.eye(na), red)
    return float(np.linalg.norm(rho.data @ big - big @ rho.data))


def naive_decompose(rho, gens_a, gens_b):
    """(x, y, T) from the defining traces, one explicit kron per coefficient."""
    na, nb = rho.dim_a, rho.dim_b
    x = [na / 2.0 * np.trace(rho.data @ np.kron(s, np.eye(nb))).real for s in gens_a]
    y = [nb / 2.0 * np.trace(rho.data @ np.kron(np.eye(na), t)).real for t in gens_b]
    t = [
        [na * nb / 4.0 * np.trace(rho.data @ np.kron(s, t)).real for t in gens_b]
        for s in gens_a
    ]
    return np.array(x), np.array(y), np.array(t).reshape(len(gens_a), len(gens_b))


def einsum_reconstruct(form, gens_a, gens_b):
    """Density matrix of a Bloch form from local krons and one 3-operand einsum.

    Takes generator stacks, so a trivial side is an empty (0, 1, 1) stack.
    """
    na, nb = gens_a.shape[1], gens_b.shape[1]
    d = na * nb
    local_a = np.einsum("i,iab->ab", form.x, gens_a)
    local_b = np.einsum("j,jab->ab", form.y, gens_b)
    cross = np.einsum("ij,iac,jbd->abcd", form.T, gens_a, gens_b).reshape(d, d)
    return (
        np.eye(d, dtype=complex)
        + np.kron(local_a, np.eye(nb))
        + np.kron(np.eye(na), local_b)
        + cross
    ) / d


def kron_rate_operator(rho, side):
    """K = i [rho, log2(rho_side) (x) I] with the operator built by kron.

    log2 on the support, from the index-summed partial trace.
    """
    na, nb = rho.dim_a, rho.dim_b
    w, q = np.linalg.eigh(naive_partial_trace(rho.data, na, nb, side))
    keep = w > 0.0
    log2_red = (q[:, keep] * np.log2(w[keep])) @ q[:, keep].conj().T
    if side == "A":
        big = np.kron(log2_red, np.eye(nb))
    else:
        big = np.kron(np.eye(na), log2_red)
    return 1j * (rho.data @ big - big @ rho.data)


#: padded levels per mode of `dense_fock_reference`
FOCK_ORACLE_PAD = 12


def dense_fock_reference(a, b, r, cutoff, pad=FOCK_ORACLE_PAD):
    """Squeezed-thermal state from one dense expm on the padded two-mode space.

    Thermal product weights are squeezed by exp(r (adag adag - a a)) built
    with kron, then truncated to cutoff + 1 levels per mode and renormalized.
    The squeezer is distorted near the edge of the padded space; at the
    default pad the kept block has converged to below 1e-15, where pad 8 is
    still 3.8e-14 off at (a, b, r) = (1, 1, 0.4), cutoff 10.
    """
    dim = cutoff + 1 + pad
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    gen = r * (np.kron(lower.T, lower.T) - np.kron(lower, lower))
    squeezer = expm(gen)

    def thermal(nu):
        nbar = (nu - 1.0) / 2.0
        return np.array([nbar**k / (nbar + 1.0) ** (k + 1) for k in range(dim)])

    weights = np.kron(thermal(a), thermal(b))
    full = squeezer @ np.diag(weights) @ squeezer.T
    keep = cutoff + 1
    kept = [n1 * dim + n2 for n1 in range(keep) for n2 in range(keep)]
    block = full[np.ix_(kept, kept)]
    return block / np.trace(block)


def mp_fock_sector(a, b, r, cutoff, shift, pad=6, dps=30):
    """Unnormalized kept blocks of the sectors +shift and -shift, in mpmath.

    The sector's tridiagonal squeezer generator, with raising weight
    r sqrt((k + shift + 1)(k + 1)), is exponentiated by `mp.expm` on
    cutoff + 1 + pad - shift states at `dps` digits, and U W U^T is kept on
    the first cutoff + 1 - shift states, W the thermal product weights
    (1 - q) q^n, q = (x - 1)/(x + 1), on |k + shift, k> (sector +shift) or
    |k, k + shift> (sector -shift).  At (1.2, 1.1, 0.3), cutoff 30, pad 6 is
    within 1e-22 of pad 10.  Returns both blocks as float64 arrays (the
    same block twice for shift 0).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        size = cutoff + 1 + pad - shift
        r = mp.mpf(r)
        gen = mp.zeros(size, size)
        for k in range(size - 1):
            coupling = r * mp.sqrt((k + shift + 1) * (k + 1))
            gen[k + 1, k] = coupling
            gen[k, k + 1] = -coupling
        u = mp.expm(gen)
        q_a, q_b = ((mp.mpf(x) - 1) / (mp.mpf(x) + 1) for x in (a, b))
        norm = (1 - q_a) * (1 - q_b)
        keep = cutoff + 1 - shift
        blocks = []
        for q_shift in (q_a, q_b) if shift else (q_a,):
            w = [norm * q_shift**shift * (q_a * q_b) ** j for j in range(size)]
            blocks.append(
                np.array(
                    [
                        [
                            float(mp.fsum(u[k, j] * w[j] * u[l, j] for j in range(size)))
                            for l in range(keep)
                        ]
                        for k in range(keep)
                    ]
                )
            )
    return blocks[0], blocks[-1]


def finite_difference_rate(rho, hamiltonian, side, step=1e-5):
    """Central finite difference of the subsystem entropy at t = 0."""
    w, q = np.linalg.eigh(hamiltonian)

    def evolved_entropy(t):
        u = (q * np.exp(-1j * w * t)) @ q.conj().T
        data = u @ rho.data @ u.conj().T
        red = naive_partial_trace(data, rho.dim_a, rho.dim_b, side)
        vals = np.clip(np.linalg.eigvalsh(red), 0.0, None)
        vals = vals[vals > 0.0]
        return float(-(vals * np.log2(vals)).sum())

    return (evolved_entropy(step) - evolved_entropy(-step)) / (2.0 * step)


def golden_su3_contraction(x):
    """Hard-coded transcription of the su(3) contraction matrix F(x)."""
    x1, x2, x3, x4, x5, x6, x7, x8 = x
    s3 = np.sqrt(3.0)
    return np.array(
        [
            [0, x6 / 2, x5 / 2, -x7, -x3 / 2, -x2 / 2, x4, 0],
            [-x6 / 2, 0, x4 / 2, -x3 / 2, -x7 / 2 - s3 * x8 / 2, x1 / 2, x5 / 2, s3 * x5 / 2],
            [-x5 / 2, -x4 / 2, 0, x2 / 2, x1 / 2, x7 / 2 - s3 * x8 / 2, -x6 / 2, s3 * x6 / 2],
            [x7, x3 / 2, -x2 / 2, 0, x6 / 2, -x5 / 2, -x1, 0],
            [x3 / 2, x7 / 2 + s3 * x8 / 2, -x1 / 2, -x6 / 2, 0, x4 / 2, -x2 / 2, -s3 * x2 / 2],
            [x2 / 2, -x1 / 2, -x7 / 2 + s3 * x8 / 2, x5 / 2, -x4 / 2, 0, x3 / 2, -s3 * x3 / 2],
            [-x4, -x5 / 2, x6 / 2, x1, x2 / 2, -x3 / 2, 0, 0],
            [0, -s3 * x5 / 2, -s3 * x6 / 2, 0, s3 * x2 / 2, s3 * x3 / 2, 0, 0],
        ]
    )


def haar_unitary(dim, rng):
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def sample_physical_diagonal_states(count, rng, lazy_fraction=0.5, min_corr=0.01):
    """Physical diagonal-correlation states with |correlation| >= min_corr.

    Roughly `lazy_fraction` of them have x = 0 exactly; the rest carry a
    generic nonzero x.  Rejection-samples against positivity.
    """
    states = []
    while len(states) < count:
        corr = rng.uniform(min_corr, 0.15, size=8) * rng.choice([-1.0, 1.0], size=8)
        make_lazy = rng.random() < lazy_fraction
        x = np.zeros(8) if make_lazy else rng.normal(0.0, 0.05, size=8)
        if not make_lazy and np.abs(x).max() < 1e-3:
            continue
        y = rng.normal(0.0, 0.05, size=8)
        state = lz.diagonal_correlation_state(x, y, corr)
        if state.is_physical:
            states.append((state, x))
    return states
