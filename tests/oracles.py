"""Independent oracles the tests check the library against.

Everything here is derived from first principles by a different route than
the library takes: naive loops instead of matrix products, closed-form
geometric sums instead of table evaluation, exhaustive enumeration instead
of sampling.  The random bases the test modules draw come from here too.
"""

import itertools

import numpy as np


def born_probability_bruteforce(components, white_weight, basis_a, k, basis_b, l):
    """Naive triple-loop Born rule for a weighted pure-state mixture."""
    p = white_weight / 9.0
    for weight, psi in components:
        amp = 0.0 + 0.0j
        for ja in range(3):
            for jb in range(3):
                amp += np.conj(basis_a[k][ja]) * np.conj(basis_b[l][jb]) * psi[ja][jb]
        p += weight * abs(amp) ** 2
    return p


def s3_bruteforce(components, white_weight, bases_a, bases_b):
    """The eight-term S3 expression over cell-by-cell Born probabilities.

    ``bases_a``/``bases_b`` hold the two bases per side; p(a, b, k) is the
    probability that B's outcome exceeds A's by k (mod 3).
    """
    def p(a, b, k):
        return sum(born_probability_bruteforce(components, white_weight, bases_a[a], j,
                                               bases_b[b], (j + k) % 3)
                   for j in range(3))

    return (p(0, 0, 0) + p(1, 0, 1) + p(1, 1, 0) + p(0, 1, 0)
            - p(0, 0, 1) - p(1, 0, 0) - p(1, 1, 1) - p(0, 1, 2))


def coincidence_mod3(table, k):
    """Probability that B's outcome exceeds A's by k (mod 3) in a 3x3 table
    ``table[a_outcome][b_outcome]``, the convention of ``s3_bruteforce``."""
    return sum(table[j][(j + k) % 3] for j in range(3))


def intercept_resend_bruteforce(components, white_weight, basis, arm):
    """The ensemble after Eve measures ``arm`` ("A" or "B") in ``basis`` (rows).

    For each (weight, psi) component and each outcome m, in that order, the
    other arm's conditional amplitudes are explicit sums over the measured
    arm's levels; outcomes of probability at most 1e-15 are dropped.  Returns
    the (weight, normalized product state) pairs and the unchanged white
    weight.
    """
    out = []
    for weight, psi in components:
        for m in range(3):
            amps = []
            for j in range(3):
                amp = 0.0 + 0.0j
                for e in range(3):
                    cell = psi[j][e] if arm == "B" else psi[e][j]
                    amp += np.conj(basis[m][e]) * cell
                amps.append(amp)
            p = sum(abs(a) ** 2 for a in amps)
            if p <= 1e-15:
                continue
            unit = [a / np.sqrt(p) for a in amps]
            state = np.zeros((3, 3), dtype=complex)
            for j in range(3):
                for e in range(3):
                    if arm == "B":
                        state[j][e] = unit[j] * basis[m][e]
                    else:
                        state[e][j] = basis[m][e] * unit[j]
            out.append((weight * p, state))
    return out, white_weight


def phase_mode_sum(coeffs, x):
    """g(x) = sum_j c_j exp(2*pi*i*j*x/3) for Schmidt coefficients c."""
    return sum(c * np.exp(2j * np.pi * j * x / 3.0) for j, c in enumerate(coeffs))


def s3_closed_form(coeffs, offsets):
    """Closed-form S3 of a Schmidt-diagonal state in the phase-basis family.

    Derived from the geometric structure of the phase bases: the joint
    probability of an outcome pair depends only on the outcome difference
    shifted by the offset sum S_ab, through |g|^2 above.
    """
    a1, a2, b1, b2 = offsets
    s11, s21, s22, s12 = a1 + b1, a2 + b1, a2 + b2, a1 + b2

    def q(k, s):
        # probability that A's outcome exceeds B's by k (mod 3)
        return abs(phase_mode_sum(coeffs, -k - s)) ** 2 / 3.0

    return (q(0, s11) + q(-1, s21) + q(0, s22) + q(0, s12)
            - q(-1, s11) - q(0, s21) - q(-1, s22) - q(1, s12))


def s3_gamma_closed_form(gamma):
    """S3 of (|00> + g|11> + |22>)/sqrt(2+g^2) at the canonical offsets."""
    return (4.0 / 3.0) * (3.0 + 2.0 * np.sqrt(3.0) * gamma) / (2.0 + gamma ** 2)


def parity_block_survivors():
    """All 27 per-block error patterns and whether the parity sift keeps them."""
    out = []
    for pattern in itertools.product((0, 1, 2), repeat=3):
        out.append((pattern, sum(pattern) % 3 == 0))
    return out


def session_columns_reference(n, tables, p_a, p_b, detection, seed):
    """A whole session drawn the direct way, as six columns.

    One generator draws, for all n rounds at once and in this order, A's
    settings and B's settings (``Generator.choice``), the detection uniforms
    and the outcome uniforms; each detected round's outcome pair is then
    looked up, setting pair by setting pair, in the cumulative sums of its
    exact table ``tables[setting_a - 1, :, setting_b - 1, :]``.
    """
    rng = np.random.default_rng(seed)
    labels = np.array([1, 2, 3], dtype=np.int8)
    sa = rng.choice(labels, size=n, p=np.asarray(p_a, dtype=float))
    sb = rng.choice(labels, size=n, p=np.asarray(p_b, dtype=float))
    detected = rng.random(n) < detection
    u = rng.random(n)
    out_a = np.full(n, -1, dtype=np.int8)
    out_b = np.full(n, -1, dtype=np.int8)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            mask = (sa == a) & (sb == b) & detected
            cdf = np.cumsum(tables[a - 1, :, b - 1, :].ravel())
            idx = np.minimum(np.searchsorted(cdf, u[mask], side="right"), 8)
            out_a[mask] = idx // 3
            out_b[mask] = idx % 3
    return np.arange(n, dtype=np.int64), sa, out_a, sb, out_b, detected


def complex_gaussian(rng):
    """A 3x3 matrix of standard complex normals, real parts drawn first."""
    return rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))


def haar_bases(z):
    """Orthonormal bases (rows) from the QR decompositions of ``z`` (..., 3, 3);
    R's diagonal phases move into Q, so Gaussian ``z`` gives Haar bases."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return (q * (d / np.abs(d))[..., None, :]).conj().swapaxes(-1, -2)


def random_basis(rng):
    """One Haar-random orthonormal basis (rows)."""
    return haar_bases(complex_gaussian(rng))
