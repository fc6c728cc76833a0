"""Independent oracles the tests check the library against.

Everything here is derived from first principles by a different route than
the library takes: naive loops instead of matrix products, closed-form
geometric sums instead of table evaluation, exhaustive enumeration instead
of sampling.  The random bases the test modules draw, and the coefficient
triples at the ends of the float range, come from here too.
"""

import itertools

import numpy as np

# coefficient triples whose squared norm overflows or underflows, and the
# ordinary triple each one normalizes to
EXTREME_COEFFICIENTS = [
    ("1e308,1e308,1e308", "1,1,1"),
    ("1e200,1e-200,0", "1,0,0"),
    ("1e-320,0,0", "1,0,0"),
]


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


def code_law_reference(tables, p_a, p_b, detection):
    """The 90 round codes in code order, as their probabilities and their fields
    (setting_a, outcome_a, setting_b, outcome_b, detected), from explicit loops
    over (setting_a, setting_b, detected, outcome pair).  A code's probability is
    p_a * p_b * detection * ``tables[setting_a - 1, outcome_a, setting_b - 1,
    outcome_b]``, or p_a * p_b * (1 - detection) undetected, multiplied in that
    order; outcomes are -1 undetected."""
    probs, fields = [], []
    for sa in (1, 2, 3):
        for sb in (1, 2, 3):
            pair = float(p_a[sa - 1]) * float(p_b[sb - 1])
            for detected in (True, False):
                if not detected:
                    probs.append(pair * (1.0 - detection))
                    fields.append((sa, -1, sb, -1, False))
                    continue
                for oa in range(3):
                    for ob in range(3):
                        probs.append(pair * detection * tables[sa - 1, oa, sb - 1, ob])
                        fields.append((sa, oa, sb, ob, True))
    return probs, fields


def invert_reference(u, probs):
    """The code of each uniform in ``u`` under the code probabilities ``probs``:
    the number of the 89 interior running sums <= u, compared one sum at a
    time, capped at the last code of positive probability."""
    sums, total = [], 0.0
    for p in probs:
        total += p
        sums.append(total)
    code = np.zeros(len(u), dtype=np.int64)
    for s in sums[:-1]:
        code += u >= s
    return np.minimum(code, max(c for c, p in enumerate(probs) if p > 0))


def split_reference(key, probs):
    """Whether each 16-bit ``key``'s bucket [key, key + 1) / 65536 holds one of
    the running sums of the code probabilities ``probs`` strictly inside, among
    the sums below the last code of positive probability."""
    key = np.asarray(key, dtype=np.int64)
    last = max(c for c, p in enumerate(probs) if p > 0)
    total, split = 0.0, np.zeros(key.shape, dtype=bool)
    for p in probs[:last]:
        total += p
        split |= (key < 65536 * total) & (65536 * total < key + 1)
    return split


def session_columns_reference(n, tables, p_a, p_b, detection, seed):
    """A whole session drawn the direct way, one 53-bit uniform per round, as six
    columns.

    Round i's top 16 bits, its key, are the i-th of 4 * ceil(n / 4) draws of
    ``integers(0, 65536, dtype=np.uint16)`` from ``default_rng(seed)``, which
    cuts each 64-bit PCG64 word into four from its low bits up.  A round is
    split when a running sum lies strictly inside its key's bucket
    (``split_reference``).  The split rounds, in round order, then take one word each, put together from four more such draws, and
    u = (key * 2**37 + (word >> 27)) * 2**-53; every other round's u is
    key / 65536, whose code all of its bucket shares.  Each u is inverted
    through the running sums (``code_law_reference``, ``invert_reference``),
    and each round's code is turned into its fields.
    """
    probs, fields = code_law_reference(tables, p_a, p_b, detection)
    rng = np.random.default_rng(seed)
    key = rng.integers(0, 65536, size=4 * -(-n // 4), dtype=np.uint16)[:n].astype(np.int64)
    split = split_reference(key, probs)
    quarters = rng.integers(0, 65536, size=(int(split.sum()), 4), dtype=np.uint16)
    word = np.zeros(len(quarters), dtype=np.uint64)
    for j in range(4):
        word |= quarters[:, j].astype(np.uint64) << np.uint64(16 * j)
    fine = key[split].astype(np.uint64) * np.uint64(2 ** 37) + (word >> np.uint64(27))
    u = key / 65536.0
    u[split] = fine.astype(np.float64) / 2.0 ** 53
    code = invert_reference(u, probs)
    sa, out_a, sb, out_b, detected = (np.array(column)[code] for column in zip(*fields))
    return (np.arange(n, dtype=np.int64), sa.astype(np.int8), out_a.astype(np.int8),
            sb.astype(np.int8), out_b.astype(np.int8), detected)


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
