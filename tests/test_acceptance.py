"""Acceptance suite: one check per shipped guarantee, with pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np

from qutrit_qkd import bell, reconcile, tritcrypt
from qutrit_qkd.bell import random_basis
from qutrit_qkd.linalg import MixedState, maximally_entangled_state
from qutrit_qkd.protocol import (
    EveConfig,
    SourceConfig,
    default_parties,
    estimate_s3,
    exact_session_s3,
    qter,
    reference_source,
    run_protocol,
    run_session,
    sift,
)
from qutrit_qkd.trits import format_trits, parse_trits

from oracles import parity_block_survivors


def report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num:2d}: {description}{suffix}")
    assert passed, f"criterion {num}: {description} {detail}"


def test_criterion_01_exact_bell_maximum():
    target = 4.0 / (6.0 * np.sqrt(3.0) - 9.0)
    start = time.perf_counter()
    value = bell.s3(maximally_entangled_state(), bell.canonical_settings()).s3
    elapsed = time.perf_counter() - start
    passed = abs(value - target) < 1e-4 and abs(value - 2.87293) < 1e-4 and elapsed < 1.0
    report(1, "exact S3 at canonical settings equals 4/(6*sqrt(3)-9)", passed,
           f"s3={value:.6f}, target={target:.6f}, {elapsed * 1e3:.1f} ms")


def test_criterion_02_nonmaximal_optimum():
    target = 1.0 + np.sqrt(11.0 / 3.0)
    start = time.perf_counter()
    result = bell.optimize_gamma_family(tolerance=1e-8, seed=0, restarts=10)
    elapsed = time.perf_counter() - start
    passed = abs(result.s3 - target) < 1e-3 and elapsed < 30.0
    report(2, "joint (gamma, settings) optimum reaches 1+sqrt(11/3)", passed,
           f"s3={result.s3:.6f}, gamma={result.gamma:.4f}, {elapsed:.1f} s")


def test_criterion_03_local_realism_bound():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = -np.inf
    for _ in range(1000):
        n = rng.integers(1, 4)
        weights = rng.dirichlet(np.ones(n + 1))
        components = []
        for i in range(n):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            components.append((weights[i],
                               np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))))
        mixed = MixedState(components=tuple(components), white_noise_weight=weights[-1])
        settings = bell.SettingsPair(a1=random_basis(rng), a2=random_basis(rng),
                                     b1=random_basis(rng), b2=random_basis(rng))
        worst = max(worst, bell.s3(mixed, settings).s3)
    elapsed = time.perf_counter() - start
    passed = worst <= 2.0 + 1e-9 and elapsed < 30.0
    report(3, "separable mixtures never exceed the classical bound", passed,
           f"max s3={worst:.6f} over 1000 random cases, {elapsed:.1f} s")


def test_criterion_04_estimator_fidelity():
    source, eve = SourceConfig(), EveConfig()
    a, b = default_parties()
    start = time.perf_counter()
    within = 0
    sigma_ok = True
    estimates = []
    for seed in range(20):
        rounds = run_session(1_000_000, source, eve, a, b, seed=seed)
        s3_hat, sigma = estimate_s3(sift(rounds).counts)
        estimates.append(s3_hat)
        sigma_ok = sigma_ok and sigma < 0.01
        if abs(s3_hat - bell.QUANTUM_MAX) < 3 * sigma:
            within += 1
    elapsed = time.perf_counter() - start
    passed = sigma_ok and within >= 18 and elapsed < 60.0
    report(4, "1e6-round estimates agree with the exact value", passed,
           f"{within}/20 within 3 sigma, sigma<0.01 {sigma_ok}, {elapsed:.1f} s")


def test_criterion_05_sifting_fractions():
    a, b = default_parties()
    n = 1_000_000
    rounds = run_session(n, SourceConfig(), EveConfig(), a, b, seed=99)
    sifted = sift(rounds)
    targets = {"key": (sifted.n_key, 1 / 9),
               "bell": (sifted.n_bell, 4 / 9),
               "discard": (sifted.n_discarded, 4 / 9)}
    detail = []
    passed = True
    for name, (count, p) in targets.items():
        sigma = np.sqrt(n * p * (1 - p))
        passed = passed and abs(count - n * p) < 5 * sigma
        detail.append(f"{name}={count / n:.4f}")
    report(5, "uniform settings sift to 1/9 key, 4/9 bell, 4/9 discard",
           passed, ", ".join(detail))


def test_criterion_06_reference_statistics():
    source = reference_source()
    result = run_protocol(400_000, source=source, seed=12)
    passed = (abs(result.qter - 0.093) <= 0.01
              and abs(result.s3_estimate - 2.688) <= 0.1
              and result.secure
              and result.report.sigmas_above_classical >= 4.0)
    report(6, "calibrated session reproduces the reference S3 and QTER", passed,
           f"s3={result.s3_estimate:.3f}+-{result.s3_sigma:.3f}, "
           f"qter={result.qter:.4f}, {result.report.sigmas_above_classical:.1f} sigma")


def test_criterion_07_eavesdropper_detectability():
    rng = np.random.default_rng(7)
    source = SourceConfig()
    exact_max = -np.inf
    estimate_ok = True
    for i in range(10):
        basis = random_basis(rng)
        arm = "A" if i % 2 == 0 else "B"
        eve = EveConfig(enabled=True, arm=arm, basis=basis)
        exact = exact_session_s3(source, eve)
        exact_max = max(exact_max, exact)
        result = run_protocol(100_000, source=source, eve=eve, seed=100 + i)
        estimate_ok = estimate_ok and (
            result.s3_estimate < 2.0 + 3 * result.s3_sigma)
    # computational-basis interception leaves the key error-free
    comp_eve = EveConfig(enabled=True, arm="B")
    a, b = default_parties()
    rounds = run_session(100_000, source, comp_eve, a, b, seed=55)
    sifted = sift(rounds)
    key_qter = qter(sifted.key_a, sifted.key_b)
    comp_exact = exact_session_s3(source, comp_eve)
    passed = (exact_max <= 2.0 and estimate_ok
              and key_qter == 0.0 and comp_exact <= 2.0)
    report(7, "intercept-resend always trips the Bell check, not the QTER", passed,
           f"max exact s3={exact_max:.4f}, computational-eve qter={key_qter:.4f}")


def test_criterion_08_reconciliation_arithmetic():
    rng = np.random.default_rng(8)
    key_a = rng.integers(0, 3, size=150, dtype=np.int8)
    key_b = key_a.copy()
    for blk in rng.choice(50, size=14, replace=False):
        pos = 3 * blk + rng.integers(0, 3)
        key_b[pos] = (key_b[pos] + rng.integers(1, 3)) % 3
    out_a, out_b, rep = reconcile.parity_sift(key_a, key_b)
    arithmetic_ok = (rep.kept_blocks == 36 and rep.output_length == 72
                     and np.array_equal(out_a, out_b))
    oracle_ok = True
    base = np.array([2, 1, 0], dtype=np.int8)
    for pattern, expect_kept in parity_block_survivors():
        shifted = (base + np.array(pattern, dtype=np.int8)) % 3
        _, _, single = reconcile.parity_sift(base, shifted)
        oracle_ok = oracle_ok and (single.kept_blocks == int(expect_kept))
    passed = arithmetic_ok and oracle_ok
    report(8, "150 trits with 14 block errors reconcile to 72 error-free trits",
           passed, f"kept={rep.kept_blocks}, out={rep.output_length}, "
                   f"27-pattern oracle={'ok' if oracle_ok else 'mismatch'}")


def test_criterion_09_cipher_golden_vectors():
    message = "THE RESULT IS FORTY TWO"
    key = parse_trits("022001122110002100222201212222122212001221212002201"
                      "121210212222122222")
    expected_cipher = ("220022100002121111122100011120011201201110221111020"
                       "022100101120000001")
    cipher = tritcrypt.encrypt(tritcrypt.encode(message), key)
    decrypted = tritcrypt.decode(tritcrypt.decrypt(parse_trits(expected_cipher), key))
    passed = format_trits(cipher) == expected_cipher and decrypted == message
    report(9, "reference message encrypts and decrypts digit for digit", passed,
           f"cipher groups={len(cipher) // 3}")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(10)
    cases = 10_000
    born_ok = signalling_ok = mod3_ok = True
    for _ in range(cases):
        n = rng.integers(1, 3)
        weights = rng.dirichlet(np.ones(n + 1))
        components = []
        for i in range(n):
            psi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            components.append((weights[i], psi / np.linalg.norm(psi)))
        mixed = MixedState(components=tuple(components), white_noise_weight=weights[-1])
        basis_a = random_basis(rng)
        basis_b1 = random_basis(rng)
        basis_b2 = random_basis(rng)
        t1 = bell.outcome_distribution(mixed, basis_a, basis_b1)
        t2 = bell.outcome_distribution(mixed, basis_a, basis_b2)
        born_ok = born_ok and abs(t1.sum() - 1.0) < 1e-10 \
            and t1.min() > -1e-15 and t1.max() < 1.0 + 1e-15
        signalling_ok = signalling_ok and np.allclose(
            t1.sum(axis=1), t2.sum(axis=1), atol=1e-10)
        mod3_ok = mod3_ok and abs(
            sum(bell.coincidence_mod3(t1, k) for k in range(3)) - 1.0) < 1e-10

    codec_ok = True
    alphabet = np.array(list(tritcrypt.ALPHABET))
    for _ in range(cases):
        text = "".join(rng.choice(alphabet, size=rng.integers(1, 12)))
        key = rng.integers(0, 3, size=3 * len(text), dtype=np.int8)
        roundtrip = tritcrypt.decode(
            tritcrypt.decrypt(tritcrypt.encrypt(tritcrypt.encode(text), key), key))
        codec_ok = codec_ok and roundtrip == text

    # independent digitwise lookup: cipher = (code + key) mod 3 as a Latin square
    lookup = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    code_digits = rng.integers(0, 3, size=cases, dtype=np.int8)
    key_digits = rng.integers(0, 3, size=cases, dtype=np.int8)
    ciphers = tritcrypt.encrypt(code_digits, key_digits)
    uniform_ok = bool(np.all(ciphers == lookup[code_digits, key_digits]))
    uniform_ok = uniform_ok and all(
        {int(tritcrypt.encrypt([c], [k])[0]) for k in range(3)} == {0, 1, 2}
        for c in range(3))
    back = tritcrypt.decrypt(ciphers, key_digits)
    uniform_ok = uniform_ok and bool(np.all(back == code_digits))

    passed = born_ok and signalling_ok and mod3_ok and codec_ok and uniform_ok
    report(10, "randomized property suites hold at stated tolerances", passed,
           f"born={born_ok}, no-signalling={signalling_ok}, mod3={mod3_ok}, "
           f"codec={codec_ok}, cipher={uniform_ok}; {cases} cases each")
