"""Command-line front end: reproducible experiments and plain-text reports.

Each command prints a plain-text report and returns the ``name value`` pairs
(full precision) of the machine-readable block that ``main`` prints after it.
Exit codes: 0 success, 2 validation error, 3 I/O error, 4 insufficient data.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, fields, replace
from decimal import Decimal, InvalidOperation

import numpy as np

from . import bell, protocol, reconcile, transcript, tritcrypt, trits
from .linalg import MixedState, ValidationError, diagonal_state, normalize_coefficients

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INSUFFICIENT_DATA = 4


@dataclass
class RunConfig:
    rounds: int = 100_000
    seed: int = 0
    coefficients: tuple = (1.0, 1.0, 1.0)
    visibility: float = 1.0
    background: float = 0.0
    detection: float = 1.0
    key_crosstalk: float = 0.0
    eve: bool = False
    eve_arm: str = "B"
    bias: tuple = (1 / 3, 1 / 3, 1 / 3)


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"expected a boolean, got {s!r}")


def _parse_rounds(s: str) -> int:
    """An integer from 1 to 10**18, also in scientific notation ('1e6', '2.5e5').

    Round ids of up to 18 digits fit a transcript; the bound is checked
    before ``int`` builds a number of any size.
    """
    try:
        value = Decimal(s)
    except InvalidOperation:
        value = Decimal("NaN")
    if not (value.is_finite() and 0 < value <= 10 ** 18 and value == value.to_integral_value()):
        raise ValidationError(f"rounds must be an integer from 1 to 10**18, got {s!r}")
    return int(value)


def _parse_triple(s: str) -> tuple:
    parts = [p for p in s.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise ValidationError(f"expected 3 comma-separated values, got {s!r}")
    return tuple(float(p) for p in parts)


_CONFIG_PARSERS = {
    "rounds": _parse_rounds,
    "seed": int,
    "coefficients": _parse_triple,
    "visibility": float,
    "background": float,
    "detection": float,
    "key_crosstalk": float,
    "eve": _parse_bool,
    "eve_arm": str,
    "bias": _parse_triple,
}


def load_config_file(path) -> dict:
    """Parse UTF-8 ``key = value`` lines; '#' starts a comment."""
    values = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: not UTF-8 text "
                                      f"(byte {raw[exc.start]:#04x} at column {exc.start + 1})")
            line = text.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_PARSERS:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS[key](value.strip())
                _session(replace(RunConfig(), **{key: values[key]}))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def resolve_config(args) -> tuple[RunConfig, tuple]:
    """Defaults, then profile, then config file, then explicit flags; the
    config and its validated ``_session`` objects."""
    config = RunConfig()
    if getattr(args, "profile", None) == "reference":
        source = protocol.reference_source()
        config = replace(config,
                         coefficients=source.coefficients,
                         visibility=source.visibility,
                         key_crosstalk=source.key_crosstalk,
                         detection=source.detection_efficiency)
    if getattr(args, "config", None):
        config = replace(config, **load_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        text = getattr(args, f.name, None)
        if text is not None:
            try:
                overrides[f.name] = _CONFIG_PARSERS[f.name](text)
            except ValueError as exc:
                raise ValidationError(f"bad value for {f.name}: {exc}") from None
    config = replace(config, **overrides)
    return config, _session(config)


def _session(config: RunConfig) -> tuple:
    """(source, eve, party_a, party_b) of a run.  Building them, after the
    seed check, is the range check of every config value."""
    if config.seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {config.seed}")
    source = protocol.SourceConfig(
        coefficients=config.coefficients,
        visibility=config.visibility,
        background_fraction=config.background,
        detection_efficiency=config.detection,
        key_crosstalk=config.key_crosstalk,
    )
    eve = protocol.EveConfig(enabled=config.eve, arm=config.eve_arm)
    party = protocol.PartyConfig(config.bias)
    return source, eve, party, party


def _config_value(value):
    """A config value in config-file form, so transcript headers replay."""
    return ",".join(repr(float(v)) for v in value) if isinstance(value, tuple) else value


def _print_config(config: RunConfig) -> None:
    print("config:")
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ", ".join(f"{v:.6g}" for v in value)
        print(f"  {f.name} = {value}")


def _machine_block(pairs) -> None:
    print("-- machine readable --")
    for name, value in pairs:
        if isinstance(value, (bool, np.bool_)):
            value = int(value)
        if isinstance(value, (float, np.floating)):
            value = repr(float(value))
        print(f"{name} {value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _bell_setup(args) -> tuple[RunConfig, MixedState, float]:
    """Config, Schmidt-diagonal source mixture and normalization divisor."""
    config, _ = resolve_config(args)
    coeffs, divisor = normalize_coefficients(config.coefficients)
    effective = (1.0 - config.background) * config.visibility
    return config, MixedState.isotropic(diagonal_state(coeffs), effective), divisor


def cmd_bell(args) -> list:
    config, mixed, divisor = _bell_setup(args)
    s3_exact = bell.s3(mixed, bell.canonical_settings())
    result = bell.optimize_s3(mixed, family=args.family,
                              tolerance=args.tolerance, seed=config.seed)
    _print_config(config)
    print()
    print(f"exact S3 at canonical settings  {s3_exact:.4f}")
    print(f"optimized S3 ({args.family} family)   {result.s3:.4f}"
          + ("" if result.converged else "  [not converged]"))
    print(f"classical bound 2.0000, quantum maximum {bell.QUANTUM_MAX:.4f}")
    return [
        ("s3_exact", s3_exact),
        ("s3_optimized", result.s3),
        ("optimizer_converged", result.converged),
        ("classical_bound", bell.CLASSICAL_BOUND),
        ("quantum_max", bell.QUANTUM_MAX),
        ("normalization_divisor", divisor),
    ]


def cmd_optimize(args) -> list:
    config, mixed, _ = _bell_setup(args)
    result = bell.optimize_s3(mixed, family=args.family,
                              tolerance=args.tolerance, seed=config.seed,
                              restarts=args.restarts)
    _print_config(config)
    print()
    print(f"optimized S3 ({args.family} family)  {result.s3:.4f}"
          + ("" if result.converged else "  [not converged]"))
    return [
        ("s3_optimized", result.s3),
        ("optimizer_converged", result.converged),
        ("family", result.family),
        ("params", ",".join(repr(float(p)) for p in result.params)),
    ]


def _report_session(result: protocol.SessionResult) -> list:
    """Print a session's report; its machine-block pairs."""
    fk, fb, fd = result.sifted_fractions
    print()
    print(f"rounds             {result.n_rounds} ({result.n_detected} detected)")
    print(f"sifted fractions   key {fk:.4f}, bell {fb:.4f}, discarded {fd:.4f}")
    print(f"key length         {len(result.key_a)} trits")
    for line in result.lines():
        print(line)
    return [
        ("n_rounds", result.n_rounds),
        ("n_detected", result.n_detected),
        ("fraction_key", fk),
        ("fraction_bell", fb),
        ("fraction_discarded", fd),
        ("s3_estimate", result.s3_estimate),
        ("s3_sigma", result.s3_sigma),
        ("sigmas_above_classical", result.sigmas_above_classical),
        ("qter", result.qter),
        ("key_length", len(result.key_a)),
        ("secure", result.secure),
    ]


def _write_keys(out_dir, result: protocol.SessionResult) -> list:
    """Write and report both sifted keys in ``out_dir``; their machine-block pairs."""
    paths = [os.path.join(out_dir, "key_a.txt"), os.path.join(out_dir, "key_b.txt")]
    for path, key, party in zip(paths, (result.key_a, result.key_b), "AB"):
        trits.write_key_file(path, key, comments=(f"sifted key, party {party}",))
    print(f"key files          {paths[0]}, {paths[1]}")
    return [("key_a", paths[0]), ("key_b", paths[1])]


def cmd_simulate(args) -> list:
    config, (source, eve, a_cfg, b_cfg) = resolve_config(args)
    os.makedirs(args.out, exist_ok=True)
    chunks = protocol.iter_session(config.rounds, source, eve, a_cfg, b_cfg, config.seed)
    transcript_path = os.path.join(args.out, "transcript.txt")
    header = {f.name: _config_value(getattr(config, f.name)) for f in fields(RunConfig)}
    # sampled, written and sifted chunk by chunk; on too little data the
    # transcript is already written, but nothing is printed and no key file written
    result = protocol.analyze(transcript.transcribe(transcript_path, chunks, header))
    _print_config(config)
    pairs = _report_session(result)
    print(f"transcript         {transcript_path}")
    return pairs + [("transcript", transcript_path)] + _write_keys(args.out, result)


def cmd_sift(args) -> list:
    header = {}
    try:
        result = protocol.analyze(transcript.iter_transcript(args.transcript, header))
    except protocol.InsufficientDataError as exc:
        raise protocol.InsufficientDataError(f"{args.transcript}: {exc}") from None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    if header:
        print("transcript header:")
        for key, value in header.items():
            print(f"  {key} = {value}")
    pairs = _report_session(result)
    if args.out:
        pairs += _write_keys(args.out, result)
    return pairs


def cmd_reconcile(args) -> list:
    key_a = trits.read_key_file(args.key_a)
    key_b = trits.read_key_file(args.key_b)
    out_a, out_b, report = reconcile.parity_sift(key_a, key_b)
    os.makedirs(args.out, exist_ok=True)
    path_a = os.path.join(args.out, "reconciled_a.txt")
    path_b = os.path.join(args.out, "reconciled_b.txt")
    trits.write_key_file(path_a, out_a, comments=("reconciled key, party A",))
    trits.write_key_file(path_b, out_b, comments=("reconciled key, party B",))
    print(f"input length       {len(key_a)} trits")
    for line in report.lines():
        print(line)
    print(f"output files       {path_a}, {path_b}")
    return [
        ("input_length", len(key_a)),
        ("kept_blocks", report.kept_blocks),
        ("discarded_blocks", report.discarded_blocks),
        ("output_length", report.output_length),
        ("residual_mismatches", report.residual_mismatches),
        ("dropped_trailing", report.dropped_trailing),
        ("out_a", path_a),
        ("out_b", path_b),
    ]


def cmd_encrypt(args) -> list:
    key = trits.read_key_file(args.key_file)
    code = tritcrypt.encode(args.text)
    if key.size < code.size:
        raise ValidationError(
            f"key too short: {key.size} trits for a {code.size}-trit message "
            "(one-time pad requires a key at least as long)")
    cipher = tritcrypt.encrypt(code, key[:code.size])
    unused = int(key.size - code.size)
    print(f"cipher             {trits.format_trits(cipher, group=3)}")
    print(f"key trits used     {code.size} ({unused} unused)")
    return [
        ("cipher", trits.format_trits(cipher)),
        ("used_key_trits", int(code.size)),
        ("unused_key_trits", unused),
    ]


def cmd_decrypt(args) -> list:
    key = trits.read_key_file(args.key_file)
    cipher = trits.parse_trits(args.cipher)
    if cipher.size % 3 != 0:
        raise ValidationError(f"cipher length {cipher.size} is not a multiple of 3")
    if key.size < cipher.size:
        raise ValidationError(
            f"key too short: {key.size} trits for a {cipher.size}-trit cipher")
    code = tritcrypt.decrypt(cipher, key[:cipher.size])
    text = tritcrypt.decode(code)
    unused = int(key.size - cipher.size)
    print(f"text               {text}")
    print(f"key trits used     {cipher.size} ({unused} unused)")
    return [
        ("text", text),
        ("used_key_trits", int(cipher.size)),
        ("unused_key_trits", unused),
    ]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(parser, with_profile=False):
    parser.add_argument("--config", metavar="PATH",
                        help="config file of 'key = value' lines; flags override")
    parser.add_argument("--seed", default=None)
    parser.add_argument("--coefficients", default=None,
                        metavar="A,B,C", help="source state coefficients")
    parser.add_argument("--visibility", default=None)
    parser.add_argument("--background", default=None,
                        help="accidental-coincidence fraction")
    if with_profile:
        parser.add_argument("--rounds", default=None,
                            help="number of rounds, e.g. 100000 or 1e6")
        parser.add_argument("--detection", default=None,
                            help="per-round coincidence detection probability")
        parser.add_argument("--key-crosstalk", dest="key_crosstalk",
                            default=None, help="key-setting crosstalk fraction")
        parser.add_argument("--eve", action="store_const", const="true", default=None,
                            help="enable the intercept-resend eavesdropper")
        parser.add_argument("--eve-arm", dest="eve_arm", choices=("A", "B"),
                            default=None)
        parser.add_argument("--bias", default=None,
                            metavar="P1,P2,P3", help="setting-choice probabilities")
        parser.add_argument("--profile", choices=("reference",), default=None,
                            help="preset noise calibration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutrit-qkd",
        description="Qutrit entanglement QKD: Bell tests, protocol simulation, "
                    "key reconciliation, and the trinary one-time pad.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bell", help="exact and optimized Bell parameter")
    _add_config_flags(p)
    p.add_argument("--family", choices=("phase", "unitary"), default="phase")
    p.add_argument("--tolerance", type=float, default=1e-6)

    p = sub.add_parser("optimize", help="optimize measurement settings")
    _add_config_flags(p)
    p.add_argument("--family", choices=("phase", "unitary"), default="phase")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=20)

    p = sub.add_parser("simulate", help="run a full protocol session")
    _add_config_flags(p, with_profile=True)
    p.add_argument("--out", default="qkd-out", metavar="DIR",
                   help="directory for the transcript and key files")

    p = sub.add_parser("sift", help="sift and analyze a transcript file")
    p.add_argument("--transcript", required=True, metavar="PATH")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="also write the sifted key files here")

    p = sub.add_parser("reconcile", help="parity-sift two key files")
    p.add_argument("key_a", metavar="KEY_A")
    p.add_argument("key_b", metavar="KEY_B")
    p.add_argument("--out", default="qkd-out", metavar="DIR")

    p = sub.add_parser("encrypt", help="one-time-pad encrypt a message")
    p.add_argument("text", metavar="TEXT")
    p.add_argument("--key-file", dest="key_file", required=True, metavar="PATH")

    p = sub.add_parser("decrypt", help="one-time-pad decrypt a trit stream")
    p.add_argument("cipher", metavar="TRITS")
    p.add_argument("--key-file", dest="key_file", required=True, metavar="PATH")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call (not on
    import, which every run pays); parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    # scipy's own OpenBLAS reads this when the first solve loads it; with a
    # core taken by another process, its threads slow L-BFGS-B several-fold.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # argparse has printed the help, or a usage error
        return exc.code
    try:
        # looked up on each call, so a rebound cmd_* function is the one run
        pairs = globals()[f"cmd_{args.command}"](args)
    except protocol.InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    _machine_block(pairs)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
