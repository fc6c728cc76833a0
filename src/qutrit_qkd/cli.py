"""Command-line front end: reproducible experiments and plain-text reports.

Each command returns its report as rows ``(text, name, value)``: a report
line or None, and a machine-readable pair or None.  ``main`` prints them only
once the command has succeeded: every text line, then the machine block of
the named rows at full precision.  Exit codes: 0 success, 2 validation
error, 3 I/O error, 4 insufficient data.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import shutil
import sys
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal, InvalidOperation

import numpy as np

from . import bell, protocol, reconcile, transcript, tritcrypt, trits
from .linalg import ValidationError, require_integer

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INSUFFICIENT_DATA = 4


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


def _key(default, parse, source=None, simulate_only=False, **flag):
    """A config key: its default, its value parser, the ``SourceConfig`` field
    it sets, whether only ``simulate`` has its flag, and the flag's settings."""
    return field(default=default, metadata={"parse": parse, "source": source,
                                            "simulate_only": simulate_only, "flag": flag})


@dataclass
class RunConfig:
    """The config keys, in header order: the one table that the config file,
    the flags, the profile and the session objects are read through."""

    rounds: int = _key(100_000, _parse_rounds, simulate_only=True,
                       help="number of rounds, e.g. 100000 or 1e6")
    seed: int = _key(0, int)
    coefficients: tuple = _key((1.0, 1.0, 1.0), _parse_triple, "coefficients",
                               metavar="A,B,C", help="source state coefficients")
    visibility: float = _key(1.0, float, "visibility")
    background: float = _key(0.0, float, "background_fraction",
                             help="accidental-coincidence fraction")
    detection: float = _key(1.0, float, "detection_efficiency", simulate_only=True,
                            help="per-round coincidence detection probability")
    key_crosstalk: float = _key(0.0, float, "key_crosstalk", simulate_only=True,
                                help="key-setting crosstalk fraction")
    eve: bool = _key(False, _parse_bool, simulate_only=True, action="store_const",
                     const="true", help="enable the intercept-resend eavesdropper")
    eve_arm: str = _key("B", str, simulate_only=True, choices=("A", "B"))
    bias: tuple = _key((1 / 3, 1 / 3, 1 / 3), _parse_triple, simulate_only=True,
                       metavar="P1,P2,P3", help="setting-choice probabilities")


_KEYS = {f.name: f for f in fields(RunConfig)}
_SOURCE_FIELDS = {name: f.metadata["source"] for name, f in _KEYS.items() if f.metadata["source"]}


def load_config_file(path) -> dict:
    """Parse UTF-8 ``key = value`` lines, each key at most once; '#' starts a comment."""
    values, first = {}, {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: not UTF-8 text "
                                      f"(byte {raw[exc.start]:#04x} at column {exc.start + 1})")
            if lineno == 1:
                text = text.removeprefix("\ufeff")     # a byte-order mark some editors save
            line = text.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in first:
                raise ValidationError(f"{path}:{lineno}: config key {key!r} repeated "
                                      f"(first at line {first[key]})")
            first[key] = lineno
            try:
                values[key] = _KEYS[key].metadata["parse"](value.strip())
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
        config = replace(config, **{name: getattr(source, attr)
                                    for name, attr in _SOURCE_FIELDS.items()})
    if getattr(args, "config", None):
        config = replace(config, **load_config_file(args.config))
    overrides = {}
    for name, f in _KEYS.items():
        text = getattr(args, name, None)
        if text is not None:
            try:
                overrides[name] = f.metadata["parse"](text)
            except ValueError as exc:
                raise ValidationError(f"bad value for {name}: {exc}") from None
    config = replace(config, **overrides)
    return config, _session(config)


def _session(config: RunConfig) -> tuple:
    """(source, eve, party_a, party_b) of a run.  Building them, after the
    seed check, is the range check of every config value."""
    require_integer("seed", config.seed, 0)
    source = protocol.SourceConfig(**{attr: getattr(config, name)
                                      for name, attr in _SOURCE_FIELDS.items()})
    eve = protocol.EveConfig(enabled=config.eve, arm=config.eve_arm)
    party = protocol.PartyConfig(config.bias)
    return source, eve, party, party


def _config_value(value):
    """A config value in config-file form, so transcript headers replay."""
    return ",".join(repr(float(v)) for v in value) if isinstance(value, tuple) else value


def _block(title: str, items: dict) -> list:
    """Text rows of a titled ``key = value`` block: the config or a transcript header."""
    rows = [(title, None, None)]
    for key, value in items.items():
        if isinstance(value, tuple):
            value = ", ".join(f"{v:.6g}" for v in value)
        rows.append((f"  {key} = {value}", None, None))
    return rows


def _machine_value(value):
    """A machine-block value at full precision; booleans as 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _optimized_rows(label: str, result: bell.OptimizeResult) -> list:
    """The optimized S3, flagged when no restart converged."""
    flag = "" if result.converged else "  [not converged]"
    return [(f"{label}{result.s3:.4f}{flag}", "s3_optimized", result.s3),
            (None, "optimizer_converged", result.converged)]


def cmd_bell(args) -> list:
    config, (source, *_) = resolve_config(args)
    s3_exact = bell.s3(source.mixture, bell.CANONICAL_SETTINGS)
    result = bell.optimize_s3(source.mixture, family=args.family,
                              tolerance=args.tolerance, seed=config.seed)
    return [
        *_block("config:", vars(config)),
        ("", None, None),
        (f"exact S3 at canonical settings  {s3_exact:.4f}", "s3_exact", s3_exact),
        *_optimized_rows(f"optimized S3 ({args.family} family)   ", result),
        (f"classical bound 2.0000, quantum maximum {bell.QUANTUM_MAX:.4f}",
         "classical_bound", bell.CLASSICAL_BOUND),
        (None, "quantum_max", bell.QUANTUM_MAX),
        (None, "normalization_divisor", source.normalization_divisor),
    ]


def cmd_optimize(args) -> list:
    config, (source, *_) = resolve_config(args)
    result = bell.optimize_s3(source.mixture, family=args.family,
                              tolerance=args.tolerance, seed=config.seed,
                              restarts=args.restarts)
    return [
        *_block("config:", vars(config)),
        ("", None, None),
        *_optimized_rows(f"optimized S3 ({args.family} family)  ", result),
        (None, "family", result.family),
        (None, "params", ",".join(repr(float(p)) for p in result.params)),
    ]


def _session_rows(result: protocol.SessionResult) -> list:
    """A session's tallies, S3 estimate, QTER and verdict."""
    fk, fb, fd = result.sifted_fractions
    n_key = result.n_key
    noise = "below" if result.qter < protocol.NOISE_BOUND_QUTRIT else "ABOVE"
    return [
        ("", None, None),
        (f"rounds             {result.n_rounds} ({result.n_detected} detected)",
         "n_rounds", result.n_rounds),
        (None, "n_detected", result.n_detected),
        (f"sifted fractions   key {fk:.4f}, bell {fb:.4f}, discarded {fd:.4f}",
         "fraction_key", fk),
        (None, "fraction_bell", fb),
        (None, "fraction_discarded", fd),
        # the text reports the key length before the estimate, the block after the QTER
        (f"key length         {n_key} trits", None, None),
        (f"S3 estimate        {result.s3_estimate:.4f} +- {result.s3_sigma:.4f}",
         "s3_estimate", result.s3_estimate),
        (None, "s3_sigma", result.s3_sigma),
        (f"classical bound    2.0000 ({result.sigmas_above_classical:.2f} sigma above)",
         "sigmas_above_classical", result.sigmas_above_classical),
        (f"QTER               {result.qter:.4f} "
         f"({noise} the {protocol.NOISE_BOUND_QUTRIT:.3f} noise bound)", "qter", result.qter),
        (None, "key_length", n_key),
        (f"verdict            {'SECURE' if result.secure else 'NOT SECURE'}",
         "secure", result.secure),
    ]


def _out_paths(out_dir, *names) -> list:
    """The files ``names`` in ``out_dir``, checked before any sampling, reading
    or writing: an ``out_dir`` that is not a directory, or a target that
    exists and is not a regular file, is refused.  Nothing is made here; the
    command makes ``out_dir`` just before its first write."""
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out_dir)
    paths = [os.path.join(out_dir, name) for name in names]
    for path in paths:
        if os.path.exists(path) and not os.path.isfile(path):
            raise IsADirectoryError(f"{path}: exists and is not a regular file")
    return paths


def _require_space(path, size: int) -> None:
    """Refuse with ENOSPC, before anything is made, a ``size``-byte transcript
    at ``path`` that its disk has no room for: the free space of its
    directory, or of that one's nearest existing parent, plus the bytes of
    the file it replaces, which opening it truncates."""
    existing = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    room = shutil.disk_usage(existing).free
    if os.path.isfile(path):
        room += os.path.getsize(path)
    if size > room:
        raise OSError(errno.ENOSPC, f"{os.strerror(errno.ENOSPC)}: the transcript needs "
                                    f"{size} bytes, {room} are free", existing)


def _key_rows(paths, result: protocol.SessionResult) -> list:
    """Write both sifted keys to ``paths``; their report rows."""
    for path, key, party in zip(paths, (result.key_a, result.key_b), "AB"):
        trits.write_key_file(path, key, comments=(f"sifted key, party {party}",))
    return [(f"key files          {paths[0]}, {paths[1]}", "key_a", paths[0]),
            (None, "key_b", paths[1])]


def cmd_simulate(args) -> list:
    config, (source, eve, a_cfg, b_cfg) = resolve_config(args)
    transcript_path, *key_paths = _out_paths(args.out, "transcript.txt", "key_a.txt", "key_b.txt")
    chunks = protocol.iter_session(config.rounds, source, eve, a_cfg, b_cfg, config.seed)
    header = {name: _config_value(value) for name, value in vars(config).items()}
    _require_space(transcript_path, transcript.transcript_size(config.rounds, header))
    os.makedirs(args.out, exist_ok=True)
    # sampled, written and sifted chunk by chunk; on too little data the
    # transcript is already written, but no key file
    result = protocol.analyze(transcript.transcribe(transcript_path, chunks, header))
    return [
        *_block("config:", vars(config)),
        *_session_rows(result),
        (f"transcript         {transcript_path}", "transcript", transcript_path),
        *_key_rows(key_paths, result),
    ]


def cmd_sift(args) -> list:
    key_paths = _out_paths(args.out, "key_a.txt", "key_b.txt") if args.out else None
    header, n_read, short = {}, 0, None

    def counted():
        nonlocal n_read
        for code in transcript.iter_transcript(args.transcript, header):
            n_read += len(code)
            yield code

    try:
        result = protocol.analyze(counted())
    except protocol.InsufficientDataError as exc:
        short = exc     # reported after the round count, so a truncation is named as such
    try:
        declared = _parse_rounds(header["rounds"])
    except (KeyError, ValidationError):     # no round count to check against
        declared = n_read
    if declared != n_read:
        raise ValidationError(f"{args.transcript}: the header says rounds = {declared}, "
                              f"but the file holds {n_read} rounds")
    if short:
        raise protocol.InsufficientDataError(f"{args.transcript}: {short}")
    if key_paths:
        os.makedirs(args.out, exist_ok=True)
    return [
        *(_block("transcript header:", header) if header else ()),
        *_session_rows(result),
        *(_key_rows(key_paths, result) if key_paths else ()),
    ]


def cmd_reconcile(args) -> list:
    path_a, path_b = _out_paths(args.out, "reconciled_a.txt", "reconciled_b.txt")
    key_a = trits.read_key_file(args.key_a)
    key_b = trits.read_key_file(args.key_b)
    out_a, out_b, report = reconcile.parity_sift(key_a, key_b)
    os.makedirs(args.out, exist_ok=True)
    trits.write_key_file(path_a, out_a, comments=("reconciled key, party A",))
    trits.write_key_file(path_b, out_b, comments=("reconciled key, party B",))
    dropped = report.dropped_trailing
    return [
        (f"input length       {len(key_a)} trits", "input_length", len(key_a)),
        (f"kept blocks          {report.kept_blocks}", "kept_blocks", report.kept_blocks),
        (f"discarded blocks     {report.discarded_blocks}",
         "discarded_blocks", report.discarded_blocks),
        (f"output length        {report.output_length}", "output_length", report.output_length),
        (f"residual mismatches  {report.residual_mismatches}",
         "residual_mismatches", report.residual_mismatches),
        (f"dropped trailing     {dropped}" if dropped else None, "dropped_trailing", dropped),
        (f"output files       {path_a}, {path_b}", "out_a", path_a),
        (None, "out_b", path_b),
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
    return [
        (f"cipher             {trits.format_trits(cipher, group=3)}",
         "cipher", trits.format_trits(cipher)),
        (f"key trits used     {code.size} ({unused} unused)", "used_key_trits", code.size),
        (None, "unused_key_trits", unused),
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
    return [
        (f"text               {text}", "text", text),
        (f"key trits used     {cipher.size} ({unused} unused)",
         "used_key_trits", cipher.size),
        (None, "unused_key_trits", unused),
    ]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(parser, simulate=False):
    parser.add_argument("--config", metavar="PATH",
                        help="config file of 'key = value' lines; flags override")
    for name, f in _KEYS.items():
        if simulate or not f.metadata["simulate_only"]:
            parser.add_argument("--" + name.replace("_", "-"), **f.metadata["flag"])
    if simulate:
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
    _add_config_flags(p, simulate=True)
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


def _drop_stdout() -> None:
    """Point the fd behind stdout, if it has one, at devnull, so that what is
    left in its buffer goes there and the interpreter's last flush raises nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):   # None, or no fd (a StringIO)
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:   # argparse has printed the help, or a usage error
        return exc.code
    try:
        # looked up on each call, so a rebound cmd_* function is the one run
        rows = globals()[f"cmd_{args.command}"](args)
    except protocol.InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        if sys.stdout is None:      # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, "stdout is closed")
        for text, _, _ in rows:
            if text is not None:
                print(text)
        print("-- machine readable --")
        for _, name, value in rows:
            if name is not None:
                print(f"{name} {_machine_value(value)}")
        sys.stdout.flush()
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):    # a reader that has gone needs no word
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
        _drop_stdout()
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
