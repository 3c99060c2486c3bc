"""Command-line front end.

Commands: table, spectrum, mix, bounds, verify, simulate.  Tables and
curves are CSV by default, reports JSON; every artifact written to a
file embeds its run manifest (JSON) or gets a .manifest.json sidecar
(CSV).  Exit codes: 0 success, 1 verification failure, 2 usage or
domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import SUITE_NAMES, DomainError, RecwalkError, StateSpaceTooLarge
from .recurrence import PRESETS, RecurrenceSpec, SequenceWindow, first_terms, generate
from .spectrum import _INT64_SAFE_N, DEFAULT_N_MAX, TABLES_N_MAX, full_spectrum
from . import walk
from .walk import MAX_ROWS

# Encoder chunks joined per write.  Written to piped stdout one chunk at a
# time, as json.dump does, the 2^18-row listing took 10.9 s of CPU against
# 2.4 s batched; batches of 2^12 and 2^16 chunks ran alike.
_JSON_BATCH = 1 << 12


class _Streamed(list):
    """A JSON array whose items are made as the encoder reads them:
    iterencode tests a list for emptiness, then walks it with `for value
    in lst`, so only the first item is held (an empty one stays "[]")."""

    def __init__(self, items):
        items = iter(items)
        super().__init__(itertools.islice(items, 1))
        self._rest = items

    def __iter__(self):
        yield from list.__iter__(self)
        yield from self._rest


def _parse_epsilon(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad epsilon {text!r}: {exc}")
    if not 0 < eps < 1:
        raise argparse.ArgumentTypeError(f"epsilon must be in (0, 1), got {text}")
    return eps


def _parse_nmax_states(text: str) -> int:
    """A dense cap in 1..DEFAULT_N_MAX; larger caps would let the dense
    spectrum take 16 bytes per state without bound."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --nmax-states {text!r}")
    if not 1 <= cap <= DEFAULT_N_MAX:
        raise argparse.ArgumentTypeError(
            f"--nmax-states must be in 1..{DEFAULT_N_MAX}, got {cap}"
        )
    return cap


def _resolve_sequences(seq_args: list[str] | None) -> list[tuple[str, RecurrenceSpec]]:
    """Map --seq values (preset names or JSON specs) to named specs."""
    if not seq_args:
        return [(name, PRESETS[name]) for name in ("pow2", "pow3", "fib-odd")]
    out = []
    for text in seq_args:
        if text in PRESETS:
            if any(name == text for name, _ in out):
                raise RecwalkError(f"--seq {text} is given twice")
            out.append((text, PRESETS[text]))
            continue
        try:
            blob = json.loads(text)
            spec = RecurrenceSpec(tuple(blob["coeffs"]), tuple(blob["init"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise RecwalkError(
                f"--seq must be a preset {sorted(PRESETS)} or JSON "
                f'{{"coeffs": [...], "init": [...]}}: {exc}'
            )
        out.append((f"custom{len(out)}", spec))
    return out


def _single_sequence(args) -> tuple[str, RecurrenceSpec]:
    seqs = _resolve_sequences(args.seq)
    if args.seq is None or len(seqs) != 1:
        raise RecwalkError("this command needs exactly one --seq")
    return seqs[0]


def _manifest(args, sequences: list[tuple[str, RecurrenceSpec]]) -> dict:
    """The run's record: the sequences and every other option the command
    declares, as parsed; the output path is not a setting."""
    import hashlib  # only a written manifest needs it, with its OpenSSL

    resolved = [
        {"name": name, "coeffs": list(s.coeffs), "init": list(s.init)}
        for name, s in sequences
    ]
    params = {"sequences": resolved}
    params.update(
        (key, value) for key, value in vars(args).items()
        if key not in ("command", "func", "seq", "out")
    )
    if "epsilon" in params:
        params["epsilon"] = str(params["epsilon"])  # kept rational, e.g. "1/4"
    digest = hashlib.sha256(
        json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return {
        "command": args.command,
        "parameters": params,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "spec_hash": digest,
    }


def _emit(args, sequences: list[tuple[str, RecurrenceSpec]], payload: dict, rows) -> None:
    """Write the artifact to --out or stdout as it is formatted: JSON is
    {"manifest": ..., **payload}, encoded in batches of _JSON_BATCH chunks;
    CSV is rows, header first, read only for CSV and written one by one,
    with the manifest in a .manifest.json sidecar next to an --out file.
    CSV on stdout has no manifest, so none is built."""
    manifest = _manifest(args, sequences) if args.out or args.format == "json" else None
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "json":
            doc = {"manifest": manifest, **payload}
            chunks = json.JSONEncoder(indent=2, default=str).iterencode(doc)
            while batch := "".join(itertools.islice(chunks, _JSON_BATCH)):
                fh.write(batch)
            fh.write("\n")
        else:
            for row in rows:
                fh.write(",".join(map(_fmt, row)) + "\n")
    if args.out and args.format == "csv":
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")


def _fmt(x) -> str:
    if x is None:  # an absent value is a blank cell, as JSON writes null
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _dense_window(spec: RecurrenceSpec, n: int) -> SequenceWindow:
    """The window of n terms, refused at its first term past the dense cap."""
    return generate(spec, n, limit=DEFAULT_N_MAX, limit_name="dense cap")


def _refuse_past_tables(spec: RecurrenceSpec, n: int, limit: int) -> None:
    """Refuse n > TABLES_N_MAX, which the engine's tables refuse whatever N
    is, after making at most TABLES_N_MAX + 1 terms, not the whole window.
    If one of those terms passes limit, the command's own limit on N, return
    instead: that refusal, made with the window, comes first."""
    if n > TABLES_N_MAX and first_terms(spec, TABLES_N_MAX + 1, limit=limit)[-1] <= limit:
        raise StateSpaceTooLarge(
            f"n = {n} exceeds {TABLES_N_MAX}, the most steps whose engine "
            f"root tables fit the dense cap {DEFAULT_N_MAX}"
        )


def cmd_table(args) -> int:
    if args.nmax < 1:
        raise DomainError(f"no rows: --nmax = {args.nmax} is below 1")
    sequences = _resolve_sequences(args.seq)
    # one window per spec, made before any scan and refused at its first term
    # past the cap, so a huge --nmax stops there; the rows are its prefixes
    longest = [(name, _dense_window(spec, args.nmax)) for name, spec in sequences]
    per_seq = {}
    for name, last in longest:
        per_seq[name] = []
        for n in range(1, args.nmax + 1):
            window = SequenceWindow(last.spec, last.values[:n])
            result = walk.mixing_time(window, args.epsilon)
            per_seq[name].append({"n": n, "G_n": window.modulus, "t_mix": result.t_mix})
    columns = ("G_n", "t_mix")
    header = ["n", *(f"{col}[{name}]" for name in per_seq for col in columns)]
    rows = (
        [cells[0]["n"], *(cell[col] for cell in cells for col in columns)]
        for cells in zip(*per_seq.values())
    )
    _emit(args, sequences, {"table": per_seq}, itertools.chain([header], rows))
    return 0


def cmd_spectrum(args) -> int:
    name, spec = _single_sequence(args)
    if args.top is not None and args.top < 1:
        raise DomainError(f"--top must be at least 1, got {args.top}")
    _refuse_past_tables(spec, args.n, DEFAULT_N_MAX)
    window = _dense_window(spec, args.n)
    listed = window.modulus if args.top is None else min(args.top, window.modulus)
    if listed > MAX_ROWS:
        raise DomainError(f"N = {window.modulus}: a listing holds at most {MAX_ROWS} "
                          f"rows; pass --top {MAX_ROWS} or less")
    N = window.modulus
    eig = full_spectrum(window)
    mods = abs(eig)
    if args.top is not None:
        # stable on -mods: ties keep increasing k, as sorted(reverse=True) does
        order = (np.argsort(-mods, kind="stable")[: args.top] + 1).tolist()
    else:
        order = range(1, N + 1)
    rows = (
        (k, float(eig[k - 1].real), float(eig[k - 1].imag), float(mods[k - 1]))
        for k in order
    )
    fields = ("k", "re", "im", "modulus")
    payload = {
        "sequence": name,
        "n": window.n,
        "N": N,
        "slem": float(mods[: N // 2].max(initial=0.0)),  # 0.0 when N = 1
    }
    if args.format == "json":  # CSV formats the rows as _emit writes them
        payload["eigenvalues"] = _Streamed(dict(zip(fields, row)) for row in rows)
    _emit(args, [(name, spec)], payload, itertools.chain([fields], rows))
    return 0


def cmd_mix(args) -> int:
    name, spec = _single_sequence(args)
    window = _dense_window(spec, args.n)
    result = walk.mixing_time(window, args.epsilon)
    payload = {
        "sequence": name,
        "n": result.n,
        "N": result.N,
        "epsilon": str(args.epsilon),
        "t_mix": result.t_mix,
    }
    if args.format == "json":  # CSV formats the rows as _emit writes them
        payload["tv_curve"] = _Streamed({"t": t, "tv": tv} for t, tv in result.tv_curve)
    _emit(args, [(name, spec)], payload, itertools.chain([("t", "tv")], result.tv_curve))
    return 0


def cmd_bounds(args) -> int:
    from .bounds import build_report  # loaded by the one command that runs it

    name, spec = _single_sequence(args)
    _refuse_past_tables(spec, args.n, _INT64_SAFE_N)
    # past the engine's int64 range the report has no spectrum to read
    window = generate(
        spec, args.n, limit=_INT64_SAFE_N, limit_name="exact int64 reduction range"
    )
    report = build_report(
        name,
        window,
        args.epsilon,
        eta1_override=args.eta1,
        n_max_states=args.nmax_states,
    ).to_dict()
    _emit(args, [(name, spec)], {"report": report}, [report, report.values()])
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suites  # loaded by the one command that runs it

    sequences = _resolve_sequences(args.seq)
    results = run_suites(args.suite, specs=dict(sequences), n_max=args.nmax,
                         epsilon=args.epsilon)
    ok = all(r.passed for r in results)
    payload = {"passed": ok, "suites": [r.to_dict() for r in results]}
    rows = [("suite", "passed", "metric", "worst_slack")]
    rows += [(r.suite, r.passed, r.metric, r.worst_slack) for r in results]
    _emit(args, sequences, payload, rows)
    return 0 if ok else 1


def simulate_tv(config):
    """montecarlo.simulate_tv, loaded only when simulate runs it."""
    from .montecarlo import simulate_tv

    return simulate_tv(config)


def cmd_simulate(args) -> int:
    from .montecarlo import MAX_N, SimConfig  # loaded by the one command that runs it

    name, spec = _single_sequence(args)
    window = generate(spec, args.n, limit=MAX_N, limit_name="simulation limit")
    curve = simulate_tv(
        SimConfig(
            window=window,
            t_max=args.tmax,
            num_trajectories=args.trajectories,
            seed=args.seed,
        )
    )
    payload = {"sequence": name, "n": window.n, "N": window.modulus}
    if args.format == "json":  # CSV formats the rows as _emit writes them
        payload["curve"] = _Streamed({"t": t, "empirical_tv": tv} for t, tv in curve)
    payload.update(num_trajectories=args.trajectories, seed=args.seed)
    rows = ((t, tv, args.trajectories, args.seed) for t, tv in curve)
    header = ("t", "empirical_tv", "num_trajectories", "seed")
    _emit(args, [(name, spec)], payload, itertools.chain([header], rows))
    return 0


def _output_options(default_format: str) -> argparse.ArgumentParser:
    """--seq, --out and --format, which every command reads."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--seq",
        action="append",
        metavar="PRESET|JSON",
        help="sequence preset (pow2, pow3, fib-odd) or JSON spec; repeatable",
    )
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=default_format,
                   help=f"output format (default {default_format})")
    return p


def _build_parser() -> argparse.ArgumentParser:
    csv_out, json_out = _output_options("csv"), _output_options("json")
    # bounds' alone; as a parent it keeps its place in bounds' manifest
    dense = argparse.ArgumentParser(add_help=False)
    dense.add_argument(
        "--nmax-states",
        type=_parse_nmax_states,
        default=DEFAULT_N_MAX,
        help=f"dense report up to this N, 1..{DEFAULT_N_MAX} (default {DEFAULT_N_MAX})",
    )
    threshold = argparse.ArgumentParser(add_help=False)
    threshold.add_argument(
        "--epsilon",
        type=_parse_epsilon,
        default=Fraction(1, 4),
        help="TV threshold as a rational string, e.g. 1/4 (default)",
    )

    parser = argparse.ArgumentParser(
        prog="recwalk",
        description="Spectra, TV curves, mixing times, and bound checks for "
        "recurrence-step random walks on Z_N (all bound formulas use natural logs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[csv_out, threshold],
                       help="mixing-time table over n = 1..nmax")
    p.add_argument("--nmax", type=int, default=9)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("spectrum", parents=[csv_out], help="eigenvalue table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--top", type=int, default=None,
                   help=f"keep only the top-m eigenvalues by modulus "
                   f"(needed when N > {MAX_ROWS})")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("mix", parents=[csv_out, threshold],
                       help="mixing time and TV curve")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("bounds", parents=[json_out, threshold, dense],
                       help="bound report for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta1", type=float, default=None,
                   help="override lower growth base for the general lower bound")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", parents=[json_out, threshold],
                       help="inequality verification suites")
    p.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    p.add_argument("--nmax", type=int, default=8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", parents=[csv_out], help="seeded empirical TV curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tmax", type=int, default=20)
    p.add_argument("--trajectories", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RecwalkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
