"""Command-line front end.

Commands: table, spectrum, mix, bounds, verify, simulate.  Tables and
curves are CSV by default, reports JSON; every artifact written to a
file embeds its run manifest (JSON) or gets a .manifest.json sidecar
(CSV).  Exit codes: 0 success, 1 verification failure, 2 usage or
domain error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import DomainError, RecwalkError
from .recurrence import PRESETS, RecurrenceSpec, generate
from .spectrum import DEFAULT_N_MAX, full_spectrum
from .bounds import build_report
from .montecarlo import SimConfig, simulate_tv
from .verify import SUITE_NAMES, run_suites
from . import walk

# Most rows a spectrum listing may hold.  A JSON row costs about 1.5 KiB of
# objects and text (385 MiB peak at 2^18 rows), near the memory budget of
# simulate's trajectory cap.
_LIST_MAX = 1 << 18


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


def _emit(args, manifest: dict, payload: dict, csv_text: str) -> None:
    if args.format == "json":
        doc = json.dumps({"manifest": manifest, **payload}, indent=2, default=str)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(doc + "\n")
        else:
            sys.stdout.write(doc + "\n")
        return
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    else:
        sys.stdout.write(csv_text)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv(rows: list[list]) -> str:
    buf = io.StringIO()
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def cmd_table(args) -> int:
    if args.nmax < 1:
        raise DomainError(f"no rows: --nmax = {args.nmax} is below 1")
    sequences = _resolve_sequences(args.seq)
    per_seq = {}
    for name, spec in sequences:
        rows = []
        for n in range(1, args.nmax + 1):
            window = generate(spec, n)
            result = walk.mixing_time(window, args.epsilon, n_max_states=args.nmax_states)
            rows.append({"n": n, "G_n": window.modulus, "t_mix": result.t_mix})
        per_seq[name] = rows

    header = ["n"]
    for name, _ in sequences:
        header += [f"G_n[{name}]", f"t_mix[{name}]"]
    csv_rows = [header]
    for i in range(args.nmax):
        row = [per_seq[sequences[0][0]][i]["n"]]
        for name, _ in sequences:
            row += [per_seq[name][i]["G_n"], per_seq[name][i]["t_mix"]]
        csv_rows.append(row)

    manifest = _manifest(args, sequences)
    _emit(args, manifest, {"table": per_seq}, _csv(csv_rows))
    return 0


def cmd_spectrum(args) -> int:
    name, spec = _single_sequence(args)
    if args.top is not None and args.top < 1:
        raise DomainError(f"--top must be at least 1, got {args.top}")
    window = generate(spec, args.n)
    listed = window.modulus if args.top is None else min(args.top, window.modulus)
    if listed > _LIST_MAX:
        raise DomainError(f"N = {window.modulus}: a listing holds at most {_LIST_MAX} "
                          f"rows; pass --top {_LIST_MAX} or less")
    N = window.modulus
    eig = full_spectrum(window, n_max_states=args.nmax_states)
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
    csv_text = ""  # only the requested format is built
    if args.format == "json":
        payload["eigenvalues"] = [dict(zip(fields, row)) for row in rows]
    else:
        csv_text = _csv([fields, *rows])
    _emit(args, _manifest(args, [(name, spec)]), payload, csv_text)
    return 0


def cmd_mix(args) -> int:
    name, spec = _single_sequence(args)
    window = generate(spec, args.n)
    result = walk.mixing_time(window, args.epsilon, n_max_states=args.nmax_states)
    rows = [["t", "tv"]] + [[t, tv] for t, tv in result.tv_curve]
    payload = {
        "sequence": name,
        "n": result.n,
        "N": result.N,
        "epsilon": str(args.epsilon),
        "t_mix": result.t_mix,
        "tv_curve": [{"t": t, "tv": tv} for t, tv in result.tv_curve],
    }
    _emit(args, _manifest(args, [(name, spec)]), payload, _csv(rows))
    return 0


def cmd_bounds(args) -> int:
    name, spec = _single_sequence(args)
    window = generate(spec, args.n)
    report = build_report(
        name,
        window,
        args.epsilon,
        eta1_override=args.eta1,
        n_max_states=args.nmax_states,
    )
    fields = list(report.to_dict())
    rows = [fields, [report.to_dict()[f] for f in fields]]
    _emit(args, _manifest(args, [(name, spec)]), {"report": report.to_dict()}, _csv(rows))
    return 0


def cmd_verify(args) -> int:
    sequences = _resolve_sequences(args.seq)
    results = run_suites(
        args.suite,
        specs=dict(sequences),
        n_max=args.nmax,
        epsilon=args.epsilon,
        n_max_states=args.nmax_states,
    )
    ok = all(r.passed for r in results)
    payload = {"passed": ok, "suites": [r.to_dict() for r in results]}
    rows = [["suite", "passed", "metric", "worst_slack"]]
    rows += [[r.suite, r.passed, r.metric, r.worst_slack] for r in results]
    _emit(args, _manifest(args, sequences), payload, _csv(rows))
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    name, spec = _single_sequence(args)
    window = generate(spec, args.n)
    curve = simulate_tv(
        SimConfig(
            window=window,
            t_max=args.tmax,
            num_trajectories=args.trajectories,
            seed=args.seed,
        )
    )
    rows = [["t", "empirical_tv", "num_trajectories", "seed"]]
    rows += [[t, tv, args.trajectories, args.seed] for t, tv in curve]
    payload = {
        "sequence": name,
        "n": window.n,
        "N": window.modulus,
        "curve": [{"t": t, "empirical_tv": tv} for t, tv in curve],
        "num_trajectories": args.trajectories,
        "seed": args.seed,
    }
    _emit(args, _manifest(args, [(name, spec)]), payload, _csv(rows))
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
    dense = argparse.ArgumentParser(add_help=False)
    dense.add_argument(
        "--nmax-states",
        type=_parse_nmax_states,
        default=DEFAULT_N_MAX,
        help=f"dense state-space cap, 1..{DEFAULT_N_MAX} (default {DEFAULT_N_MAX})",
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

    p = sub.add_parser("table", parents=[csv_out, threshold, dense],
                       help="mixing-time table over n = 1..nmax")
    p.add_argument("--nmax", type=int, default=9)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("spectrum", parents=[csv_out, dense], help="eigenvalue table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--top", type=int, default=None,
                   help=f"keep only the top-m eigenvalues by modulus "
                   f"(needed when N > {_LIST_MAX})")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("mix", parents=[csv_out, threshold, dense],
                       help="mixing time and TV curve")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("bounds", parents=[json_out, threshold, dense],
                       help="bound report for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta1", type=float, default=None,
                   help="override lower growth base for the general lower bound")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", parents=[json_out, threshold, dense],
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
