"""Benchmark of the recwalk CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from its
src/ directory, so nothing needs installing.  One client runs the
workload's CLI invocations one after another (a closed loop, no
concurrency), each in a fresh interpreter pinned to one CPU, and repeats
the workload while the next repetition is expected to end within
--seconds.  Every output is checked against the exact reference in oracle.py.  The last line of
stdout is the result object; the lines before it record the environment
and the raw samples, which are also written under .perfbench-out/.

--trace 0 reports the end-to-end metrics (medians over repetitions);
wall_s and setup_s are scaled by the calibrate.py run that precedes each
repetition, so that a shared host's slow stretches cancel out.
--trace 1 reports the per-layer metrics: it alternates one fresh-interpreter
repetition (for rusage) with two in-process replays through
recwalk.cli.main, one plain and one with spans recorded by tracer.py.

The seed is passed to the program only as `simulate --seed`; the other
workloads have fixed inputs.  See README.md for why each workload and
metric is there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# A hung or runaway invocation is killed and counted as failed.
INVOCATION_LIMIT_S = 30.0
# Nothing new starts this long after launch, so every run exits within 180 s.
RUN_BUDGET_S = 150.0
# Import-time samples taken before each repetition.
SETUP_PER_REP = 2
# wall_s and setup_s are scaled to the speed at which calibrate.py takes
# this long (about its median on the 2-vCPU Xeon host the benchmark was
# written on).  Each pass is divided by the calibration run just before it.
CAL_REF_S = 0.4
EPS = Fraction(1, 4)
# The acceptance test's tolerance for the empirical TV curve at pow3 n=3.
MC_TOL = 5e-3

WORKLOAD_NAMES = ("sweep", "dense-smooth", "dense-rough", "simulate")

SUITES = ("eigmod-bound", "angle-cover", "lifting", "multiset-domination",
          "ubl-consistency")
SELF_AND_CALLS = ("spectrum.compute_spectrum", "spectrum.slem_streaming",
                  "spectrum.unnormalized_values", "walk.mixing_time",
                  "walk.tv_to_uniform", "walk.evolve")
SELF_ONLY = ("cli.main", "walk.step_distribution", "bounds.build_report",
             "bounds.ubl_implied_t", "montecarlo.simulate_tv",
             *(f"verify.{s}" for s in SUITES))


@dataclass
class Invocation:
    argv: list[str]
    check: Callable[[str], list[str]]  # stdout of a zero exit -> problems
    footprint: dict
    # A probe of a documented defect: a wrong answer is reported as a known
    # defect (check.known_defects), a crash or timeout as a failure.
    known_defect: bool = False


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    passes: int = 0  # workload passes started, fresh or in-process
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------- checks


def _csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()]


def check_table(nmax: int):
    expected = {
        name: [(oracle.sequence(name, n)[-1], oracle.t_mix(oracle.sequence(name, n), EPS))
               for n in range(1, nmax + 1)]
        for name in oracle.PRESETS
    }

    def check(out: str) -> list[str]:
        rows = _csv(out)
        names = [h[len("t_mix["):-1] for h in rows[0] if h.startswith("t_mix[")]
        if sorted(names) != sorted(expected) or len(rows) != nmax + 1:
            return [f"table shape: header {rows[0]}, {len(rows) - 1} rows"]
        problems = []
        for row in rows[1:]:
            n = int(row[0])
            for pos, name in enumerate(names):
                got = (int(row[1 + 2 * pos]), int(row[2 + 2 * pos]))
                if got != expected[name][n - 1]:
                    problems.append(f"table {name} n={n}: (G_n, t_mix) {got}, "
                                    f"exact {expected[name][n - 1]}")
        return problems

    return check


def check_verify(out: str) -> list[str]:
    doc = json.loads(out)
    suites = [s["suite"] for s in doc["suites"]]
    if doc["passed"] is not True or suites != list(SUITES):
        return [f"verify passed={doc['passed']} suites={suites}"]
    return []


def check_mix(name: str, n: int, eps: Fraction):
    t_exact, curve = oracle.tv_curve_exact(oracle.sequence(name, n), eps)

    def check(out: str) -> list[str]:
        rows = [(int(t), float(tv)) for t, tv in _csv(out)[1:]]
        problems = []
        if rows[-1][0] != t_exact:
            problems.append(f"mix {name} n={n} eps={eps}: t_mix {rows[-1][0]}, exact {t_exact}")
        for t, tv in rows[: len(curve)]:
            if abs(tv - float(curve[t])) > 1e-9:
                problems.append(f"mix {name} n={n}: TV({t}) {tv!r}, exact {curve[t]}")
        return problems

    return check


def check_bounds(name: str, n: int, streaming: bool):
    values = oracle.sequence(name, n)
    ref = oracle.spectral_reference(name, n, EPS)
    t_exact = None if streaming else oracle.t_mix(values, EPS)

    def check(out: str) -> list[str]:
        rep = json.loads(out)["report"]
        tag = f"bounds {name} n={n}{' streaming' if streaming else ''}"
        problems = []
        if (rep["n"], rep["N"]) != (n, values[-1]):
            problems.append(f"{tag}: (n, N) ({rep['n']}, {rep['N']})")
        if rep["exact_t_mix"] != t_exact:
            problems.append(f"{tag}: exact_t_mix {rep['exact_t_mix']}, exact {t_exact}")
        if streaming:
            if rep["ubl_implied_t"] is not None:
                problems.append(f"{tag}: ubl_implied_t {rep['ubl_implied_t']} past the cap")
        elif rep["ubl_implied_t"] is None or not ref.ubl_accepts(rep["ubl_implied_t"]):
            problems.append(f"{tag}: ubl_implied_t {rep['ubl_implied_t']}, "
                            f"reference {ref.ubl_implied_t}")
        if not ref.relaxation_matches(rep["relaxation_lower"]):
            problems.append(f"{tag}: relaxation_lower {rep['relaxation_lower']!r}, "
                            f"reference {ref.relaxation_lower!r}")
        return problems

    return check


def _sim_rows(out: str, T: int, seed: int, tmax: int) -> tuple[list[float], list[str]]:
    rows = _csv(out)[1:]
    if [int(r[0]) for r in rows] != list(range(tmax + 1)):
        return [], [f"simulate rows t = {[r[0] for r in rows]}"]
    if any((int(r[2]), int(r[3])) != (T, seed) for r in rows):
        return [], ["simulate does not echo trajectories and seed"]
    return [float(r[1]) for r in rows], []


def check_simulate_exact(name: str, n: int, T: int, seed: int, tmax: int = 20):
    """Small N: the empirical curve is within MC_TOL of the exact one."""
    _, curve = oracle.tv_curve_exact(oracle.sequence(name, n), EPS, t_stop=tmax)

    def check(out: str) -> list[str]:
        tvs, problems = _sim_rows(out, T, seed, tmax)
        for t, tv in enumerate(tvs):
            if abs(tv - float(curve[t])) > MC_TOL:
                problems.append(f"simulate {name} n={n} TV({t}) {tv!r}, exact {float(curve[t])}")
        return problems

    return check


def check_simulate_sparse(name: str, n: int, T: int, seed: int, tmax: int = 20):
    """T < N: every visited state holds at least 1/T > 1/N of the mass, so
    TV(t) = 1 - occupied/N exactly, with 1 <= occupied <= min(T, C(n+t-1, t))
    and occupied = 1 at t = 0, whatever the seed."""
    N = oracle.sequence(name, n)[-1]
    if T >= N:
        raise ValueError(f"needs fewer trajectories than states, got T={T}, N={N}")

    def check(out: str) -> list[str]:
        tvs, problems = _sim_rows(out, T, seed, tmax)
        for t, tv in enumerate(tvs):
            occupied = N * (1.0 - tv)
            cap = 1 if t == 0 else min(T, oracle.support_bound(n, t))
            if abs(occupied - round(occupied)) > 1e-3 or not 1 <= round(occupied) <= cap:
                problems.append(f"simulate {name} n={n} TV({t}) {tv!r}: "
                                f"{occupied} occupied states, at most {cap}")
        return problems

    return check


# ------------------------------------------------------------- workloads


def _dense(N: int) -> dict:
    return {"N": N, "complex128_MiB": N * 16 / 2**20, "float64_MiB": N * 8 / 2**20}


def _largest(names, n: int) -> int:
    return max(oracle.sequence(name, n)[-1] for name in names)


def build_workload(name: str, seed: int) -> list[Invocation]:
    """The invocations of one workload, each with its exact check."""
    if name == "sweep":
        return [
            Invocation(["table", "--nmax", "13"], check_table(13),
                       _dense(_largest(oracle.PRESETS, 13))),
            Invocation(["verify", "--suite", "all", "--nmax", "12"], check_verify,
                       _dense(_largest(oracle.PRESETS, 12))),
            Invocation(["mix", "--seq", "pow2", "--n", "5", "--epsilon", "5/16"],
                       check_mix("pow2", 5, Fraction(5, 16)), _dense(16),
                       known_defect=True),
        ]
    if name == "dense-smooth":
        return [
            Invocation(["bounds", "--seq", "pow2", "--n", "21"],
                       check_bounds("pow2", 21, False), _dense(2**20)),
            Invocation(["bounds", "--seq", "pow3", "--n", "13"],
                       check_bounds("pow3", 13, False), _dense(3**12)),
        ]
    if name == "dense-rough":
        N = oracle.sequence("fib-odd", 16)[-1]
        return [
            Invocation(["bounds", "--seq", "fib-odd", "--n", "16"],
                       check_bounds("fib-odd", 16, False), _dense(N)),
            Invocation(["bounds", "--seq", "fib-odd", "--n", "16",
                        "--nmax-states", "1000000"],
                       check_bounds("fib-odd", 16, True),
                       {"N": N, "streamed_chunk_MiB": 2**18 * 16 / 2**20}),
        ]
    if name == "simulate":
        big, small = 300_000, 2_000_000
        return [
            Invocation(["simulate", "--seq", "pow3", "--n", "14",
                        "--trajectories", str(big), "--seed", str(seed)],
                       check_simulate_sparse("pow3", 14, big, seed),
                       {"N": 3**13, "positions_MiB": big * 8 / 2**20}),
            Invocation(["simulate", "--seq", "pow3", "--n", "3",
                        "--trajectories", str(small), "--seed", str(seed)],
                       check_simulate_exact("pow3", 3, small, seed),
                       {"N": 9, "positions_MiB": min(small, 2**20) * 8 / 2**20}),
        ]
    raise ValueError(name)


# --------------------------------------------------------------- children


class Launcher:
    """Starts one child at a time and reaps it with wait4 for its rusage.

    A SIGALRM timer kills a child that outlives its limit; wait4 then
    returns, so no child is left behind.
    """

    def __init__(self, out_dir: Path, hard_deadline: float):
        self.out_dir = out_dir
        self.hard_deadline = hard_deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.pid = 0
        self.timed_out = False
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    def _on_alarm(self, signum, frame):
        if self.pid:
            self.timed_out = True
            os.kill(self.pid, signal.SIGKILL)

    def run(self, args: list[str], tag: str, limit: float = INVOCATION_LIMIT_S) -> dict:
        limit = min(limit, self.hard_deadline - time.monotonic())
        if limit <= 0:
            return {"rc": None, "wall_s": 0.0, "stdout": ""}
        out_path = self.out_dir / f"{tag}.out"
        err_path = self.out_dir / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            self.timed_out = False
            t0 = time.perf_counter()
            self.pid = os.posix_spawn(
                sys.executable, [sys.executable, *args], self.env,
                file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                              (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
            )
            signal.setitimer(signal.ITIMER_REAL, limit)
            reaped = False
            try:
                _, status, usage = os.wait4(self.pid, 0)
                reaped = True
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if not reaped:  # interrupted: leave no child behind
                    os.kill(self.pid, signal.SIGKILL)
                    os.waitpid(self.pid, 0)
                self.pid = 0
            wall = time.perf_counter() - t0
        return {
            "rc": None if self.timed_out else os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "user_s": usage.ru_utime,
            "sys_s": usage.ru_stime,
            "minor_faults": usage.ru_minflt,
            "maxrss_mb": usage.ru_maxrss / 1024,
            "stdout": out_path.read_text(),
        }


def _record(tally: Tally, inv: Invocation, out: str, rc) -> bool:
    """Count one invocation; True when its output is right."""
    tally.attempted += 1
    answered = False  # the program exited 0 with output that could be read
    if rc is None:
        problems = ["timed out"]
    elif rc != 0:
        problems = [f"exit code {rc}"]
    else:
        try:
            problems = inv.check(out)
            answered = True
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    if not problems:
        return True
    known = inv.known_defect and answered
    if known:
        tally.known_defects += 1
        problems = [f"known defect: {p}" for p in problems]
    else:
        tally.failed += 1
    tally.problems.extend(f"{' '.join(inv.argv)}: {p}" for p in problems)
    return known


def fresh_rep(launcher: Launcher, invocations, tally: Tally, rep: int) -> dict | None:
    """One repetition, each invocation in a fresh interpreter."""
    tally.passes += 1
    sample = defaultdict(float)
    for i, inv in enumerate(invocations):
        res = launcher.run(["-m", "recwalk.cli", *inv.argv], f"rep{rep}-{i}")
        if not _record(tally, inv, res["stdout"], res["rc"]):
            return None
        for key in ("wall_s", "user_s", "sys_s", "minor_faults"):
            sample[key] += res[key]
        sample["peak_rss_mb"] = max(sample["peak_rss_mb"], res["maxrss_mb"])
    return dict(sample)


def inproc_replay(launcher: Launcher, invocations, tally: Tally, rep: int,
                  trace: bool) -> dict | None:
    """All invocations in one interpreter through recwalk.cli.main."""
    tally.passes += 1
    tag = f"inproc{rep}-{'traced' if trace else 'plain'}"
    out_dir = launcher.out_dir / tag
    out_dir.mkdir(exist_ok=True)
    job = {"invocations": [inv.argv for inv in invocations], "trace": trace,
           "out_dir": str(out_dir), "result": str(out_dir / "result.json")}
    (out_dir / "job.json").write_text(json.dumps(job))
    limit = INVOCATION_LIMIT_S * len(invocations)
    res = launcher.run([str(HERE / "tracer.py"), str(SRC), str(out_dir / "job.json")],
                       tag, limit)
    if res["rc"] != 0:
        for inv in invocations:
            tally.attempted += 1
            tally.failed += 1
        tally.problems.append(f"{tag}: tracer exit {res['rc']}")
        return None
    doc = json.loads((out_dir / "result.json").read_text())
    ok = True
    for inv, r in zip(invocations, doc["invocations"]):
        ok &= _record(tally, inv, Path(r["stdout"]).read_text(), r["rc"])
    if not ok:
        return None
    return {"wall_s": sum(r["wall_s"] for r in doc["invocations"]),
            "spans": doc["spans"], "bindings": doc["bindings"]}


def warm_up(launcher: Launcher) -> None:
    """Import once, which compiles bytecode (a cost users pay once), and check
    that the package comes from this checkout."""
    probe = "import recwalk.cli, recwalk; print(recwalk.__file__)"
    warm = launcher.run(["-c", probe], "setup-warm")
    if warm["rc"] != 0 or not warm["stdout"].strip().startswith(str(SRC)):
        raise RuntimeError(f"recwalk does not import from {SRC}: {warm['stdout']!r}")


def calibrated_rep(launcher: Launcher, invocations, tally: Tally, rep: int) -> dict | None:
    """A fresh-interpreter pass, preceded by the calibration task and by
    import-only interpreters; times are also given at reference speed."""
    cal = launcher.run([str(HERE / "calibrate.py")], f"cal{rep}")
    if cal["rc"] != 0:
        raise RuntimeError("calibration task failed")
    imports = []
    for i in range(SETUP_PER_REP):
        res = launcher.run(["-c", "import recwalk.cli"], f"setup{rep}-{i}")
        if res["rc"] != 0:
            raise RuntimeError("import recwalk.cli failed")
        imports.append(res["wall_s"])
    sample = fresh_rep(launcher, invocations, tally, rep)
    if sample is None:
        return None
    scale = CAL_REF_S / cal["wall_s"]
    sample.update(cal_s=cal["wall_s"], setup_s=statistics.median(imports),
                  wall_ref_s=sample["wall_s"] * scale,
                  setup_ref_s=statistics.median(imports) * scale)
    return sample


# ------------------------------------------------------------------ spans


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self time (span minus its direct children) and calls per span name."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for i, (name, start, end, _, units) in enumerate(spans):
        module, func = name.split(".", 1)
        if module == "verify" and func.endswith("_suite"):
            name = "verify." + func[: -len("_suite")].replace("_", "-")
        self_s[name] += (end - start - child[i]) / 1e9
        calls[name] += 1
        work[name] += units
        if module == "recurrence":
            self_s["recurrence"] += (end - start - child[i]) / 1e9
    out = {f"{n}.self_s": self_s[n] for n in (*SELF_AND_CALLS, *SELF_ONLY, "recurrence")}
    out.update({f"{n}.calls": float(calls[n]) for n in SELF_AND_CALLS})
    out["montecarlo.trajectory_steps"] = float(work["montecarlo.simulate_tv"])
    return out


# ------------------------------------------------------------ environment


def environment(invocations) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "footprint": [{"argv": " ".join(i.argv), **i.footprint} for i in invocations],
    }


# ------------------------------------------------------------------- main


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return {"peak_rss_mb": "MiB", "ops_ok_share": "share"}.get(metric, "count")


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    launched = time.monotonic()

    if not (SRC / "recwalk" / "cli.py").is_file():
        print(f"perfbench: no recwalk sources under {SRC}", file=sys.stderr)
        return 2
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    invocations = build_workload(args.workload, args.seed)
    # Children inherit this affinity.  On a shared 2-vCPU host it halved the
    # spread of wall times within a run.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    launcher = Launcher(out_dir, launched + RUN_BUDGET_S)
    tally = Tally()

    warm_up(launcher)
    fresh, plain, traced = [], [], []
    start = time.monotonic()
    round_s: list[float] = []
    while not round_s or time.monotonic() - start + statistics.median(round_s) <= args.seconds:
        r0 = time.monotonic()
        rep = len(round_s)
        if not args.trace:
            fresh.append(calibrated_rep(launcher, invocations, tally, rep))
        else:
            fresh.append(fresh_rep(launcher, invocations, tally, rep))
            for trace in (rep % 2 == 0, rep % 2 == 1):  # alternate which goes first
                (traced if trace else plain).append(
                    inproc_replay(launcher, invocations, tally, rep, trace))
        round_s.append(time.monotonic() - r0)
        if time.monotonic() >= launcher.hard_deadline:
            break
    fresh, plain, traced = ([s for s in xs if s] for xs in (fresh, plain, traced))

    complete = fresh and (not args.trace or (plain and traced))
    if not complete:
        metrics = {}
    elif args.trace:
        layers = [layer_metrics(s["spans"]) for s in traced]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["proc.user_s"] = _median(fresh, "user_s")
        metrics["proc.sys_s"] = _median(fresh, "sys_s")
        metrics["proc.minor_faults"] = _median(fresh, "minor_faults")
        metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
        metrics["check.known_defects"] = tally.known_defects / tally.passes
    else:
        metrics = {
            "wall_s": _median(fresh, "wall_ref_s"),
            "peak_rss_mb": _median(fresh, "peak_rss_mb"),
            "setup_s": _median(fresh, "setup_ref_s"),
            "ops_ok_share": (tally.attempted - tally.failed) / tally.attempted,
        }

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(round_s),
        "samples": {"fresh": fresh,
                    "inproc_plain_s": [s["wall_s"] for s in plain],
                    "inproc_traced_s": [s["wall_s"] for s in traced]},
        "known_defects": tally.known_defects,
        "trace_bindings": traced[0]["bindings"] if traced else 0,
        "problems": tally.problems[:50],
        "environment": environment(invocations),
    }
    (out_dir / "detail.json").write_text(json.dumps(detail, indent=1))
    for line in tally.problems[:10]:
        print(f"perfbench: {line}")
    summary = {k: detail[k] for k in ("repetitions", "known_defects", "environment")}
    if fresh and not args.trace:
        summary["raw_medians_s"] = {k: _median(fresh, k) for k in ("wall_s", "setup_s", "cal_s")}
    print("perfbench: " + json.dumps(summary))
    result = {
        "correct": bool(complete) and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
