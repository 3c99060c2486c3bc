"""Replay CLI invocations in one interpreter, optionally recording spans.

    python3 perfbench/tracer.py SRC_DIR JOB_JSON

JOB_JSON names the invocations (argv lists), a directory for their
outputs, the result file and whether to trace.  Each invocation calls
recwalk.cli.main(argv) with stdout captured.  With tracing on, every
public function of the layer modules is replaced, wherever a recwalk
module binds it, by a wrapper that appends a span (name, start, end,
parent) to an in-memory list; the list is written once, at the end.
Generator functions are left alone: their span would end before their
work is done.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time

LAYERS = ("cli", "recurrence", "spectrum", "walk", "bounds", "verify", "montecarlo")

# Work counters read from a call's arguments, keyed by span name.
WORK = {
    "montecarlo.simulate_tv": lambda config: config.num_trajectories * config.t_max,
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, work]
        self.stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, work = self.spans, self.stack, WORK.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(
                [name, clock(), 0, stack[-1] if stack else -1,
                 work(*args, **kwargs) if work else 0]
            )
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced


def install(recorder: Recorder) -> int:
    """Swap each public layer function for its traced wrapper, by identity."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"recwalk.{layer}")
        for attr, fn in vars(module).items():
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or inspect.isgeneratorfunction(fn)
                or (layer == "cli" and attr != "main")
            ):
                continue
            wrappers[id(fn)] = (fn, recorder.wrap(f"{layer}.{attr}", fn))
    bound = 0
    for name, module in list(sys.modules.items()):
        if name != "recwalk" and not name.startswith("recwalk."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                bound += 1
    return bound


def main() -> int:
    src, job_path = sys.argv[1], sys.argv[2]
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, src)
    cli = importlib.import_module("recwalk.cli")
    recorder = Recorder()
    bindings = install(recorder) if job["trace"] else 0
    entry = cli.main  # looked up after install, so the traced main when tracing

    results = []
    for i, argv in enumerate(job["invocations"]):
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = entry(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
        path = f"{job['out_dir']}/inproc-{i}.out"
        with open(path, "w") as fh:
            fh.write(buf.getvalue())
        results.append({"rc": rc, "wall_s": wall, "stdout": path})

    with open(job["result"], "w") as fh:
        json.dump({"bindings": bindings, "invocations": results,
                   "spans": recorder.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
