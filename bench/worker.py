"""One benchmark run in a fresh process.

Imports cakelab from the checkout's src/, builds the workload's inputs,
prints READY, then runs items as a closed loop (one caller, one thread)
until it has run --items items or --seconds have passed.  Each item runs
under a hard per-item time limit enforced with an interval timer.  Outputs
are written as JSON for run.py, which checks them without cakelab.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402


class ItemTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler
    inside cakelab can swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def _classify(exc, ck):
    """Undecided class of a library exception, or None for a real error."""
    if isinstance(exc, ItemTimeout):
        return "timeout"
    if isinstance(exc, ck.FactorSearchBudget):
        return "FactorSearchBudget"
    if isinstance(exc, ck.DegreeCapExceeded):
        return "DegreeCapExceeded"
    if isinstance(exc, ck.MembershipUndecidable):
        return "MembershipUndecidable"
    return None


def _frac_pair(lo, hi):
    return [str(Fraction(lo)), str(Fraction(hi))]


# -- item bodies ---------------------------------------------------------------------


class Queries:
    def __init__(self, ck):
        self.ck = ck
        self.measures = {cdf: ck.Measure.make(ck.Poly(list(cdf))) for _, cdf in workloads.QUERY_FAMILIES}

    def run(self, spec):
        s = self.ck.Session([self.measures[spec["cdf"]]])
        y = s.cut(0, spec["x"], spec["a"])
        if (s.eval(0, spec["x"], y) - spec["a"]).sign() != 0:
            raise AssertionError("eval(cut(a)) != a")
        return y

    def record(self, spec, y):
        # untimed: an enclosure of the answer for the independent check
        return {"enclosure": _frac_pair(*y.approx(Fraction(1, 1 << 64)))}


class Refine:
    def __init__(self, ck):
        self.ck = ck

    def run(self, spec):
        ck = self.ck
        value = spec["value"]
        if value == "radical-sum":
            (r1, d1), (r2, d2) = spec["terms"]
            v = ck.nth_root(r1, d1) + ck.nth_root(r2, d2)
        else:
            m = ck.Measure.make(ck.Poly(list(spec["cdf"])))
            if value == "polyroot":
                v = ck.Session([m]).cut(0, 0, spec["a"])
            elif value == "cutroot":
                v = ck.Session([m]).cut(0, ck.nth_root(spec["r"], 2), spec["a"])
            else:
                other = ck.Measure.make(ck.Poly.monomial(spec["d"]))
                v = ck.isolate_equitable_cutpoint(m, other).value
        if spec["op"] == "approx":
            return {"enclosure": _frac_pair(*v.approx(Fraction(1, 1 << spec["bits"])))}
        return {"decimal": v.decimal(workloads.decimal_digits(spec["bits"]))}

    def record(self, spec, out):
        return out


class CliMix:
    def __init__(self, ck):
        import cakelab.cli

        self.cli = cakelab.cli

    def run(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(spec["argv"]))
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def record(self, spec, out):
        return out


def _settled_rss_mb():
    """Resident set size once garbage is collected and free heap pages are
    handed back, so it counts what the process keeps; None where /proc is
    unavailable."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, ValueError, IndexError):
        return None


# -- main loop -----------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True, help="checkout root holding src/cakelab")
    ap.add_argument("--workdir", required=True, help="directory for inputs and results")
    ap.add_argument("--items", type=int, required=True, help="items to run")
    ap.add_argument("--seconds", type=float, required=True, help="time budget of the loop")
    ap.add_argument("--limit", type=float, required=True, help="per-item limit L in seconds")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import cakelab as ck

    if os.path.commonpath([os.path.abspath(ck.__file__), src]) != src:
        raise SystemExit(f"cakelab imported from {ck.__file__}, not from {src}")
    os.makedirs(args.workdir, exist_ok=True)
    wl = {"queries": Queries, "refine": Refine, "cli-mix": CliMix}[args.workload](ck)
    specs = workloads.spec_stream(args.workload, args.seed, args.workdir)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _on_alarm)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    items = []
    clock = time.perf_counter
    start = clock()
    deadline = start + args.seconds
    kernel = speed.KERNEL[args.workload]
    kernel_at, kernel_ms = [], []

    def calibrate():
        kernel_at.append(clock())
        kernel_ms.append(speed.kernel_ms(kernel))

    speed.kernel_ms(kernel)  # warm
    calibrate()
    for index, spec in enumerate(specs):
        if clock() - kernel_at[-1] >= speed.CALIBRATE_EVERY_S:
            calibrate()
        if index >= args.items or (index > 0 and clock() >= deadline):
            break
        status, detail, payload = "ok", "", None
        if tracer:
            tracer.begin_item(index)
        signal.setitimer(signal.ITIMER_REAL, args.limit)
        t0 = clock()
        try:
            try:
                answer = wl.run(spec)
            finally:
                t1 = clock()
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (Exception, ItemTimeout) as exc:  # every outcome is recorded
            cls = _classify(exc, ck)
            status = cls or "error"
            detail = "" if cls else "".join(traceback.format_exception(exc))[-2000:]
        if tracer:
            tracer.end_item(t1 - t0, status != "timeout")
        if status == "ok":
            payload = wl.record(spec, answer)
        items.append({"ms": (t1 - t0) * 1e3, "at": t0, "status": status, "detail": detail, "out": payload})
    calibrate()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_mb = _settled_rss_mb()
    result = {"items": items, "peak_rss_mb": peak_kb / 1024.0, "rss_mb": rss_mb,
              "kernel_at": kernel_at, "kernel_ms": kernel_ms}
    if tracer:
        alg = sys.modules["cakelab.algebraic"]
        result["trace"] = tracer.summary()
        result["trace"]["intern_atoms"] = len(getattr(alg, "_root_intern", ())) + len(
            getattr(alg, "_polyroot_intern", ())
        )
        with open(os.path.join(args.workdir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for item, sid, parent, name, t0, t1 in tracer.spans:
                fh.write(json.dumps({"item": item, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
    tag = "traced" if args.trace else "untraced"
    with open(os.path.join(args.workdir, f"worker-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
