"""Run one workload in a fresh interpreter and print its samples as JSON.

    python3 perfbench/worker.py --workload soliton --seed 0 --seconds 5 --workdir DIR [--trace] [--tiny]

The interpreter is new, so the set-up time (the import of the workload's
entry point, its inputs, one warm-up call) is what every CLI invocation
pays, and the peak resident set belongs to this workload alone.  After
set-up the worker makes one checked warm run, which fills caches and is not
timed, then repeats timed runs while the next one would likely end within
``--seconds`` (at least one).  With ``--trace`` it alternates untraced and traced runs, so
the tracing overhead is measured under the same conditions.

Each run is bracketed by a fixed numpy reference kernel (``reference``),
timed just before and just after it.  On a shared host, other tenants slow
the CPU for stretches of seconds; run time over reference time cancels
that.  The last line of standard output is one JSON object for ``run.py``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, aggregate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Bound before bbm5 is imported, so nothing the program does to numpy.fft
# reaches the reference kernel.
_FFT, _IFFT = np.fft.fft, np.fft.ifft
_REF_RNG = np.random.default_rng(20250309)
_REF_SPECTRUM = _REF_RNG.standard_normal(2048) + 1j * _REF_RNG.standard_normal(2048)


def reference() -> float:
    """Wall seconds of a fixed kernel: 100 complex FFT pairs of 2048 points.

    Chosen among FFTs of 256, 2048 and 4096 points, small-array numpy calls
    from Python, allocation and formatting, and pairs of these, by how
    closely each kernel's time tracked the workloads' run times while other
    tenants slowed the host (README.md has the figures).
    """
    start = time.perf_counter()
    x = _REF_SPECTRUM
    for _ in range(100):
        u = _IFFT(x).real
        x = _FFT(u * u) * 1e-3 + _REF_SPECTRUM
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # Linux: KiB


def _versions() -> dict:
    import scipy

    pocketfft = any(name.startswith("_pocketfft") for name in dir(np.fft))
    return {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_fft_backend": "pocketfft" if pocketfft else "unknown"}


def _out_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def _attempt(wl, inp, tracer=None) -> dict:
    """One run, traced if a tracer is given, then its untraced check.

    ``wall_s`` is None when the run raised or failed its check.
    """
    try:
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            out = wl.run(inp)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        ok, margins, detail = wl.check(inp, out)
    except Exception:  # a raising run is a failed attempt, not a crash
        traceback.print_exc(file=sys.stderr)
        wall, ok, margins, detail = None, False, {}, "raised"
    return {"wall_s": wall if ok else None, "margins": margins, "detail": detail}


def _timed(wl, inp, tracer=None) -> dict:
    """An attempt between two timings of the reference kernel."""
    before = reference()
    run = _attempt(wl, inp, tracer)
    run["ref_s"] = 0.5 * (before + reference())
    return run


def _layer_sample(wl, inp, spans, counts) -> dict:
    sample = {f"span:{k}": v for k, v in aggregate(spans).items()}
    sample.update(counts)
    if wl.name == "drift_dense":
        sample["cli.out_bytes"] = _out_bytes(inp["out_dir"])
    return sample


def _write_spans(path: str, runs: list) -> None:
    """All spans of the traced runs: run, index, name, start, end, parent."""
    with open(path, "w") as fh:
        fh.write("run,index,name,start_s,end_s,parent\n")
        for r, spans in enumerate(runs):
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(f"{r},{i},{name},{start:.9f},{end:.9f},{parent}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=args.workdir)
    try:
        t0 = time.perf_counter()
        __import__(wl.entry)
        import_s = time.perf_counter() - t0

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()  # the set-up's own stepper builds are traced too
        inp = wl.prepare(args.seed, args.tiny, workdir)
        wl.warm_up(inp)
        setup_s = time.perf_counter() - T_START
        # host speed right after set-up, for run.py's scaled setup_s
        setup_ref_s = statistics.median(reference() for _ in range(3))
        setup_layers = None
        if tracer is not None:
            tracer.uninstall()
            spans, _counts = tracer.take()
            setup_layers = {f"span:{k}": v for k, v in aggregate(spans).items()}

        result = {
            "setup_s": setup_s,
            "setup_ref_s": setup_ref_s,
            "import_s": import_s,
            "steps": wl.steps(inp),
            "retained_bytes": wl.retained_bytes(inp),
            "fingerprint": wl.fingerprint(inp),
            "versions": _versions(),
            "setup_layers": setup_layers,
            "absent": tracer.absent if tracer else [],
            "absent_names": sorted(tracer.absent_names) if tracer else [],
            "runs": [],
            "traced_runs": [],
        }
        # the warm run is untimed, so it needs no reference timings
        result["runs"].append({**_attempt(wl, inp), "warm": True})
        result["peak_rss_mb"] = _peak_rss_mb()
        deadline = time.perf_counter() + args.seconds
        traced_next = False
        all_spans = []
        while True:
            started = time.perf_counter()
            if traced_next:
                run = _timed(wl, inp, tracer)
                spans, counts = tracer.take()
                all_spans.append(spans)
                if run["wall_s"] is not None:
                    run["layers"] = _layer_sample(wl, inp, spans, counts)
                result["traced_runs"].append(run)
            else:
                result["runs"].append({**_timed(wl, inp), "warm": False})
            traced_next = args.trace and not traced_next
            now = time.perf_counter()
            # stop before a run that would likely end past the deadline
            if now + (now - started) > deadline and (not args.trace or result["traced_runs"]):
                break
        if all_spans:
            name = f"spans-{wl.name}-seed{args.seed}-pid{os.getpid()}.csv"
            _write_spans(os.path.join(args.workdir, name), all_spans)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
