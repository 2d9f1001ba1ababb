"""The fresh interpreter that imports turanlab and runs one workload.

    python3 perfbench/child.py setup <root> <workload> <seed> <workdir>
    python3 perfbench/child.py run <root> <workload> <seed> <seconds> <trace> <workdir> <tiny> <spans> <setups>

``setup`` times ``import turanlab`` plus one cold warm-up scan.  ``run``
warms up, then drives units in a closed loop (one caller, the next unit
only after the previous one returns) until ``seconds`` of unit time have
been measured; between units it starts ``setups`` fresh ``setup``
interpreters, spread evenly over the measured time so that one slow phase
of a shared machine does not move all of them.  Both print one JSON object
as their last line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

# OpenBLAS threads per interpreter.  At its default of 2 on a shared 2-core
# host one G(1000, 1/2) trial took 2.1-2.6 s with 1 thread and 3.2-9.7 s
# with 2, unit to unit; the n = 8-10 solves of g6_n8to10 never thread.
BLAS_THREADS = "1"


def spawn(args: list[str], timeout: float) -> dict:
    """Run this script in a fresh interpreter and parse its last output line."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          env={**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS},
                          capture_output=True, text=True, timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_turanlab(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import turanlab

    if not os.path.abspath(turanlab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"turanlab imported from {turanlab.__file__}, not from {src}")
    return turanlab


def run_unit(scanner, unit) -> tuple[float, dict]:
    """One timed unit: scan plus report serialisation, as ``turanlab scan`` does."""
    if unit.kind == "enum":
        source = scanner.EnumerationSource(7)
        options = scanner.ScanOptions(connected_only=True, index_range=unit.index_range)
    elif unit.kind == "g6":
        source = scanner.Graph6Source(path=unit.path)
        options = scanner.ScanOptions()
    else:
        source = scanner.RandomSource(unit.n, 0.5, 1, unit.trial_seed)
        options = scanner.ScanOptions()
    t0 = time.perf_counter()
    report = scanner.scan(source, unit.checks, options)
    report.to_json_bytes()
    dt = time.perf_counter() - t0
    return dt, report.to_dict()


def blas_info() -> dict:
    """OpenBLAS version and thread count of the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    info = {"blas": None, "blas_threads": None}
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def cmd_setup(root: str, workload: str, seed: int, workdir: str) -> dict:
    t0 = time.perf_counter()
    import_turanlab(root)
    import_s = time.perf_counter() - t0
    from turanlab import scanner

    import workloads

    unit = workloads.make_warmup(workload, seed, workdir)
    warmup_s, report = run_unit(scanner, unit)
    return {"import_s": import_s, "warmup_s": warmup_s,
            "ok": report["graphs_processed"] == unit.expected_processed}


def run_loop(tl, workload: str, seed: int, seconds: float, trace: bool, workdir: str,
             tiny: bool = False, pins: list[str] | None = None, tamper=None,
             sample_setup=None, setup_count: int = 0) -> dict:
    """Closed loop over units 0, 1, 2, ... until ``seconds`` of unit time.

    With ``trace`` every unit runs untraced and traced (alternating which
    goes first) so the two digests and wall times can be compared.
    ``tamper`` alters a report before verification; the self-test uses it.
    ``sample_setup`` is called ``setup_count`` times, spread over the loop.
    """
    import traceback

    import tracing
    import verify
    import workloads

    scanner = tl.scanner
    top_k = scanner.ScanOptions().top_k
    tracer = tracing.Tracer() if trace else None
    unit_ms: list[float] = []
    consumed: list[int] = []
    failed: set[int] = set()
    problems: list[str] = []
    digests: dict[int, str] = {}
    setup: list[dict] = []
    reproduced = skipped = processed = 0
    timed = traced_s = untraced_s = 0.0
    wall_cap = time.monotonic() + max(3 * seconds, seconds + 60)
    k = 0

    def fail(k: int, msg: str):
        failed.add(k)
        problems.append(f"unit {k}: {msg}")

    while timed < seconds and time.monotonic() < wall_cap:
        if len(setup) < setup_count and timed >= seconds * len(setup) / setup_count:
            setup.append(sample_setup())
        unit = workloads.make_unit(workload, seed, k, workdir, tiny)
        try:
            if trace:
                runs = {}
                for traced in ((False, True) if k % 2 == 0 else (True, False)):
                    if traced:
                        tracer.install(k)
                    try:
                        runs[traced] = run_unit(scanner, unit)
                    finally:
                        if traced:
                            tracer.uninstall()
                dt, report = runs[False]
                untraced_s += dt
                traced_s += runs[True][0]
                timed += dt + runs[True][0]
                if verify.content_digest(runs[True][1]) != verify.content_digest(report):
                    fail(k, "traced and untraced digests differ")
            else:
                dt, report = run_unit(scanner, unit)
                timed += dt
        except Exception:
            fail(k, "scan raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
            k += 1
            continue
        unit_ms.append(dt * 1e3)
        consumed.append(unit.consumed)
        processed += report["graphs_processed"]
        if tamper is not None:
            tamper(k, report)
        digest = digests[k] = verify.content_digest(report)
        if pins is not None and k < len(pins) and digest != pins[k]:
            fail(k, f"digest {digest[:12]} differs from the pinned reference")
        for msg in verify.invariants(report, unit.expected_processed, top_k):
            fail(k, msg)
        done, skip, bad = verify.reproduce(report, tl)
        reproduced += done
        skipped += skip
        for msg in bad:
            fail(k, msg)
        k += 1

    while len(setup) < setup_count:
        setup.append(sample_setup())
    if not trace and 0 in digests:
        # Repetition: unit 0 again, after the measured loop.
        try:
            _, again = run_unit(scanner, workloads.make_unit(workload, seed, 0, workdir, tiny))
            if verify.content_digest(again) != digests[0]:
                fail(0, "digest differs on repetition")
        except Exception:
            fail(0, "scan raised on repetition: " + traceback.format_exc(limit=3).strip().splitlines()[-1])

    out = {
        "attempted": k,
        "failed": len(failed),
        "problems": problems[:20],
        "unit_ms": unit_ms,
        "consumed": consumed,
        "digests": list(digests.values()),
        "reproduced": reproduced,
        "reproduce_skipped": skipped,
        "setup": setup,
    }
    if trace:
        out["layers"] = tracer.layer_metrics(sum(consumed), processed, traced_s, untraced_s)
        out["missing_layers"] = tracer.missing
        out["tracer"] = tracer
    return out


def load_pins(workload: str, seed: int) -> list[str] | None:
    """Pinned digests of the first units of the default seed, if this is it."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_digests.json")
    with open(path, encoding="ascii") as fh:
        ref = json.load(fh)
    return ref["units"].get(workload) if seed == ref["seed"] else None


def cmd_run(root: str, workload: str, seed: int, seconds: float, trace: bool,
            workdir: str, tiny: bool, spans_path: str, setup_count: int) -> dict:
    import resource

    tl = import_turanlab(root)
    import numpy as np

    import workloads
    from turanlab import scanner

    warm = workloads.make_warmup(workload, seed, workdir)
    run_unit(scanner, warm)
    pins = None if tiny else load_pins(workload, seed)
    out = run_loop(tl, workload, seed, seconds, trace, workdir, tiny, pins,
                   sample_setup=lambda: spawn(["setup", root, workload, str(seed), workdir], 60.0),
                   setup_count=setup_count)
    if trace:
        out.pop("tracer").write_spans(spans_path)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        **blas_info(),
    }
    return out


def main(argv: list[str]) -> int:
    mode, root, workload, seed = argv[0], argv[1], argv[2], int(argv[3])
    if mode == "setup":
        out = cmd_setup(root, workload, seed, argv[4])
    else:
        seconds, trace, workdir, tiny = float(argv[4]), argv[5] == "1", argv[6], argv[7] == "1"
        out = cmd_run(root, workload, seed, seconds, trace, workdir, tiny, argv[8], int(argv[9]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
