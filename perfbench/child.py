"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py '<spec json>'

The spec names ``commands`` (a list of ``binrisk`` argument lists, run
in order through ``binrisk.cli.main``), and optionally ``trace`` and
``spans_out``.  The child times the import of the CLI up to a built
parser (``setup_s``), then the commands (``report_s``, ``cpu_s``), and
prints one JSON line with those, the exit codes, the peak resident
memory of itself and its children, and, when traced, the per-layer
metrics.  The caller sets ``PYTHONPATH`` and pins BLAS to one thread.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# The markers bracket the CLI import, so that run.py can pick its lines out
# of ``python -X importtime`` output.
MARK = "@@perfbench import"

sys.stderr.write(MARK + " begin\n")
sys.stderr.flush()
import binrisk.cli as cli  # noqa: E402

cli.build_parser()
T_READY = time.perf_counter()
sys.stderr.write(MARK + " end\n")
sys.stderr.flush()


def own_peak_rss_kb() -> int:
    """Peak resident memory of this process since it was exec'd.

    ``ru_maxrss`` also counts the memory the parent held when it started
    this process, so it would report the harness, not the operation.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer  # the script's own directory is on sys.path

        tracer = Tracer(binary=spec.get("binary", ""))
        tracer.install()
    captured = io.StringIO()
    codes = []
    cpu0 = cpu_seconds()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        for argv in spec["commands"]:
            codes.append(cli.main(argv))
    t2 = time.perf_counter()
    cpu1 = cpu_seconds()
    rss_kb = own_peak_rss_kb() + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": T_READY - T0,
        "report_s": t2 - t1,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": rss_kb / 1024.0,
        "codes": codes,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
