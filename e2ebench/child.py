"""One fresh interpreter running the timed passes of one workload.

Started by ``run.py``; not meant to be run by hand::

    python3 e2ebench/child.py --root ROOT --workload paper --phase cold \\
        --seed 1 --cache-dir DIR --trace 0 --out result.json

Imports the program from ``ROOT/src``, builds the workload's inputs,
stamps the monotonic clock (the end of set-up, which the parent
subtracts from its spawn time), runs the passes (none for ``--phase
setup``, a set-up probe) and writes one JSON result. With ``--trace 1``
every layer wrapper of ``tracing.TARGETS`` is installed after set-up
and the spans go into the result as well.
"""

import argparse
import json
import os
import resource
import sys
import time


def _json_default(value):
    # NumPy scalars reach the outputs through the program's results.
    if hasattr(value, "item"):
        return value.item()
    raise TypeError("not JSON serializable: %r" % (value,))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--phase", default="cold")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit("repro imported from %s, not %s"
                         % (repro.__file__, src))
    import workloads
    import tracing

    ctx = workloads.SETUP[args.workload](args.seed)
    ready = time.monotonic()

    tracer = None
    sites = {}
    if args.trace:
        tracer = tracing.Tracer()
        sites = tracer.install()
    try:
        passes = ([] if args.phase == "setup" else
                  workloads.RUN[args.workload](ctx, args.phase,
                                               args.cache_dir, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "pid": os.getpid(),
        "ready": ready,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["sites"] = sites
    with open(args.out, "w") as handle:
        json.dump(result, handle, default=_json_default)
    return 0


if __name__ == "__main__":
    sys.exit(main())
