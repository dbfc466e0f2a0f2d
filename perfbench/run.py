"""DNN-occu serving benchmark: one command, every metric, every answer checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-mixed-h32 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same workload with the layers' entry points wrapped
and the program's counters on, and reports the per-layer metrics; its
``traced.*`` figures against an untraced run give the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people, the environment block among them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    from perfbench.workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no repro sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.answers import Checker
    from perfbench.env import environment, refused_vars
    from perfbench.layers import LAYER_METRICS
    from perfbench.probes import Probes
    from perfbench.workloads import (CONFIG, MODEL_SEED, WORKDIR, WORKLOADS,
                                     stop_spawn_helpers)

    args = _parse(argv)
    refused = refused_vars()
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set: "
              "each changes the program measured", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    # started first, so the check processes import while inputs are made
    checker = Checker(CONFIG, MODEL_SEED)
    probes = Probes() if args.trace else None
    if probes is not None:
        probes.install()
    try:
        out = WORKLOADS[args.workload](args.seed, args.seconds, checker,
                                       probes)
    finally:
        if probes is not None:
            probes.uninstall()
        checker.close()
        stop_spawn_helpers()

    if probes is not None:
        out.layers["traced.throughput_rps"] = out.metrics["throughput_rps"]
        for name in ("latency_p50_ms", "latency_p95_ms"):
            out.layers["traced." + name] = (out.notes[name], "ms")
        out.layers["process.peak_rss_mb"] = (out.notes["peak_rss_mb"], "MiB")
        spans = WORKDIR / f"spans-{args.workload}-seed{args.seed}.json"
        probes.write(spans)
        out.notes["spans_file"] = str(spans.relative_to(ROOT))
        missing = set(LAYER_METRICS) - set(out.layers)
        if missing:
            raise RuntimeError(f"per-layer metrics not computed: {missing}")
    reported = out.layers if args.trace else out.metrics

    env = environment(ROOT, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      hidden=CONFIG.hidden)
    print("environment " + json.dumps(env, sort_keys=True))
    print("notes " + json.dumps(out.notes, sort_keys=True))
    succeeded = out.attempted - out.failed
    print(f"requests sent {out.attempted} succeeded {succeeded} "
          f"failed {out.failed} error_rate "
          f"{out.failed / max(1, out.attempted):.6f}")
    for name, (value, unit) in reported.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
