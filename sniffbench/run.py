"""Run one benchmark workload and print its metrics as JSON.

.. code-block:: console

    $ python3 sniffbench/run.py --workload paper-small --seed 7 \\
          --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``repro`` from its
``src/``.  ``--trace 0`` measures the end-to-end metrics with the
program's own observability switched off and times corrected for the
host's drifting speed (:mod:`sniffbench.hostspeed`); ``--trace 1``
wraps each layer's entry points (:mod:`sniffbench.tracer`), reports
the per-layer metrics, and writes the spans to ``.sniffbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the host, the git revision, the output digest and
the per-pass samples.  Exit status: 0 when every check passed, 1 when
a check failed, 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-small", "sniffer-stream"),
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds",
        type=float,
        default=30.0,
        help="how long the timed passes run (at least one pass)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for the self-tests",
    )
    return parser.parse_args(argv)


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict[str, object]:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"sniffbench: no src/repro under {ROOT}; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import repro.obs

    from sniffbench.workloads import run_workload

    repro.obs.set_enabled(False)
    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        size=args.size,
        trace=bool(args.trace),
    )
    info = dict(result.info)
    tracer = result.tracer
    if tracer is not None:
        out = ROOT / ".sniffbench" / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(out)
        info["spans"] = len(tracer.spans)
        info["trace_file"] = str(out.relative_to(ROOT))
    info.update(
        workload=args.workload,
        seed=args.seed,
        size=args.size,
        trace=args.trace,
        problems=result.problems,
        host=host_fingerprint(),
        git=git_revision(ROOT),
    )
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": _with_units(result.metrics, args.trace),
            }
        )
    )
    return 0 if result.correct else 1


def _with_units(metrics: dict[str, float], trace: int) -> dict:
    """``metrics`` in ``BENCHMARK.json`` order, each with its unit.

    Raises:
        ValueError: if the run measured a different set of metrics
            than ``BENCHMARK.json`` declares for this mode.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(metrics):
        raise ValueError(
            f"measured {sorted(metrics)}, BENCHMARK.json declares "
            f"{sorted(names)}"
        )
    return {
        metric["name"]: {
            "value": metrics[metric["name"]],
            "unit": metric["unit"],
        }
        for metric in declared
    }


if __name__ == "__main__":
    sys.exit(main())
