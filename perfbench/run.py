"""pnrcal benchmark: one workload per invocation, result as the last line.

    python3 perfbench/run.py --workload closure|fit-sweep|cli|budget \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout; pnrcal is imported from `src/`.
The workload runs in a child process (worker.py) so that its peak RSS can
be read here from the child's resource usage.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`;
names and units are those of BENCHMARK.json).
Exits non-zero without a result line when the checkout has no pnrcal
sources or the workload cannot run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closure", "fit-sweep", "cli", "budget")
# the workload must end well inside the 180 s a run may take
TIMEOUT_S = 170.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke test only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pnrcal" / "__init__.py").is_file():
        print(f"error: no pnrcal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    result_path = out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)

    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result_path)] + (["--tiny"] if args.tiny else [])
    # a session of its own, so that a timeout also stops the commands the
    # worker runs
    with subprocess.Popen(cmd, cwd=ROOT, start_new_session=True) as child:
        try:
            code = child.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            for work in out.glob(f"work-*-{child.pid}"):
                shutil.rmtree(work, ignore_errors=True)
            print(f"error: workload exceeded {TIMEOUT_S} s", file=sys.stderr)
            return 3
    if code != 0 or not result_path.is_file():
        print(f"error: worker exited {code}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = json.loads(result_path.read_text())
    metrics = result["metrics"]
    if not args.trace:
        # largest RSS of the worker and any process it waited for (ru_maxrss
        # is in KiB on Linux)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        print(f"summary peak_rss_mb={metrics['peak_rss_mb']:.6g}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
