"""congames benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload repro_cell --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a
fresh process (``one_pass.py``), one at a time, with BLAS pinned to one
thread; passes repeat until ``--seconds`` have gone by, and at least
three run.  Pass ``i`` uses case seed ``(seed + i) % 10``, a seed of the
acceptance reproduction grid, so the same seed gives the same inputs.
Every cell or seed a pass plays is compared with ``reference.json``:
statuses, rounds and joint actions exactly, floats within the stated
tolerance.  A cell that raises, exits non-zero or disagrees counts as
failed.

``--trace 0`` reports, as medians over the passes (set-up also over five
set-up-only passes), the end-to-end metrics of ``BENCHMARK.json``:

* ``wall_s``: one pass, from the first import of congames to its last output;
* ``setup_s``: the time before the first round (imports, config parsing,
  game generation, building the players);
* ``rounds_per_s``: rounds played divided by the time inside ``game.run``;
* ``peak_rss_mb``: the peak resident memory of the pass's process.

``failed_ratio`` (failed over attempted cells or seeds) is printed with
them; the result line carries it as ``failed`` and ``attempted``.

``--trace 1`` alternates untraced and traced passes on the same case and
reports the per-layer metrics of the traced passes (see ``tracer.py``),
``trace.overhead_ratio`` (traced over untraced ``wall_s``) and
``failed_ratio``.  Traced passes must reproduce the reference too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--size tiny``
runs every workload at a few rounds, for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CASES, HORIZON, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SETUP_PROBES = 5
# every run must end within 180 s; no pass starts past this budget
BUDGET_S = 165.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_pass(workload, case, size, trace, setup_only, time_left):
    """One pass in a fresh process; its record, or None if it failed."""
    cmd = [
        sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
        "--case", str(case), "--size", size, "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=os.environ | BLAS_ENV, capture_output=True,
            text=True, timeout=max(time_left, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"pass {workload} case {case} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass {workload} case {case} exited {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _same(got, want, tol) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_same(got[k], want[k], tol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_same(g, w, tol) for g, w in zip(got, want)))
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and math.isclose(got, want, rel_tol=tol["rtol"], abs_tol=tol["atol"]))
    return got == want


def count_failed(record, expected, tol) -> int:
    """Cells of one pass that failed or disagree with the reference."""
    cells = expected["cells"]
    if record is None or record.get("exit_code") != expected.get("exit_code"):
        return len(cells)
    if len(record["cells"]) != len(cells):
        return len(cells)
    return sum(not _same(g, w, tol) for g, w in zip(record["cells"], cells))


def run_stamp() -> dict:
    """Commit, machine and library versions the figures were taken with."""
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError):
            return "unknown"

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "congames").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": BLAS_ENV,
    }


def _spread(values) -> str:
    return f"median of {len(values)}; min {min(values):.6g}, max {max(values):.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full", choices=sorted(HORIZON))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "congames" / "__init__.py").is_file():
        print(f"no congames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    tol = reference["tolerance"]
    expected = reference[args.size][args.workload]

    start = time.monotonic()

    def time_left():
        return BUDGET_S - (time.monotonic() - start)

    print("run stamp:", json.dumps(run_stamp(), sort_keys=True))
    attempted = failed = 0
    setup = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            rec = run_pass(args.workload, (args.seed + k) % CASES, args.size, 0,
                           True, time_left())
            if rec is None:  # a failed probe counts as one failed attempt
                attempted += 1
                failed += 1
            else:
                setup.append(rec["setup_s"])

    plain, traced = [], []
    longest = 0.0
    twin = None
    i = 0
    while (len(plain) + len(traced) < (2 if args.trace else MIN_PASSES)
           or time.monotonic() - start < args.seconds):
        if time_left() < 1.5 * longest:
            break
        with_trace = args.trace and i % 2 == 1
        case = (args.seed + (i // 2 if args.trace else i)) % CASES
        began = time.monotonic()
        rec = run_pass(args.workload, case, args.size, int(with_trace), False,
                       time_left())
        longest = max(longest, time.monotonic() - began)
        want = expected[str(case)]
        attempted += len(want["cells"])
        bad = count_failed(rec, want, tol)
        if not with_trace:
            twin = rec
        elif rec is not None and twin is not None and rec["cells"] != twin["cells"]:
            # a traced pass must reproduce its untraced twin bit for bit
            bad = len(want["cells"])
        failed += bad
        if rec is not None:
            (traced if with_trace else plain).append(rec)
        i += 1

    failed_ratio = failed / attempted
    values: dict[str, list] = {}
    if plain:
        values["wall_s"] = [r["wall_s"] for r in plain]
        values["setup_s"] = setup + [r["setup_s"] for r in plain]
        values["rounds_per_s"] = [r["rounds"] / r["engine_s"] for r in plain]
        values["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
    for r in traced:
        for name, v in r["layers"].items():
            values.setdefault(name, []).append(v)
    if plain and traced:
        values["trace.overhead_ratio"] = [
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(values["wall_s"])
        ]
    values["failed_ratio"] = [failed_ratio]

    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {
        m["name"]: {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
        for m in names if values.get(m["name"])
    }
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"trace {args.trace}: {len(plain)} untraced and {len(traced)} traced passes")
    print(f"  {'failed_ratio':<40} {failed_ratio:>14.6g} {'ratio':<6} "
          f"({failed} failed of {attempted} attempted)")
    for m in names:
        if m["name"] in metrics and m["name"] != "failed_ratio":
            print(f"  {m['name']:<40} {metrics[m['name']]['value']:>14.6g} "
                  f"{m['unit']:<6} ({_spread(values[m['name']])})")
    if plain and not args.trace:
        print("  workload properties (median over the passes):")
        for name in plain[0]["properties"]:
            v = [r["properties"][name] for r in plain]
            print(f"    {name:<38} {statistics.median(v):>14.6g}")

    complete = len(metrics) == len(names)
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
