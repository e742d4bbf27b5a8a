"""AnonChan epoch benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload honest-n9 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: a workload
process sets up (``import repro``, build parameters, field and VSS, one
cold epoch) and then runs warm epochs back to back, a closed loop on one
thread: as many as last ``--seconds`` on the reference host (at least
eight), so a seed always runs the same epochs; two more fresh processes
only set up, so ``setup_s`` is a median of three.  With ``--trace 1``
one process runs each epoch seed untraced, then with layer spans, then
once more to count share views, and reports the per-layer metrics.
Every epoch's output is checked.

Lines before the last describe the run; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("honest-n9", "attacked-n9", "traced-mix-n4", "rb89-n4")
#: Environment switches that change what is measured; the workload
#: processes run with them unset.
PINNED = ("REPRO_FORCE_SCALAR", "REPRO_DEFAULT_TRANSPORT", "REPRO_TABLE_FREE_MIN")
THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 3
#: A run must end within this many seconds.
RUN_BUDGET_S = 170.0
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in PINNED:
        env.pop(name, None)
    for name in THREAD_CAPS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, mode: str, deadline: float, extra: tuple[str, ...] = ()) -> dict:
    """Run one workload process and return the JSON object it prints."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("run budget exhausted")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} process exceeded the run budget") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise WorkerError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failed(epoch: dict) -> bool:
    return bool(epoch["faults"] or epoch["bounded"])


def _describe_failures(epochs: list[dict]) -> None:
    for epoch in epochs:
        for reason in epoch["faults"]:
            print(f"epoch {epoch['index']}: fault: {reason}")
        for reason in epoch["bounded"]:
            print(f"epoch {epoch['index']}: bounded error: {reason}")


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, dict]:
    """The gated end-to-end metrics and the printed-only ones.

    ``main`` is the measuring process's output, ``setups`` the outputs
    of every process that set up (``main`` included).
    """
    checked = [s["cold"] for s in setups] + main["warm"]
    warm = [e for e in main["warm"] if e["wall_ns"] is not None]
    if not warm:
        raise WorkerError("no warm epoch completed")
    epochs_ms = [e["ref_ms"] for e in warm]
    # Counts do not depend on timing, so every completed epoch adds a
    # sample; the set-ups' cold epochs have seeds of their own.
    counted = [e for e in checked if e["wall_ns"] is not None]
    # Medians and means over the epochs: the work of an epoch moves with
    # its challenge bits, and a rare epoch loses messages to a cheater
    # that survived; neither should decide a run's figure.
    gated = {
        "epoch_ms_p50": (statistics.median(epochs_ms), "ms"),
        "msgs_per_s": (
            statistics.median(e["delivered"] / (e["ref_ms"] / 1e3) for e in warm),
            "msg/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.fmean(e["rss_mb"] for e in warm), "MB"),
        "wire_elements_per_epoch": (
            statistics.fmean(e["elements"] for e in counted), "count"),
        "rounds_per_epoch": (statistics.fmean(e["rounds"] for e in counted), "count"),
    }
    # Printed only: p90 needs ten samples beyond it, which only the
    # n=4 workloads can reach in a run; broadcast rounds and failures
    # read 0 on most workloads, which a relative bound cannot gate; the
    # raw wall times drift with the host's speed; the run totals swing
    # with a single jammed epoch or heavy challenge.
    printed = {
        "epoch_ms_p90": (
            (statistics.quantiles(epochs_ms, n=10, method="inclusive")[-1], "ms")
            if len(epochs_ms) >= TAIL_SAMPLES * 10 else None
        ),
        "epoch_wall_ms_p50": (
            statistics.median(e["wall_ns"] / 1e6 for e in warm), "ms"),
        "setup_wall_s": (statistics.median(s["setup_wall_s"] for s in setups), "s"),
        "calibration_pass_ms": (statistics.median(e["pass_ms"] for e in warm), "ms"),
        "broadcast_rounds_per_epoch": (
            statistics.fmean(e["broadcast_rounds"] for e in counted), "count"),
        "failed_share": (sum(map(_failed, checked)) / len(checked), "fraction"),
        "msgs_per_total_s": (
            sum(e["delivered"] for e in warm) / (sum(epochs_ms) / 1e3), "msg/s"),
        "epoch_peak_rss_max_mb": (
            max(e["rss_mb"] for e in [main["cold"], *warm] if e["rss_mb"]), "MB"),
    }
    return gated, printed


def _end_to_end(args, deadline: float) -> tuple[dict, list[dict], dict]:
    main = _worker(args, "measure", deadline)
    setups = [main] + [
        _worker(args, "setup", deadline, ("--cold-index", str(-k)))
        for k in range(1, SETUP_SAMPLES)
    ]
    metrics, printed = end_to_end(main, setups)
    warm = len(main["warm"])
    print(f"epochs: {warm} warm in the measuring process, plus the cold "
          f"epoch of each of {SETUP_SAMPLES} set-ups")
    for name, value in printed.items():
        if value is None:
            print(f"{name}: not reported ({warm} epochs; needs "
                  f">= {TAIL_SAMPLES * 10})")
        else:
            print(f"{name}: {value[0]:.6g} {value[1]}")
    print(f"setup_s samples: {[round(s['setup_s'], 4) for s in setups]}")
    print(f"process peak RSS, calibration passes included: "
          f"{main['process_peak_rss_mb']:.1f} MB")
    return metrics, [s["cold"] for s in setups] + main["warm"], main["env"]


def _per_layer(args, deadline: float) -> tuple[dict, list[dict], dict, list[str]]:
    # One file per workload, overwritten: the header names the seed.
    spans_path = HERE / "out" / f"spans-{args.workload}.jsonl"
    out = _worker(args, "trace", deadline, ("--spans", str(spans_path)))
    checked = [out["cold"]] + [e for pair in out["pairs"] for e in pair]
    faults = [
        f"epoch {index}: untraced, traced and counted runs differ in outputs or metrics"
        for index in out["mismatched"]
    ]
    metrics = {name: tuple(pair) for name, pair in out["layers"].items()}
    print(f"traced epochs: {len(out['pairs'])}, each run untraced, traced and "
          f"counted with the same seed; spans written to "
          f"{spans_path.relative_to(ROOT)}")
    return metrics, checked, out["env"], faults


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    pinned = {name: os.environ.get(name) for name in PINNED}
    print(f"pinned: {pinned} cleared; {', '.join(THREAD_CAPS)}=1")
    try:
        if args.trace:
            metrics, checked, env, faults = _per_layer(args, deadline)
        else:
            metrics, checked, env = _end_to_end(args, deadline)
            faults = []
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"environment: {env}")
    _describe_failures(checked)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")

    faults += [f for e in checked for f in e["faults"]]
    failed = sum(_failed(e) for e in checked)
    print(json.dumps({
        "correct": not faults,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
