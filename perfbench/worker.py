"""One workload process: a fresh interpreter that sets up and runs epochs.

``run.py`` starts this script with a pinned environment and reads the
JSON object it prints last.  Modes:

- ``setup``: import ``repro``, build the workload, run the cold epoch
  (index ``--cold-index``), report the set-up time and stop;
- ``measure``: the same set-up, then warm epochs back to back (closed
  loop, one thread): as many as fill ``--seconds`` on the reference
  host, at least ``MIN_WARM_EPOCHS``, in whole input cycles;
- ``trace``: the same set-up, then each epoch seed untraced, traced with
  layer spans, and once more (untimed) to count share views; reports
  per-layer metrics and writes the spans to ``--spans``.

The number of epochs follows from ``--seconds`` alone, never from the
clock, so a seed always runs the same epochs.  An epoch's result is
dropped before the next epoch starts: holding one (hundreds of MB at
n=9) slows the epochs after it by up to a third.
"""

import time

T0_NS = time.perf_counter_ns()  # set-up time is measured from here

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from run import HERE, PINNED, ROOT  # noqa: E402

#: A measuring run times at least this many warm epochs, however long
#: they take: an epoch's work moves with its challenge bits, and with 5
#: epochs the median of attacked-n9 still spread 0.08-0.10 over seeds.
MIN_WARM_EPOCHS = 8

#: A traced pair runs its epoch seed three times, the traced run slower
#: than the others; pairs are counted as this many epochs.
PAIR_COST = 4

#: Duration (ms) of one calibration pass on the reference host.  Times
#: are reported at that speed: a wall time measured while a pass takes
#: ``c`` ms is scaled by ``REFERENCE_PASS_MS / c``.
REFERENCE_PASS_MS = 25.0


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def _epoch_record(setup, index, inputs, run, wall_ns, rss_mb, pass_ms) -> dict:
    """Run the output check and keep what the metrics need."""
    import workloads

    if isinstance(run, BaseException):
        return {
            "index": index,
            "wall_ns": None,
            "rss_mb": None,
            "pass_ms": pass_ms,
            "faults": [f"raised {type(run).__name__}: {run}"],
            "bounded": [],
            "delivered": 0,
        }
    verdict = workloads.check(setup, inputs, run)
    metrics = run.result.metrics
    receiver = run.result.outputs.get(workloads.RECEIVER)
    return {
        "index": index,
        "wall_ns": wall_ns,
        "rss_mb": rss_mb,
        "pass_ms": pass_ms,
        "faults": verdict.faults,
        "bounded": verdict.bounded,
        "delivered": verdict.delivered,
        "elements": metrics.field_elements_sent,
        "rounds": metrics.rounds,
        "broadcast_rounds": metrics.broadcast_rounds,
        "private_messages": metrics.private_messages,
        "events": run.events,
        "disqualified": setup.params.n - len(receiver.passed) if receiver else 0,
        "failed_coordinates": (
            receiver.diagnostics.get("failed_coordinates", 0) if receiver else 0
        ),
    }


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """Peak RSS since the last reset (``VmHWM``), else since start."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibrate() -> float:
    """Duration (ms) of a fixed calibration pass, the faster of two.

    A pass has three parts of roughly equal length: interpreter work on
    a cache-resident dict and list, a numpy stream over 12 MB, and a
    first touch of 32 MB of fresh pages.  A shared host's speed can
    drift by tens of percent within seconds to minutes, and interference
    slows cache-resident and memory-bound work by different amounts; the
    epochs mix both.  Each epoch is scaled by the passes just before
    and after it (see :func:`_at_reference_speed`), which divides most
    of that drift out.  The raw wall times are kept as well.
    """
    import numpy as np

    passes = []
    for _ in range(2):
        start = time.perf_counter_ns()
        table: dict[int, int] = {}
        for i in range(25000):
            key = (i * 2654435761) & 0xFFFF
            table[key] = table.get(key, 0) ^ i
        sorted([(i ^ 0x5A5A, str(i)) for i in range(25000)])
        stream = np.arange(1_500_000, dtype=np.uint64)
        lookup = np.arange(1 << 16, dtype=np.uint64) ^ np.uint64(7)
        int((lookup[(stream * np.uint64(2654435761)) & np.uint64(0xFFFF)] ^ stream).sum())
        pages = memoryview(bytearray(32 << 20))
        for offset in range(0, len(pages), 4096):
            pages[offset] = 1
        pages.release()
        passes.append((time.perf_counter_ns() - start) / 1e6)
    return min(passes)


def _settle() -> float:
    """Collect garbage, calibrate, collect again: what precedes every epoch.

    The second collection resets the collector's counts that the pass's
    allocations raised.  Without it the epoch after a pass triggered
    collections early and ran 20-35% slower on ``traced-mix-n4``, and
    twice as sensitive to the host's speed as the pass.
    """
    gc.collect()
    pass_ms = calibrate()
    gc.collect()
    return pass_ms


def _at_reference_speed(records: list[dict], pass_after: float) -> None:
    """Scale each record's wall time by the calibration passes around it.

    ``records`` ran back to back; each carries the pass taken just
    before it, so the next record's pass (or ``pass_after``) is the one
    just after it.
    """
    afters = [r["pass_ms"] for r in records[1:]] + [pass_after]
    for record, after in zip(records, afters):
        record["scale"] = REFERENCE_PASS_MS / ((record["pass_ms"] + after) / 2)
        wall = record["wall_ns"]
        record["ref_ms"] = None if wall is None else wall / 1e6 * record["scale"]


def _timed_epoch(setup, inputs, rec=None):
    """One epoch, timed; an exception is returned, not raised.

    Returns the epoch (or the exception), its wall time in ns, the
    process's peak RSS during it in MB and the calibration pass taken
    just before it.  With a span recorder the epoch is also the root
    span of its trace.
    """
    import workloads

    pass_ms = _settle()
    _reset_peak_rss()
    start = time.perf_counter_ns()
    if rec is not None:
        rec.enter(rec.name_id("bench:epoch"))
    try:
        run = workloads.run_epoch(setup, inputs)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed epoch
        traceback.print_exc(file=sys.stderr)
        return exc, None, None, pass_ms
    finally:
        if rec is not None:
            rec.exit()
    return run, time.perf_counter_ns() - start, _peak_rss_mb(), pass_ms


def _fingerprint(run) -> tuple:
    """What a traced and an untraced epoch of one seed must agree on."""
    outputs = {
        pid: (
            sorted(o.vss_qualified),
            sorted(o.passed),
            o.challenge.value,
            sorted(o.output.items()) if o.output is not None else None,
        )
        for pid, o in sorted(run.result.outputs.items())
    }
    return outputs, run.result.metrics


def _outcome(run):
    """What an epoch leaves for comparison once its result is dropped."""
    return "raised" if isinstance(run, BaseException) else _fingerprint(run)


def traced_pair(setup, seed: int, index: int, rec) -> tuple[dict, dict, bool]:
    """Run one epoch seed untraced, then traced into ``rec``.

    A third, untimed run of the seed counts the share views.  Returns
    the untraced and traced epoch records (the traced one also names its
    span range and the counts taken around it) and whether all runs'
    outputs and protocol metrics agree.
    """
    import spans
    import workloads
    from repro.fields.vectorized import TABLES

    # Inputs are made afresh for each run: tampers carry rng state.
    inputs = setup.make_inputs(seed, index)
    run, *measured = _timed_epoch(setup, inputs)
    plain_record = _epoch_record(setup, index, inputs, run, *measured)
    outcomes = [_outcome(run)]
    del run, inputs

    inputs = setup.make_inputs(seed, index)
    counts = Counter(rec.counts)
    hits, misses = TABLES.hits, TABLES.misses
    lo = len(rec)
    with spans.Instrumentation(rec, workloads):
        run, *measured = _timed_epoch(setup, inputs, rec)
    record = _epoch_record(setup, index, inputs, run, *measured)
    outcomes.append(_outcome(run))
    del run, inputs
    _at_reference_speed([plain_record, record], _settle())
    record.update(
        plain_ref_ms=plain_record["ref_ms"],
        lo=lo,
        hi=len(rec),
        counts=dict(rec.counts - counts),
        table_hits=TABLES.hits - hits,
        table_misses=TABLES.misses - misses,
    )

    views = spans.SpanRecorder()
    with spans.Instrumentation(views, workloads, count_views=True):
        try:
            run = workloads.run_epoch(setup, setup.make_inputs(seed, index))
        except Exception as exc:  # noqa: BLE001 - compared below
            run = exc
    record["counts"]["vss.share_views"] = views.counts["vss.share_views"]
    outcomes.append(_outcome(run))
    # An exception is already a fault of its epoch; the runs agree only
    # if all of them raised.
    return plain_record, record, outcomes.count(outcomes[0]) == 3


def _traced_run(setup, seed_of, args) -> dict:
    """Traced pairs that fill ``--seconds``; per-layer metrics."""
    import spans

    rec = spans.SpanRecorder()
    pairs, mismatched = [], []
    count = max(1, setup.epochs(args.seconds) // PAIR_COST)
    for index in range(1, count + 1):
        plain, traced, agree = traced_pair(setup, seed_of(index), index, rec)
        if not agree:
            mismatched.append(index)
        pairs.append((plain, traced))

    if args.spans:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        rec.write_jsonl(args.spans, {
            "workload": args.workload,
            "seed": args.seed,
            "epochs": [[r["lo"], r["hi"]] for _, r in pairs],
            "env": _environment(),
        })
    traced_ok = [r for _, r in pairs if r["wall_ns"] is not None]
    return {
        "pairs": [[p, {k: v for k, v in r.items() if k != "counts"}] for p, r in pairs],
        "mismatched": mismatched,
        "layers": spans.per_layer(rec, traced_ok),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--cold-index", type=int, default=0,
                    help="epoch index of the cold epoch (warm epochs are 1, 2, ...)")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    leaked = [name for name in PINNED if os.environ.get(name)]
    if leaked:
        raise SystemExit(f"workload process must run with {leaked} unset")

    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported repro from {repro.__file__}, not {ROOT / 'src'}")
    sys.path.insert(0, str(HERE))
    import workloads

    setup = workloads.BUILDERS[args.workload]()
    seed_of = functools.partial(workloads.epoch_seed, args.workload, args.seed)

    inputs = setup.make_inputs(seed_of(args.cold_index), args.cold_index)
    built_s = (time.perf_counter_ns() - T0_NS) / 1e9
    run, *measured = _timed_epoch(setup, inputs)
    cold = _epoch_record(setup, args.cold_index, inputs, run, *measured)
    del run, inputs
    out = {"env": _environment(), "cold": cold}

    epochs = [cold]
    if args.mode == "measure":
        for index in range(1, setup.epochs(args.seconds, MIN_WARM_EPOCHS) + 1):
            inputs = setup.make_inputs(seed_of(index), index)
            epochs.append(
                _epoch_record(setup, index, inputs, *_timed_epoch(setup, inputs))
            )
        out["warm"] = epochs[1:]
    _at_reference_speed(epochs, _settle())
    # Set-up: imports and building, then the cold epoch (the garbage
    # collection and calibration pass before it excluded).
    setup_wall_s = built_s + (cold["wall_ns"] or 0) / 1e9
    out.update(setup_wall_s=setup_wall_s, setup_s=setup_wall_s * cold["scale"])
    if args.mode == "trace":
        out.update(_traced_run(setup, seed_of, args))

    out["process_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
