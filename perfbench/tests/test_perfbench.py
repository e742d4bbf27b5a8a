"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import repro.fields.vectorized  # noqa: E402,F401 - loaded lazily by the protocol
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _repro_namespaces():
    """Every repro module and every class defined in one, with a copy of its dict."""
    owners = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        owners[id(module)] = (module, dict(vars(module)))
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__.startswith("repro"):
                owners[id(value)] = (value, dict(vars(value)))
    owners[id(workloads)] = (workloads, dict(vars(workloads)))
    return owners


def _traced_pair(setup, index):
    rec = spans.SpanRecorder()
    seed = workloads.epoch_seed(setup.name, 11, index)
    plain, traced, agree = worker.traced_pair(setup, seed, index, rec)
    assert not plain["faults"] and not traced["faults"], (plain, traced)
    return traced, agree, rec


@pytest.fixture(scope="module")
def mix():
    return workloads.BUILDERS["traced-mix-n4"]()


@pytest.fixture(scope="module")
def rb89():
    return workloads.BUILDERS["rb89-n4"]()


@pytest.mark.parametrize("count_views", [False, True])
def test_wrappers_restore_every_patched_attribute(count_views):
    before = _repro_namespaces()
    original_program = workloads.anonchan.AnonChan.party_program
    rec = spans.SpanRecorder()
    with spans.Instrumentation(rec, workloads, count_views=count_views) as inst:
        assert inst._patches, "nothing was instrumented"
        assert workloads.anonchan.AnonChan.party_program is not original_program
    after = _repro_namespaces()
    assert after.keys() == before.keys()
    for key, (owner, old) in before.items():
        new = after[key][1]
        assert new.keys() == old.keys(), owner
        changed = [attr for attr in old if new[attr] is not old[attr]]
        assert not changed, (owner, changed)


@pytest.mark.parametrize("index", [0, 5, 11, 28])
def test_traced_and_untraced_epochs_agree_on_mix(mix, index):
    traced, agree, rec = _traced_pair(mix, index)
    assert len(rec) > 0 and traced["hi"] == len(rec)
    assert agree


def test_traced_and_untraced_epochs_agree_on_rb89(rb89):
    traced, agree, rec = _traced_pair(rb89, 1)
    assert agree


def test_metric_names_are_well_formed():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.BUILDERS) == list(run.WORKLOADS)


def _layer_metrics(setup, index):
    traced, _, rec = _traced_pair(setup, index)
    return spans.per_layer(rec, [traced])


# Per-layer metrics that must be positive where their layer does the work.
VSS = ("vss.self_ms", "vss.share_ms", "vss.rec_ms", "vss.algebra_ms",
       "vss.share_views", "vss.opened_values")
COMMON = VSS + ("core.self_ms", "network.self_ms", "network.accounting_ms",
                "network.round_ms", "network.messages_per_epoch")
ACTIVE = {
    "honest-n9": COMMON + ("fields.kernel_ms", "fields.kernel_calls",
                           "fields.kernel_elements", "fields.table_lookups"),
    "attacked-n9": COMMON + ("fields.kernel_ms", "network.adversary_ms",
                             "core.disqualified"),
    "traced-mix-n4": COMMON + ("fields.kernel_ms", "fields.table_hit_ratio",
                               "obs.emit_ms", "obs.analyze_ms",
                               "obs.events_per_epoch", "network.adversary_ms"),
    "rb89-n4": COMMON + ("sharing.self_ms", "sharing.calls",
                         "vss.dealers_disqualified", "network.adversary_ms",
                         "network.broadcast_rounds_per_epoch"),
}


@pytest.mark.parametrize("workload", list(ACTIVE))
def test_every_per_layer_metric_is_reported(workload, mix, rb89):
    known = {"traced-mix-n4": mix, "rb89-n4": rb89}
    setup = known.get(workload) or workloads.BUILDERS[workload]()
    metrics = _layer_metrics(setup, 2)
    assert [(name, unit) for name, (_, unit) in metrics.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
    for name in ACTIVE[workload]:
        assert metrics[name][0] > 0, name
    assert abs(metrics["bench.unattributed_share"][0]) < 0.05


def test_end_to_end_metrics_match_the_benchmark_file():
    epoch = {"index": 0, "wall_ns": 2_000_000, "ref_ms": 2.5, "pass_ms": 8.0,
             "rss_mb": 50.0, "faults": [], "bounded": [], "delivered": 3,
             "elements": 100, "rounds": 6, "broadcast_rounds": 0}
    main = {"cold": epoch, "warm": [epoch, epoch], "setup_s": 1.0,
            "setup_wall_s": 0.8}
    gated, printed = run.end_to_end(main, [main, main, main])
    assert {name: unit for name, (_, unit) in gated.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(value > 0 for value, _ in gated.values())
    assert printed["epoch_ms_p90"] is None  # only 2 warm epochs


def test_output_check_flags_a_wrong_verdict(rb89):
    seed = workloads.epoch_seed(rb89.name, 11, 1)
    inputs = rb89.make_inputs(seed, 1)
    epoch = workloads.run_epoch(rb89, inputs)
    assert not workloads.check(rb89, inputs, epoch).faults
    inputs.expect_unqualified = (0,)
    assert workloads.check(rb89, inputs, epoch).faults


def test_epochs_are_scaled_by_the_passes_around_them():
    records = [
        {"wall_ns": 30_000_000, "pass_ms": 5.0},
        {"wall_ns": None, "pass_ms": 15.0},
    ]
    worker._at_reference_speed(records, 25.0)
    assert records[0]["scale"] == worker.REFERENCE_PASS_MS / 10.0
    assert records[0]["ref_ms"] == 30.0 * records[0]["scale"]
    assert records[1]["scale"] == worker.REFERENCE_PASS_MS / 20.0
    assert records[1]["ref_ms"] is None
    assert worker.calibrate() > 0


def test_epoch_counts_follow_seconds_not_the_clock(mix, rb89):
    assert rb89.epochs(20, worker.MIN_WARM_EPOCHS) == 25
    assert rb89.epochs(1, worker.MIN_WARM_EPOCHS) == worker.MIN_WARM_EPOCHS
    for seconds in (1, 12, 20, 45):
        count = mix.epochs(seconds, worker.MIN_WARM_EPOCHS)
        assert count % mix.cycle == 0 and count >= seconds * 1000 / mix.epoch_ms
