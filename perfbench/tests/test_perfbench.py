"""Self-tests of the benchmark: its wrappers reach every layer, its
inputs are a function of the seed, and each workload says why it
exists.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import inputs, run
from perfbench.tracer import (
    CLIENT_TARGETS, ENGINE_LOCK, ENGINE_TARGETS, LAYERS, Tracer,
)
from perfbench.workloads import REPORT_ONLY, WORKLOADS

ROOT = run.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def instance():
    return inputs.input_instance()


@pytest.fixture(scope="module")
def traced_phases():
    """A short traced phase of every workload, checked like a run."""
    phases = {}
    for name, workload_class in WORKLOADS.items():
        workload = workload_class(seed=0)
        phase = workload.phase(1.5, 1, Tracer())
        workload.check([phase])
        phases[name] = (workload, phase)
    return phases


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_wrapper_the_workload_reaches_fires(traced_phases, name):
    workload, phase = traced_phases[name]
    fired = workload.wrappers_fired(phase)
    silent = [target for target in workload.reaches
              if fired.get(target, 0) == 0]
    assert not silent, f"{name}: wrappers that never fired: {silent}"


def test_every_wrapper_is_expected_somewhere():
    expected = {target for workload in WORKLOADS.values()
                for target in workload.reaches}
    assert set(LAYERS) == expected


def test_wrappers_patch_and_restore_the_lookup_sites():
    import importlib
    tracer = Tracer()
    originals = {}
    for module, attribute, _layer in ENGINE_TARGETS + CLIENT_TARGETS:
        owner = importlib.import_module(module)
        for part in attribute.split("."):
            owner = getattr(owner, part)
        originals[(module, attribute)] = owner
    tracer.install(ENGINE_TARGETS + CLIENT_TARGETS)
    try:
        for (module, attribute), original in originals.items():
            owner = importlib.import_module(module)
            for part in attribute.split("."):
                owner = getattr(owner, part)
            assert owner.__wrapped__ is original, (module, attribute)
    finally:
        tracer.uninstall()
    import repro.query.system
    assert not hasattr(repro.query.system.parse_select, "__wrapped__")
    assert ENGINE_LOCK in LAYERS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_op_stream(instance, name):
    first = inputs.workload_inputs(name, instance, seed=5)
    again = inputs.workload_inputs(name, instance, seed=5)
    other = inputs.workload_inputs(name, instance, seed=6)
    assert first["ops"] == again["ops"]
    assert first["ops_digest"] == again["ops_digest"]
    assert first["ops_digest"] != other["ops_digest"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_matches_the_pins(instance, name):
    default = inputs.workload_inputs(name, instance, inputs.DEFAULT_SEED)
    rows = inputs.rows_digest(instance.database)
    assert inputs.check_pins(name, instance, rows, default,
                             inputs.DEFAULT_SEED) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_says_why_it_exists(name):
    doc = WORKLOADS[name].__doc__ or ""
    assert "What:" in doc and "Why:" in doc, name


def test_mixed_rw_inserts_use_unique_keys(instance):
    streams = inputs.mixed_rw_streams(instance, seed=3)
    keys = [inputs.parse_literals(sql.split(" VALUES (", 1)[1])[0]
            for stream in streams for _kind, sql in stream
            if sql.startswith("INSERT")]
    existing = {row[0] for name in ("PATIENT", "WARD")
                for row in instance.database.relation(name)}
    assert len(keys) == len(set(keys))
    assert not existing & set(keys)


def test_metric_names_match_benchmark_json(traced_phases):
    assert [metric["name"] for metric in BENCHMARK["end_to_end"]] \
        == list(run.END_TO_END)
    workload, phase = traced_phases["mixed_rw"]
    end_to_end = workload.end_to_end(phase)
    assert set(run.END_TO_END) <= set(end_to_end)
    layers = workload.per_layer(phase, phase, workload.window(phase))
    assert REPORT_ONLY <= set(layers)
    assert [metric["name"] for metric in BENCHMARK["per_layer"]] \
        == [name for name in layers if name not in REPORT_ONLY]


def test_runs_fail_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ask_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
