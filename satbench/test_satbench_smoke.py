"""Smoke tests of the benchmark at tiny sizes (search n = 6, a dozen records).

Run with ``python -m pytest satbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, *argv):
    code = run.main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(out[-1])


@pytest.fixture(scope="module")
def sf():
    return run.load_satforge()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    res = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--scale", "smoke")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in res["metrics"].items()}


def test_search_oracle_counts_a_corrupted_result(sf):
    wl = workloads.Search(sf, 0, "smoke")
    item = wl.items[0]
    res = wl.op(item)
    assert wl.check(item, res) is None
    wrong_levels = dataclasses.replace(res, level_sizes={**res.level_sizes, 3: 4})
    assert wl.check(item, wrong_levels)
    g = res.graphs[0]
    u, v = g.edges()[0]
    wrong_graph = dataclasses.replace(res, graphs=[g.without_edge(u, v)])
    assert wl.check(item, wrong_graph)


def test_certify_oracle_counts_a_tampered_witness(sf):
    wl = workloads.Certify(sf, 0, "smoke")
    item = next(it for it in wl.items if it[1] == "saturated")
    rep = wl.op(item)
    assert wl.check(item, rep) is None
    (u, v), cyc = next(iter(rep.witnesses.items()))
    vs = cyc.vertices
    swapped = type(cyc)(vs[:1] + vs[2:3] + vs[1:2] + vs[3:], "cycle")
    tampered = dataclasses.replace(rep, witnesses={**rep.witnesses, (u, v): swapped})
    assert wl.check(item, tampered)
    assert wl.check(item, dataclasses.replace(rep, verdict="missing-witness", missing=(u, v)))


def test_certify_oracle_counts_a_wrong_verdict(sf):
    wl = workloads.Certify(sf, 0, "smoke")
    item = next(it for it in wl.items if it[1] == "not-free")
    rep = wl.op(item)
    assert wl.check(item, rep) is None
    assert wl.check(item, dataclasses.replace(rep, verdict="saturated"))


def test_audit_oracle_counts_broken_conservation(sf):
    wl = workloads.Audit(sf, 0, "smoke")
    item = wl.items[0]
    a = wl.op(item)
    assert a.branch == "full" and wl.check(item, a) is None
    f7 = a.ledger.stages["f7"]
    v = max(f7)
    f7[v] += 1
    assert wl.check(item, a)


def test_inputs_repeat_for_a_seed():
    assert workloads.make_records(5, "smoke") == workloads.make_records(5, "smoke")
    assert workloads.make_records(5, "smoke") != workloads.make_records(6, "smoke")


def test_random_process_yields_saturated_graphs():
    import random

    import gen

    rng = random.Random(1)
    for n in (9, 12, 15):
        assert workloads._saturated(gen.random_saturated(rng, n), 6)


def test_self_time_excludes_children():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    tracer.on = True
    traced_outer()
    layers = tracer.layers()
    assert layers["inner"]["calls"] == 2 and layers["outer"]["calls"] == 1
    total = tracer.end[0] - tracer.start[0]
    assert layers["outer"]["self_s"] + layers["inner"]["self_s"] == pytest.approx(total)
    assert 0.009 < layers["outer"]["self_s"] < layers["inner"]["self_s"]


def test_unavailable_backend_aborts(capsys, monkeypatch, sf):
    other = "python" if sf.kernels.BACKEND == "numba" else "numba"
    monkeypatch.setenv("SATFORGE_BACKEND", other)
    assert run.main(["--workload", "search", "--seed", "1", "--seconds", "0",
                     "--scale", "smoke"]) == 2
    assert "requested" in capsys.readouterr().err


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "satbench", tmp_path / "satbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_speed_correction_scales_by_nearby_bursts():
    import speed

    machine = speed.Speed()
    machine.times, machine.durations = [10.0, 10.2, 50.0], [0.02, 0.02, 0.005]
    # two bursts at half the reference speed lie near the operation; the far
    # one does not count
    assert machine.corrected(10.0, 10.1, 1.0) == pytest.approx(speed.REF_S / 0.02)
    with machine.sampling():
        machine.active = True
        time.sleep(2.5 * speed.INTERVAL)
    # the timer fired during the sleep (about twice), and each burst was recorded
    assert len(machine.durations) >= 4 and machine.stolen > 0
    assert not machine.active
