"""Tests of the benchmark itself: seeded inputs, oracles that catch a
perturbed result, and the tracer.

Run from the repository root with ``python -m pytest perfbench``.
"""

import contextlib
import dataclasses
import io
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import cavity2deg  # noqa: E402
import cli_session  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BUILDERS = {"mode_ladder": workloads.mode_ladder,
            "dense_jacobi": workloads.dense_jacobi,
            "datasets": cli_session.datasets}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_seed_fixes_the_task_list(name):
    build = BUILDERS[name]
    assert build(7).digest() == build(7).digest()
    assert build(7).digest() != build(8).digest()


def test_ladder_ratios_stay_in_the_flat_windows():
    for task in workloads.mode_ladder(7).tasks:
        ratio = task.spec["ratio"]
        assert any(lo <= ratio <= hi for lo, hi in (workloads.WEAK, workloads.STRONG))


def test_task_stats_are_means_over_the_slowdown():
    passes = run.Passes([None] * 3)
    passes.task_times = [[0.010, 0.030], [0.004, 0.004], [1.0, 3.0]]
    raw, scaled = run.task_stats(passes, 1.0), run.task_stats(passes, 2.0)
    assert raw["run_s"] == pytest.approx(2.024)
    assert raw["p50_ms"] == pytest.approx(20.0)
    for key in ("run_s", "p50_ms", "tail_ms"):
        assert scaled[key] == pytest.approx(raw[key] / 2.0)


def test_speed_probe_scales_by_its_reference():
    probe = speed.SpeedProbe()
    probe.sample()
    assert probe.samples[0] > 0
    probe.samples = [2e-3, 4e-3]
    assert probe.slowdown() == pytest.approx(3e-3 / speed.PROBE_REF_S)


def test_tail_percentile_leaves_ten_tasks_beyond():
    assert run.tail_percentile(42) == 76
    assert run.tail_percentile(97) == 89
    for n in (11, 39, 42, 97, 500):
        p = run.tail_percentile(n)
        assert n - np.ceil(p * n / 100) >= 10
        assert n - np.ceil((p + 1) * n / 100) < 10


# ------------------------------------------------------- manymode oracles

def test_dense_oracle_flags_a_shifted_eigenvalue():
    rng = np.random.default_rng(1)
    for clustered in (False, True):
        task = workloads._dense_task(12, clustered, rng)
        nm = task.call()
        assert task.check(nm) is None
        shifted = nm.omega_sq.copy()
        shifted[3] += 1e-6 * np.abs(shifted).max()
        assert "LAPACK" in task.check(dataclasses.replace(nm, omega_sq=shifted))
        u = nm.u.copy()
        u[:, [0, -1]] = u[:, [-1, 0]]
        assert task.check(dataclasses.replace(nm, u=u)) is not None


def test_ladder_oracles_flag_perturbed_results():
    g_task = workloads._coupling_task(30, 0.7)
    g = g_task.call()
    assert g_task.check(g) is None
    assert g_task.check(g * (1 + 1e-7)) is not None

    low_task = workloads._lowest_task(30, 0.4)
    rows = low_task.call()
    assert low_task.check(rows) is None
    bumped = rows.copy()
    bumped[0, 1] *= 1 + 1e-6
    assert low_task.check(bumped) is not None

    spec_task = workloads._spectrum_task(10, 0.8, np.random.default_rng(2))
    nm, energy = spec_task.call()
    assert spec_task.check((nm, energy)) is None
    assert "energy" in spec_task.check((nm, energy * (1 + 1e-7)))


def test_secular_root_matches_lapack():
    for m, ratio in ((1, 0.5), (2, 0.3), (50, 1.0)):
        w = np.diag(np.arange(1, m + 1, dtype=float) ** 2) + ratio**2 * np.ones((m, m))
        assert workloads.secular_lowest(m, ratio) == pytest.approx(
            np.linalg.eigvalsh(w)[0], rel=1e-13)


# ------------------------------------------------------- datasets oracles

@pytest.fixture
def session(tmp_path):
    wl = cli_session.datasets(3, workdir=str(tmp_path))
    for path, text in wl.files.items():
        Path(path).write_text(text)
    return wl


def _first(wl, pred):
    """The first task matching pred that does not read an earlier output."""
    def standalone(spec):
        argv = spec["argv"]
        return "--config" not in argv or argv[argv.index("--config") + 1].endswith(".cfg")
    return next(t for t in wl.tasks
                if "argv" not in t.spec or standalone(t.spec) if pred(t.spec))


def test_dataset_oracle_flags_a_changed_byte(session):
    task = _first(session, lambda s: s.get("expect") == 0 and not s["out"]
                  and s["command"] == "response" and s["fmt"] == "csv")
    code, out, err = task.call()
    assert task.check((code, out, err)) is None
    lines = out.splitlines(keepends=True)
    first_row = next(i for i, ln in enumerate(lines) if ln.startswith("w,")) + 1
    row = lines[first_row]
    digit = next(i for i in range(len(row) - 1, 0, -1) if row[i - 1].isdigit())
    lines[first_row] = row[:digit - 1] + str((int(row[digit - 1]) + 5) % 10) + row[digit:]
    assert "row 0" in task.check((code, "".join(lines), err))


def test_dataset_oracle_rejects_nan_tokens(session):
    task = _first(session, lambda s: s.get("expect") == 0 and s["fmt"] == "json"
                  and s["command"] == "eft")
    result = task.call()
    assert task.check(result) is None
    path = Path(task.spec["out"]) if task.spec["out"] else None
    text = path.read_text() if path else result[1]
    start = text.index('"rows": [') + len('"rows": [')
    start = text.index("[", start) + 1
    while text[start] in " \n":
        start += 1
    end = text.index(",", start)
    bad = text[:start] + "NaN" + text[end:]
    if path:
        path.write_text(bad)
        reason = task.check(result)
    else:
        reason = task.check((result[0], bad, result[2]))
    assert "NaN" in reason


def test_dataset_oracle_flags_a_wrong_exit_code(session):
    bad = _first(session, lambda s: s.get("expect") == 3)
    code, out, err = bad.call()
    assert code == 3 and bad.check((code, out, err)) is None
    assert "exit code 0" in bad.check((0, out, err))
    good = _first(session, lambda s: s.get("expect") == 0 and not s["out"])
    code, out, err = good.call()
    assert "exit code 3" in good.check((3, out, err))


def test_ground_state_oracle_flags_a_wrong_moment(session):
    task = _first(session, lambda s: "cells_per_radius" in s)
    m, energies, witness = task.call()
    assert task.check((m, energies, witness)) is None
    off = dataclasses.replace(m, n_2d=m.n_2d * (1 + 1e-6))
    assert "n_2d" in task.check((off, energies, witness))


def test_repeat_with_one_flipped_byte_fails(session):
    task = _first(session, lambda s: s.get("expect") == 0 and not s["out"])
    calls = []

    def flipping_call():
        code, out, err = task.call()
        if calls:
            out = out[:10] + chr(ord(out[10]) ^ 1) + out[11:]
        calls.append(1)
        return code, out, err

    passes = run.Passes([dataclasses.replace(task, call=flipping_call)])
    passes._one_pass(None)
    passes._one_pass(None)
    assert passes.attempted == 2
    assert passes.failures == [(1, 0, "output bytes differ from the first pass")]


# ------------------------------------------------------------------ tracer

def test_tracer_catches_calls_between_layers_and_restores():
    from cavity2deg import cli, core
    original_main, original_classify = cli.main, core.classify_phase
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.classify_phase is core.classify_phase is not original_classify
        tracer.begin_task(0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["phase", "--sweep", "gamma=0:1.2:5"]) == 0
        tracer.end_task()
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert cli.classify_phase is core.classify_phase is original_classify
    assert cavity2deg.classify_phase is original_classify
    times = tracer.self_times()
    assert times["core.classify_phase"][1] == 5
    assert times["cli.cmd_phase"][1] == times["cli.render"][1] == 1
    assert tracer.counts["cli.render.bytes"] > 0
    assert all(own >= 0 for own, _, _ in times.values())


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "datasets", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
