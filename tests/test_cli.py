"""Command-line interface: deterministic output, round-trips, exit codes.

All invocations go through cli.main(argv) in-process; stdout/stderr are
captured with capsys.  Exit code conventions under test:
    0 success, 2 configuration/usage errors, 3 domain/pole/instability
    errors, 4 convergence failures.
"""

import argparse
import contextlib
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavity2deg
from cavity2deg import (BroadenedFrequency, ConfigError, ConvergenceError,
                        DerivedScales, DomainError, EftConfig, PoleError,
                        PreconditionError, SystemConfig,
                        casimir_energy_density, casimir_pressure,
                        chemical_potential, chi_mixed_freq, effective_coupling,
                        eft_chi_aa, exact_coupling_1d, jellium,
                        optical_conductivity, renormalized_mass)
from cavity2deg import cli
from cavity2deg.cli import (OutputRecord, SweepSpec, cmd_eft, cmd_manymode,
                            cmd_response, main)
from cavity2deg.manymode import MAX_MODES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweepSpec:
    def test_parse_linear(self):
        s = SweepSpec.parse("w=0:2:5")
        assert (s.variable, s.start, s.stop, s.count, s.log) == (
            "w", 0.0, 2.0, 5, False)
        assert np.allclose(s.grid(), np.linspace(0, 2, 5))

    def test_parse_log(self):
        s = SweepSpec.parse("lambda0=1:100:3:log")
        assert s.log
        assert np.allclose(s.grid(), [1.0, 10.0, 100.0])

    @pytest.mark.parametrize("text", [
        "gamma=0.0:1.2:121", "w=-1e+20:1e+20:11", "lambda0=1.0:100.0:3:log"])
    def test_str_round_trips(self, text):
        # params["sweep"] in every dataset header is str(sweep)
        assert str(SweepSpec.parse(text)) == text

    @pytest.mark.parametrize("text", [
        "w=0:2",            # missing count
        "w=0:2:1",          # fewer than two points
        "w=1:1:5",          # degenerate interval
        "w=0:2:5:cubic",    # unknown modifier
        "=0:2:5",           # empty variable
        "w=a:2:5",          # non-numeric
        "lambda0=0:10:5:log",   # log needs positive endpoints
        "gamma=nan:1:3",        # non-finite endpoints
        "w=0:inf:3",
        "w=-1e308:1e308:3",     # finite endpoints, overflowing span
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigError):
            SweepSpec.parse(text)


class TestOutputRecord:
    def make(self, **kw):
        base = dict(command="phase", config={"units_mode": "ratio",
                                             "ratio": 0.5},
                    params={"sweep": None}, columns=("a", "b"),
                    rows=[(1.0, 2.0)], summary={})
        base.update(kw)
        return OutputRecord(**base)

    def test_row_width_checked(self):
        with pytest.raises(PreconditionError):
            self.make(rows=[(1.0,)])

    def test_provenance_stable_and_sensitive(self):
        a = self.make()
        b = self.make()
        assert a.provenance == b.provenance
        c = self.make(params={"sweep": "gamma=0:1:5"})
        assert c.provenance["config_hash"] != a.provenance["config_hash"]
        assert a.provenance["library"] == "cavity2deg"

    def test_json_shape(self):
        body = json.loads(self.make().to_json())
        assert list(body) == ["command", "config", "params", "columns",
                              "rows", "summary", "provenance"]

    def test_csv_digits(self):
        rec = self.make(rows=[(1.0 / 3.0, 2.0)])
        assert "0.3333333333333333" in rec.to_csv()
        assert "0.333," in rec.to_csv(digits=3)

    def test_render_unknown_format(self):
        with pytest.raises(ConfigError):
            self.make().render("yaml")

    @pytest.mark.parametrize("columns, rows", [
        (("a", "b"), [(1.0, 2), (-0.0, 12345678901234567890)]),
        (("g", "phase", "n"), [(0.1, "Stable", None), (1e-300, "Crit\"ical\u00e9", 3)]),
        (("x", "y"), [(1.0, "x"), ("y", 2), (True, None)]),
        (("x", "y", "z"), [(np.float64(1e300), -0.0, 5e-324),
                           (np.float64(0.1), 1.0, 2.0)]),
        (("x",), []),
        ((), [(), ()]),
    ])
    def test_json_is_json_dumps(self, columns, rows):
        rec = self.make(columns=columns, rows=rows,
                        config={"units_mode": "ratio", "ratio": 0.5,
                                "nested": [1, None, "s"]},
                        summary={"band_counts": {"Stable": 2}, "x": 1.5})
        body = {"command": rec.command, "config": rec.config,
                "params": rec.params, "columns": list(rec.columns),
                "rows": [list(r) for r in rec.rows], "summary": rec.summary,
                "provenance": rec.provenance}
        assert rec.to_json() == json.dumps(body, indent=1) + "\n"


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     np.float64(math.nan)])
    @pytest.mark.parametrize("other", [0.5, 3, "s"])
    def test_non_finite_row_rejected(self, bad, other):
        # JSON has no NaN or Infinity token: a column of numbers and a
        # mixed column both raise
        rec = self.make(rows=[(bad, 1.0), (other, 2.0)])
        with pytest.raises(DomainError, match="non-finite"):
            rec.to_json()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["config", "params", "summary"])
    def test_non_finite_header_rejected(self, field, bad, fmt):
        # no NaN or Infinity token in the envelope either
        rec = self.make(**{field: {"x": [1.0, bad]}})
        with pytest.raises(DomainError, match="non-finite"):
            rec.render(fmt)


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        code1, out1, _ = run(capsys, "phase", "--format", "json")
        code2, out2, _ = run(capsys, "phase", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_byte_identical_csv_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["manymode", "diag", "--modes", "12",
                     "--out", str(a)]) == 0
        assert main(["manymode", "diag", "--modes", "12",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPhaseCommand:
    def test_default_band_counts(self, capsys):
        code, out, _ = run(capsys, "phase", "--format", "json")
        assert code == 0
        body = json.loads(out)
        assert body["summary"]["band_counts"] == {
            "Stable": 100, "Critical": 1, "Unstable": 20}
        assert len(body["rows"]) == 121

    def test_explicit_config_single_row(self, capsys, tmp_path):
        cfg = tmp_path / "r.txt"
        cfg.write_text("units_mode = ratio\nratio = 0.5\n")
        code, out, _ = run(capsys, "phase", "--config", str(cfg),
                           "--format", "json")
        assert code == 0
        body = json.loads(out)
        assert len(body["rows"]) == 1
        gamma, label = body["rows"][0]
        assert gamma == pytest.approx(0.2, rel=1e-12)
        assert label == "Stable"

    def test_negative_sweep_rejected(self, capsys):
        code, _, err = run(capsys, "phase", "--sweep", "gamma=-0.5:1:5")
        assert code == 2
        assert "non-negative" in err


class TestResponseCommand:
    def test_sigma_summary_ratio_config(self, capsys, tmp_path):
        cfg = tmp_path / "r.txt"
        cfg.write_text("units_mode = ratio\nratio = 0.5\n")
        code, out, _ = run(capsys, "response", "sigma", "--config", str(cfg),
                           "--format", "json", "--sweep", "w=0:2:5",
                           "--eta", "0.01")
        assert code == 0
        body = json.loads(out)
        s = body["summary"]
        assert s["gamma"] == pytest.approx(0.2, rel=1e-12)
        assert s["sigma0"] == pytest.approx(0.25 / 0.01, rel=1e-12)
        assert s["sigma_dc_over_sigma0"] == pytest.approx(0.8, rel=1e-12)
        assert s["effective_mass_over_m_e"] == pytest.approx(1.25, rel=1e-12)
        assert s["sigma_dc"] == pytest.approx(0.8 * 25.0, rel=1e-12)

    def test_ja_equals_aj(self, capsys):
        _, out_ja, _ = run(capsys, "response", "ja", "--format", "json",
                           "--sweep", "w=-1e13:1e13:7")
        _, out_aj, _ = run(capsys, "response", "aj", "--format", "json",
                           "--sweep", "w=-1e13:1e13:7")
        assert json.loads(out_ja)["rows"] == json.loads(out_aj)["rows"]

    def test_matter_kind_needs_si(self, capsys, tmp_path):
        cfg = tmp_path / "r.txt"
        cfg.write_text("units_mode = ratio\nratio = 0.5\n")
        code, _, err = run(capsys, "response", "jj", "--config", str(cfg),
                           "--sweep", "w=0:1:3")
        assert code == 2
        assert "SI" in err

    def test_default_grid_length(self, capsys):
        code, out, _ = run(capsys, "response", "aa", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 1201

    def test_nonpositive_eta_rejected(self, capsys):
        code, _, err = run(capsys, "response", "aa", "--eta", "-1.0")
        assert code == 2
        assert "eta" in err


class TestJsonRoundTrip:
    def test_config_member_reused_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "first.json"
        again = tmp_path / "again.json"
        argv = ["response", "aa", "--format", "json", "--sweep",
                "w=0:2e13:9", "--eta", "1e11"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--config", str(first),
                            "--out", str(again)]) == 0
        assert first.read_bytes() == again.read_bytes()

    def test_csv_embeds_matching_hash(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        out_json = tmp_path / "o.json"
        assert main(["phase", "--format", "json", "--out", str(cfg)]) == 0
        body = json.loads(cfg.read_text())
        code, out, _ = run(capsys, "phase")
        hash_line = next(ln for ln in out.splitlines()
                         if ln.startswith("# config_hash:"))
        assert body["provenance"]["config_hash"] in hash_line


class TestEftCommand:
    def test_coupling_endpoints(self, capsys):
        code, out, _ = run(capsys, "eft", "coupling", "--format", "json",
                           "--sweep", "lambda0=1:34:12")
        assert code == 0
        body = json.loads(out)
        rows = body["rows"]
        assert rows[0][1] == 0.0
        assert all(b[1] > a[1] for a, b in zip(rows, rows[1:]))
        assert body["summary"]["lambda0_pole"] == pytest.approx(
            34.767783156040521, rel=1e-12)

    def test_mass_sweep_beyond_window_counted(self, capsys):
        code, out, _ = run(capsys, "eft", "mass", "--format", "json",
                           "--sweep", "lambda0=1:40:40")
        assert code == 0
        body = json.loads(out)
        assert len(body["rows"]) == 40          # no per-particle pole here
        assert body["summary"]["rows_beyond_stability_window"] > 0
        assert "truncation_notice" not in body["summary"]

    def test_lambda0_below_one_is_domain_error(self, capsys):
        code, _, err = run(capsys, "eft", "coupling", "--lambda0", "0.5")
        assert code == 3
        assert "lambda0" in err

    def test_sweep_below_one_rejected(self, capsys):
        code, _, err = run(capsys, "eft", "coupling", "--sweep",
                           "lambda0=0.5:2:4")
        assert code == 2

    def test_jellium_summary(self, capsys):
        code, out, _ = run(capsys, "eft", "jellium", "--format", "json",
                           "--lambda0", "8", "--sweep", "rs=0.5:10:20")
        assert code == 0
        body = json.loads(out)
        assert body["summary"]["lambda0"] == 8.0
        assert 0 < body["summary"]["rs_min"] < 1.6660811018093873
        assert body["columns"] == ["rs", "kinetic_ry", "exchange_ry",
                                   "total_ry"]

    def test_chi_window_summary(self, capsys):
        code, out, _ = run(capsys, "eft", "chi", "--format", "json",
                           "--lambda0", "6", "--sweep", "w=0:1e15:5")
        assert code == 0
        s = json.loads(out)["summary"]
        assert s["window_high"] == pytest.approx(
            math.sqrt(6.0) * s["window_low"], rel=1e-12)

    @pytest.mark.parametrize("sub", ["coupling", "mass", "mu", "casimir",
                                     "jellium", "chi"])
    def test_weak_coupling_pole_overflow(self, capsys, tmp_path, sub):
        # n_alpha ~ 2.8e-12, so the Landau pole exp(1/n_alpha) overflows
        cfg = tmp_path / "weak.txt"
        cfg.write_text("n_electrons = 1\narea = 1e-8\nmirror_gap = 1e-3\n")
        code, out, err = run(capsys, "eft", sub, "--config", str(cfg))
        assert code == 3
        assert out == ""
        assert "n_alpha" in err

    def test_chi_sweep_ending_on_window_high_is_pole(self, capsys):
        # the summary's window_high is the upper edge eft_chi_aa uses, so
        # a sharp-window sweep that ends on it hits the log divergence
        _, out, _ = run(capsys, "eft", "chi", "--format", "json")
        high = json.loads(out)["summary"]["window_high"]
        code, out, err = run(capsys, "eft", "chi", "--eta", "0",
                             "--sweep", f"w=1e15:{high!r}:3")
        assert (code, out) == (3, "")
        assert "log divergence" in err

    def test_chi_cutoff_past_the_float_range(self, capsys):
        # hi = omega_t sqrt(lambda0) is finite, but Lambda = hi^2 is not
        with pytest.warns(RuntimeWarning, match="Landau pole"):
            code, out, err = run(capsys, "eft", "chi", "--lambda0", "1e300")
        assert (code, out) == (3, "")
        assert "the cutoff Lambda at lambda0 = 1e+300 overflows" in err

    @pytest.mark.parametrize("lambda0", [None, "4", "6.25", "9", "16"])
    def test_chi_default_grid_misses_the_edges(self, capsys, lambda0):
        # 600 points on [0, 1.5 window_high]: neither edge is a grid point
        argv = ["eft", "chi", "--eta", "0"]
        argv += [] if lambda0 is None else ["--lambda0", lambda0]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert len(json.loads(out)["rows"]) == 600

    def test_chi_sharp_edge_is_pole(self, capsys):
        # eta = 0 exactly on the lower edge: domain bucket
        code, out, _ = run(capsys, "eft", "chi", "--format", "json",
                           "--lambda0", "6", "--sweep", "w=0:1e15:3")
        lo = json.loads(out)["summary"]["window_low"]
        code, _, err = run(capsys, "eft", "chi", "--eta", "0",
                           "--lambda0", "6",
                           "--sweep", f"w={lo}:{2 * lo}:2")
        assert code == 3
        assert "eta = 0" in err


class TestManymodeCommand:
    def test_diag_single_mode(self, capsys):
        code, out, _ = run(capsys, "manymode", "diag", "--modes", "1",
                           "--format", "json")
        assert code == 0
        body = json.loads(out)
        assert body["rows"] == [[1, math.sqrt(1.25)]]
        assert body["summary"]["edge_omega_tilde"] == pytest.approx(
            math.sqrt(1.25), rel=1e-15)

    def test_coupling_run_sweep_grid_is_unique_ints(self, capsys):
        code, out, _ = run(capsys, "manymode", "coupling-run",
                           "--format", "json", "--sweep", "modes=1:10:4")
        assert code == 0
        body = json.loads(out)
        assert [r[0] for r in body["rows"]] == [1, 4, 7, 10]
        assert body["summary"]["single_mode_gamma"] == pytest.approx(
            0.2, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 10, 200])
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0])
    def test_coupling_run_limit(self, m, ratio):
        # g_limit = rho zeta(2) / (1 + rho zeta(2)); with
        # 1/(M+1) < zeta(2) - s(M) < 1/M, g_limit - g(M) =
        # rho (zeta(2) - s) / ((1 + rho zeta(2)) (1 + rho s)) is bracketed
        g_limit = cmd_manymode("coupling-run", 1, ratio).summary["g_limit"]
        g = exact_coupling_1d(m, 1.0, ratio)
        rho, zeta2 = ratio**2, math.pi**2 / 6
        s = sum(1.0 / n**2 for n in range(1, m + 1))
        assert g < g_limit
        assert (rho / ((m + 1) * (1 + rho * zeta2) ** 2) < g_limit - g
                < rho / (m * (1 + rho * s) * (1 + rho * zeta2)))

    def test_lowest_scan_summary(self, capsys):
        code, out, _ = run(capsys, "manymode", "lowest-scan", "--modes",
                           "30", "--format", "json",
                           "--sweep", "ratio=0:0.9:4")
        assert code == 0
        body = json.loads(out)
        assert body["summary"]["max_rel_diff_percent"] == pytest.approx(
            body["rows"][-1][1], rel=1e-12)

    @pytest.mark.parametrize("sweep", ["ratio=-1:1:3", "ratio=1:-1:3"])
    def test_lowest_scan_negative_endpoint(self, capsys, sweep):
        # both endpoints are checked, as phase does
        code, out, err = run(capsys, "manymode", "lowest-scan", "--sweep",
                             sweep)
        assert (code, out) == (2, "")
        assert "non-negative" in err

    @pytest.mark.filterwarnings("error")
    def test_diag_500_modes_matches_lapack(self, capsys):
        # the structured path: no Jacobi sweep, rows within eps ||W||_F of
        # the LAPACK spectrum of the same W
        code, out, _ = run(capsys, "manymode", "diag", "--modes", "500",
                           "--format", "json")
        assert code == 0
        body = json.loads(out)
        assert body["summary"]["sweeps"] == 0
        assert [r[0] for r in body["rows"]] == list(range(1, 501))
        omega = np.array([r[1] for r in body["rows"]])
        w = cavity2deg.build_w(cavity2deg.ModeSet.ladder_1d(500), 0.5)
        ref = np.linalg.eigvalsh(w)
        eps = np.finfo(float).eps
        assert np.all(np.abs(omega**2 - ref) <= eps * np.linalg.norm(w))

    def test_debug_log_leaves_stdout_alone(self, capsys, caplog):
        argv = ("manymode", "diag", "--modes", "12", "--format", "json")
        quiet = run(capsys, *argv)
        with caplog.at_level(logging.DEBUG, logger="cavity2deg"):
            logged = run(capsys, *argv)
        assert logged == quiet
        assert "structured" in caplog.text

    def test_invalid_mode_count(self, capsys):
        code, _, err = run(capsys, "manymode", "diag", "--modes", "0")
        assert code == 2

    # refused before any array is built; none of these counts is run
    @pytest.mark.parametrize("argv", [
        *[(sub, "--modes", str(m)) for sub in ("diag", "lowest-scan",
                                               "coupling-run")
          for m in (MAX_MODES + 1, 10**19)],
        ("coupling-run", "--sweep", "modes=1e19:1e20:3"),
        ("coupling-run", "--sweep", "modes=1:1e19:3"),
        ("coupling-run", "--sweep", "modes=1e19:1:3"),
        ("coupling-run", "--sweep", f"modes=1:{MAX_MODES + 1}:2"),
    ])
    def test_mode_count_over_the_cap(self, capsys, argv):
        code, out, err = run(capsys, "manymode", *argv)
        assert (code, out) == (2, "")
        assert str(MAX_MODES) in err

    def test_coupling_run_where_the_limit_sum_overflows(self, capsys):
        # ratio^2 is finite but ratio^2 pi^2/6 overflows: the limit is 1
        code, out, err = run(capsys, "manymode", "coupling-run", "--ratio",
                             "1.3e154", "--modes", "3", "--format", "json")
        assert (code, err) == (0, "")
        body = json.loads(out)
        assert body["rows"] == [[1, 1.0], [2, 1.0], [3, 1.0]]
        assert body["summary"]["g_limit"] == 1.0

    def test_diag_reads_no_sweep(self, capsys):
        code, out, err = run(capsys, "manymode", "diag",
                             "--sweep", "ratio=0:1:3")
        assert (code, out) == (2, "")
        assert err == "error: manymode diag does not read --sweep\n"

    def test_convergence_maps_to_exit_4(self, capsys, monkeypatch):
        import cavity2deg.cli as climod

        def explode(*a, **k):
            raise ConvergenceError("stalled after 30 sweeps")

        monkeypatch.setattr(climod, "normal_modes", explode)
        code, _, err = run(capsys, "manymode", "diag", "--modes", "3")
        assert code == 4
        assert "stalled" in err


class TestUsageErrors:
    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "phase", "--config",
                           str(tmp_path / "absent.txt"))
        assert code == 2
        assert "cannot read" in err

    def test_malformed_sweep(self, capsys):
        code, _, err = run(capsys, "phase", "--sweep", "gamma=0:1")
        assert code == 2

    def test_wrong_sweep_variable(self, capsys):
        code, _, err = run(capsys, "phase", "--sweep", "w=0:1:5")
        assert code == 2
        assert "gamma" in err

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        code, _, err = run(capsys, "phase", "--out", str(target))
        assert code == 2

    @pytest.mark.parametrize("sub", ["diag", "lowest-scan", "coupling-run"])
    def test_manymode_rejects_config(self, capsys, tmp_path, sub):
        # the ladder is dimensionless: a config would change only the hash
        cfg = tmp_path / "c.txt"
        cfg.write_text("units_mode = ratio\nratio = 0.5\n")
        code, out, err = run(capsys, "manymode", sub, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "does not read --config" in err

    @pytest.mark.parametrize("text", [
        "n_electrons = 100000000\narea = 1e-8\nmirror_gap = 1e-6\n"
        "cavity_index = 0\n",
        "units_mode = ratio\nratio = 0.5\ncavity_index = 7\n"])
    def test_cavity_index_config_rejected(self, capsys, tmp_path, text):
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        code, out, err = run(capsys, "phase", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "cavity_index" in err

    def test_si_config_without_cavity_index_keeps_its_hash(self, capsys,
                                                            tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("n_electrons = 100000000\narea = 1e-8\n"
                       "mirror_gap = 1e-6\n")
        code, out, _ = run(capsys, "phase", "--config", str(cfg))
        assert code == 0
        assert "# config_hash: 892d49c61e586074" in out.splitlines()

    def test_bad_digits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["phase", "--digits", "0"])
        assert exc.value.code == 2

    def test_unknown_kind_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["response", "zz"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "cavity2deg" in capsys.readouterr().out


def _float_flag_argvs() -> list[tuple[str, ...]]:
    """argv templates, one per sub-command and float input it takes; ``{}``
    marks the value.  ``--flag={}`` keeps argparse from reading -inf as an
    option."""
    commands = [(("phase",), (), "gamma")]
    commands += [(("response", kind), ("--eta",), "w")
                 for kind in cli._menu("response")]
    commands += [(("eft", sub), ("--lambda0", "--eta"), var)
                 for sub, var in (("coupling", "lambda0"), ("mass", "lambda0"),
                                  ("mu", "lambda0"), ("casimir", "lambda0"),
                                  ("jellium", "rs"), ("chi", "w"))]
    commands += [(("manymode", sub, "--modes=3"), ("--ratio",), var)
                 for sub, var in (("diag", None), ("lowest-scan", "ratio"),
                                  ("coupling-run", "modes"))]
    argvs = []
    for prefix, flags, var in commands:
        argvs += [prefix + (flag + "={}",) for flag in flags]
        if var is not None:
            argvs += [prefix + ("--sweep", var + "={}:1:3"),
                      prefix + ("--sweep", var + "=0.5:{}:3")]
    return argvs


FLOAT_FLAG_ARGVS = _float_flag_argvs()

SI_CONFIG = {"units_mode": "si", "n_electrons": 100_000_000, "area": 1e-8,
             "mirror_gap": 1e-6, "cavity_index": 1, "mode_frequency": 3e14}
RATIO_CONFIG = {"units_mode": "ratio", "ratio": 0.5}
CONFIG_FIELDS = ("n_electrons", "area", "mirror_gap", "cavity_index",
                 "mode_frequency", "ratio")


# finite config files, the field each names, its exit code and the
# sub-commands that reach it: m_e eps0 L_z underflows to 0 at the tiny gap,
# ratio^2 overflows at the huge ratio, (c kappa_z)^2 at the small gap and
# omega_p^4 at the large ratio; 10**400 electrons are past the float range
EXTREME_CONFIGS = {
    "tiny_gap": ("n_electrons = 100000000\narea = 1e-8\nmirror_gap = 1e-320\n",
                 "mirror_gap", 3, [("phase",), ("response", "aa"),
                                   ("response", "sigma"), ("eft", "coupling")]),
    "huge_ratio": ("units_mode = ratio\nratio = 1e200\n", "ratio", 3,
                   [("phase",), ("response", "aa"), ("response", "sigma")]),
    "small_gap": ("n_electrons = 100000000\narea = 1e-8\nmirror_gap = 1e-200\n",
                  "mirror_gap", 3, [("eft", "chi")]),
    "large_ratio": ("units_mode = ratio\nratio = 1e150\n", "ratio", 3,
                    [("response", "sigma")]),
    "huge_count": (f"n_electrons = {10**400}\narea = 1e-8\nmirror_gap = 1e-6\n",
                   "n_electrons", 2, [("phase",), ("response", "aa"),
                                      ("eft", "coupling")]),
}

ALL_COMMANDS = ([("phase",)]
                + [("response", kind) for kind in cli._menu("response")]
                + [("eft", sub) for sub in ("coupling", "mass", "mu",
                                            "casimir", "jellium", "chi")]
                + [("manymode", sub) for sub in ("diag", "lowest-scan",
                                                 "coupling-run")])
# log-uniform over the positive doubles, and integers up to ~1e400
POSITIVE_DOUBLES = st.floats(-323.3, 308.25).map(lambda e: 10.0 ** e)
LARGE_INTEGERS = st.builds(lambda m, e: m * 10**e, st.integers(1, 999),
                           st.integers(0, 397))
# each SI field at its default or anywhere in its range
EXTREME_FIELDS = st.one_of(
    st.fixed_dictionaries(
        {"n_electrons": st.just(100_000_000) | LARGE_INTEGERS,
         "area": st.just(1e-8) | POSITIVE_DOUBLES,
         "mirror_gap": st.just(1e-6) | POSITIVE_DOUBLES},
        optional={"cavity_index": LARGE_INTEGERS,
                  "mode_frequency": POSITIVE_DOUBLES}),
    st.fixed_dictionaries({"units_mode": st.just("ratio"),
                           "ratio": POSITIVE_DOUBLES}))


class TestNonFiniteInput:
    """Non-finite input and rows that overflow end in exit 2 or 3 with no
    output and no numpy warning; none of these exits 0."""

    @pytest.mark.parametrize("argv, code", [
        (["phase", "--sweep", "gamma=nan:1:3"], 2),
        (["phase", "--sweep", "gamma=0:inf:3"], 2),
        (["response", "aa", "--sweep", "w=-1e308:1e308:3"], 2),
        (["eft", "mass", "--sweep", "lambda0=1:inf:3"], 2),
        (["response", "aa", "--eta", "nan"], 3),
        (["response", "sigma", "--eta", "inf"], 3),
        (["eft", "mass", "--lambda0", "nan", "--format", "json"], 3),
        (["eft", "coupling", "--lambda0", "inf"], 3),
        (["eft", "chi", "--eta", "nan"], 3),
        # lambda0^1.5 overflows
        (["eft", "casimir", "--sweep", "lambda0=1:1e300:3", "--format",
          "json"], 3),
        # the log of inf/inf
        (["eft", "chi", "--lambda0", "6", "--sweep", "w=1e300:1e301:3"], 3),
        # rs^2 underflows to 0
        (["eft", "jellium", "--lambda0", "6", "--sweep",
          "rs=1e-200:1e-190:3"], 3),
        # lowest-scan does not read --ratio, so any value is rejected
        (["manymode", "lowest-scan", "--ratio", "nan"], 2),
        (["manymode", "lowest-scan", "--ratio", "inf"], 2),
        (["manymode", "diag", "--ratio", "nan", "--format", "json"], 2),
        (["manymode", "coupling-run", "--ratio", "inf"], 2),
        # ratio^2 overflows, and the sweep leaves no row to catch it
        (["manymode", "coupling-run", "--ratio", "1e200", "--sweep",
          "modes=-5:0:3"], 2),
        # finite flags a sub-command never reads
        (["eft", "coupling", "--eta", "5"], 2),
        (["eft", "mass", "--eta", "5"], 2),
        (["eft", "mu", "--eta", "5"], 2),
        (["eft", "casimir", "--eta", "5"], 2),
        (["eft", "jellium", "--eta", "5"], 2),
        (["manymode", "lowest-scan", "--ratio", "7"], 2),
    ])
    def test_exit_code(self, capsys, argv, code):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run(capsys, *argv)
        assert got == code
        assert out == ""
        assert err.startswith("error: ")

    @settings(max_examples=40)
    @given(st.sampled_from(FLOAT_FLAG_ARGVS),
           st.sampled_from(("nan", "inf", "-inf")),
           st.sampled_from(("csv", "json")))
    def test_float_flags_property(self, template, value, fmt):
        # every float a flag or a sweep endpoint takes, set non-finite
        argv = [a.format(value) for a in template] + ["--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (2, 3), (argv, code)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")

    @settings(max_examples=40)
    @given(st.sampled_from(CONFIG_FIELDS),
           st.sampled_from((math.nan, math.inf, -math.inf)),
           st.sampled_from(("text", "json")),
           st.sampled_from((("phase",), ("response", "aa"),
                            ("response", "sigma"), ("eft", "coupling"),
                            ("eft", "chi"))))
    def test_config_fields_property(self, key, value, form, command):
        # every numeric config field set non-finite, in either file format
        data = dict(RATIO_CONFIG if key == "ratio" else SI_CONFIG)
        data[key] = value
        if form == "json":
            text = json.dumps(data)     # NaN, Infinity, -Infinity tokens
        else:
            text = "".join(f"{k} = {v}\n" for k, v in data.items())
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.cfg"
            cfg.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main([*command, "--config", str(cfg)])
        assert code == 2, (command, text, err.getvalue())
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")

    @pytest.mark.parametrize("case, command", [
        pytest.param(case, command, id=f"{case}-{'-'.join(command)}")
        for case, (*_, commands) in EXTREME_CONFIGS.items()
        for command in commands])
    def test_extreme_finite_config(self, capsys, tmp_path, case, command):
        # finite values whose derived scales leave the float range: exit 3
        # (2 for an integer past the float range), with the field named,
        # instead of a traceback
        text, field, expected, _ = EXTREME_CONFIGS[case]
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *command, "--config", str(cfg))
        assert code == expected
        assert out == ""
        assert err.startswith("error: ")
        assert field in err

    @settings(max_examples=80)
    @given(st.sampled_from(ALL_COMMANDS), EXTREME_FIELDS)
    def test_finite_config_extremes_property(self, command, data):
        # finite config fields anywhere in their range, alone or together:
        # exit 0, 2 or 3, never a traceback; output only on exit 0, and
        # then every number in it finite
        text = "".join(f"{k} = {v}\n" for k, v in data.items())
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.cfg"
            cfg.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main([*command, "--config", str(cfg)])
        assert code in (0, 2, 3), (command, text, err.getvalue())
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
        for line in out.getvalue().splitlines():
            for token in line.split(","):
                try:
                    assert math.isfinite(float(token)), (command, text, line)
                except ValueError:   # a header, a column name or a label
                    pass

    @pytest.mark.parametrize("text", [
        "units_mode = ratio\nratio = nan\n",
        "n_electrons = 100\narea = inf\nmirror_gap = 1e-6\n",
    ])
    def test_non_finite_config(self, capsys, tmp_path, text):
        cfg = tmp_path / "c.txt"
        cfg.write_text(text)
        code, out, err = run(capsys, "phase", "--config", str(cfg))
        assert code == 2
        assert "finite" in err


class TestParserReuse:
    def test_successive_calls_match_fresh_parsers(self, capsys):
        argvs = [("phase", "--format", "json"),
                 ("response", "aa", "--sweep", "w=0:1e13:5"),
                 ("eft", "jellium", "--sweep", "rs=1:2:3"),
                 ("phase", "--sweep", "gamma=nan:1:3")]
        reused = [run(capsys, *a) for a in argvs]
        fresh = []
        for a in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *a))
        assert reused == fresh


def pointwise_eft(sub, system, lams):
    """The lambda0 sweep of cmd_eft evaluated one EftConfig per point: the
    rows, the beyond-window count and the truncation notice."""
    rows, beyond, notice = [], 0, None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for lam in lams.tolist():
            ecfg = EftConfig(system=system, lambda0=lam)
            beyond += not ecfg.in_stability_window
            try:
                if sub == "coupling":
                    rows.append((lam, effective_coupling(ecfg)))
                elif sub == "mass":
                    rows.append((lam, renormalized_mass(ecfg)))
                elif sub == "mu":
                    rows.append((lam, chemical_potential(ecfg)))
                else:
                    rows.append((lam, casimir_energy_density(ecfg),
                                 casimir_pressure(ecfg)))
            except PoleError as exc:
                notice = f"sweep truncated at lambda0 = {lam!r}: {exc}"
                break
    return rows, beyond, notice


class TestSweepsMatchPointwise:
    """Each CLI sweep is one array call; per-point scalar calls are the
    oracle for its rows and for the sweep bookkeeping."""

    # two electrons in a 1 pm gap: the Landau pole sits near 1e77 and the
    # per-particle mass pole near 1e154, both inside a representable sweep
    STRONG = SystemConfig.si(2, 1e-8, 1e-12)

    @pytest.mark.parametrize("sub, sweep", [
        ("coupling", "lambda0=1:1e200:21:log"),
        ("mass", "lambda0=1:1e200:21:log"),
        ("mu", "lambda0=1:1e200:21:log"),
        ("casimir", "lambda0=1:1e100:21:log"),
        ("mass", "lambda0=1e200:1:21:log"),
    ])
    def test_cutoff_sweeps(self, sub, sweep, assert_matches_loop):
        spec = SweepSpec.parse(sweep)
        rec = cmd_eft(sub, self.STRONG, spec)
        rows, beyond, notice = pointwise_eft(sub, self.STRONG, spec.grid())
        assert len(rec.rows) == len(rows)
        for col in range(len(rec.columns)):
            assert_matches_loop([r[col] for r in rec.rows],
                                [r[col] for r in rows])
        assert rec.summary.get("truncation_notice") == notice
        assert rec.summary.get("rows_beyond_stability_window", 0) == beyond

    def test_truncation_and_window_are_exercised(self):
        rec = cmd_eft("mass", self.STRONG,
                      SweepSpec.parse("lambda0=1:1e200:21:log"))
        assert "truncation_notice" in rec.summary
        assert rec.summary["rows_beyond_stability_window"] > 1

    @pytest.mark.parametrize("kind, func", [
        ("sigma", optical_conductivity),
        ("ja", chi_mixed_freq),
    ])
    def test_response(self, kind, func, assert_matches_loop):
        config = cli._default_config()
        scales = DerivedScales(config)
        eta = 0.01 * scales.omega_tilde
        spec = SweepSpec.parse(f"w={-3 * scales.omega_tilde!r}:"
                               f"{3 * scales.omega_tilde!r}:301")
        rec = cmd_response(kind, config, spec)
        want = [func(BroadenedFrequency(w, eta), scales)
                for w in spec.grid().tolist()]
        assert [r[0] for r in rec.rows] == spec.grid().tolist()
        assert_matches_loop([r[1] for r in rec.rows], [v.re for v in want])
        assert_matches_loop([r[2] for r in rec.rows], [v.im for v in want])

    def test_jellium(self, assert_matches_loop):
        config = cli._default_config()
        spec = SweepSpec.parse("rs=0.3:14:50:log")
        rec = cmd_eft("jellium", config, spec, lambda0=8.0)
        ecfg = EftConfig(system=config, lambda0=8.0)
        want = [jellium(rs, ecfg) for rs in spec.grid().tolist()]
        for col, field in enumerate(("rs", "tau", "eps_x", "total")):
            assert_matches_loop([r[col] for r in rec.rows],
                                [getattr(v, field) for v in want])

    @pytest.mark.parametrize("eta", [None, 0.0])
    def test_chi(self, eta, assert_matches_loop):
        config = cli._default_config()
        rec = cmd_eft("chi", config, None, lambda0=6.0, eta=eta)
        ecfg = EftConfig(system=config, lambda0=6.0)
        eta = rec.params["eta"]
        want = [eft_chi_aa(BroadenedFrequency(r[0], eta), ecfg)
                for r in rec.rows]
        assert_matches_loop([r[1] for r in rec.rows], [v.re for v in want])
        assert_matches_loop([r[2] for r in rec.rows], [v.im for v in want])


def _default_argvs() -> list[tuple[str, ...]]:
    """The default invocation of each entry of cli._SUBCOMMANDS."""
    return [(command,) if sub is None else (command, sub)
            for command, sub in cli._SUBCOMMANDS]


class TestSubcommandTable:
    """cli._SUBCOMMANDS declares each sub-command once; the parser and
    every default invocation follow it."""

    @pytest.mark.parametrize("argv", _default_argvs())
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_default_invocation(self, capsys, argv, fmt):
        first = run(capsys, *argv, "--format", fmt)
        assert first[0] == 0 and first[2] == ""
        assert run(capsys, *argv, "--format", fmt) == first
        tokens = re.findall(r"[A-Za-z]+", first[1])
        assert not {"nan", "inf", "NaN", "Infinity"} & set(tokens)

    def test_parser_choices_are_the_table(self):
        subparsers = next(a for a in cli._build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        declared = []
        for command, parser in subparsers.choices.items():
            subs = [a.choices for a in parser._actions
                    if a.dest in ("sub", "kind")]
            declared += [(command, sub) for sub in (subs[0] if subs
                                                    else [None])]
        assert declared == list(cli._SUBCOMMANDS)
        assert cli.SWEEPABLE == ("gamma", "w", "lambda0", "rs", "ratio",
                                 "modes")


class TestImportFloor:
    # one cheap run of each command; scipy is a test-only dependency
    ARGVS = [["phase"], ["response", "aa"], ["eft", "coupling"],
             ["manymode", "diag", "--modes", "5"],
             ["manymode", "lowest-scan", "--modes", "5"],
             ["manymode", "coupling-run", "--modes", "5"]]

    def test_cli_import_loads_no_scipy(self):
        # every workload's start-up time rests on this import, and no
        # command may load scipy later either
        src = Path(cavity2deg.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        script = (
            "import contextlib, io, sys\n"
            "import cavity2deg.cli as cli\n"
            "assert 'scipy' not in sys.modules\n"
            f"for argv in {self.ARGVS!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "assert 'scipy' not in sys.modules\n")
        subprocess.run([sys.executable, "-c", script], env=env, check=True,
                       timeout=120)
