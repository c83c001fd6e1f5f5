"""Configuration, derived scales, and phase classification.

Frozen reference numbers were produced with a 50-digit arbitrary-precision
evaluation (mpmath) of the same closed forms; they are exact to the printed
digits.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavity2deg import (
    CODATA2018,
    ConfigError,
    DerivedScales,
    DomainError,
    Phase,
    SystemConfig,
    UnitModeError,
    UnitsMode,
    classify_phase,
    collective_coupling,
    dressed_frequency,
    fermi_wavevector,
    load_config_file,
    plasma_frequency,
    single_particle_coupling,
)

# mpmath, dps=50: sqrt(e^2 * 1e16 / (m_e * eps0 * 1e-6)) with CODATA 2018 inputs
OMEGA_P_REF = 5641460231180.6276
# mpmath, dps=50: sqrt((2e13)^2 + OMEGA_P_REF^2)
OMEGA_TILDE_REF = 20780425249257.836
GAMMA_REF = 0.07370113916255935


class TestConstants:
    def test_codata_2018_values(self):
        assert CODATA2018.hbar == 1.054571817e-34
        assert CODATA2018.e == 1.602176634e-19
        assert CODATA2018.m_e == 9.1093837015e-31
        assert CODATA2018.eps0 == 8.8541878128e-12
        assert CODATA2018.c == 299792458.0


class TestSystemConfig:
    def test_si_requires_all_dimensions(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_electrons=10, area=1e-8)

    def test_si_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            SystemConfig.si(n_electrons=0, area=1e-8, mirror_gap=1e-6)
        with pytest.raises(ConfigError):
            SystemConfig.si(n_electrons=10, area=-1e-8, mirror_gap=1e-6)
        with pytest.raises(ConfigError):
            SystemConfig.si(n_electrons=10, area=1e-8, mirror_gap=1e-6,
                            cavity_index=0)

    @pytest.mark.parametrize("field", ["area", "mirror_gap", "mode_frequency"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_si_rejects_non_finite(self, field, bad):
        kw = dict(n_electrons=10, area=1e-8, mirror_gap=1e-6)
        kw[field] = bad
        with pytest.raises(ConfigError, match="finite"):
            SystemConfig.si(**kw)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_ratio_rejects_non_finite(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            SystemConfig.from_ratio(bad)

    def test_mode_exclusivity(self):
        # ratio is a pure-number field, SI fields are dimensionful: never both
        with pytest.raises(ConfigError):
            SystemConfig(n_electrons=10, area=1e-8, mirror_gap=1e-6, ratio=0.5)
        with pytest.raises(ConfigError):
            SystemConfig(units_mode=UnitsMode.RATIO, ratio=0.5, area=1e-8)
        with pytest.raises(ConfigError):
            SystemConfig(units_mode=UnitsMode.RATIO)

    def test_default_mode_frequency_is_cavity_fundamental(self):
        cfg = SystemConfig.si(n_electrons=10**8, area=1e-8, mirror_gap=1e-6)
        ds = DerivedScales(cfg)
        assert ds.omega == pytest.approx(
            CODATA2018.c * math.pi / 1e-6, rel=1e-15)
        cfg3 = SystemConfig.si(n_electrons=10**8, area=1e-8, mirror_gap=1e-6,
                               cavity_index=3)
        assert DerivedScales(cfg3).omega == pytest.approx(3 * ds.omega, rel=1e-15)

    def test_mapping_round_trip(self, si_config, ratio_config):
        for cfg in (si_config, ratio_config):
            assert SystemConfig.from_mapping(cfg.as_mapping()) == cfg

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            SystemConfig.from_mapping({"units_mode": "si", "bogus": 1})

    def test_volume(self, si_config):
        assert si_config.volume == pytest.approx(1e-14, rel=1e-15)

    def test_ratio_mode_blocks_dimensionful_queries(self, ratio_config):
        ds = DerivedScales(ratio_config)
        assert ds.gamma == pytest.approx(0.2, rel=1e-15)
        assert ds.omega_tilde_over_omega == pytest.approx(
            math.sqrt(1.25), rel=1e-15)
        for attr in ("omega", "omega_p", "omega_tilde", "n_2d", "k_fermi"):
            with pytest.raises(UnitModeError):
                getattr(ds, attr)
        with pytest.raises(UnitModeError):
            plasma_frequency(ratio_config)
        with pytest.raises(UnitModeError):
            single_particle_coupling(ratio_config)


class TestDerivedScales:
    def test_plasma_frequency_frozen_reference(self, si_config):
        # n_2d = 1e8 / 1e-8 m^2 = 1e16 m^-2, L_z = 1e-6 m
        assert plasma_frequency(si_config) == pytest.approx(
            OMEGA_P_REF, rel=1e-15)

    def test_dressed_frequency_frozen_reference(self, si_config):
        ds = DerivedScales(si_config)
        assert ds.omega_tilde == pytest.approx(OMEGA_TILDE_REF, rel=1e-15)
        assert ds.gamma == pytest.approx(GAMMA_REF, rel=1e-14)

    def test_plasma_frequency_scaling(self, si_config):
        # omega_p^2 is linear in n_2d and in 1/L_z
        wp = plasma_frequency(si_config)
        denser = SystemConfig.si(n_electrons=4 * 10**8, area=1e-8,
                                 mirror_gap=1e-6, mode_frequency=2e13)
        assert plasma_frequency(denser) == pytest.approx(2 * wp, rel=1e-14)
        wider = SystemConfig.si(n_electrons=10**8, area=1e-8, mirror_gap=4e-6,
                                mode_frequency=2e13)
        assert plasma_frequency(wider) == pytest.approx(wp / 2, rel=1e-14)

    def test_single_particle_coupling_identity(self, si_config):
        # 2 m_e N g^2 / (hbar^3 omega_t) equals gamma
        ds = DerivedScales(si_config)
        g = single_particle_coupling(si_config)
        lhs = (2.0 * CODATA2018.m_e * si_config.n_electrons * g**2
               / (CODATA2018.hbar**3 * ds.omega_tilde))
        assert lhs == pytest.approx(ds.gamma, rel=1e-13)

    def test_fermi_wavevector(self, si_config):
        ds = DerivedScales(si_config)
        assert ds.k_fermi == pytest.approx(math.sqrt(2 * math.pi * 1e16),
                                           rel=1e-15)
        with pytest.raises(DomainError):
            fermi_wavevector(-1.0)

    @pytest.mark.parametrize("config, attr, field", [
        # m_e eps0 L_z underflows to 0
        (SystemConfig.si(10**8, 1e-8, 1e-320), "omega_p", "mirror_gap"),
        # c pi / L_z overflows
        (SystemConfig.si(10**8, 1e-8, 1e-320), "omega", "mirror_gap"),
        # N / area overflows
        (SystemConfig.si(10**8, 1e-320, 1e-6), "n_2d", "area"),
        # ratio^2 overflows: gamma would be inf/inf, omega_t/omega an
        # OverflowError
        (SystemConfig.from_ratio(1e200), "gamma", "ratio"),
        (SystemConfig.from_ratio(1e200), "omega_tilde_over_omega", "ratio"),
        (SystemConfig.si(10**8, 1e-8, 1e-6, mode_frequency=1e-300),
         "gamma", "omega_p/omega"),
    ])
    def test_scales_past_the_float_range(self, config, attr, field):
        # finite config values whose closed forms leave the float range
        with pytest.raises(DomainError, match=field):
            getattr(DerivedScales(config), attr)


class TestScalarHelpers:
    @given(st.floats(1e-3, 1e3), st.floats(0.0, 1e3))
    def test_dressed_frequency_hypot(self, omega, omega_p):
        wt = dressed_frequency(omega, omega_p)
        assert wt >= max(omega, omega_p)
        assert wt**2 == pytest.approx(omega**2 + omega_p**2, rel=1e-12)

    @given(st.floats(1e-3, 1e3), st.floats(0.0, 1e3))
    def test_collective_coupling_range_and_identity(self, omega, omega_p):
        gamma = collective_coupling(omega, omega_p)
        assert 0.0 <= gamma < 1.0
        r = omega_p / omega
        assert gamma == pytest.approx(r * r / (1 + r * r), rel=1e-12)

    @given(st.floats(0.0, 50.0))
    def test_gamma_monotone_in_ratio(self, r):
        g1 = collective_coupling(1.0, r)
        g2 = collective_coupling(1.0, r + 0.5)
        assert g2 > g1

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            dressed_frequency(0.0, 1.0)
        with pytest.raises(DomainError):
            dressed_frequency(1.0, -1.0)
        with pytest.raises(DomainError):
            collective_coupling(-1.0, 1.0)


class TestPhaseClassifier:
    def test_bands(self):
        assert classify_phase(0.0) is Phase.STABLE
        assert classify_phase(0.999999) is Phase.STABLE
        assert classify_phase(1.0) is Phase.CRITICAL
        assert classify_phase(1.0 + 5e-13) is Phase.CRITICAL
        assert classify_phase(1.0000001) is Phase.UNSTABLE
        assert classify_phase(3.0) is Phase.UNSTABLE

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            classify_phase(-0.1)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(DomainError, match="finite"):
            classify_phase(gamma)

    @given(st.floats(0.0, 0.999))
    def test_subcritical_band_is_stable(self, gamma):
        assert classify_phase(gamma) is Phase.STABLE


class TestConfigFiles:
    def test_text_format(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text(
            "# cavity sample\n"
            "n_electrons = 100000000\n"
            "area = 1e-8\n"
            "mirror_gap = 1e-6   # metres\n"
            "mode_frequency = 2e13\n"
        )
        cfg = load_config_file(p)
        assert cfg.n_electrons == 10**8
        assert cfg.mode_frequency == 2e13

    def test_text_format_ratio(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("units_mode = ratio\nratio = 0.5\n")
        cfg = load_config_file(p)
        assert cfg.units_mode is UnitsMode.RATIO
        assert cfg.ratio == 0.5

    def test_json_format(self, tmp_path, si_config):
        p = tmp_path / "cfg.json"
        import json

        p.write_text(json.dumps(si_config.as_mapping()))
        assert load_config_file(p) == si_config

    def test_json_record_config_member_reused(self, tmp_path, si_config):
        # a full output record round-trips through its embedded config
        p = tmp_path / "record.json"
        import json

        p.write_text(json.dumps({"command": "x", "config": si_config.as_mapping(),
                                 "rows": []}))
        assert load_config_file(p) == si_config

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("n_electrons = 10\nnonsense line\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_config_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(tmp_path / "absent.txt")

    def test_bad_value_diagnostic(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("n_electrons = lots\narea = 1e-8\nmirror_gap = 1e-6\n")
        with pytest.raises(ConfigError, match="n_electrons"):
            load_config_file(p)
