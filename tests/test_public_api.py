"""The package's public surface: one list of names, one argument check.

Every closed form that takes a positive or non-negative scalar rejects NaN
and +-inf for it with a DomainError that names the argument, instead of
returning NaN (NaN fails every ``x <= 0`` comparison) or raising a bare
ValueError; so does a signed scalar inside a tuple or a sequence.  Finite
arguments anywhere in the float range give finite numbers or a
Cavity2degError, never inf, NaN, a bare OverflowError or a RuntimeWarning;
a result past the float range is a DomainError that names the arguments.
collective_coupling, whose result is in range for every admitted pair, is
also held to a 50-digit value over the whole float range, as are
dressed_frequency, the gamma and omega_t/omega of a Ratio-mode
DerivedScales, fermi_wavevector, coupling_1d, exact_coupling_1d and
eigenenergy at int photon numbers past the float range; so are the
spectra, sums whose terms can cancel, within a bound in ulp of their
largest term: eigenenergy_no_a2 (K over the float range), eigenenergy at
K != 0, eft.effective_energy, manymode_spectrum on ladders and
energy_density; and so are the responses chi_AA, chi_EA (normwise),
optical_conductivity (of its larger term) and absorption_rate, at Ratio
configs over the float range and two SI configs.  A DomainError is allowed
only where the true value is past the float range.  Three tests parse the package: core._finite holds
the only np.errstate, core._scaled the only math.frexp, and every import
is the standard library, numpy or the package itself.
"""

import ast
import dataclasses
import enum
import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavity2deg
from cavity2deg import (BroadenedFrequency, Cavity2degError, ConfigError,
                        DerivedScales, DistributionMoments, DomainError,
                        EftConfig, ModeSet,
                        OccupancyGrid, PreconditionError, SpectrumIndex,
                        SystemConfig,
                        absorption_rate, appendix_integrals,
                        casimir_energy_density, casimir_pressure,
                        chemical_potential, chi_aa_freq, chi_aa_time,
                        chi_ea_freq, chi_ea_time, chi_jj_freq,
                        chi_mixed_freq,
                        classify_phase, collective_coupling, constants, core,
                        coupling_1d, coupling_3d, dc_conductivity,
                        dressed_frequency, drude_effective_mass, eft,
                        eft_chi_aa, eigenenergy, eigenenergy_no_a2,
                        energy_density, exact_coupling_1d, exceptions,
                        fermi_wavevector,
                        ground_photon_occupation, instability_witness,
                        manymode, manymode_spectrum, mass_3d, normal_modes,
                        optical_conductivity, optimal_origin,
                        quasiparticle_energy, response, response_table,
                        sigma0_dc, singlemode)

SYSTEM = SystemConfig.si(n_electrons=100_000_000, area=1e-8, mirror_gap=1e-6)
SCALES = DerivedScales(SYSTEM)
ECFG = EftConfig(SYSTEM, lambda0=4.0)
MOMENTS = DistributionMoments(t_d=1.0, k_d=(0.5, 0.0), n_2d=1.0)
PROBE = BroadenedFrequency(1e13, 1e11)


def _moments(n_2d, k_d=0.5):
    return DistributionMoments(t_d=1.0, k_d=(k_d, 0.0), n_2d=n_2d)


def energy_density_at(n_2d):
    return energy_density(_moments(n_2d), (0.0, 0.0), 0.5)


def optimal_origin_at(n_2d, k_d):
    return optimal_origin(_moments(n_2d, k_d))


def instability_witness_at(n_2d):
    return instability_witness(_moments(n_2d), 1.5, [1.0])


# a scalar inside a tuple or a sequence, named as the argument that holds it

def energy_density_boosted(q):
    return energy_density(MOMENTS, (q, 0.0), 0.5)


def instability_witness_over(qx_values):
    return instability_witness(MOMENTS, 1.5, [0.0, qx_values])


def eigenenergy_of(K, kinetic_sum):
    return eigenenergy(SpectrumIndex(0, 0, (K, 0.0), kinetic_sum, 1), SCALES)


def disk_around(center):
    return OccupancyGrid.disk(1.0, center=(0.0, center))


def disk_along_x(center, radius=1.0):
    return OccupancyGrid.disk(radius, center=(center, 0.0))


LADDER_MODES = normal_modes(ModeSet.ladder_1d(2), 0.5)


def ladder_spectrum_at(K):
    return manymode_spectrum((0, 1), (K, 0.0), 1.0, LADDER_MODES, 0.5, 10)


def chi_aa_freq_at(w, eta):
    return chi_aa_freq(BroadenedFrequency(w, eta), SCALES)


def chi_ea_freq_at(w, eta):
    return chi_ea_freq(BroadenedFrequency(w, eta), SCALES)


def chi_jj_freq_at(w, eta):
    return chi_jj_freq(BroadenedFrequency(w, eta), SCALES)


def chi_mixed_freq_at(w, eta):
    return chi_mixed_freq(BroadenedFrequency(w, eta), SCALES)


def response_table_at(w, eta):
    return response_table(BroadenedFrequency(w, eta), SCALES)


def optical_conductivity_at(w, eta):
    return optical_conductivity(BroadenedFrequency(w, eta), SCALES)


def eft_chi_aa_at(w, eta):
    return eft_chi_aa(BroadenedFrequency(w, eta), ECFG)


def electron_pair_at(K):
    # two electrons at (K, 0): K sums to 2 K and kinetic_sum to 2 K^2
    return SpectrumIndex.from_momenta([(K, 0.0), (K, 0.0)])


NON_FINITE = (math.nan, math.inf, -math.inf)
# a causal kernel is 0.0 for every tau < 0, -inf too
REJECTED = {"tau": (math.nan, math.inf)}

# (function, valid keyword arguments); each float argument in turn takes
# every rejected value while the others keep theirs
DOMAINS = [
    (dressed_frequency, {"omega": 1.0, "omega_p": 0.5}),
    (collective_coupling, {"omega": 1.0, "omega_p": 0.5}),
    (fermi_wavevector, {"n_2d": 1e15}),
    (classify_phase, {"gamma": 0.5}),
    (partial(eigenenergy_no_a2, SpectrumIndex.from_momenta([(1.0, 0.0)])),
     {"omega": 1e13, "omega_p": 1e12}),
    (ground_photon_occupation, {"omega": 1.0, "omega_p": 0.5}),
    (OccupancyGrid.disk, {"radius": 1.0, "fill": 1.0}),
    (partial(energy_density, MOMENTS, (0.0, 0.0)), {"gamma": 0.5}),
    (energy_density_at, {"n_2d": 1.0}),
    (optimal_origin_at, {"n_2d": 1.0, "k_d": 0.5}),
    (partial(instability_witness, MOMENTS, qx_values=[0.0, 1.0]),
     {"gamma": 1.5}),
    (instability_witness_at, {"n_2d": 1.0}),
    (energy_density_boosted, {"q": 1.0}),
    (instability_witness_over, {"qx_values": 1.0}),
    (eigenenergy_of, {"K": 1e7, "kinetic_sum": 1e16}),
    (disk_around, {"center": 0.5}),
    (BroadenedFrequency, {"w": 1.0, "eta": 0.1}),
    (partial(chi_aa_time, scales=SCALES), {"tau": 1e-15}),
    (partial(chi_ea_time, scales=SCALES), {"tau": 1e-15}),
    (partial(absorption_rate, PROBE, SCALES), {"j_ext": 1.0}),
    (partial(sigma0_dc, SCALES), {"eta": 1e11}),
    (partial(dc_conductivity, SCALES), {"eta": 1e11}),
    (partial(chemical_potential, ECFG), {"k_fermi": 1e8}),
    (partial(quasiparticle_energy, ecfg=ECFG),
     {"k": 1e8, "k_fermi": 1e8, "v_fermi": 1e5}),
    (coupling_1d, {"kappa_max": 1e6, "omega": 1e14, "omega_p": 1e12}),
    (coupling_3d, {"lambda_mom": 1e10}),
    (mass_3d, {"lambda_mom": 1e10}),
    (partial(appendix_integrals, ecfg=ECFG), {"w": 1e14, "eta": 1e12}),
    (partial(manymode_spectrum, (0, 1), (1.0, 0.0),
             normal=LADDER_MODES, n_electrons=10),
     {"kinetic_sum": 1.0, "omega_p": 0.5}),
    (ladder_spectrum_at, {"K": 1.0}),
    (chi_aa_freq_at, {"w": 1e13, "eta": 1e11}),
    (chi_ea_freq_at, {"w": 1e13, "eta": 1e11}),
    (chi_jj_freq_at, {"w": 1e13, "eta": 1e11}),
    (chi_mixed_freq_at, {"w": 1e13, "eta": 1e11}),
    (response_table_at, {"w": 1e13, "eta": 1e11}),
    (optical_conductivity_at, {"w": 1e13, "eta": 1e11}),
    (eft_chi_aa_at, {"w": 1e15, "eta": 1e13}),
    (partial(casimir_energy_density, ECFG), {"lambda0": 4.0}),
    (partial(casimir_pressure, ECFG), {"lambda0": 4.0}),
]


def _label(func) -> str:
    func = getattr(func, "func", func)
    return func.__qualname__


CASES = [pytest.param(func, valid, name, bad,
                      id=f"{_label(func)}-{name}-{bad}")
         for func, valid in DOMAINS
         for name in valid
         for bad in REJECTED.get(name, NON_FINITE)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("func, valid, name, bad", CASES)
def test_non_finite_scalar_argument_is_a_named_domain_error(func, valid,
                                                            name, bad):
    func(**valid)   # the row's other arguments are in the domain
    with pytest.raises(DomainError) as info:
        func(**{**valid, name: bad})
    assert re.search(rf"\b{re.escape(name)}\b", str(info.value)), (
        str(info.value))


# finite arguments whose float ** or product leaves the float range
OVERFLOWS = [
    (energy_density_boosted, {"q": 1e200}, "q"),
    (partial(absorption_rate, PROBE, SCALES), {"j_ext": 1e200}, "j_ext"),
    (partial(absorption_rate, PROBE, SCALES), {"j_ext": 1e154}, "j_ext"),
    (OccupancyGrid.disk, {"radius": 1.7e308}, "radius"),
    (OccupancyGrid.disk, {"radius": 1e200}, "radius"),
    # cell indices past 2**53, on either axis
    (disk_along_x, {"center": 1e20}, "center"),
    (disk_around, {"center": 1e20}, "center"),
    (partial(disk_along_x, radius=1e100), {"center": 1.7e308}, "center"),
    (ladder_spectrum_at, {"K": 1e200}, "K"),
    (electron_pair_at, {"K": 1e160}, "K"),
    (electron_pair_at, {"K": 1e308}, "K"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("func, args, name", OVERFLOWS,
                         ids=[f"{_label(f)}-{n}-{a[n]:g}"
                              for f, a, n in OVERFLOWS])
def test_overflowing_finite_argument_is_a_named_domain_error(func, args,
                                                             name):
    with pytest.raises(DomainError) as info:
        func(**args)
    assert re.search(rf"\b{re.escape(name)}\b", str(info.value)), (
        str(info.value))


# the rows of DOMAINS by name, for drawing and pinning whole calls
ROWS = {_label(func): (func, valid) for func, valid in DOMAINS}
assert len(ROWS) == len(DOMAINS)
# log-uniform over +-[1e-320, 1.6e308], and 0
FINITE_DOUBLES = st.one_of(
    st.just(0.0),
    st.builds(math.copysign,
              st.floats(-320.0, math.log10(1.6e308)).map(lambda e: 10.0**e),
              st.sampled_from([1.0, -1.0])))

# finite calls that once returned inf or NaN or raised a bare
# OverflowError, ZeroDivisionError, ValueError, TypeError or RuntimeWarning:
# a DOMAINS row and the leading values of its arguments
RANGE_HOLES = [
    ("dressed_frequency", (1.6e308, 1.6e308)),
    ("eigenenergy_no_a2", (1e-200, 1e200)),
    ("optimal_origin_at", (1e-250, 1e100)),
    ("OccupancyGrid.disk", (8.76e-161,)),    # the cell area h^2 underflows
    ("chi_aa_time", (7.4e300,)),
    ("chi_ea_time", (7.4e300,)),
    ("sigma0_dc", (2.6e-309,)),
    # on the pole w = omega_t: |chi_AA| = 1/(2 eta omega_t eps0 V) > 1.8e308
    ("chi_aa_freq_at", (SCALES.omega_tilde, 1e-310)),
    ("chi_ea_freq_at", (SCALES.omega_tilde, 1e-310)),
    ("chi_jj_freq_at", (SCALES.omega_tilde, 1e-310)),
    ("chi_mixed_freq_at", (SCALES.omega_tilde, 1e-310)),
    ("response_table_at", (SCALES.omega_tilde, 1e-310)),
    ("optical_conductivity_at", (SCALES.omega_tilde, 1e-310)),
    # the table is one 2x2 matrix: a sweep of w is rejected, not a bare
    # TypeError from complex()
    ("response_table_at", (np.array([1e13, 2e13]),)),
    ("quasiparticle_energy", (1.8e244, 1e-65, 8e122)),
    ("casimir_energy_density", (8.2e200,)),
    ("casimir_pressure", (2.15e201,)),
    ("eft_chi_aa_at", (0.0, 7.9e262)),
    ("eft_chi_aa_at", (1.1e253, 1.1e-275)),
    # w on ECFG's upper window edge: (w - hi)^2 / (w - lo)^2 underflows
    ("appendix_integrals", (2 * 941842679448014.2, 1e-160)),
]


def _call(label, values):
    func, valid = ROWS[label]
    return func(**{**valid, **dict(zip(valid, values))})


def _all_finite(out) -> bool:
    """Every number in a result is finite: floats, arrays, tuples and the
    fields of a record or a grid."""
    if isinstance(out, OccupancyGrid):
        out = (out.kx, out.ky, out.f)
    elif dataclasses.is_dataclass(out):
        out = tuple(getattr(out, f.name) for f in dataclasses.fields(out))
    if isinstance(out, tuple):
        return all(map(_all_finite, out))
    return isinstance(out, enum.Enum) or bool(np.isfinite(out).all())


def _pin_range_holes(test):
    """An @example for every call of RANGE_HOLES."""
    for label, values in RANGE_HOLES:
        test = example(label, list(values))(test)
    return test


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ROWS)),
       st.lists(FINITE_DOUBLES, min_size=3, max_size=3))
@_pin_range_holes
# on the pole, where 1/eta^2 overflows or eta^2 underflows to 0 but no
# response leaves the float range (the 50-digit values are pinned in
# test_responses_match_50_digits_property)
@example("chi_jj_freq_at", [SCALES.omega_tilde, 1e-160, 0.0])
@example("chi_mixed_freq_at", [SCALES.omega_tilde, 1e-160, 0.0])
@example("response_table_at", [SCALES.omega_tilde, 1e-160, 0.0])
def test_finite_arguments_give_finite_results_property(label, values):
    # every float argument of the row at once; a typed error is an answer,
    # inf, NaN, a bare exception or a RuntimeWarning is not
    try:
        out = _call(label, values)
    except Cavity2degError:
        return
    assert _all_finite(out), (label, values, out)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("label, values", RANGE_HOLES,
                         ids=[f"{label}-{values}"
                              for label, values in RANGE_HOLES])
def test_range_hole_is_a_named_domain_error(label, values):
    # the message names every argument the call sets
    with pytest.raises(DomainError) as info:
        _call(label, values)
    for name in list(ROWS[label][1])[:len(values)]:
        assert re.search(rf"\b{re.escape(name)}\b", str(info.value)), (
            name, str(info.value))


# the spectrum's four forms, whose photon or collective term once left the
# float range outside the one range check: inf, or a bare OverflowError
SPECTRUM_HOLES = {
    "eigenenergy-n1=10**400": lambda: eigenenergy(
        SpectrumIndex(10**400, 0, (0.0, 0.0), 0.0, 1), SCALES),
    "eigenenergy-omega=1e300": lambda: eigenenergy(
        SpectrumIndex(10**300, 0, (0.0, 0.0), 0.0, 1),
        DerivedScales(SystemConfig.si(100_000_000, 1e-8, 1e-6,
                                      mode_frequency=1e300))),
    "manymode_spectrum-n=1e300": lambda: manymode_spectrum(
        [1e300, 0], (0.0,), 0.0,
        normal_modes(ModeSet.ladder_1d(2, 1e100), 1.0), 1.0, 10),
    "effective_energy-occupation=10**400": lambda: eft.effective_energy(
        0.0, (0.0, 0.0), ECFG, ((1.0, 10**400),)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", SPECTRUM_HOLES.values(),
                         ids=SPECTRUM_HOLES.keys())
def test_spectrum_past_the_float_range_is_a_domain_error(call):
    with pytest.raises(DomainError, match="energy at .* overflows"):
        call()


@pytest.mark.parametrize("kinetic_sum, K", [(math.nan, (0.0, 0.0)),
                                             (1.0, (math.nan, 0.0))],
                         ids=["kinetic_sum=nan", "K=nan"])
def test_nan_spectrum_input_is_undefined(kinetic_sum, K):
    # effective_energy does not check its aggregates; the exact matter term
    # takes no NaN, and the one range check words it as undefined
    with pytest.raises(DomainError, match="undefined"):
        eft.effective_energy(kinetic_sum, K, ECFG)


def test_energy_density_bracket_past_the_float_range():
    # t_d + |q|^2 n - gamma |q n|^2/n = 2e308 overflows; hbar^2/2m_e times
    # it, 1.22085e270, does not
    mpmath = pytest.importorskip("mpmath")
    got = energy_density(DistributionMoments(1.5e308, (0.0, 0.0), 1.0),
                         (1e154, 0.0), 0.5)
    with mpmath.workdps(50):
        kinetic = (mpmath.mpf(constants.CODATA2018.hbar) ** 2
                   / (2 * mpmath.mpf(constants.CODATA2018.m_e)))
        t, q2 = mpmath.mpf(1.5e308), mpmath.mpf(1e154) ** 2
        assert _ulps(got, kinetic * (t + q2 / 2), kinetic * t) <= 4
    assert f"{got:.6g}" == "1.22085e+270"


def test_overflowing_momentum_fails_cauchy_schwarz():
    # |K|^2 overflows to inf, above any finite N kinetic_sum; an int K acts
    # as its float
    for K in ((1e200, 0.0), (10**200, 0)):
        with pytest.raises(PreconditionError, match="Cauchy-Schwarz"):
            SpectrumIndex(0, 0, K, 1.0, 1)


@pytest.mark.parametrize("K, kinetic_sum, n_electrons, name", [
    ((10**400, 0), 1.0, 1, "K"), ((0, -10**400), 1.0, 1, "K"),
    ((0, 1), 10**400, 1, "kinetic_sum"),
    ((0, 1), 1.0, 10**400, "n_electrons")],
    ids=["K=10**400", "K=-10**400", "kinetic_sum=10**400",
         "n_electrons=10**400"])
def test_int_past_the_float_range_is_a_named_domain_error(K, kinetic_sum,
                                                          n_electrons, name):
    with pytest.raises(DomainError, match="overflows") as info:
        SpectrumIndex(0, 0, K, kinetic_sum, n_electrons)
    assert re.search(rf"\b{name}\b", str(info.value))


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None)
@given(st.integers(-10**400, 10**400), st.integers(-10**400, 10**400),
       st.one_of(st.integers(0, 10**400), FINITE_DOUBLES.map(abs)))
@example(10**200, 0, 1.0)
@example(10**400, 0, 1.0)
def test_int_momenta_give_an_index_or_a_typed_error_property(kx, ky,
                                                              kinetic_sum):
    try:
        SpectrumIndex(0, 0, (kx, ky), kinetic_sum, 1)
    except Cavity2degError:
        pass


@settings(max_examples=300, deadline=None)
@given(FINITE_DOUBLES.map(abs).filter(lambda x: x > 0.0),
       FINITE_DOUBLES.map(abs))
# unscaled, these squares underflow or overflow on the way to gamma
@example(1e-160, 3e-170)     # omega_p^2 to 0 beside omega^2: gamma 9e-20
@example(1e-200, 1e-200)     # both to 0, 0/0: gamma 0.5
@example(1e200, 1e200)       # both to inf: gamma 0.5
@example(2.4e245, 2.2e221)   # omega^2 to inf: gamma ~8.4e-49
@example(2.6e-253, 0.0)      # omega^2 to 0, 0/0: gamma 0
def test_collective_coupling_matches_50_digits_property(omega, omega_p):
    # gamma lies in [0, 1) for every admitted pair, so no pair is refused;
    # four rounded operations on frequencies scaled exactly by a power of
    # two stay within 2 eps relative, so within 4 ulp of the true gamma
    mpmath = pytest.importorskip("mpmath")
    got = collective_coupling(omega, omega_p)
    with mpmath.workdps(50):
        w, w_p = mpmath.mpf(omega), mpmath.mpf(omega_p)
        true = w_p**2 / (w**2 + w_p**2)
        err = abs(mpmath.mpf(got) - true) / math.ulp(float(true))
    assert err <= 4, (omega, omega_p, got, float(err))


# log-uniform over +-[1e-320, 1.8e308], and 0; the largest double is pinned
# with @example, as 10**log10 of it overflows
ALL_DOUBLES = st.one_of(
    st.just(0.0),
    st.builds(math.copysign,
              st.floats(-320.0, 308.2547155599167).map(lambda e: 10.0**e),
              st.sampled_from([1.0, -1.0])))


@settings(max_examples=300, deadline=None)
@given(ALL_DOUBLES, ALL_DOUBLES)
@example(1.0, 1e160)        # ratio^2 overflows: gamma 1.0, omega_t/omega 1e160
@example(1.0, 1e200)
@example(1.0, sys.float_info.max)
@example(sys.float_info.max, sys.float_info.max)   # omega_t overflows
@example(2.8e-318, 5.6e-318)                       # subnormal frequencies
def test_dressed_frequency_and_ratio_scales_match_50_digits_property(
        omega, omega_p):
    # hypot is within 1 ulp of the true omega_t, and a true omega_t past the
    # float range is the one DomainError.  omega_p doubles as the ratio of a
    # Ratio config, whose gamma and omega_t/omega are collective_coupling
    # and dressed_frequency at omega = 1 to the bit; gamma takes three
    # roundings after an exact power-of-two scaling, so stays within 3 ulp
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        w, r = mpmath.mpf(omega), mpmath.mpf(omega_p)

        def ulps(got, true):
            return abs(mpmath.mpf(got) - true) / math.ulp(float(true))
        omega_t = mpmath.sqrt(w * w + r * r)
        if omega <= 0.0 or omega_p < 0.0 or math.isinf(float(omega_t)):
            with pytest.raises(DomainError):
                dressed_frequency(omega, omega_p)
        else:
            assert ulps(dressed_frequency(omega, omega_p), omega_t) <= 1
        if omega_p < 0.0:
            with pytest.raises(ConfigError, match="ratio"):
                SystemConfig.from_ratio(omega_p)
            return
        scales = DerivedScales(SystemConfig.from_ratio(omega_p))
        assert scales.gamma == collective_coupling(1.0, omega_p)
        assert scales.omega_tilde_over_omega == dressed_frequency(1.0, omega_p)
        assert ulps(scales.gamma, r * r / (1 + r * r)) <= 3
        assert ulps(scales.omega_tilde_over_omega, mpmath.sqrt(1 + r * r)) <= 1


def _ulps(got, true, unit=None) -> float:
    """|got - true| in units of the last place of ``unit`` (of true by
    default), for a 50-digit true value; real or complex."""
    mpmath = pytest.importorskip("mpmath")
    return float(abs(mpmath.mpmathify(got) - true)
                 / math.ulp(float(true if unit is None else unit)))


@settings(max_examples=300, deadline=None)
@given(ALL_DOUBLES)
@example(1e308)                  # 2 pi n_2d overflows: k_F ~2.5e154
@example(8.3e307)
@example(sys.float_info.max)
@example(1e-320)                 # 2 pi n_2d is subnormal: k_F ~2.5e-160
def test_fermi_wavevector_matches_50_digits_property(n_2d):
    # k_F is in range for every admitted n_2d: a product and a root on
    # n_2d scaled by an even power of two stay within 1 ulp
    mpmath = pytest.importorskip("mpmath")
    if n_2d < 0.0:
        with pytest.raises(DomainError, match="n_2d"):
            fermi_wavevector(n_2d)
        return
    with mpmath.workdps(50):
        true = mpmath.sqrt(2 * mpmath.pi * mpmath.mpf(n_2d))
        assert _ulps(fermi_wavevector(n_2d), true) <= 1


def _one_electron(K):
    """The index of one electron at (K, 0), or None where its kinetic_sum
    K^2 is past the float range, which from_momenta refuses."""
    try:
        return SpectrumIndex.from_momenta([(K, 0.0)])
    except DomainError:
        assert K * K == math.inf
        return None


def _check_spectrum(call, terms, bound, name):
    """call() against E = terms[0] + terms[1] - terms[2] (photons, kinetic,
    collective) at 50 digits: a sum whose terms can cancel, so its rounding
    is bounded by the largest term, within ``bound`` ulp of that; a
    DomainError naming ``name`` only where E is past the float range."""
    true = terms[0] + terms[1] - terms[2]
    if abs(true) > sys.float_info.max:
        with pytest.raises(DomainError, match=name):
            call()
        return
    assert _ulps(call(), true, max(map(abs, terms))) <= bound


def _single_mode_terms(mpmath, idx, omega, coupling):
    """The three terms of the single-mode spectrum at mode frequency omega
    with the collective coupling (gamma or gamma'), at 50 digits."""
    hbar = mpmath.mpf(constants.CODATA2018.hbar)
    kinetic = hbar**2 / (2 * mpmath.mpf(constants.CODATA2018.m_e))
    k2 = mpmath.mpf(idx.K[0]) ** 2 + mpmath.mpf(idx.K[1]) ** 2
    return (hbar * omega * (idx.n1 + idx.n2 + 1),
            kinetic * idx.kinetic_sum,
            kinetic * coupling * k2 / idx.n_electrons)


@settings(max_examples=300, deadline=None)
@given(ALL_DOUBLES, ALL_DOUBLES, ALL_DOUBLES.map(_one_electron))
@example(1.0, 1e160, _one_electron(1.0))    # gamma' overflows: -6.1e281
@example(1e-200, 1e200, _one_electron(1.0))   # the energy overflows
@example(sys.float_info.max, sys.float_info.max, _one_electron(1.0))
# (omega_p/omega)^2 overflows before |K|^2 < 1 brings it down: -1.80e274
@example(1.0, 2.0**520, _one_electron(0.5))
# K[0]**2 underflows to 0 where gamma' |K|^2/N is far above the photons:
# -3.06e-92
@example(4.6877119965353915e-73, 4.432858979582752e66,
         SpectrumIndex(0, 5, (1.2659270478591346e-163, 0.0), 0.0, 285677))
@example(1e-300, 1e100, _one_electron(1e-250))   # omega_p/omega overflows
def test_eigenenergy_no_a2_matches_50_digits_property(omega, omega_p, idx):
    # E = hbar omega (n1 + n2 + 1) + (hbar^2/2 m_e)(kinetic_sum - gamma'
    # |K|^2/N), gamma' = (omega_p/omega)^2, within 4 ulp of its largest term
    mpmath = pytest.importorskip("mpmath")
    if idx is None:
        return
    if omega <= 0.0 or omega_p < 0.0:
        with pytest.raises(DomainError):
            eigenenergy_no_a2(idx, omega, omega_p)
        return
    with mpmath.workdps(50):
        r = mpmath.mpf(omega_p) / mpmath.mpf(omega)
        _check_spectrum(partial(eigenenergy_no_a2, idx, omega, omega_p),
                        _single_mode_terms(mpmath, idx, omega, r * r), 4,
                        "omega_p")


@settings(max_examples=300, deadline=None)
@given(ALL_DOUBLES, ALL_DOUBLES, st.integers(0, 3),
       FINITE_DOUBLES.map(abs).filter(lambda x: x > 0.0))
@example(1e7, -3e6, 1, 1e300)       # gamma ~ 0
@example(1e-170, 2e-170, 0, 1.0)    # |K|^2 underflows
@example(1.3e154, 0.0, 0, 1e-300)   # gamma near 1
def test_eigenenergy_matches_50_digits_property(kx, ky, n1, mode_frequency):
    # gamma = omega_p^2/omega_t^2 at the config's omega and omega_p; the
    # code's omega_t, which also sets the photons, is within an ulp of the
    # true one, so E is within 4 ulp of its largest term
    mpmath = pytest.importorskip("mpmath")
    try:
        idx = SpectrumIndex.from_momenta([(kx, ky)], n1)
    except DomainError:
        assert kx * kx + ky * ky == math.inf
        return
    scales = DerivedScales(SystemConfig.si(
        100_000_000, 1e-8, 1e-6, mode_frequency=mode_frequency))
    with mpmath.workdps(50):
        w, w_p = mpmath.mpf(scales.omega), mpmath.mpf(scales.omega_p)
        omega_t = mpmath.sqrt(w * w + w_p * w_p)
        _check_spectrum(partial(eigenenergy, idx, scales),
                        _single_mode_terms(mpmath, idx, omega_t,
                                           (w_p / omega_t) ** 2), 4, "omega")


@settings(max_examples=300, deadline=None)
@given(ALL_DOUBLES, ALL_DOUBLES, ALL_DOUBLES)
@example(1e-300, 1e160, 0.0)     # g |K|^2/N overflows, the energy does not
@example(0.0, 1e-163, 1e-163)    # |K|^2 underflows
@example(1e308, 1e300, 0.0)      # the energy overflows
def test_effective_energy_matches_50_digits_property(kinetic_sum, kx, ky):
    # the continuum spectrum: the Casimir photons, kinetic_sum and g(Lambda)
    # |K|^2/N; within 4 ulp of the largest term
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        hbar = mpmath.mpf(constants.CODATA2018.hbar)
        kinetic = hbar**2 / (2 * mpmath.mpf(constants.CODATA2018.m_e))
        g = mpmath.mpf(eft.effective_coupling(ECFG))
        k2 = mpmath.mpf(kx) ** 2 + mpmath.mpf(ky) ** 2
        terms = (mpmath.mpf(ECFG.system.area * casimir_energy_density(ECFG)),
                 kinetic * kinetic_sum,
                 kinetic * g * k2 / ECFG.system.n_electrons)
        _check_spectrum(partial(eft.effective_energy, kinetic_sum, (kx, ky),
                                ECFG), terms, 4, "K")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.floats(-150.0, 150.0).map(lambda e: 10.0**e),
       ALL_DOUBLES, ALL_DOUBLES.map(abs), st.integers(1, 10**6),
       st.integers(0, 3))
@example(2, 0.5, 1e200, 1.0, 10, 1)       # the energy overflows
@example(3, 1e100, 1e-150, 0.0, 1, 0)     # omega_p^2 |v|^2 overflows alone
@example(1, 1e-150, 1e-320, 1e-320, 1, 0)
def test_ladder_spectrum_matches_50_digits_property(m, omega_p, K,
                                                     kinetic_sum,
                                                     n_electrons, n):
    # photons, kinetic_sum and omega_p^2/N sum_g (eps~_g.K)^2/Omega_g^2 on
    # the normal modes' own omega_sq and eps_tilde; eps~_g.K/Omega_g takes
    # three roundings (Omega_g a root), so within 8 ulp of the largest term
    mpmath = pytest.importorskip("mpmath")
    nm = normal_modes(ModeSet.ladder_1d(m), omega_p)
    with mpmath.workdps(50):
        hbar = mpmath.mpf(constants.CODATA2018.hbar)
        kinetic = hbar**2 / (2 * mpmath.mpf(constants.CODATA2018.m_e))
        w_sq = [mpmath.mpf(x) for x in nm.omega_sq]
        coll = mpmath.mpf(omega_p) ** 2 / n_electrons * mpmath.fsum(
            (mpmath.mpf(e) * K) ** 2 / x
            for e, x in zip(nm.eps_tilde[:, 0], w_sq))
        terms = (hbar * (n + mpmath.mpf(1) / 2) * mpmath.fsum(
                     map(mpmath.sqrt, w_sq)),
                 kinetic * kinetic_sum, kinetic * coll)
        _check_spectrum(partial(manymode_spectrum, [n] * m, (K,),
                                kinetic_sum, nm, omega_p, n_electrons),
                        terms, 8, "K")


@settings(max_examples=300, deadline=None)
@given(ALL_DOUBLES, ALL_DOUBLES, ALL_DOUBLES.map(abs).filter(lambda x: x > 0),
       st.floats(0.0, 40.0), ALL_DOUBLES, ALL_DOUBLES, st.floats(0.0, 4.0))
# the bracket overflows where hbar^2/2m_e times it does not: 1.22085e270
@example(0.0, 0.0, 1.0, math.log10(1.5e308), 1e154, 0.0, 0.5)
@example(0.0, 0.0, 1e300, 0.0, 1e10, 0.0, 0.5)        # q^2 n overflows
@example(1e200, 0.0, 1e100, 0.0, 0.0, 0.0, 1e-10)     # k_d^2 overflows
@example(0.0, 0.0, 1e-300, 0.0, 1e295, 0.0, 1e-4)     # q^2 overflows
@example(1e-200, 0.0, 1e-300, 1.0, 1e-10, 0.0, 4.0)   # all below 2^-448
def test_energy_density_matches_50_digits_property(kx, ky, n_2d, spread,
                                                   qx, qy, gamma):
    # the moments of a distribution: t_d n_2d >= |k_d|^2, here t_d = (|k_d|^2
    # /n_2d + 1) 10^spread.  (hbar^2/2 m_e)[t_d + 2 q.k_d + |q|^2 n - (gamma/
    # n)|k_d + q n|^2] takes about ten roundings on operands scaled by one
    # power of two, each within half an ulp of its largest term: within 6
    # ulp of that, and a DomainError only where it is past the float range
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        hbar = mpmath.mpf(constants.CODATA2018.hbar)
        kinetic = hbar**2 / (2 * mpmath.mpf(constants.CODATA2018.m_e))
        k_x, k_y, n, q_x, q_y, g = map(mpmath.mpf, (kx, ky, n_2d, qx, qy,
                                                   gamma))
        t_d = float(((k_x**2 + k_y**2) / n + 1) * mpmath.mpf(10) ** spread)
        if t_d == math.inf:
            return
        terms = [kinetic * x for x in (
            mpmath.mpf(t_d), 2 * q_x * k_x, 2 * q_y * k_y, q_x * q_x * n,
            q_y * q_y * n, -g / n * (k_x + q_x * n) ** 2,
            -g / n * (k_y + q_y * n) ** 2)]
        m = DistributionMoments(t_d, (kx, ky), n_2d)
        largest = max(map(abs, terms))
        if largest > sys.float_info.max:
            try:
                energy_density(m, (qx, qy), gamma)
            except DomainError:
                pass
            return
        got = energy_density(m, (qx, qy), gamma)
        assert _ulps(got, mpmath.fsum(terms), largest) <= 6


@settings(max_examples=300, deadline=None)
@given(ALL_DOUBLES, ALL_DOUBLES, ALL_DOUBLES)
@example(1.0, 1e-10, 1e300)        # omega_p/2 omega overflows: 1.5e18
@example(1.0, 2.9e-233, 1.6e137)   # the same, 5.2e240
@example(1e300, 1e300, 1e300)      # c kappa_max overflows
@example(1e-320, 1.0, 1e-310)      # c kappa_max is subnormal
@example(1e308, 1.0, 1e-300)       # kappa_max/omega_p overflows
@example(1e-300, 1e-310, 1e20)     # arctan(u) underflows
def test_coupling_1d_matches_50_digits_property(kappa_max, omega, omega_p):
    # each quotient on a pair scaled by a power of two, an arctangent and
    # a product: within 4 ulp; a DomainError only past the float range
    mpmath = pytest.importorskip("mpmath")
    if kappa_max < 0.0 or omega <= 0.0 or omega_p < 0.0:
        with pytest.raises(DomainError):
            coupling_1d(kappa_max, omega, omega_p)
        return
    with mpmath.workdps(50):
        k, w, w_p = map(mpmath.mpf, (kappa_max, omega, omega_p))
        true = (w_p / (2 * w) * mpmath.atan(constants.CODATA2018.c * k / w_p)
                if omega_p else mpmath.mpf(0))
        if true > sys.float_info.max:
            with pytest.raises(DomainError, match="omega_p"):
                coupling_1d(kappa_max, omega, omega_p)
            return
        assert _ulps(coupling_1d(kappa_max, omega, omega_p), true) <= 4


@settings(max_examples=300, deadline=None)
@given(st.integers(1, manymode.MAX_MODES), ALL_DOUBLES, ALL_DOUBLES)
@example(3, 1e-200, 1e-200)     # omega_1^2 underflows: g(3, 1, 1)
@example(3, 1e200, 1e200)       # omega_p^2 overflows: g(3, 1, 1)
@example(5, 1.0, 1e200)         # g = 1 to rounding
@example(5, 1e-160, 0.5)
@example(3, 1e308, 0.5)         # M omega_1 overflows: g = 0 to rounding
@example(44, 1.0, 0.95)
# the last sum from the table, the first from the series, the largest M
@example(manymode._SUM_TABLE_MAX, 1.0, 0.95)
@example(manymode._SUM_TABLE_MAX + 1, 1.0, 0.95)
@example(manymode.MAX_MODES, 1.0, 0.95)
def test_exact_coupling_1d_matches_50_digits_property(m, omega_1, omega_p):
    # g = x/(1 + x), x = (omega_p/omega_1)^2 s(M), is in [0, 1] for every
    # admitted pair, and s(M) = sum_{n <= M} 1/n^2 = zeta(2) - psi'(M + 1):
    # within 8 ulp for every M
    mpmath = pytest.importorskip("mpmath")
    if omega_1 <= 0.0:
        with pytest.raises(PreconditionError, match="omega_fundamental"):
            exact_coupling_1d(m, omega_1, abs(omega_p))
        return
    if omega_p < 0.0:
        with pytest.raises(DomainError, match="omega_p"):
            exact_coupling_1d(m, omega_1, omega_p)
        return
    with mpmath.workdps(50):
        x = (mpmath.mpf(omega_p) / omega_1) ** 2 * (
            mpmath.zeta(2) - mpmath.psi(1, m + 1))
        assert _ulps(exact_coupling_1d(m, omega_1, omega_p), x / (1 + x)) <= 8


SI_1E150 = DerivedScales(SystemConfig.si(100, 1e150, 1e150))
# an SI config by label, or a Ratio-mode ratio
RESPONSE_CONFIGS = {"si": SCALES, "si(100, 1e150, 1e150)": SI_1E150}


def _response_scales(config) -> DerivedScales:
    if isinstance(config, str):
        return RESPONSE_CONFIGS[config]
    return DerivedScales(SystemConfig.from_ratio(config))


def _pole_pair_terms(mpmath, scales, w, eta):
    """chi_AA, chi_EA and the Drude and polariton terms of sigma at 50
    digits, at the code's omega_t and gamma: P = 1/((z - omega_t)(z +
    omega_t)) formed from its real parts, as mpmath's complex product would
    cancel in its imaginary part, and the Drude weight omega_p^2 (1 - gamma)
    with 1 - gamma = omega^2/omega_t^2 (not 1 minus the rounded gamma)."""
    if scales.config.units_mode is core.UnitsMode.RATIO:
        omega, omega_p, omega_t = 1, scales.config.ratio, \
            scales.omega_tilde_over_omega
        eps0, volume = 1, 1
    else:
        omega, omega_p, omega_t = (scales.omega, scales.omega_p,
                                   scales.omega_tilde)
        eps0 = constants.CODATA2018.eps0
        volume = mpmath.mpf(scales.config.area) * scales.config.mirror_gap
    omega, omega_p, omega_t, eps0, x, y = map(
        mpmath.mpf, (omega, omega_p, omega_t, eps0, w, eta))
    z = mpmath.mpc(x, y)
    pair = 1 / mpmath.mpc((x - omega_t) * (x + omega_t) - y * y, 2 * x * y)
    drude = 1j * eps0 * omega_p**2 * omega**2 / omega_t**2 / z
    polariton = 1j * eps0 * omega_p**2 * scales.gamma * z * pair
    return pair / (eps0 * volume), 1j * z * pair / (eps0 * volume), drude, \
        polariton


def _past_the_range(value) -> bool:
    mpmath = pytest.importorskip("mpmath")
    return max(abs(mpmath.re(value)),
               abs(mpmath.im(value))) > sys.float_info.max


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(sorted(RESPONSE_CONFIGS)),
                 ALL_DOUBLES.map(abs)),
       ALL_DOUBLES, ALL_DOUBLES.map(abs), ALL_DOUBLES.map(abs))
# the difference form of sigma cancelled: Re sigma = 99.02, not -256
@example(1e8, 1e-3, 1e-2, 1.0)
# Re chi_EA = 2.664e-150 (not 0.0), sigma = 1.196e-166 + 5.98e-165 i (not
# "undefined") and the absorbed power 1.065e170 (|j_ext|^2 overflowed)
@example("si(100, 1e150, 1e150)", SI_1E150.omega_tilde / 2,
         SI_1E150.omega_tilde / 100, 1e160)
# on the pole, where 1/eta^2 overflows or eta^2 underflows to 0
@example("si", SCALES.omega_tilde, 1e-160, 1.0)
@example("si", SCALES.omega_tilde, 1e-200, 1.0)
@example("si", 7e-158, 5.5e-147, 1.0)   # (w^2 + eta^2) omega_t overflowed
@example(0.0, 1.0, 3e-309, 1.0)         # |chi_AA| = 1.7e308, just in range
@example(0.5, 5**0.5 / 2, 1e-310, 1.0)  # |chi_AA| = 4.5e309, past it
@example("si", 1e200, 1.0, 1.0)         # (w + omega_t)^2 overflowed
@example(1e200, 1e-5, 1e-5, 1.0)        # ratio^2 and omega_p^4 overflowed
# eta' underflows beside w' > omega_t: Re sigma stays >= 0
@example(3.1930837980779702e+258, -4.806164579228502e+295,
         2.20355512089739e-47, 1.0)
@example(5.757771219531788e-86, 1.7582255937456e-311, 1.080742706e-315,
         1.0)                           # a subnormal probe
def test_responses_match_50_digits_property(config, w, eta, j_ext):
    # chi_AA and chi_EA within 4 ulp of |chi|, sigma within 8 ulp of its
    # larger term, Re sigma >= 0, and the absorbed power >= 0 and within 2
    # ulp of -w Im chi_AA |j_ext|^2 (of the returned chi_AA; its products
    # ((Im chi_AA |j_ext|)(-w))|j_ext| add the subnormal grain 2^-1074
    # scaled by what follows them); a DomainError only where the value is
    # past the float range
    mpmath = pytest.importorskip("mpmath")
    scales = _response_scales(config)
    f = BroadenedFrequency(w, eta)
    if eta == 0.0:
        with pytest.raises(DomainError, match="eta"):
            chi_aa_freq(f, scales)
        return
    with mpmath.workdps(50):
        aa, ea, drude, polariton = _pole_pair_terms(mpmath, scales, w, eta)
        checks = ((chi_aa_freq, aa, abs(aa), 4), (chi_ea_freq, ea, abs(ea), 4),
                  (optical_conductivity, drude + polariton,
                   max(abs(drude), abs(polariton)), 8))
        got = {}
        for func, true, unit, bound in checks:
            if _past_the_range(true):
                with pytest.raises(DomainError, match="eta"):
                    func(f, scales)
                continue
            got[func] = func(f, scales)
            assert _ulps(got[func].as_complex, true, unit) <= bound, func
        if optical_conductivity in got:
            assert got[optical_conductivity].re >= 0.0
        if chi_aa_freq not in got:
            return
        im = mpmath.mpf(got[chi_aa_freq].im)
        power = -w * im * mpmath.mpf(j_ext) ** 2
        if power > sys.float_info.max:
            with pytest.raises(DomainError, match="j_ext"):
                absorption_rate(f, scales, j_ext)
            return
        got = absorption_rate(f, scales, j_ext)
        assert got >= 0.0
        grain = (abs(w) * j_ext + j_ext + 1) * mpmath.mpf(2) ** -1074
        assert abs(got - power) <= 2 * math.ulp(float(power)) + grain


def test_quoted_response_values():
    # the calls that the difference forms got wrong, at 4 digits
    sigma = optical_conductivity(BroadenedFrequency(1e-3, 1e-2),
                                 DerivedScales(SystemConfig.from_ratio(1e8)))
    assert f"{sigma.re:.4g}" == "99.02"
    w_t = SI_1E150.omega_tilde
    f = BroadenedFrequency(w_t / 2, w_t / 100)
    assert f"{chi_ea_freq(f, SI_1E150).re:.4g}" == "2.664e-150"
    sigma = optical_conductivity(f, SI_1E150)
    assert (f"{sigma.re:.4g}", f"{sigma.im:.3g}") == ("1.196e-166",
                                                       "5.98e-165")
    assert f"{absorption_rate(f, SI_1E150, 1e160):.4g}" == "1.065e+170"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**400), st.integers(0, 10**400))
@example(10**400, 0)
@example(10**300, 10**300)
def test_int_photon_numbers_match_50_digits_property(n1, n2):
    # hbar omega_t (n1 + n2 + 1), the int taken as its float: three
    # roundings, within 2 ulp, or a DomainError past the float range
    mpmath = pytest.importorskip("mpmath")
    idx = SpectrumIndex(n1, n2, (0.0, 0.0), 0.0, 1)
    with mpmath.workdps(50):
        true = (mpmath.mpf(constants.CODATA2018.hbar) * SCALES.omega_tilde
                * (n1 + n2 + 1))
        if true > sys.float_info.max:
            with pytest.raises(DomainError, match="overflows"):
                eigenenergy(idx, SCALES)
            return
        assert _ulps(eigenenergy(idx, SCALES), true) <= 2


PACKAGE_FILES = sorted(Path(core.__file__).parent.glob("*.py"))


def _sites(name: str, owner: str) -> tuple[list[str], list[str]]:
    """The places that name ``name`` (an attribute, a variable or an
    import), as file:line, inside core.<owner> and elsewhere in the
    package."""
    inside, outside = [], []
    for path in PACKAGE_FILES:
        tree = ast.parse(path.read_text())
        allowed = {id(node) for top in tree.body
                   if path.name == "core.py"
                   and isinstance(top, ast.FunctionDef) and top.name == owner
                   for node in ast.walk(top)}
        for node in ast.walk(tree):
            if name in (getattr(node, "attr", None), getattr(node, "id", None),
                        getattr(node, "name", None)):
                site = f"{path.name}:{node.lineno}"
                (inside if id(node) in allowed else outside).append(site)
    return inside, outside


def test_finite_holds_the_only_errstate():
    # core._finite is the one range check: no other code in the package
    # turns numpy's floating-point warnings off
    inside, outside = _sites("errstate", "_finite")
    assert inside and not outside, outside


def test_scaled_holds_the_only_frexp():
    # core._scaled is the one power-of-two scaling
    inside, outside = _sites("frexp", "_scaled")
    assert inside and not outside, outside


def test_failing_property_reports_its_example(tmp_path):
    # under filterwarnings("error"), hypothesis' report of a failing
    # property once ended in a pytest INTERNALERROR (a DeprecationWarning
    # from an import it makes while reporting); conftest.py imports that
    # module first, so the falsifying example is shown
    (tmp_path / "test_fails.py").write_text(
        "import pytest\n"
        "from hypothesis import given, strategies as st\n\n\n"
        "@pytest.mark.filterwarnings('error')\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n")
    paths = [str(Path(__file__).parent), str(Path(core.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "conftest", "test_fails.py"], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_imports_are_the_stdlib_numpy_and_the_package():
    # numpy is the one runtime dependency (README), and the CLI's import
    # time assumes no scipy
    found = set()
    for path in PACKAGE_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add(node.module)
    tops = {name.split(".")[0] for name in found}
    assert "numpy" in tops
    assert tops - sys.stdlib_module_names <= {"numpy", "cavity2deg"}, tops


def test_undefined_result_is_not_called_an_overflow():
    # a Python division by zero, and a NaN from numpy
    with pytest.raises(DomainError) as info:
        core._finite(lambda: 1.0 / 0.0, "x")
    assert str(info.value) == ("x is undefined after rounding (NaN, or a "
                               "division by zero)")
    with pytest.raises(DomainError, match="undefined after rounding"):
        core._finite(np.array([1.0, math.nan]), "x")
    with pytest.raises(DomainError, match="x overflows the float range"):
        core._finite(np.array([1.0, -math.inf]), "x")


def test_package_exports_each_module_list_once():
    modules = (constants, exceptions, core, singlemode, response, eft,
               manymode)
    names = [name for module in modules for name in module.__all__]
    assert cavity2deg.__all__ == ["__version__", *names]
    assert len(set(cavity2deg.__all__)) == len(cavity2deg.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(cavity2deg, name) is getattr(module, name)
