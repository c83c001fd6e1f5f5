"""The package's public surface: one list of names, one argument check.

Every closed form that takes a positive or non-negative scalar rejects NaN
and +-inf for it with a DomainError that names the argument, instead of
returning NaN (NaN fails every ``x <= 0`` comparison) or raising a bare
ValueError; so does a signed scalar inside a tuple or a sequence.  Finite
arguments anywhere in the float range give finite numbers or a
Cavity2degError, never inf, NaN, a bare OverflowError or a RuntimeWarning;
a result past the float range is a DomainError that names the arguments.
collective_coupling, whose result is in range for every admitted pair, is
also held to a 50-digit value over the whole float range.
"""

import dataclasses
import enum
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavity2deg
from cavity2deg import (BroadenedFrequency, Cavity2degError, DerivedScales,
                        DistributionMoments, DomainError, EftConfig, ModeSet,
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
                        energy_density, exceptions, fermi_wavevector,
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
    (dc_conductivity, {"gamma": 0.5, "sigma0": 2.0}),
    (drude_effective_mass, {"gamma": 0.5}),
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
    ("fermi_wavevector", (8.3e307,)),
    ("eigenenergy_no_a2", (1.0, 1e160)),
    ("eigenenergy_no_a2", (1e-200, 1e200)),
    ("optimal_origin_at", (1e-250, 1e100)),
    ("OccupancyGrid.disk", (8.76e-161,)),    # the cell area h^2 underflows
    ("chi_aa_time", (7.4e300,)),
    ("chi_ea_time", (7.4e300,)),
    ("sigma0_dc", (2.6e-309,)),
    # on the pole w = omega_t: 1/eta^2 overflows, or eta^2 underflows to 0
    ("chi_aa_freq_at", (SCALES.omega_tilde, 1e-160)),
    ("chi_aa_freq_at", (SCALES.omega_tilde, 1e-200)),
    ("chi_ea_freq_at", (SCALES.omega_tilde, 1e-160)),
    ("chi_ea_freq_at", (SCALES.omega_tilde, 1e-200)),
    ("chi_jj_freq_at", (SCALES.omega_tilde, 1e-160)),
    ("chi_mixed_freq_at", (SCALES.omega_tilde, 1e-160)),
    ("response_table_at", (SCALES.omega_tilde, 1e-160)),
    # the table is one 2x2 matrix: a sweep of w is rejected, not a bare
    # TypeError from complex()
    ("response_table_at", (np.array([1e13, 2e13]),)),
    ("optical_conductivity_at", (7e-158, 5.5e-147)),
    ("quasiparticle_energy", (1.8e244, 1e-65, 8e122)),
    ("coupling_1d", (1.0, 2.9e-233, 1.6e137)),
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
