"""The package's public surface: one list of names, one argument check.

Every closed form that takes a positive or non-negative scalar rejects NaN
and +-inf for it with a DomainError that names the argument, instead of
returning NaN (NaN fails every ``x <= 0`` comparison) or raising a bare
ValueError; so does a signed scalar inside a tuple or a sequence.  A finite
argument whose square leaves the float range raises a named DomainError
too, not a bare OverflowError.
"""

import math
import re
from functools import partial

import pytest

import cavity2deg
from cavity2deg import (BroadenedFrequency, DerivedScales,
                        DistributionMoments, DomainError, EftConfig, ModeSet,
                        OccupancyGrid, PreconditionError, SpectrumIndex,
                        SystemConfig,
                        absorption_rate, appendix_integrals, chemical_potential,
                        chi_aa_time, chi_ea_time, classify_phase,
                        collective_coupling, constants, core, coupling_1d,
                        coupling_3d, dc_conductivity, dressed_frequency,
                        drude_effective_mass, eft, eigenenergy,
                        eigenenergy_no_a2,
                        energy_density, exceptions, fermi_wavevector,
                        ground_photon_occupation, instability_witness,
                        manymode, manymode_spectrum, mass_3d, normal_modes,
                        optimal_origin, quasiparticle_energy, response,
                        sigma0_dc, singlemode)

SYSTEM = SystemConfig.si(n_electrons=100_000_000, area=1e-8, mirror_gap=1e-6)
SCALES = DerivedScales(SYSTEM)
ECFG = EftConfig(SYSTEM, lambda0=4.0)
MOMENTS = DistributionMoments(t_d=1.0, k_d=(0.5, 0.0), n_2d=1.0)
PROBE = BroadenedFrequency(1e13, 1e11)


def _moments(n_2d):
    return DistributionMoments(t_d=1.0, k_d=(0.5, 0.0), n_2d=n_2d)


def energy_density_at(n_2d):
    return energy_density(_moments(n_2d), (0.0, 0.0), 0.5)


def optimal_origin_at(n_2d):
    return optimal_origin(_moments(n_2d))


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
    (optimal_origin_at, {"n_2d": 1.0}),
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


def test_overflowing_momentum_fails_cauchy_schwarz():
    # |K|^2 overflows to inf, above any finite N kinetic_sum
    with pytest.raises(PreconditionError, match="Cauchy-Schwarz"):
        SpectrumIndex(0, 0, (1e200, 0.0), 1.0, 1)


def test_package_exports_each_module_list_once():
    modules = (constants, exceptions, core, singlemode, response, eft,
               manymode)
    names = [name for module in modules for name in module.__all__]
    assert cavity2deg.__all__ == ["__version__", *names]
    assert len(set(cavity2deg.__all__)) == len(cavity2deg.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(cavity2deg, name) is getattr(module, name)
