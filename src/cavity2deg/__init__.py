"""Exact treatment of a 2D electron gas coupled to quantized cavity modes.

Layers, bottom up:

- ``constants`` / ``core``: CODATA constants, system configuration, derived
  frequency scales (plasma, dressed) and the collective coupling gamma.
- ``singlemode``: closed-form spectrum of the gas + one mode, ground-state
  energy functional over momentum distributions, disk quadrature,
  instability witness for gamma >= 1 and for the model without the A^2 term.
- ``response``: Kubo response functions in time and frequency domain,
  optical conductivity with its suppressed Drude peak.
- ``eft``: continuum of modes; running coupling, Landau pole, renormalized
  mass, Casimir energy/pressure, dressed jellium, 1D/3D cross-checks.
- ``manymode``: exact diagonalization of M coupled modes, by rank-one
  secular updates for the structured W of a mode set and a hand-rolled
  round-robin Jacobi eigensolver for any symmetric W; truncation and
  coupling-growth scans.
- ``cli``: ``cavity2deg`` command emitting deterministic CSV/JSON datasets.

Unit modes: configs are SI end to end, or dimensionless "ratio" mode where
frequencies are given in units of the bare mode frequency.

Diagnostics go to the ``logging.getLogger("cavity2deg")`` logger, which has
a NullHandler: the eigensolvers log at DEBUG which path ran and how many
sweeps or secular steps it took.  Nothing is printed unless the caller
configures logging.
"""

import logging

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

from .constants import CODATA2018, Constants
from .core import (DerivedScales, Phase, SystemConfig, UnitsMode,
                   classify_phase, collective_coupling, dressed_frequency,
                   fermi_wavevector, load_config_file, plasma_frequency,
                   single_particle_coupling)
from .exceptions import (Cavity2degError, ConfigError, ConvergenceError,
                         DegenerateModeError, DomainError, InstabilityError,
                         PoleError, PreconditionError, UnitModeError)
from .singlemode import (DistributionMoments, OccupancyGrid, SpectrumIndex,
                         distribution_moments, eigenenergy, eigenenergy_no_a2,
                         energy_density, ground_photon_occupation,
                         instability_witness, optimal_origin)
from .response import (BroadenedFrequency, ResponseKind, ResponseValue,
                       absorption_rate, chi_aa_freq, chi_aa_time, chi_ea_freq,
                       chi_ea_time, chi_jj_freq, chi_mixed_freq,
                       dc_conductivity, drude_effective_mass,
                       optical_conductivity, response_table, sigma0_dc)
from .eft import (EftConfig, JelliumResult, appendix_integrals, band_energy,
                  casimir_energy_density, casimir_pressure,
                  chemical_potential, coupling_1d, coupling_3d,
                  effective_coupling, effective_energy, eft_chi_aa,
                  eft_summary, jellium, landau_pole, mass_3d,
                  mass_3d_first_order, per_particle_coupling, pole_3d,
                  quasiparticle_energy, renormalized_mass, rs_minimum)
from .manymode import (ModeSet, NormalModes, build_w, diagonalize_w,
                       exact_coupling_1d, lowest_mode_scan, manymode_spectrum,
                       normal_modes, rotated_polarizations)

__all__ = [
    "__version__",
    # constants / exceptions
    "CODATA2018", "Constants",
    "Cavity2degError", "ConfigError", "ConvergenceError",
    "DegenerateModeError", "DomainError", "InstabilityError", "PoleError",
    "PreconditionError", "UnitModeError",
    # core
    "DerivedScales", "Phase", "SystemConfig", "UnitsMode", "classify_phase",
    "collective_coupling", "dressed_frequency", "fermi_wavevector",
    "load_config_file", "plasma_frequency", "single_particle_coupling",
    # singlemode
    "DistributionMoments", "OccupancyGrid", "SpectrumIndex",
    "distribution_moments", "eigenenergy", "eigenenergy_no_a2",
    "energy_density", "ground_photon_occupation", "instability_witness",
    "optimal_origin",
    # response
    "BroadenedFrequency", "ResponseKind", "ResponseValue", "absorption_rate",
    "chi_aa_freq", "chi_aa_time", "chi_ea_freq", "chi_ea_time", "chi_jj_freq",
    "chi_mixed_freq", "dc_conductivity", "drude_effective_mass",
    "optical_conductivity", "response_table", "sigma0_dc",
    # eft
    "EftConfig", "JelliumResult", "appendix_integrals", "band_energy",
    "casimir_energy_density", "casimir_pressure", "chemical_potential",
    "coupling_1d", "coupling_3d", "effective_coupling", "effective_energy",
    "eft_chi_aa", "eft_summary", "jellium", "landau_pole", "mass_3d",
    "mass_3d_first_order", "per_particle_coupling", "pole_3d",
    "quasiparticle_energy", "renormalized_mass", "rs_minimum",
    # manymode
    "ModeSet", "NormalModes", "build_w", "diagonalize_w", "exact_coupling_1d",
    "lowest_mode_scan", "manymode_spectrum", "normal_modes",
    "rotated_polarizations",
]
