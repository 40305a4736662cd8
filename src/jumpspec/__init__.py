"""Quantum-jump Monte Carlo simulation and estimation toolkit for a
single electron spin hyperfine-coupled to nuclear spins, read out by
microwave photon counting."""

__version__ = "0.1.0"

from .detector import DetectorParams, FluorescenceCurve, fluorescence_curve
from .dynamics import (NO_NOISE, NoiseModel, PulseSegment, SystemState,
                       apply_pulse, gaussian_pi, trajectory_rng, wait)
from .lattice import (CrystalModel, FieldOrientation, angle_sweep,
                      assign_site, dipolar_coupling, load_structure)
from .spinmodel import (CavityParams, SpinParams, SpinSystem, Transition,
                        build_system, cavity_filter, drive_filter,
                        forbidden_rabi, purcell_rate)

__all__ = [
    "__version__",
    "CavityParams", "SpinParams", "SpinSystem", "Transition", "build_system",
    "cavity_filter", "drive_filter", "forbidden_rabi", "purcell_rate",
    "DetectorParams", "FluorescenceCurve", "fluorescence_curve",
    "NO_NOISE", "NoiseModel", "PulseSegment", "SystemState", "apply_pulse",
    "gaussian_pi", "trajectory_rng", "wait",
    "CrystalModel", "FieldOrientation", "angle_sweep", "assign_site",
    "dipolar_coupling", "load_structure",
]
