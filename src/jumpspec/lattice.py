"""Point-dipole hyperfine couplings over a crystal unit cell.

Computes the secular hyperfine parameters (A, B) for nuclear sites around
a paramagnetic defect with an anisotropic electron gyromagnetic tensor,
sweeps them versus small field misalignment angles, and ranks candidate
site assignments against measured couplings.

Geometry is configuration data: a small text structure file supplies the
lattice constants and site list (a CaWO4 default ships with the package).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

MU0 = 4.0e-7 * math.pi          # T m / A
HBAR = 1.054571817e-34          # J s
TWO_PI = 2.0 * math.pi

# CaWO4 / Er3+ defaults (rad/s/T)
GAMMA_W = TWO_PI * 1.774e6
GAMMA_PERP = -TWO_PI * 117.3e9
GAMMA_PAR = -TWO_PI * 17.45e9

MIN_RADIUS = 0.5                # angstrom; point-dipole validity cutoff
MAX_DISTANCE = 3.0              # combined sigmas; assign_site's cutoff


@dataclass(frozen=True)
class Site:
    frac: tuple[float, float, float]   # relative to the defect, may exceed [0,1)
    label: str


@dataclass(frozen=True)
class CrystalModel:
    """Lattice vectors (angstrom, rows), nuclear sites, and gyromagnetics.

    ``gamma_e`` is the full 3x3 electron gyromagnetic tensor in crystal
    axes (rad/s/T); ``gamma_n`` the scalar nuclear value (rad/s/T).
    """

    lattice: np.ndarray
    sites: tuple[Site, ...]
    defect_frac: tuple[float, float, float] = (0.0, 0.0, 0.0)
    gamma_n: float = GAMMA_W
    gamma_e: np.ndarray = field(
        default_factory=lambda: np.diag([GAMMA_PERP, GAMMA_PERP, GAMMA_PAR]))

    def __post_init__(self):
        lat = np.asarray(self.lattice, dtype=float)
        if abs(np.linalg.det(lat)) < 1e-9:
            raise ValueError("lattice vectors must be linearly independent")
        object.__setattr__(self, "lattice", lat)
        object.__setattr__(self, "gamma_e", np.asarray(self.gamma_e, dtype=float))

    def site_vector(self, site: Site) -> np.ndarray:
        """Cartesian displacement defect -> site (angstrom)."""
        d = np.asarray(site.frac) - np.asarray(self.defect_frac)
        return d @ self.lattice


@dataclass(frozen=True)
class FieldOrientation:
    """Small-angle field orientation: theta tilts toward +a (applied about
    the b axis), beta is applied first about the a axis. Degrees."""

    theta: float
    beta: float

    def __post_init__(self):
        if abs(self.theta) >= 5.0 or abs(self.beta) >= 5.0:
            raise ValueError("only the small-angle regime |angle| < 5 deg is supported")

    def direction(self) -> np.ndarray:
        th = math.radians(self.theta)
        be = math.radians(self.beta)
        ra = np.array([[1, 0, 0],
                       [0, math.cos(be), -math.sin(be)],
                       [0, math.sin(be), math.cos(be)]])
        rb = np.array([[math.cos(th), 0, math.sin(th)],
                       [0, 1, 0],
                       [-math.sin(th), 0, math.cos(th)]])
        return rb @ ra @ np.array([0.0, 0.0, 1.0])


def load_structure(path=None) -> CrystalModel:
    """Parse a structure file; defaults to the shipped CaWO4 data."""
    if path is None:
        text = resources.files("jumpspec.data").joinpath("cawo4.txt").read_text()
    else:
        text = Path(path).read_text()
    return parse_structure(text)


def parse_structure(text: str) -> CrystalModel:
    abc = {}
    sites = []
    defect = (0.0, 0.0, 0.0)
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "end":
            section = None
            continue
        if section is None:
            if line == "lattice":
                section = "lattice"
            elif line == "sites":
                section = "sites"
            elif line.startswith("defect"):
                parts = line.split()
                defect = tuple(float(x) for x in parts[1:4])
            else:
                raise ValueError(f"unrecognized structure line: {raw!r}")
        elif section == "lattice":
            key, val = line.split()
            abc[key] = float(val)
        elif section == "sites":
            parts = line.split()
            sites.append(Site(frac=tuple(float(x) for x in parts[:3]),
                              label=parts[3]))
    for key in ("a", "b", "c"):
        if key not in abc:
            raise ValueError(f"structure file missing lattice constant {key!r}")
    if not sites:
        raise ValueError("structure file lists no sites")
    lattice = np.diag([abc["a"], abc["b"], abc["c"]])
    return CrystalModel(lattice=lattice, sites=tuple(sites), defect_frac=defect)


def dipolar_coupling(site_vector, model: CrystalModel,
                     orientation: FieldOrientation):
    """Secular hyperfine (A, B) in Hz for a nucleus at ``site_vector`` (angstrom).

    The electron moment is the gyromagnetic tensor applied to the
    quantization axis set by B0; A is the component of the resulting
    dipolar field along the nuclear quantization axis (B0), B the
    transverse magnitude (>= 0 by the transverse-axis convention).
    """
    r_vec = np.asarray(site_vector, dtype=float)
    r = float(np.linalg.norm(r_vec))
    if r < MIN_RADIUS:
        raise ValueError(
            f"site at r={r:.3f} angstrom is below the {MIN_RADIUS} angstrom "
            "point-dipole cutoff")
    n = orientation.direction()
    zq = model.gamma_e @ n
    zq = zq / np.linalg.norm(zq)        # electron quantization axis
    moment = model.gamma_e @ zq         # effective secular moment direction
    r_hat = r_vec / r
    scale = MU0 * HBAR * model.gamma_n / (4.0 * math.pi * (r * 1e-10) ** 3)
    h = scale * (moment - 3.0 * (moment @ r_hat) * r_hat)
    a = float(h @ n)
    b = float(np.linalg.norm(h - a * n))
    return a / TWO_PI, b / TWO_PI


@dataclass(frozen=True)
class SweepTable:
    """Per-site (A, B) curves over a theta grid at fixed beta (Hz, deg)."""

    thetas: np.ndarray
    beta: float
    labels: tuple[str, ...]             # one entry per site, shell label
    a_hz: np.ndarray                    # shape (n_sites, n_theta)
    b_hz: np.ndarray


def angle_sweep(model: CrystalModel, beta: float, theta_range,
                n_points: int) -> SweepTable:
    """Tabulate (A(theta), B(theta)) per site over a theta grid."""
    if n_points < 1:
        raise ValueError("need at least one sweep point")
    lo, hi = theta_range
    thetas = np.linspace(lo, hi, n_points)
    a = np.empty((len(model.sites), n_points))
    b = np.empty_like(a)
    for i, site in enumerate(model.sites):
        vec = model.site_vector(site)
        for j, th in enumerate(thetas):
            a[i, j], b[i, j] = dipolar_coupling(
                vec, model, FieldOrientation(theta=th, beta=beta))
    return SweepTable(thetas=thetas, beta=beta,
                      labels=tuple(s.label for s in model.sites),
                      a_hz=a, b_hz=b)


@dataclass(frozen=True)
class SiteCandidate:
    site_index: int
    label: str
    theta: float
    a_hz: float
    b_hz: float
    distance: float          # Mahalanobis-style distance in (|A|, B)


def assign_site(measured, sweep: SweepTable):
    """Rank sites by closeness of |A|, B to the measured values.

    ``measured`` is ``(a_hz, sigma_a_hz, b_hz, sigma_b_hz)``. Candidates
    with minimum distance above ``MAX_DISTANCE`` (3, in units of the
    combined sigma) are dropped.
    """
    a_meas, sig_a, b_meas, sig_b = measured
    if sig_a <= 0 or sig_b <= 0:
        raise ValueError("measurement uncertainties must be positive")
    candidates = []
    for i, label in enumerate(sweep.labels):
        d = np.sqrt(((np.abs(sweep.a_hz[i]) - abs(a_meas)) / sig_a) ** 2
                    + ((sweep.b_hz[i] - abs(b_meas)) / sig_b) ** 2)
        j = int(np.argmin(d))
        candidates.append(SiteCandidate(
            site_index=i, label=label, theta=float(sweep.thetas[j]),
            a_hz=float(sweep.a_hz[i, j]), b_hz=float(sweep.b_hz[i, j]),
            distance=float(d[j])))
    candidates.sort(key=lambda cand: cand.distance)
    return [cand for cand in candidates if cand.distance <= MAX_DISTANCE]
