"""Static algebra of the coupled electron-nuclear spin system.

Exact diagonalization of the secular hyperfine Hamiltonian
``w_S*Sz + sum_k [ w_I*Iz_k + A_k*Sz*Iz_k + B_k*Sz*Ix_k ]`` for an
effective electron spin 1/2 coupled to n >= 0 nuclear spins 1/2, plus the
closed-form branches valid in the high-field regime: transition
frequencies, Sx matrix elements, Purcell and cross-relaxation rates,
AC-Zeeman-shifted forbidden-transition frequencies and forbidden Rabi
frequencies.

Unit convention: all frequencies in this package are angular (rad/s)
internally; anything reported to the user is divided by 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# nuclear state chars; electron down/up is encoded separately
_NUC_DOWN = "d"   # |Down>  (m_I = -1/2)
_NUC_UP = "u"     # |Up>    (m_I = +1/2)


class DegenerateTransitionError(ValueError):
    """Raised when transition labeling is ambiguous (near-degenerate lines)."""


class NonConvergenceError(RuntimeError):
    """Raised when an iterative solve does not reach its tolerance."""


@dataclass(frozen=True)
class SpinParams:
    """Spin Hamiltonian parameters, all angular frequencies in rad/s.

    ``omega_i`` is signed, following the convention omega_I = -gamma_n * B0
    (negative for a positive gyromagnetic ratio in a positive field).
    ``couplings`` holds one ``(A, B)`` pair per coupled nucleus.
    """

    omega_s: float
    omega_i: float
    couplings: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        for x in (self.omega_s, self.omega_i):
            if not math.isfinite(x):
                raise ValueError("spin frequencies must be finite")
        for a, b in self.couplings:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("hyperfine couplings must be finite")

    @classmethod
    def from_hz(cls, omega_s_hz, omega_i_hz, couplings_hz=()):
        return cls(
            omega_s=TWO_PI * omega_s_hz,
            omega_i=TWO_PI * omega_i_hz,
            couplings=tuple((TWO_PI * a, TWO_PI * b) for a, b in couplings_hz),
        )

    @property
    def n_nuclei(self) -> int:
        return len(self.couplings)

    @property
    def high_field(self) -> bool:
        """True when |omega_I| > 5*max(|A|,|B|), where the closed forms hold."""
        if not self.couplings:
            return True
        m = max(max(abs(a), abs(b)) for a, b in self.couplings)
        return abs(self.omega_i) > 5.0 * m


@dataclass(frozen=True)
class CavityParams:
    """Detection resonator: frequency, total linewidth, spin coupling (rad/s)."""

    omega_0: float
    kappa: float
    g0: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.g0 < 0:
            raise ValueError("g0 must be non-negative")

    @classmethod
    def from_hz(cls, omega_0_hz, kappa_hz, g0_hz):
        return cls(TWO_PI * omega_0_hz, TWO_PI * kappa_hz, TWO_PI * g0_hz)


@dataclass(frozen=True)
class Transition:
    """One electron-flip transition between two labeled eigenlevels."""

    label: str
    lower: int            # eigenlevel index of the lower state
    upper: int
    frequency: float      # rad/s
    matrix_element: float # |<f|Sx|i>|, in [0, 1/2]
    nuclear_flips: tuple[int, ...]   # indices of nuclei that flip

    @property
    def is_allowed(self) -> bool:
        return not self.nuclear_flips


@dataclass(frozen=True)
class DecayChannel:
    transition: Transition
    rate: float           # 1/s, cavity-filtered radiative rate


@dataclass(frozen=True)
class SpinSystem:
    """Diagonalized spin system with labeled transitions and radiative rates.

    ``levels[i]`` is the label of eigenlevel ``i`` as ``(electron, nuclear)``
    with electron in {0 down, 1 up} and nuclear a string of 'd'/'u' chars,
    one per nucleus. ``channels[i]`` lists radiative decay channels out of
    level ``i`` (empty for electron-down levels).
    """

    params: SpinParams
    cavity: CavityParams
    energies: np.ndarray
    eigenvectors: np.ndarray
    levels: tuple[tuple[int, str], ...]
    transitions: tuple[Transition, ...]
    channels: tuple[tuple[DecayChannel, ...], ...]
    # the jump engine's pulse plans and decay records (see dynamics) and
    # the compiled spectroscopy sweeps (see sequencer)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def level_index(self, electron: int, nuclear: str) -> int:
        return self.levels.index((electron, nuclear))

    def transition(self, label: str) -> Transition:
        for t in self.transitions:
            if t.label == label:
                return t
        raise KeyError(label)

    def allowed_transitions(self) -> list[Transition]:
        return [t for t in self.transitions if t.is_allowed]

    def total_rate(self, level: int) -> float:
        return sum(ch.rate for ch in self.channels[level])

    @property
    def gamma_r(self) -> float:
        """Mean allowed-transition radiative rate (1/s)."""
        rates = [
            ch.rate
            for chans in self.channels
            for ch in chans
            if ch.transition.is_allowed
        ]
        return float(np.mean(rates)) if rates else 0.0

    @property
    def eta_d(self) -> float:
        return self._eta("double_quantum")

    @property
    def eta_z(self) -> float:
        return self._eta("zero_quantum")

    def _eta(self, label: str) -> float:
        for chans in self.channels:
            for ch in chans:
                if ch.transition.label == label:
                    tot = sum(c.rate for c in chans)
                    return ch.rate / tot if tot > 0 else 0.0
        return 0.0


def purcell_rate(cavity: CavityParams, detuning: float = 0.0) -> float:
    """Cavity-enhanced radiative rate 4*g0^2/kappa, Lorentzian-filtered."""
    g = 4.0 * cavity.g0 ** 2 / cavity.kappa
    return g / (1.0 + 4.0 * detuning ** 2 / cavity.kappa ** 2)


def cavity_filter(cavity: CavityParams, detuning: float) -> float:
    """Power Lorentzian filter 1/(1+4*delta^2/kappa^2)."""
    return 1.0 / (1.0 + 4.0 * detuning ** 2 / cavity.kappa ** 2)


def drive_filter(cavity: CavityParams, detuning: float) -> float:
    """Field (amplitude) filter 1/sqrt(1+4*delta^2/kappa^2)."""
    return 1.0 / math.sqrt(1.0 + 4.0 * detuning ** 2 / cavity.kappa ** 2)


def _operators(n_nuclei: int):
    sz2 = np.diag([0.5, -0.5])
    sx2 = np.array([[0.0, 0.5], [0.5, 0.0]])
    dim = 2 ** (n_nuclei + 1)
    ops = {}

    def embed(op, pos):
        m = np.eye(1)
        for k in range(n_nuclei + 1):
            m = np.kron(m, op if k == pos else np.eye(2))
        return m

    ops["Sz"] = embed(sz2, 0)
    ops["Sx"] = embed(sx2, 0)
    for k in range(n_nuclei):
        ops[f"Iz{k}"] = embed(sz2, k + 1)
        ops[f"Ix{k}"] = embed(sx2, k + 1)
    ops["dim"] = dim
    return ops


def hamiltonian(p: SpinParams) -> np.ndarray:
    """Secular Hamiltonian matrix (rad/s) in the product basis.

    Basis ordering: Kronecker product electron x nucleus 0 x nucleus 1 ...,
    index 0 of each factor being m=+1/2 (the electron is the top bit).
    """
    ops = _operators(p.n_nuclei)
    h = p.omega_s * ops["Sz"]
    for k, (a, b) in enumerate(p.couplings):
        h = h + p.omega_i * ops[f"Iz{k}"]
        h = h + a * ops["Sz"] @ ops[f"Iz{k}"] + b * ops["Sz"] @ ops[f"Ix{k}"]
    return h


def _product_labels(n_nuclei: int):
    """Labels of the product-basis states in kron ordering."""
    dim = 2 ** (n_nuclei + 1)
    labels = []
    for idx in range(dim):
        bits = [(idx >> (n_nuclei - k)) & 1 for k in range(n_nuclei + 1)]
        electron = 0 if bits[0] == 1 else 1   # bit 0 -> m=+1/2 is first basis vec
        nuclear = "".join(_NUC_DOWN if b else _NUC_UP for b in bits[1:])
        labels.append((electron, nuclear))
    return labels


def build_system(p: SpinParams, c: CavityParams) -> SpinSystem:
    """Diagonalize the coupled system and label transitions and rates.

    Eigenlevels are labeled by maximum overlap with the uncoupled product
    states.  Raises :class:`DegenerateTransitionError` when that labeling
    is ambiguous, or when two distinguishable transitions coincide within
    1e-9 relative while the forbidden channels are open.
    """
    h = hamiltonian(p)
    energies, vecs = np.linalg.eigh(h)
    ops = _operators(p.n_nuclei)
    sx = vecs.T @ ops["Sx"] @ vecs

    # label eigenstates by dominant product-state character
    prod_labels = _product_labels(p.n_nuclei)
    overlap = np.abs(vecs) ** 2   # overlap[prod_idx, eig_idx]
    assignment = np.argmax(overlap, axis=0)
    if len(set(assignment.tolist())) != len(assignment):
        raise DegenerateTransitionError(
            "eigenstate labeling by product-state overlap is ambiguous")
    levels = tuple(prod_labels[assignment[j]] for j in range(len(assignment)))

    transitions = []
    n = p.n_nuclei
    for i, (ei, ni) in enumerate(levels):       # upper candidate
        for j, (ej, nj) in enumerate(levels):   # lower candidate
            if ei != 1 or ej != 0:
                continue
            flips = tuple(k for k in range(n) if ni[k] != nj[k])
            freq = energies[i] - energies[j]
            m = abs(sx[i, j])
            label = _transition_label(nj, flips, n)
            transitions.append(
                Transition(label=label, lower=j, upper=i, frequency=freq,
                           matrix_element=m, nuclear_flips=flips))

    _check_degeneracy(transitions, p)

    gamma0 = 4.0 * c.g0 ** 2 / c.kappa
    channels = []
    for i in range(len(levels)):
        chans = []
        for t in transitions:
            if t.upper != i:
                continue
            rate = gamma0 * (2.0 * t.matrix_element) ** 2 \
                * cavity_filter(c, t.frequency - c.omega_0)
            chans.append(DecayChannel(transition=t, rate=rate))
        channels.append(tuple(chans))

    return SpinSystem(
        params=p, cavity=c, energies=energies, eigenvectors=vecs,
        levels=levels, transitions=tuple(transitions),
        channels=tuple(channels),
    )


def _transition_label(nuc_lower: str, flips, n_nuclei: int) -> str:
    if not flips:
        if n_nuclei == 0:
            return "allowed"
        return f"allowed_{nuc_lower}"
    if len(flips) == 1:
        k = flips[0]
        # double quantum: electron and nucleus flip the same way (Dd -> Uu)
        kind = "double_quantum" if nuc_lower[k] == _NUC_DOWN else "zero_quantum"
        return kind if n_nuclei == 1 else f"{kind}_{k}"
    return "multi_quantum_" + "".join(str(k) for k in flips)


def _check_degeneracy(transitions, p: SpinParams):
    any_b = any(b != 0.0 for _, b in p.couplings)
    for i, t1 in enumerate(transitions):
        for t2 in transitions[i + 1:]:
            if min(t1.matrix_element, t2.matrix_element) < 1e-12:
                continue  # a dark line cannot be confused with anything
            if t1.is_allowed == t2.is_allowed:
                # same character: the lines stay distinguishable by the
                # nuclear label even when their frequencies coincide
                continue
            scale = max(abs(t1.frequency), abs(t2.frequency), 1.0)
            if abs(t1.frequency - t2.frequency) < 1e-9 * scale:
                raise DegenerateTransitionError(
                    f"transitions {t1.label} and {t2.label} coincide within "
                    "1e-9 relative; labeling is ambiguous")


# ---------------------------------------------------------------------------
# closed-form branches (single nucleus, high field)
# ---------------------------------------------------------------------------

def _single_coupling(p: SpinParams):
    if p.n_nuclei != 1:
        raise ValueError("closed-form branches require exactly one nucleus")
    return p.couplings[0]


def nuclear_manifold_frequencies(p: SpinParams):
    """Signed effective nuclear frequencies (w_plus, w_minus) in the two
    electron manifolds, and the mixing angles (xi_plus, xi_minus)."""
    a, b = _single_coupling(p)
    wi = p.omega_i
    if abs(a + 2 * wi) < 1e-300 or abs(a - 2 * wi) < 1e-300:
        raise ZeroDivisionError("A = -/+ 2*omega_I: mixing angle undefined")
    xi_p = math.atan(-b / (a + 2 * wi))
    xi_m = math.atan(-b / (a - 2 * wi))
    w_p = (wi + a / 2) * math.cos(xi_p) - (b / 2) * math.sin(xi_p)
    w_m = (wi - a / 2) * math.cos(xi_m) + (b / 2) * math.sin(xi_m)
    return w_p, w_m, xi_p, xi_m


def forbidden_frequencies(p: SpinParams):
    """Exact undriven offsets (delta_d0, delta_z0) of the double- and
    zero-quantum transitions from omega_S."""
    w_p, w_m, _, _ = nuclear_manifold_frequencies(p)
    half_sum = 0.5 * (w_p + w_m)
    return half_sum, -half_sum


def closed_form_transitions(p: SpinParams):
    """Closed-form frequencies and |Sx| matrix elements of all four lines.

    Returns a dict label -> (frequency rad/s, matrix element). Independent
    of the numerical diagonalization; used as its cross-check.
    """
    w_p, w_m, xi_p, xi_m = nuclear_manifold_frequencies(p)
    half_sum = 0.5 * (w_p + w_m)
    half_diff = 0.5 * (w_p - w_m)
    dxi = 0.5 * (xi_p - xi_m)
    m_allowed = abs(math.cos(dxi)) / 2.0
    m_forbidden = abs(math.sin(dxi)) / 2.0
    ws = p.omega_s
    return {
        "allowed_u": (ws + half_diff, m_allowed),
        "allowed_d": (ws - half_diff, m_allowed),
        "double_quantum": (ws + half_sum, m_forbidden),
        "zero_quantum": (ws - half_sum, m_forbidden),
    }


def ac_zeeman_frequencies(p: SpinParams, omega_drive: float,
                          max_iter: int = 100, rtol: float = 1e-10):
    """Drive-shifted forbidden-transition offsets (delta_d, delta_z).

    Solves the self-consistent AC-Zeeman equation for each branch by fixed
    point, continuing in drive amplitude from the undriven root so the
    physically-connected solution is selected.
    """
    if omega_drive < 0:
        raise ValueError("drive amplitude must be non-negative")
    w_p, w_m, _, _ = nuclear_manifold_frequencies(p)
    d0_d, d0_z = forbidden_frequencies(p)

    def solve(d0, sign, om):
        delta = d0
        for om_k in np.linspace(om / 8.0, om, 8) if om > 0 else [0.0]:
            for _ in range(max_iter):
                shift = (om_k ** 2 / 4.0) * (
                    1.0 / (w_p - sign * (delta - d0))
                    + 1.0 / (w_m - sign * (delta - d0)))
                new = d0 + sign * shift
                if abs(new - delta) <= rtol * max(abs(new), 1.0):
                    delta = new
                    break
                delta = new
            else:
                raise NonConvergenceError(
                    "AC-Zeeman fixed point did not converge")
        return delta

    # zero-quantum branch: delta = d0 + shift; double-quantum: delta = d0 - shift
    delta_z = solve(d0_z, +1.0, omega_drive)
    delta_d = solve(d0_d, -1.0, omega_drive)
    return delta_d, delta_z


def ac_zeeman_residual(p: SpinParams, omega_drive: float,
                       delta: float, branch: str) -> float:
    """Residual of the defining self-consistent equation at ``delta``."""
    w_p, w_m, _, _ = nuclear_manifold_frequencies(p)
    d0_d, d0_z = forbidden_frequencies(p)
    d0, sign = (d0_z, +1.0) if branch == "zero_quantum" else (d0_d, -1.0)
    shift = (omega_drive ** 2 / 4.0) * (
        1.0 / (w_p - sign * (delta - d0)) + 1.0 / (w_m - sign * (delta - d0)))
    return delta - (d0 + sign * shift)


def forbidden_rabi(omega_drive: float, p: SpinParams, c: CavityParams,
                   delta: float, *, amplitude_at_drive_frequency: bool = False) -> float:
    """Forbidden-transition Rabi frequency (rad/s).

    ``omega_drive`` is the drive amplitude expressed as the equivalent
    allowed-transition Rabi frequency of the same input power applied at
    cavity resonance; the resonator attenuates it by the field filter at
    detuning ``delta``.  Set ``amplitude_at_drive_frequency=True`` when the
    amplitude is already the effective value at the forbidden frequency
    (e.g. quoted from a filtered measurement), which skips the filter.
    """
    a, b = _single_coupling(p)
    wi = abs(p.omega_i)
    if abs(2 * wi - a) < 1e-300 or abs(2 * wi + a) < 1e-300:
        raise ZeroDivisionError("A = +/- 2*omega_I: sideband amplitude diverges")
    element_sum = b / (2 * wi - a) + b / (2 * wi + a)
    f = 1.0 if amplitude_at_drive_frequency else drive_filter(c, delta)
    return abs(omega_drive / 2.0 * element_sum * f)
