"""Run configuration: YAML files with explicit SI-prefixed unit strings.

Quantities are written as strings like ``"34.5 kHz"`` or ``"2.6 ms"`` and
parsed to base SI units (Hz, s, T, rad); plain numbers pass through
unchanged. Schema violations raise :class:`ConfigError` carrying the path
of the offending field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .detector import DetectorParams
from .spinmodel import CavityParams, SpinParams

_PREFIXES = {
    "G": 1e9, "M": 1e6, "k": 1e3, "": 1.0,
    "m": 1e-3, "u": 1e-6, "μ": 1e-6, "n": 1e-9,
}
#: base units accepted in quantity strings (value returned in this unit)
_UNITS = ("Hz", "s", "T", "rad", "deg", "counts")

_QUANTITY_RE = re.compile(
    r"^\s*([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*"
    r"(G|M|k|m|u|μ|n)?(" + "|".join(_UNITS) + r")?\s*$")
#: how a quantity string starts: an optional sign, then a digit or ".digit"
_NUMBER_START_RE = re.compile(r"^\s*[+-]?\.?\d")


class ConfigError(ValueError):
    """Invalid configuration; ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def parse_quantity(value, path: str = "value") -> float:
    """A number, or a string like ``"640 kHz"``, to a float in base units."""
    if isinstance(value, bool):
        raise ConfigError(path, "expected a number or quantity string")
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(path, "expected a number or quantity string")
    m = _QUANTITY_RE.match(value)
    if not m:
        raise ConfigError(path, f"cannot parse quantity {value!r}")
    number, prefix, unit = m.groups()
    if prefix and not unit:
        raise ConfigError(path, f"prefix without unit in {value!r}")
    return float(number) * _PREFIXES[prefix or ""]


@dataclass(frozen=True)
class ExperimentConfig:
    """Named protocol with its parameters, as the config gives them."""

    protocol: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to execute a simulation run."""

    seed: int
    output: str
    system: SpinParams
    cavity: CavityParams
    detector: DetectorParams
    experiments: tuple[ExperimentConfig, ...] = ()
    lattice_file: str | None = None
    names: tuple[str, ...] = ()


def _require(mapping, key, path):
    if not isinstance(mapping, dict):
        raise ConfigError(path, "expected a mapping")
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return mapping[key]


def _quantity(mapping, key, path):
    return parse_quantity(_require(mapping, key, path), f"{path}.{key}")


def _system(node, path) -> SpinParams:
    omega_s = _quantity(node, "omega_s", path)
    omega_i = _quantity(node, "omega_i", path)
    couplings = []
    for i, c in enumerate(node.get("couplings", [])):
        cp = f"{path}.couplings[{i}]"
        couplings.append((_quantity(c, "a", cp), _quantity(c, "b", cp)))
    try:
        return SpinParams.from_hz(omega_s, omega_i, couplings)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _cavity(node, path) -> CavityParams:
    frequency = _quantity(node, "frequency", path)
    kappa = _quantity(node, "kappa", path)
    g0 = _quantity(node, "g0", path)
    try:
        return CavityParams.from_hz(frequency, kappa, g0)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _detector(node, path) -> DetectorParams:
    epsilon = _quantity(node, "epsilon", path)
    # an intrinsic detector efficiency multiplies the spin efficiency
    if "intrinsic_efficiency" in node:
        epsilon *= _quantity(node, "intrinsic_efficiency", path)
    # a field left out takes its DetectorParams default
    given = {name: _quantity(node, key, path) for key, name in
             (("dark_rate", "gamma_dc"), ("cycle", "cycle"), ("dead", "dead"))
             if key in node}
    try:
        return DetectorParams(epsilon=epsilon, **given)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _experiment(node, i) -> tuple[str, ExperimentConfig]:
    path = f"experiments[{i}]"
    protocol = _require(node, "protocol", path)
    name = node.get("name", f"{i:02d}_{protocol}")
    raw = node.get("params", {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}.params", "expected a mapping")
    params = {k: _convert_param(v, f"{path}.params.{k}")
              for k, v in raw.items()}
    return name, ExperimentConfig(protocol=protocol, params=params)


def _convert_param(value, path):
    """Parse quantity strings anywhere inside a parameter tree; a string
    that starts like a number must parse, any other is kept as a label."""
    if isinstance(value, str):
        if _NUMBER_START_RE.match(value):
            return parse_quantity(value, path)
        return value               # plain string parameter (e.g. a label)
    if isinstance(value, list):
        return [_convert_param(v, f"{path}[{i}]")
                for i, v in enumerate(value)]
    if isinstance(value, dict):
        return {k: _convert_param(v, f"{path}.{k}") for k, v in value.items()}
    return value


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    try:
        root = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("<root>", f"invalid YAML: {exc}") from None
    if not isinstance(root, dict):
        raise ConfigError("<root>", "config must be a mapping")
    seed = _require(root, "seed", "<root>")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed", "seed must be an integer")
    lattice_file = root.get("lattice")
    if lattice_file is not None:
        resolved = Path(base_dir) / lattice_file
        if not resolved.exists():
            raise ConfigError("lattice", f"file not found: {resolved}")
        lattice_file = str(resolved)
    names, experiments = [], []
    for i, node in enumerate(root.get("experiments", [])):
        name, exp = _experiment(node, i)
        if name in names:
            raise ConfigError(f"experiments[{i}].name",
                              f"duplicate experiment name {name!r}")
        names.append(name)
        experiments.append(exp)
    return RunConfig(
        seed=seed,
        output=str(root.get("output", "results")),
        system=_system(_require(root, "system", "<root>"), "system"),
        cavity=_cavity(_require(root, "cavity", "<root>"), "cavity"),
        detector=_detector(_require(root, "detector", "<root>"), "detector"),
        experiments=tuple(experiments),
        lattice_file=lattice_file,
        names=tuple(names))


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("<file>", f"config file not found: {path}")
    return parse_config(path.read_text(), base_dir=path.parent)
