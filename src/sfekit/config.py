"""Experiment configuration: INI file plus command-line overrides.

One declarative file describes the whole run matrix (datasets x algorithms
x repeats) and every tunable of the search algorithms. The CLI can
override the scalar knobs and filter the matrix without editing the file.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass, field

from .bpso import PsoParams
from .hybrid import HybridParams, resolve_algorithm
from .sfe import SfeParams

__all__ = ["ConfigError", "DatasetSpec", "ExperimentConfig", "load_config", "write_config"]


class ConfigError(ValueError):
    """Raised for unusable experiment configurations."""


@dataclass(frozen=True)
class DatasetSpec:
    """Where to find one dataset and how to read it. The fields after
    ``name`` are the keys of its ``[dataset:<name>]`` section. The name is
    stripped, and a ``label_col`` that reads as an integer becomes a column
    index; any other is stripped as a header name, and must not be blank."""

    name: str
    path: str = ""
    label_col: object = "-1"
    header: bool = False

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.strip())
        if not self.name:
            raise ConfigError("dataset name is empty")
        if not self.path:
            raise ConfigError("is missing 'path'")
        try:
            label_col = int(self.label_col)
        except ValueError:
            label_col = self.label_col.strip()
            if not label_col:
                raise ConfigError("label_col is empty") from None
        object.__setattr__(self, "label_col", label_col)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment matrix, checked when it is built; the dataset files
    are checked where `run_experiment` opens them. The fields with a plain
    default, apart from ``datasets``, are the ``[experiment]`` keys of the
    INI file; ``out`` is read but not written to the snapshot."""

    algorithms: tuple = ("sfe",)
    datasets: tuple = ()
    runs: int = 30
    budget: int = 6000
    folds: int = 5
    knn_k: int = 1
    seed: int = 1
    workers: int = 1
    reference: str = ""
    fixed_folds: bool = False
    fold_mean: bool = False
    out: str = ""
    hybrid: HybridParams = field(default_factory=HybridParams)

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("no algorithms configured")
        for algo in self.algorithms:
            try:
                resolve_algorithm(algo, self.hybrid)
            except ValueError as exc:
                raise ConfigError(f"algorithms: {exc}") from None
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError("duplicate algorithm entries")
        if not self.datasets:
            raise ConfigError("no datasets configured")
        names = [spec.name for spec in self.datasets]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(f"duplicate dataset name {name!r}")
        for key, least in (("runs", 1), ("budget", 1), ("folds", 2), ("knn_k", 1),
                           ("workers", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}")
        if self.reference and self.reference not in self.algorithms:
            raise ConfigError(f"reference {self.reference!r} is not among the algorithms")

    def pick_reference(self) -> str:
        if self.reference:
            return self.reference
        if "sfe_pso" in self.algorithms:
            return "sfe_pso"
        return self.algorithms[0]


def _parse_value(raw, kind, where, section, key):
    """Parse ``raw`` as ``kind``: bool, a comma-separated tuple, or any
    type that takes the string, such as int, float or str."""
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        if kind is tuple:
            return tuple(p.strip() for p in raw.split(",") if p.strip())
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(
            f"{where}: [{section}] {key}: cannot parse {raw!r} as {kind.__name__}"
        ) from None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(value)
    return str(value)


def _section_keys(cls, skip=()):
    """The INI keys of ``cls``: its fields with a plain default, minus those
    in ``skip``, each mapped to the type of its default."""
    return {f.name: type(f.default) for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING and f.name not in skip}


# Keys that older snapshots hold but no field reads, each with the one value
# that the current code reproduces, or None where it reproduces every value
# (rf_n only tuned the retired random_fraction policy). Any other value is
# refused.
_RETIRED = {
    ("sfe", "ur_denominator"): "max_fes",
    ("sfe", "un_policy"): "linear_schedule",
    ("sfe", "rf_n"): None,
}


def _read_section(parser, section, cls, where, **given):
    """Build ``cls`` from an INI section; ``given`` fills the fields that
    are not keys of the section. A missing section gives the defaults."""
    kinds = _section_keys(cls, given)
    kwargs = dict(given)
    if parser.has_section(section):
        for key, raw in parser.items(section):
            if (section, key) in _RETIRED:
                kept = _RETIRED[section, key]
                if kept is not None and raw != kept:
                    raise ConfigError(f"{where}: [{section}] {key}: {raw!r} is no "
                                      f"longer supported; only {kept!r} is")
                continue
            if key not in kinds:
                raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")
            kwargs[key] = _parse_value(raw, kinds[key], where, section, key)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: [{section}] {exc}") from None


def _write_section(parser, section, obj, skip=()) -> None:
    parser[section] = {key: _format_value(getattr(obj, key))
                       for key in _section_keys(type(obj), skip)}


def load_config(path: str) -> ExperimentConfig:
    """Read an experiment file and return a validated config.

    Relative dataset paths are resolved against the file's directory. The
    dataset files are not opened here; `run_experiment` opens those it runs.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        # duplicate keys or sections, or a key before any section header
        detail = " ".join(str(exc).split())
        raise ConfigError(f"{path}: not a valid INI file: {detail}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    if parser.defaults():
        # configparser would merge these keys into every section.
        raise ConfigError(f"{path}: [DEFAULT] is not supported; "
                          "write each key in its own section")
    base = os.path.dirname(os.path.abspath(path))

    datasets, sections = [], {}
    for section in parser.sections():
        if section in ("experiment", "sfe", "pso", "hybrid"):
            continue
        if not section.startswith("dataset:"):
            raise ConfigError(f"{path}: unknown section [{section}]")
        spec = _read_section(parser, section, DatasetSpec, path,
                             name=section.split(":", 1)[1])
        if sections.setdefault(spec.name, section) != section:
            raise ConfigError(f"{path}: [{section}] repeats the dataset name "
                              f"{spec.name!r} of [{sections[spec.name]}]")
        if not os.path.isabs(spec.path):
            spec = dataclasses.replace(
                spec, path=os.path.normpath(os.path.join(base, spec.path)))
        datasets.append(spec)

    hybrid = _read_section(
        parser, "hybrid", HybridParams, path,
        sfe=_read_section(parser, "sfe", SfeParams, path),
        pso=_read_section(parser, "pso", PsoParams, path),
    )
    return _read_section(parser, "experiment", ExperimentConfig, path,
                         datasets=tuple(datasets), hybrid=hybrid)


def write_config(cfg: ExperimentConfig, path: str) -> None:
    """Persist a resolved config; `load_config` on the result round-trips,
    apart from ``out``, which names where the snapshot goes."""
    parser = configparser.ConfigParser(interpolation=None)
    _write_section(parser, "experiment", cfg, skip=("datasets", "out"))
    _write_section(parser, "sfe", cfg.hybrid.sfe)
    _write_section(parser, "pso", cfg.hybrid.pso)
    _write_section(parser, "hybrid", cfg.hybrid)
    for spec in cfg.datasets:
        _write_section(parser, f"dataset:{spec.name}",
                       dataclasses.replace(spec, path=os.path.abspath(spec.path)))
    with open(path, "w") as fh:
        parser.write(fh)
