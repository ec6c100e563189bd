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
    """Where to find one dataset and how to read it."""

    name: str
    path: str
    label_col: object = -1  # int index or header name
    has_header: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
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
    sfe: SfeParams = field(default_factory=SfeParams)
    pso: PsoParams = field(default_factory=PsoParams)
    warmup_fes: int = 2000
    stagnation_window: int = 1000

    def hybrid_params(self) -> HybridParams:
        return HybridParams(
            warmup_fes=self.warmup_fes,
            stagnation_window=self.stagnation_window,
            sfe=self.sfe,
            pso=self.pso,
        )

    def pick_reference(self) -> str:
        if self.reference:
            return self.reference
        if "sfe_pso" in self.algorithms:
            return "sfe_pso"
        return self.algorithms[0]


def _parse_bool(raw: str, where: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{where}: cannot parse {raw!r} as a boolean")


def _parse_label_col(raw: str):
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        return raw


def _section_params(parser, section, cls, where):
    """Build ``cls`` from an INI section. The keys are the fields with a
    plain default, and the type of that default parses the value."""
    if not parser.has_section(section):
        return cls()
    kwargs = {}
    types = {f.name: type(f.default) for f in dataclasses.fields(cls)
             if f.default is not dataclasses.MISSING}
    for key, raw in parser.items(section):
        if key not in types:
            raise ConfigError(f"{where}: unknown key {key!r} in [{section}]")
        try:
            kwargs[key] = types[key](raw)
        except ValueError:
            raise ConfigError(
                f"{where}: [{section}] {key}: cannot parse {raw!r} as {types[key].__name__}"
            ) from None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: [{section}] {exc}") from None


def validate(cfg: ExperimentConfig, check_files: bool = True) -> None:
    if not cfg.algorithms:
        raise ConfigError("no algorithms configured")
    try:
        params = cfg.hybrid_params()
    except ValueError as exc:
        raise ConfigError(f"[hybrid] {exc}") from None
    for algo in cfg.algorithms:
        try:
            resolve_algorithm(algo, params)
        except ValueError as exc:
            raise ConfigError(f"[experiment] algorithms: {exc}") from None
    if len(set(cfg.algorithms)) != len(cfg.algorithms):
        raise ConfigError("duplicate algorithm entries")
    if not cfg.datasets:
        raise ConfigError("no datasets configured")
    seen = set()
    for spec in cfg.datasets:
        if spec.name in seen:
            raise ConfigError(f"duplicate dataset name {spec.name!r}")
        seen.add(spec.name)
        if check_files and not os.path.isfile(spec.path):
            raise ConfigError(f"dataset {spec.name!r}: file not found: {spec.path}")
    if cfg.runs < 1:
        raise ConfigError("runs must be at least 1")
    if cfg.budget < 1:
        raise ConfigError("budget must be at least 1")
    if cfg.folds < 2:
        raise ConfigError("folds must be at least 2")
    if cfg.knn_k < 1:
        raise ConfigError("knn_k must be at least 1")
    if cfg.workers < 1:
        raise ConfigError("workers must be at least 1")
    if cfg.reference and cfg.reference not in cfg.algorithms:
        raise ConfigError(f"reference {cfg.reference!r} is not among the algorithms")


def load_config(path: str, check_files: bool = True) -> ExperimentConfig:
    """Read an experiment file and return a validated config.

    Relative dataset paths are resolved against the file's directory.
    ``check_files=False`` skips the dataset existence check, for reading
    the config snapshot of a finished experiment whose inputs may have
    moved.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    base = os.path.dirname(os.path.abspath(path))

    exp = dict(parser.items("experiment")) if parser.has_section("experiment") else {}
    known = {
        "algorithms", "runs", "budget", "folds", "knn_k", "seed", "workers",
        "reference", "fixed_folds", "fold_mean", "out",
    }
    unknown = set(exp) - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys in [experiment]: {sorted(unknown)}")

    def geti(key, default):
        try:
            return int(exp[key]) if key in exp else default
        except ValueError:
            raise ConfigError(f"{path}: [experiment] {key} must be an integer") from None

    algorithms = tuple(
        a.strip() for a in exp.get("algorithms", "sfe").split(",") if a.strip()
    )

    datasets = []
    for section in parser.sections():
        if not section.startswith("dataset:"):
            continue
        name = section.split(":", 1)[1].strip()
        items = dict(parser.items(section))
        bad = set(items) - {"path", "label_col", "header"}
        if bad:
            raise ConfigError(f"{path}: unknown keys in [{section}]: {sorted(bad)}")
        if "path" not in items:
            raise ConfigError(f"{path}: [{section}] is missing 'path'")
        ds_path = items["path"]
        if not os.path.isabs(ds_path):
            ds_path = os.path.normpath(os.path.join(base, ds_path))
        datasets.append(
            DatasetSpec(
                name=name,
                path=ds_path,
                label_col=_parse_label_col(items.get("label_col", "-1")),
                has_header=_parse_bool(items.get("header", "false"), section),
            )
        )

    sfe = _section_params(parser, "sfe", SfeParams, path)
    pso = _section_params(parser, "pso", PsoParams, path)
    hybrid = _section_params(parser, "hybrid", HybridParams, path)

    cfg = ExperimentConfig(
        algorithms=algorithms,
        datasets=tuple(datasets),
        runs=geti("runs", 30),
        budget=geti("budget", 6000),
        folds=geti("folds", 5),
        knn_k=geti("knn_k", 1),
        seed=geti("seed", 1),
        workers=geti("workers", 1),
        reference=exp.get("reference", "").strip(),
        fixed_folds=_parse_bool(exp.get("fixed_folds", "false"), "[experiment]"),
        fold_mean=_parse_bool(exp.get("fold_mean", "false"), "[experiment]"),
        out=exp.get("out", "").strip(),
        sfe=sfe,
        pso=pso,
        warmup_fes=hybrid.warmup_fes,
        stagnation_window=hybrid.stagnation_window,
    )
    try:
        validate(cfg, check_files=check_files)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


def write_config(cfg: ExperimentConfig, path: str) -> None:
    """Persist a resolved config; `load_config` on the result round-trips."""
    parser = configparser.ConfigParser()
    parser["experiment"] = {
        "algorithms": ", ".join(cfg.algorithms),
        "runs": str(cfg.runs),
        "budget": str(cfg.budget),
        "folds": str(cfg.folds),
        "knn_k": str(cfg.knn_k),
        "seed": str(cfg.seed),
        "workers": str(cfg.workers),
        "reference": cfg.reference,
        "fixed_folds": str(cfg.fixed_folds).lower(),
        "fold_mean": str(cfg.fold_mean).lower(),
    }
    for section, params in (("sfe", cfg.sfe), ("pso", cfg.pso)):
        parser[section] = {
            f.name: str(getattr(params, f.name)) for f in dataclasses.fields(params)
        }
    parser["hybrid"] = {
        "warmup_fes": str(cfg.warmup_fes),
        "stagnation_window": str(cfg.stagnation_window),
    }
    for spec in cfg.datasets:
        parser[f"dataset:{spec.name}"] = {
            "path": os.path.abspath(spec.path),
            "label_col": str(spec.label_col),
            "header": str(spec.has_header).lower(),
        }
    with open(path, "w") as fh:
        parser.write(fh)
