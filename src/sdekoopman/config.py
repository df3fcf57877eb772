"""Run configuration: a strict JSON document driving the CLI.

Unknown keys are rejected by name (top level and nested), values are
validated on load, and a parsed configuration round-trips losslessly through
``to_dict`` / ``from_dict``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError

ALLOWED_METRICS = ("condition_number", "pde_residual", "semigroup", "rmse", "max_abs_h")

# key -> (description, default shown in --help)
CONFIG_SCHEMA = {
    "model": "registered model name or {'name': ..., <model params>} "
             "(ou | quadratic | linear2d | langevin); required",
    "kernel_lengthscale": "Gaussian kernel lengthscale; default: model preset",
    "grid_spec": "{'kind': uniform_1d|tensor|sobol, 'n': int}; default: model preset",
    "gamma": "ridge added to the collocation system matrix; default: model preset",
    "lambda_select": "target eigenvalue of the linearization; default: model preset",
    "fk": "{'dt': 0.01, 'n_paths': 10000, 't_max': 50.0, 'seed': 0, "
          "'antithetic': false} (all optional)",
    "metrics": f"subset of {list(ALLOWED_METRICS)}; default: all",
    "output_dir": "directory for output files; default: current directory",
    "seed": "master seed, overrides fk.seed; default: 0",
}

_FK_KEYS = ("dt", "n_paths", "t_max", "seed", "antithetic")
_GRID_KEYS = ("kind", "n")


def _reject_unknown(d: dict, allowed, where: str):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")


@dataclass(frozen=True)
class RunConfig:
    model_name: str
    model_params: dict = field(default_factory=dict)
    kernel_lengthscale: Optional[float] = None
    grid_spec: Optional[dict] = None
    gamma: Optional[float] = None
    lambda_select: Optional[float] = None
    fk: dict = field(default_factory=dict)
    metrics: Optional[tuple] = None
    output_dir: Optional[str] = None
    seed: Optional[int] = None

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("configuration must be a JSON object")
        _reject_unknown(doc, CONFIG_SCHEMA, "configuration")
        if "model" not in doc:
            raise ConfigError("configuration requires a 'model' key")
        model = doc["model"]
        if isinstance(model, str):
            name, params = model, {}
        elif isinstance(model, dict):
            if "name" not in model:
                raise ConfigError("inline model spec requires a 'name' key")
            name = model["name"]
            params = {k: v for k, v in model.items() if k != "name"}
        else:
            raise ConfigError("'model' must be a name or an object")
        from .models import is_int
        from .registry import MODEL_NAMES, MODEL_PARAMS
        if name not in MODEL_PARAMS:
            raise ConfigError(f"unknown model '{name}'; registered: "
                              f"{', '.join(MODEL_NAMES)}")
        _reject_unknown(params, MODEL_PARAMS[name], f"model '{name}'")

        grid = doc.get("grid_spec")
        if grid is not None:
            if not isinstance(grid, dict):
                raise ConfigError("'grid_spec' must be an object")
            _reject_unknown(grid, _GRID_KEYS, "grid_spec")
            if "kind" not in grid or "n" not in grid:
                raise ConfigError("grid_spec requires 'kind' and 'n'")
            grid = {"kind": str(grid["kind"]), "n": grid["n"]}

        fk = doc.get("fk", {})
        if not isinstance(fk, dict):
            raise ConfigError("'fk' must be an object")
        _reject_unknown(fk, _FK_KEYS, "fk")

        gamma = doc.get("gamma")
        if gamma is not None and float(gamma) < 0:
            raise ConfigError("gamma must be nonnegative")

        metrics = doc.get("metrics")
        if metrics is not None:
            if not isinstance(metrics, list):
                raise ConfigError("'metrics' must be a list")
            for m in metrics:
                if m not in ALLOWED_METRICS:
                    raise ConfigError(f"unknown metric '{m}'; allowed: "
                                      f"{', '.join(ALLOWED_METRICS)}")
            metrics = tuple(metrics)

        seed = doc.get("seed")
        if seed is not None:
            if not is_int(seed):
                raise ConfigError(f"seed must be an integer, got {seed!r}")
            if not 0 <= seed < 2**64:
                raise ConfigError("seed must be a 64-bit unsigned integer")

        return RunConfig(
            model_name=name, model_params=dict(params),
            kernel_lengthscale=(None if doc.get("kernel_lengthscale") is None
                                else float(doc["kernel_lengthscale"])),
            grid_spec=grid,
            gamma=None if gamma is None else float(gamma),
            lambda_select=(None if doc.get("lambda_select") is None
                           else float(doc["lambda_select"])),
            fk=dict(fk), metrics=metrics,
            output_dir=doc.get("output_dir"), seed=seed,
        )

    def to_dict(self) -> dict:
        model = self.model_name if not self.model_params else {
            "name": self.model_name, **self.model_params}
        doc = {"model": model}
        if self.kernel_lengthscale is not None:
            doc["kernel_lengthscale"] = self.kernel_lengthscale
        if self.grid_spec is not None:
            doc["grid_spec"] = dict(self.grid_spec)
        if self.gamma is not None:
            doc["gamma"] = self.gamma
        if self.lambda_select is not None:
            doc["lambda_select"] = self.lambda_select
        if self.fk:
            doc["fk"] = dict(self.fk)
        if self.metrics is not None:
            doc["metrics"] = list(self.metrics)
        if self.output_dir is not None:
            doc["output_dir"] = self.output_dir
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc

    def effective_seed(self, override: Optional[int] = None) -> int:
        if override is not None:
            return override
        if self.seed is not None:
            return self.seed
        return self.fk.get("seed", 0)

    def wanted_metrics(self) -> tuple:
        return ALLOWED_METRICS if self.metrics is None else self.metrics


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    return RunConfig.from_dict(doc)
