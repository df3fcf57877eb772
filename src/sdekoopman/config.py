"""Run configuration: a strict JSON document driving the CLI.

Each level of the document has one table of its keys and their kinds:
``CONFIG_SCHEMA`` for the top level (it also feeds ``--help``),
``MODEL_PARAMS`` for a model's parameters (all numbers), and ``_FK_SCHEMA``
and ``_GRID_SCHEMA`` for ``fk`` and ``grid_spec``.  ``_checked`` rejects an
unknown key or a value of the wrong kind by name when the file is loaded
(a number is a finite JSON number, never a bool); range rules stay with the
classes that use the values.  ``load_config`` returns the checked document
itself, a ``dict`` whose ``model`` is written as ``{"name": ..., <params>}``;
each command reads the keys it applies from it.
"""

from __future__ import annotations

import json
import numbers
import sys

from .errors import ConfigError

ALLOWED_METRICS = ("condition_number", "pde_residual", "semigroup", "rmse", "max_abs_h")

NUMBER, INTEGER = "a number", "an integer"
_KINDS = {
    # finite as a JSON number is: no NaN, no Infinity, no int beyond a float
    NUMBER: lambda v: (isinstance(v, numbers.Real) and not isinstance(v, bool)
                       and abs(v) <= sys.float_info.max),
    INTEGER: lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "a bool": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a name or an object": lambda v: isinstance(v, (str, dict)),
}

# key -> (kind, description and default shown in --help)
CONFIG_SCHEMA = {
    "model": ("a name or an object",
              "registered model name or {'name': ..., <model params>} "
              "(ou | quadratic | linear2d | langevin); required"),
    "kernel_lengthscale": (NUMBER, "Gaussian kernel lengthscale; default: model preset"),
    "grid_spec": ("an object",
                  "{'kind': uniform_1d|tensor|sobol, 'n': int}; default: model preset"),
    "gamma": (NUMBER, "ridge added to the collocation system matrix; default: model preset"),
    "lambda_select": (NUMBER,
                      "target eigenvalue of the linearization; default: model preset"),
    "fk": ("an object", "{'dt': 0.01, 'n_paths': 10000, 't_max': 50.0, 'seed': 0, "
                        "'antithetic': false} (all optional)"),
    "metrics": ("a list", f"subset of {list(ALLOWED_METRICS)}; default: all"),
    "output_dir": ("a string", "directory for output files; default: current directory"),
    "seed": (INTEGER, "master seed, overrides fk.seed; default: 0"),
}
_FK_SCHEMA = {"dt": NUMBER, "n_paths": INTEGER, "t_max": NUMBER, "seed": INTEGER,
              "antithetic": "a bool"}
_GRID_SCHEMA = {"kind": "a string", "n": INTEGER}


def _checked(obj, kinds: dict, where: str) -> dict:
    """``obj`` itself once it is an object whose keys are all in ``kinds``
    (key -> kind) and each value is of its key's kind."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    for key, value in obj.items():
        if key not in kinds:
            raise ConfigError(f"unknown key '{key}' in {where}")
        if not _KINDS[kinds[key]](value):
            raise ConfigError(f"{key} must be {kinds[key]}, got {value!r}")
    return obj


def check_config(doc) -> dict:
    """``doc`` checked, with ``model`` written as ``{"name": ..., <params>}``."""
    _checked(doc, {key: kind for key, (kind, _) in CONFIG_SCHEMA.items()},
             "configuration")
    if "model" not in doc:
        raise ConfigError("configuration requires a 'model' key")
    model = doc["model"]
    if isinstance(model, str):
        model = {"name": model}
    name = model.get("name")
    from .registry import MODEL_NAMES, MODEL_PARAMS
    if name not in MODEL_NAMES:  # a tuple: any JSON value can be looked up
        raise ConfigError(f"model name must be one of {', '.join(MODEL_NAMES)}, "
                          f"got {name!r}")
    params = _checked({k: v for k, v in model.items() if k != "name"},
                      dict.fromkeys(MODEL_PARAMS[name], NUMBER), f"model '{name}'")

    grid = doc.get("grid_spec")
    if grid is not None:
        _checked(grid, _GRID_SCHEMA, "grid_spec")
        if grid.keys() != _GRID_SCHEMA.keys():
            raise ConfigError("grid_spec requires 'kind' and 'n'")

    fk = _checked(doc.get("fk", {}), _FK_SCHEMA, "fk")

    if doc.get("gamma", 0) < 0:
        raise ConfigError("gamma must be nonnegative")

    for m in doc.get("metrics", ()):
        if m not in ALLOWED_METRICS:
            raise ConfigError(f"unknown metric '{m}'; allowed: "
                              f"{', '.join(ALLOWED_METRICS)}")

    # checked here too, where a --seed override would hide fk.seed
    for seed in (doc.get("seed"), fk.get("seed")):
        if seed is not None and not 0 <= seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")

    return {**doc, "model": {"name": name, **params}}


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    return check_config(doc)
