"""Exact-bit pins of collocation, residual, mesh and semigroup outputs.

Each value below was recorded with the code before the collocation formulas
were merged into one place (one kernel pass in the residual, one tensor mesh
builder, one semigroup path), on x86-64 with numpy 2.4 and OpenBLAS 0.3.31.
A refactor of those paths must keep every value to the last bit: floats are
compared through ``repr`` and arrays through the sha256 of their bytes.
``CLI_PINS`` holds the sha256 of every file the criterion-10 commands write,
recorded on the same machine; they equal the ``"cli"`` goldens of
``bench/goldens.json``.
"""

import hashlib

import numpy as np
import pytest

from sdekoopman import (Domain, FkConfig, GaussianKernel, fill_distance, get_model,
                        lambda_threshold, make_grid, pde_residual,
                        residual_test_points, semigroup_check, solve_system)
from sdekoopman.cli import _eigenfunction_curve_csv
from sdekoopman.collocation import GridSpec
from sdekoopman.validation import boundary_points
from test_acceptance import CRITERION_10_COMMANDS, run_cli, write_criterion_10_inputs

PINS = {
    "residual_values-quadratic": [
        "0.017399878655163875",
        "0.2503162398756522",
        "584bb7189c5b47a78273b46a523bde95fb1ab54359678fbcbbb4a338f6c897b5",
    ],
    "residual_values-linear2d": [
        "2.831068712794149e-17",
        "4.440892098500626e-16",
        "174a0f65bc69a132284ceb5de9db2921d7038334da19d1bad57e986901a84d7b",
    ],
    "residual_values-langevin": [
        "5.35682609381638e-17",
        "4.440892098500626e-16",
        "475d8d672d924d024de7a036a5b3a6fa70f3fcc5dd90f177ace62961bdc307df",
    ],
    "evaluation_values-quadratic": [
        "7d9c27becaaa34931c2bf40b2f256d95a7084dc7f82639b3b2f09998fb67c289",
        "4f482884f88ab2329a65f0798f6015c32321fdaa43de337752ab9dd94eeff329",
        "89c3521f5b91a14c07f042213f8d5d187f2bd07915e2e46da9c952eb5e05f055",
    ],
    "evaluation_values-linear2d": [
        "a7b662bcabf264d654bb35c1334ead397855daa9718cb4126282a07332f7bd20",
        "6a8afa541117bfdde1f5d427ff3baad8566da022a1574f0095d514f5991c037a",
        "495a5b5930c63b3c9be93f1fb6b01f242e5fa9e994001ebd1ca445824f7da911",
    ],
    "evaluation_values-langevin": [
        "a7b662bcabf264d654bb35c1334ead397855daa9718cb4126282a07332f7bd20",
        "ffaea9bb3d15d67544bf60b944dcb56fac2948b5355902418b34e4529ea0ea1c",
        "bf0aafaf89811552b571f01fee22054ea4bd8832eb002a3ca7de440dcd8f6e5f",
    ],
    "semigroup_values-quadratic": [
        "-0.27731340492042883",
        "-0.273640216642767",
        "0.013423422634024301",
    ],
    "semigroup_values-linear2d": [
        "0.7633823103403672",
        "0.7581633246407917",
        "0.0068837221874958835",
    ],
    "semigroup_values-langevin": [
        "0.99896354812103",
        "0.9735009788392561",
        "0.0261556689055762",
    ],
    "threshold_values-quadratic": [
        "0.8600000000025253",
        "0.8600000000025253",
    ],
    "threshold_values-linear2d": [
        "1.5000000000098268",
        "1.5000000000098268",
    ],
    "threshold_values-langevin": [
        "1.2500000000192912",
        "1.250000000008189",
    ],
    "mesh_values-1d": [
        "1f95b8de51f55c27932ffc6352a96baa9ea990fd1d3265b8ae2185f794c6f9e5",
        "2f626fc4c4bd8257761cad274c4a3e8ccbf1068df85d024657c4a3d8f4cc9ee3",
        "e21b5a471310f27b553e7fafed5c2ac3a28ade09ce8a141bbfafa5ba6b87a6eb",
        "4df750ed10a30764725c421635fdb86c0461e1beef4cdf7530bf7681fd120169",
        "00b21b4697163c430c4a8db12c7061c16bad2a459949fbf1bd928b4157531f3d",
        "0.19999999999999996",
    ],
    "mesh_values-2d": [
        "f05fc645167121a11d46f7344797aa13178f454208e3f12863fa012eaacd8374",
        "b41ad2f828b577ea6adbe6ad1b8f1341e9677e5ba2174a19c5c92e0e9774bf6c",
        "d4500ddde62c91277ff612d0cd73231aeecb0ed58ed047ad44b7b3356e5d9e63",
        "aacbdc5ef507b31eaf133c530012e9cb9a98b0974ee82de1ff662c6cf0b0e7bb",
        "0.32337832409800954",
    ],
    "mesh_values-3d": [
        "ee85849d3648c5accae70b84ee5cf7d23b5e9181c990b3bdf6402c4cadb24eb1",
        "93454f5693d508776bd97c3a0b72d76be4e7731a8a8a16e62454b1b3416391aa",
        "e0db3af764d92f2f7f42c1853a599832297e81ce88c9642048f37a446769f9a4",
        "151d7c73cc0de18c9f475842a6e9565111e7302e54f88899be6ed6ce14fb9b88",
        "0.4423259685986445",
    ],
}


CLI_PINS = {
    "fk/fk_estimates.csv": "58f46782bc3c1bd573f932f9842701f2aab7e28bfa2eab3dec3acd177f530937",
    "reproduce/summary.csv": "6fc447d2ce7800b58d7d7e47f72d33696ab14ef9c34ac8c112448993aef17d24",
    "semigroup-curve/semigroup_curve.csv":
        "592ca5d6b1ad3987c58d2319fd87d8ec67e832bfaf6ee4df7d6411ca70ea08bb",
    "solve/eigenfunction_curve.csv":
        "89c3521f5b91a14c07f042213f8d5d187f2bd07915e2e46da9c952eb5e05f055",
    "solve/report.csv": "016100da9d167cfa268f87f1480073cd06a38413dbabfd7c6b5c2fd846addaa4",
    "solve/solution.json": "d65c8c1f260bac6bcfaf9039707452a13ba7263b063bb4c9d122b59be641a50d",
    "sweep/sweep.csv": "1405a61c873808382b1978e13c50308e3e61355a06df2e6270e7d6c0aa7f9850",
}


def sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def solved(name, **params):
    s = get_model(name, **params)
    grid = make_grid(s.domain, s.grid_spec)
    sol, _, _ = solve_system(s.system, s.decomp, s.eigenpair, GaussianKernel(s.lengthscale),
                             grid, s.gamma)
    return s, sol


MODELS = {
    "quadratic": ("quadratic", {"sigma": 0.3}),  # 1-d
    "linear2d": ("linear2d", {}),  # 2-d
    "langevin": ("langevin", {}),  # 2-d, singular diffusion
}


def residual_values(key):
    name, params = MODELS[key]
    s, sol = solved(name, **params)
    res = pde_residual(sol, s.system, residual_test_points(s.domain))
    return [repr(res.mean), repr(res.max), sha(res.per_point)]


def evaluation_values(key):
    # more rows than one evaluation chunk holds
    name, params = MODELS[key]
    s, sol = solved(name, **params)
    X = np.random.default_rng(7).uniform(s.domain.lower, s.domain.upper,
                                         size=(2003, s.domain.dim))
    return [sha(sol.eval_h(X)), sha(sol.eval_phi(X)),
            hashlib.sha256(_eigenfunction_curve_csv(sol, s.domain).encode()).hexdigest()]


def semigroup_values(key):
    name, params = MODELS[key]
    s, sol = solved(name, **params)
    res = semigroup_check(s.system, sol.eval_phi, s.eigenpair.eigenvalue, s.semigroup_x0,
                          0.5, FkConfig(n_paths=2000, seed=11))
    return [repr(res.mc_mean), repr(res.prediction), repr(res.relative_error)]


BOXES = {
    "1d": Domain(lower=[-1.2], upper=[1.2]),
    "2d": Domain(lower=[-1.5, -2.0], upper=[1.5, 0.5]),
    "3d": Domain(lower=[-1.0, 0.0, -3.0], upper=[1.0, 0.25, 2.0]),
}


def mesh_values(box):
    dom = BOXES[box]
    grids = [make_grid(dom, GridSpec("tensor", 7)).points]
    if dom.dim == 1:
        grids.append(make_grid(dom, GridSpec("uniform_1d", 50)).points)
    return [*map(sha, grids), sha(residual_test_points(dom)),
            sha(residual_test_points(dom, expand=0.1, n_1d=31, n_per_axis=6)),
            sha(boundary_points(dom, n_per_face=16)),
            repr(fill_distance(grids[0], dom, n_probe=500))]


def threshold_values(key):
    name, params = MODELS[key]
    s = get_model(name, **params)
    return [repr(lambda_threshold(s.system, s.domain)),
            repr(lambda_threshold(s.system, s.domain, grid_per_axis=9))]


CASES = [(fn, key) for fn in (residual_values, evaluation_values, semigroup_values,
                              threshold_values) for key in MODELS]
CASES += [(mesh_values, box) for box in BOXES]


@pytest.mark.parametrize("fn, key", CASES, ids=[f"{fn.__name__}-{key}" for fn, key in CASES])
def test_bits_unchanged(fn, key):
    assert fn(key) == PINS[f"{fn.__name__}-{key}"]


def test_cli_outputs_unchanged(tmp_path):
    write_criterion_10_inputs(tmp_path)
    got = {}
    for name, args in CRITERION_10_COMMANDS.items():
        out = tmp_path / name
        run_cli([*args, "--out", str(out), "--threads", "1"], tmp_path)
        for path in sorted(out.iterdir()):
            got[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == CLI_PINS


if __name__ == "__main__":
    # prints the pin table for the code under test
    for fn, key in CASES:
        print(f"{fn.__name__}-{key}: {fn(key)}")
