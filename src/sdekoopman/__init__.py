"""Principal Koopman eigenfunctions of Ito SDEs.

The eigenfunction is split as phi(x) = w^T x + h(x), with (lambda, w) a left
eigenpair of the drift linearization and h the nonlinear correction solving a
second-order generator PDE.  Two routes compute h: Gaussian-RBF kernel
collocation of the PDE, and Monte Carlo Feynman-Kac estimation along
simulated paths; the validation module cross-checks both against semigroup,
residual and conditioning diagnostics.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # models
    "SdeSystem": "models", "LinearDecomposition": "models", "EigenPair": "models",
    "Domain": "models", "linearize": "models", "left_eigenpair": "models",
    "diffusion_tensor": "models", "ellipticity_level": "models",
    "lambda_threshold": "models",
    # kernels
    "GaussianKernel": "kernels", "power_function": "kernels", "fill_distance": "kernels",
    # collocation
    "GridSpec": "collocation", "CollocationGrid": "collocation",
    "AssembledSystem": "collocation", "CollocationSolution": "collocation",
    "make_grid": "collocation", "assemble": "collocation", "solve": "collocation",
    "solve_system": "collocation", "pde_residual": "collocation",
    "residual_test_points": "collocation",
    "save_solution": "collocation", "load_solution": "collocation",
    # feynman_kac
    "FkConfig": "feynman_kac", "FkEstimate": "feynman_kac", "em_step": "feynman_kac",
    "fk_estimate": "feynman_kac", "fk_batch": "feynman_kac", "krr_fit": "feynman_kac",
    "mc_convergence_probe": "feynman_kac", "simulate_terminal": "feynman_kac",
    # registry
    "get_model": "registry", "ModelSetup": "registry", "MODEL_NAMES": "registry",
    # validation
    "ExperimentReport": "validation", "semigroup_check": "validation",
    "semigroup_curve": "validation", "rmse_vs_exact": "validation",
    "boundary_stability_check": "validation", "conditioning_sweep": "validation",
    "run_experiment": "validation", "check_acceptance": "validation",
    # errors
    "SdeKoopmanError": "errors", "EvaluationError": "errors",
    "EigenstructureError": "errors", "AssemblyError": "errors",
    "SingularSystemError": "errors", "ConfigError": "errors",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # Lazy imports keep the package from loading numpy, so `sdekoopman.cli`
    # can pin BLAS thread pools before numpy loads.
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
