"""modrec: recovery of real-valued samples from noisy modulo-1 observations.

Two-stage pipeline: kNN averaging on the unit circle denoises the mod-1
samples, then sequential branch-corrected differencing unwraps them up to a
single global integer.  A graph-regularized torus denoiser with a dual
certificate of global optimality, relaxation baselines, multilinear function
reconstruction, and an experiment harness round out the package.
"""

from .baselines import HardCaseError, NumericError, lambda_schedule, solve_trs, solve_ucqp
from .certificate import (
    apriori_tightness_conditions,
    dual_certificate,
    empirical_tightness_condition,
    lift_matrix,
    linf_error_bound,
    schur_block,
    tightness_verdict,
)
from .circle import (
    center_mod1,
    centered_wrap,
    chord_from_wrap,
    circle_arg,
    circle_embed,
    mod1,
    project_to_circle,
    uncenter_mod1,
    wrap_bound_from_chord,
    wrap_distance,
)
from .graphs import (
    GraphSpec,
    adjacency_apply,
    edge_smoothness,
    grid_graph,
    laplacian_apply,
    path_graph,
    quadratic_form,
)
from .grid import GridField, UniformGrid, iter_lex, mesh_points
from .harness import (
    ElevationDemo,
    McConfig,
    PlantedFunction,
    SyntheticSpec,
    TrialResult,
    align,
    elevation_demo,
    generate,
    metrics,
    monte_carlo,
    rate_fit,
    run_pipeline,
)
from .interpolate import evaluate, fit
from .knn import (
    RiskBoundInputs,
    choose_k_expected_risk,
    choose_k_practical,
    choose_k_sup_norm,
    denoise,
    expected_risk_bound,
    sup_error_scale,
    sup_norm_bound,
)
from .linalg import hermitian_eig
from .qcqp import (
    QcqpProblem,
    SolveReport,
    hessian_apply,
    objective,
    riemannian_grad,
    solve_qcqp,
    tangent_project,
)
from .unwrap import ItohReport, UnwrapResult, itoh_check, unwrap_multid

__version__ = "0.1.0"
