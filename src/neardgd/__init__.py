"""neardgd: decentralized nonconvex optimization with adjustable
communication/computation, plus descent and consensus diagnostics."""

from .consensus import (ConsensusMatrix, apply_consensus, average_project,
                        build_consensus_matrix, ensure_positive_definite,
                        max_degree_weights, metropolis_weights)
from .diagnostics import (CommCounter, CostModel, RunTrace, consensus_distance,
                          consensus_distance_bound, cumulative_cost,
                          descent_residual, lyapunov_grad, lyapunov_hessian,
                          lyapunov_value, optimality_gap_bound, rho_constant,
                          saddle_classification)
from .graph import Graph, build_erdos_renyi, build_ring, build_star, is_connected
from .linalg import Spectrum, sym_eigen
from .objective import (QuadraticProblem, QuadraticQuarticProblem,
                        sample_quadratic_problem, sample_quartic_problem)
from .optimizer import MethodSpec, initial_point, run

__version__ = "0.1.0"
