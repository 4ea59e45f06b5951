"""Model zoo: concrete occupancy processes with analytic structure."""

from .spreading import (SpreadingModel, ThresholdReport, epidemic_threshold,
                        mean_field, spreading_rule)
from .domany_kinzel import (DomanyKinzel, dk_device_time, dk_exact_mean_zeta2,
                            dk_rule)
from .hanski import (HanskiLimit, HanskiModel, equidistributed, hanski_limit,
                     hanski_rule)
from .graphdyn import (GraphDynModel, complete_host, cut_norm_exact,
                       deterministic_edge_matrices, edge_state_to_adjacency,
                       graph_rule, graphon_step, graphon_trajectory,
                       homomorphism_density, lambda_kernel,
                       triangle_clt, triangle_density)
from .random_rules import random_product_rule
from .descriptors import model_from_descriptor
