"""Exact computation with fusion systems on small finite p-groups."""

from .closure import (
    SubgroupClassification,
    alperin_decompose,
    alperin_generators,
    center_of_fusion,
    classify,
    is_normal_subgroup,
    o_p,
    strongly_closed_central_series,
)
from .fusion import (
    FusionSystem,
    PreFusionSystem,
    fusion_from_group,
    fusion_generated,
    fusion_intersect,
    hom_set,
    is_fully_normalized,
    is_saturated,
    is_strongly_closed,
    is_weakly_closed,
    n_phi,
    restricted_to,
    transport,
)
from .permgroup import (
    Group,
    GroupHom,
    Perm,
    Subgroup,
    conjugation_hom,
    group_from_generators,
    hom_build,
    isomorphism_search,
    quotient_group,
    subgroups,
    upper_central_series,
)
from .quotients import (
    FusionSystemMorphism,
    bar_system,
    closure_transfer,
    factor_system,
    generated_bar,
    prefusion_is_fusion,
    quotient_morphism,
    verify_second_iso,
    verify_third_iso,
)
from .solubility import (
    SolubilityReport,
    is_constrained,
    is_model,
    is_qdp_free_group,
    o_p_tower,
    qd_group,
    thompson_factorization_holds,
)
from .subsystems import (
    aut_f_acts_on,
    centralizer_system,
    inner_system,
    is_characteristic,
    is_frattini,
    is_invariant,
    is_normal_subsystem,
    k_normalizer_system,
    normalizer_system,
)
from .verify import run_verification

__version__ = "0.1.0"
