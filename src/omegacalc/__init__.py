"""Exact arithmetic and calculus over series in an infinitesimal.

The ordered world here has three layers sharing one representation:
finite values (power series in ``o``), infinite values (finitely many
``S = 1/o`` powers on top), and the extended endpoints with a single
``+inf``/``-inf`` moment.  On top of the numbers sit regular functions,
two differential operators and their exact conversion tables, a
summation operator inverse to the step-o difference, and the field of
rational functions of ``o`` whose completion the numbers realize.
"""

from .aleph import (
    AlephInt,
    GridPoint,
    aleph_from_omega,
    archimedean_division,
    compare_aleph,
    integer_truncature,
    odiamond,
    oplus,
    phi,
    predecessor,
    psi,
    successor,
)
from .calculus import (
    D_op,
    D_to_d,
    S_op,
    a_coeff,
    a_coeff_bernoulli,
    a_coeff_p,
    bernoulli,
    brute_sum,
    brute_sum_iterated,
    d_to_D,
    finite_difference,
    grid_binomial,
    integrate,
    k_coeff,
    leibniz_differential,
    monomial_primitive,
    solve_ode,
    x_coeff,
)
from .errors import OmegaError
from .functions import (
    NsStarReport,
    RegularFunction,
    builtin,
    derivative,
    lift_poly_root,
    ns_star_check,
    solve_lift,
    taylor_shift,
)
from .omega import (
    DEFAULT_ORDER,
    EQUAL,
    GREATER,
    INFINITE_ORDER,
    LESS,
    ExtendedOmega,
    OmegaNumber,
    cauchy_limit,
    compare,
    compare_extended,
    from_json_dict,
    much_less,
    normalize,
    pow_rational,
    render_plain,
    sup_finite,
    to_json_dict,
)
from .rational import RationalFunction, completion_demo, expand, rf_compare

__version__ = "0.1.0"
