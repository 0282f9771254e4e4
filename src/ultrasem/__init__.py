"""Spectral element solver for quadrilateral meshes with extreme aspect
ratios, built on banded ultraspherical operators, plus an incompressible
Navier-Stokes projection driver."""

from .element import (
    AlmostBandedMatrix,
    CoeffVector2D,
    PdeCoefficients,
    assemble_element_operator,
    element_interior_operator,
    operator_condition,
)
from .errors import (
    BookkeepingError,
    ExpressionError,
    GeometryError,
    InstabilityError,
    LinearAlgebraError,
    MeshError,
    MeshFormatError,
    SingularOperatorError,
    UltrasemError,
)
from .mesh import (
    QuadMesh,
    grid_mesh,
    interface_bandwidth,
    mesh_from_string,
    mesh_to_string,
    order_interfaces,
    quality,
    read_mesh,
    split_triangle,
    write_mesh,
)
from .navierstokes import (
    FlowState,
    NsConfig,
    TunnelBoundary,
    TunnelSolver,
    classify_tunnel_boundary,
    tunnel_mesh,
)
from .quadmap import (
    BilinearMap,
    Quad,
    bilinear_coeffs,
    det_polynomial,
)
from .schur import (
    SchurSystem,
    assemble_schur,
    solve_element_dirichlet,
)
from .ultra import (
    cheb_points,
    cheb_to_ultra,
    coeffs_to_vals_2d,
    conversion_operator,
    deriv_eval_row,
    diff_operator,
    eval_row,
    vals_to_coeffs_2d,
)

__version__ = "0.1.0"
