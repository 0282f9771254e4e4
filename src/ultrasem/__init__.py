"""Spectral element solver for quadrilateral meshes with extreme aspect
ratios, built on banded ultraspherical operators, plus an incompressible
Navier-Stokes projection driver."""

from .element import (
    AlmostBandedMatrix,
    CoeffVector2D,
    PdeCoefficients,
    assemble_element_operator,
    boundary_rows,
    element_interior_operator,
    element_rhs,
    operator_condition,
    row_scale,
    solve_element_dirichlet,
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
    MeshQuality,
    QuadMesh,
    build_mesh,
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
    DetPolynomial,
    Quad,
    TransformedCoeffs,
    bilinear_coeffs,
    det_polynomial,
    transformed_derivative_coeffs,
)
from .schur import (
    InterfaceEdgeGeometry,
    SchurSystem,
    assemble_schur,
)
from .ultra import (
    cheb_points,
    cheb_to_ultra,
    coeffs_to_vals,
    coeffs_to_vals_2d,
    conversion_operator,
    deriv_eval_row,
    diff_operator,
    eval_row,
    mult_operator,
    vals_to_coeffs,
    vals_to_coeffs_2d,
)

__version__ = "0.1.0"
