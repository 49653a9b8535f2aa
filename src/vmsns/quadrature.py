"""Quadrature rules on reference simplices.

Rules are built as conical products of one-dimensional Gauss rules (a
Duffy-type collapse of the unit cube onto the simplex), one construction in
every dimension d.  The collapse maps

    x_k = s_k (1 - s_0) ... (1 - s_{k-1}),    k = 0, ..., d - 1,

with Jacobian prod_k (1 - s_k)^(d-1-k), so direction k absorbs its factor
exactly by Gauss-Jacobi weights (the last, with none, takes Gauss-Legendre)
and the product rule integrates any polynomial of total degree <= 2 n - 1
exactly, with n points per direction.  All weights are strictly positive,
which keeps the induced discrete inner product on quadrature-point fields
positive definite -- several projection operators downstream rely on that.

The one-dimensional rules are a table of float literals for n = 1 .. 8
points (exact to total degree 15), written with ``repr`` so that they read
back bit for bit.  They are the Golub-Welsch rules (Math. Comp. 23, 1969)
that scipy 1.17.1's ``roots_legendre(n)`` and ``roots_jacobi(n, alpha, 0)``
return, mapped from [-1, 1] to [0, 1] (x = (t + 1) / 2, weights times
2^-(alpha+1)).  They are literals rather than computed at import
because the lab's seeded Leray rows read the last bits of every rule, and
an eigenvalue solver's last ulp may differ between scipy versions; the
tests check the table against the installed scipy to within one ulp.

Points are stored in barycentric coordinates (dim + 1 entries per point,
summing to one); weights are stored as fractions of the reference volume and
sum to one.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = ["QuadratureRule", "simplex_quadrature"]

#: reference simplex volumes: segment 1, triangle 1/2, tetrahedron 1/6
REFERENCE_VOLUME = {1: 1.0, 2: 0.5, 3: 1.0 / 6.0}


@dataclass(frozen=True)
class QuadratureRule:
    """A fixed quadrature rule on the reference simplex.

    Attributes
    ----------
    dim : int
        Simplex dimension (2 or 3).
    order : int
        Largest total polynomial degree integrated exactly.
    points : ndarray, shape (n_qp, dim + 1)
        Barycentric coordinates of the nodes; each row sums to one.
    weights : ndarray, shape (n_qp,)
        Volume fractions; strictly positive, summing to one.
    """

    dim: int
    order: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


#: One-dimensional Gauss rules on [0, 1] that absorb the weight (1 - x)^alpha,
#: by alpha (0: Gauss-Legendre) and then by point count n = 1 .. 8, each as
#: (nodes, weights): sum_i w_i g(x_i) = int_0^1 g(x) (1 - x)^alpha dx for every
#: polynomial g of degree <= 2 n - 1.
_GAUSS_01 = {
    0: (
        ((0.5,),
         (1.0,)),
        ((0.21132486540518713, 0.7886751345948129),
         (0.5, 0.5)),
        ((0.1127016653792583, 0.5, 0.8872983346207417),
         (0.2777777777777779, 0.44444444444444414, 0.2777777777777779)),
        ((0.06943184420297371, 0.33000947820757187, 0.6699905217924281,
          0.9305681557970262),
         (0.1739274225687269, 0.3260725774312731, 0.3260725774312731,
          0.1739274225687269)),
        ((0.04691007703066802, 0.23076534494715845, 0.5, 0.7692346550528415,
          0.9530899229693319),
         (0.11846344252809449, 0.23931433524968326, 0.2844444444444445,
          0.23931433524968326, 0.11846344252809449)),
        ((0.033765242898423975, 0.16939530676686776, 0.3806904069584015,
          0.6193095930415985, 0.8306046932331322, 0.966234757101576),
         (0.08566224618958508, 0.18038078652406928, 0.2339569672863456,
          0.2339569672863456, 0.18038078652406928, 0.08566224618958508)),
        ((0.025446043828620812, 0.12923440720030277, 0.2970774243113014, 0.5,
          0.7029225756886985, 0.8707655927996972, 0.9745539561713792),
         (0.06474248308443496, 0.1398526957446383, 0.19091502525255938,
          0.20897959183673456, 0.19091502525255938, 0.1398526957446383,
          0.06474248308443496)),
        ((0.019855071751231856, 0.10166676129318664, 0.2372337950418355,
          0.40828267875217505, 0.591717321247825, 0.7627662049581645,
          0.8983332387068134, 0.9801449282487682),
         (0.05061426814518781, 0.11119051722668737, 0.1568533229389438,
          0.18134189168918102, 0.18134189168918102, 0.1568533229389438,
          0.11119051722668737, 0.05061426814518781)),
    ),
    1: (
        ((0.33333333333333337,),
         (0.5,)),
        ((0.15505102572168217, 0.6449489742783179),
         (0.31804138174397717, 0.18195861825602283)),
        ((0.08858795951270393, 0.40946686444073477, 0.787659461760847),
         (0.2009319137389596, 0.2292411063595862, 0.06982697990145417)),
        ((0.057104196114517725, 0.2768430136381238, 0.5835904323689168,
          0.8602401356562195),
         (0.13550691343148852, 0.2034645680102711, 0.12984754760823233,
          0.031180970950008085)),
        ((0.03980985705146872, 0.1980134178736082, 0.43797481024738616,
          0.6954642733536361, 0.9014649142011736),
         (0.09678159022665148, 0.1671746380943697, 0.14638698708466985,
          0.07390887007261668, 0.0157479145216923)),
        ((0.02931642715978494, 0.1480785996684843, 0.3369846902811543,
          0.5586715187715502, 0.7692338620300545, 0.926945671319741),
         (0.0723103307255089, 0.13554249723151868, 0.14079255378819883,
          0.0986611508906552, 0.04395516555050896, 0.008738301813609529)),
        ((0.0224793864387125, 0.11467905316090415, 0.2657898227845895,
          0.45284637366944464, 0.6473752828868303, 0.8197593082631076,
          0.9437374394630779),
         (0.055967363423490867, 0.1105092581908744, 0.12739089729958852,
          0.10712506569587381, 0.06638469646549157, 0.027408356721873486,
          0.005214362202807391)),
        ((0.017779915147363434, 0.09132360789979399, 0.21430847939563075,
          0.3719321645832723, 0.5451866848034267, 0.7131752428555694,
          0.8556337429578544, 0.9553660447100302),
         (0.04455080436155604, 0.09111902363637378, 0.11250579947088706,
          0.10604735943593001, 0.07919959949231921, 0.04543931950469892,
          0.017842902655986224, 0.003295191442248766)),
    ),
    2: (
        ((0.25,),
         (0.3333333333333333,)),
        ((0.1225148226554415, 0.5441518440112253),
         (0.232547451253508, 0.10078588207982532)),
        ((0.0729940240731497, 0.3470037660383518, 0.7050022098884984),
         (0.15713636106488646, 0.1462462692598661, 0.029950703008580715)),
        ((0.048500549446997276, 0.23860073755186234, 0.5170472951043674,
          0.7958514178967728),
         (0.11088841561127774, 0.14345878979921445, 0.0686338871729231,
          0.010352240749918081)),
        ((0.03457893991821509, 0.17348032077169567, 0.3898863870655193,
          0.6343334726308868, 0.8510542129470164),
         (0.08176478428577101, 0.12619896189991137, 0.08920016122159007,
          0.032055600722961895, 0.0041138252030990035)),
        ((0.025904555093667347, 0.13156394165798502, 0.30243691802289124,
          0.509036413164752, 0.7156811273117138, 0.8868056161775619),
         (0.06253870272658223, 0.1073764997367799, 0.09457718674854086,
          0.05128957112961604, 0.01572029718494501, 0.0018310758068692911)),
        ((0.02013277377340056, 0.10308902914804902, 0.24055412604805754,
          0.4140021445970597, 0.600021513278993, 0.7735172465914375,
          0.9111831665630028),
         (0.049276501776438185, 0.0906988246126864, 0.0917338032797951,
          0.06314637870889117, 0.02942221128952859, 0.008162925632304684,
          0.0008926880336892087)),
        ((0.016097759551921054, 0.08290061748565108, 0.19547516848873986,
          0.3416519914772022, 0.5055970781844892, 0.6695522718243615,
          0.8157717035832838, 0.9285089649599069),
         (0.0397789578066907, 0.07681809326722225, 0.08528476917193892,
          0.06844718342165337, 0.04081442638854399, 0.017246863780234982,
          0.004474521713014409, 0.00046851778403470267)),
    ),
}

#: largest exactness degree the table reaches: 2 n - 1 at n = 8
MAX_ORDER = 2 * len(_GAUSS_01[0]) - 1


def simplex_quadrature(dim, order):
    """Build a positive-weight rule exact to the requested total degree.

    Parameters
    ----------
    dim : int
        2 (triangles) or 3 (tetrahedra).
    order : int
        Requested exactness degree, >= 0.

    Returns
    -------
    QuadratureRule
        The stated ``order`` of the returned rule is 2 n - 1 >= order where
        n is the per-direction point count actually used.
    """
    if dim not in (2, 3):
        raise ConfigurationError(f"unsupported simplex dimension {dim} (expected 2 or 3)")
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ConfigurationError(f"quadrature order must be a nonnegative integer, got {order!r}")
    if order > MAX_ORDER:
        raise ConfigurationError(f"quadrature order {order} exceeds the largest "
                                 f"tabulated order {MAX_ORDER}")
    n = max(1, math.ceil((order + 1) / 2))
    achieved = 2 * n - 1

    # direction k absorbs (1 - s_k)^(dim-1-k); the last absorbs nothing
    rules = [_GAUSS_01[dim - 1 - k][n - 1] for k in range(dim)]
    grids = np.meshgrid(*(s for s, _ in rules), indexing="ij")
    # x_k = s_k (1 - s_0) ... (1 - s_{k-1}), multiplied left to right
    x = [functools.reduce(lambda x_k, s: x_k * (1.0 - s), grids[:k], s_k).ravel()
         for k, s_k in enumerate(grids)]
    w = functools.reduce(np.multiply.outer, (w for _, w in rules)).ravel()
    # the first barycentric coordinate, 1 - x_0 - ... - x_{d-1}
    bary = np.column_stack([functools.reduce(np.subtract, x, 1.0), *x])

    w = w / REFERENCE_VOLUME[dim]          # store as volume fractions
    # tidy up: the construction is exact, but renormalize the last few ulps
    # so downstream "weights sum to one" checks are bitwise friendly.
    w = w / w.sum()
    return QuadratureRule(dim=dim, order=achieved, points=bary, weights=w)
