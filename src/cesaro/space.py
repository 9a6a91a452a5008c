"""Finite-dimensional model of a separable locally convex metrizable space.

Points are tuples of Fractions.  The space carries d coordinate seminorms
|x|_i = w_i * |x_i|; seminorm indices beyond d contribute nothing to the
metric, so every constant derived from the metric stays exactly computable.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import CertificationError, CoverageError
from .exact import ZERO, ceil_frac, frac, pow2

Point = tuple  # tuple[Fraction, ...]


def point(*coords) -> Point:
    return tuple(frac(c) for c in coords)


def pzero(d: int) -> Point:
    return (ZERO,) * d


def padd(a: Point, b: Point) -> Point:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def psub(a: Point, b: Point) -> Point:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def pscale(c, a: Point) -> Point:
    c = frac(c)
    return tuple(c * x for x in a)


def pcombine(pairs, d: int) -> Point:
    """The sum of c * p over the (c, p) pairs, starting from the zero point of dimension d."""
    acc = pzero(d)
    for c, p in pairs:
        acc = padd(acc, pscale(c, p))
    return acc


def n_epsilon(epsilon) -> int:
    """Count of epsilon-important seminorms: smallest N with 2^-(N-1) < epsilon."""
    epsilon = frac(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = 1
    while pow2(n - 1) >= epsilon:
        n += 1
    return n


def delta(epsilon) -> Fraction:
    """Ball radius delta(eps) = eps / 2^(N_eps + 1), for eps in (0, 1/2).

    Inside B(0, delta(eps)) every eps-important seminorm stays below eps.
    """
    epsilon = frac(epsilon)
    if not (0 < epsilon < Fraction(1, 2)):
        raise ValueError("delta is defined for epsilon in (0, 1/2)")
    return epsilon * pow2(n_epsilon(epsilon) + 1)


@dataclass(frozen=True)
class Space:
    """Dimension and positive per-coordinate seminorm weights."""

    dimension: int
    weights: tuple = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        w = tuple(frac(x) for x in self.weights) or (Fraction(1),) * self.dimension
        if len(w) != self.dimension or any(x <= 0 for x in w):
            raise ValueError("need one positive weight per coordinate")
        object.__setattr__(self, "weights", w)

    def check_point(self, x: Point) -> Point:
        if len(x) != self.dimension:
            raise ValueError(f"point has dimension {len(x)}, space has {self.dimension}")
        return x

    def seminorm(self, rho: int, x: Point) -> Fraction:
        if not (1 <= rho <= self.dimension):
            raise ValueError(f"seminorm index {rho} out of range 1..{self.dimension}")
        self.check_point(x)
        return self.weights[rho - 1] * abs(x[rho - 1])

    def metric(self, x: Point, y: Point) -> Fraction:
        """d(x,y) = sum_i 2^-i * |x-y|_i / (1 + |x-y|_i); always < 1."""
        self.check_point(x)
        self.check_point(y)
        total = ZERO
        for i in range(1, self.dimension + 1):
            u = self.weights[i - 1] * abs(x[i - 1] - y[i - 1])
            total += pow2(i) * u / (1 + u)
        return total

    def box_metric(self, x: Point, y: Point, z: Point) -> Fraction:
        """Smallest metric distance from z to the coordinate box spanned by x and y.

        The metric grows with each coordinate gap separately, so the nearest
        point of the box clamps each coordinate of z into [min, max] of x's
        and y's; a box of one point (x is y) is that point, without the clamp.
        """
        nearest = x if x is y else tuple(
            min(max(zi, min(xi, yi)), max(xi, yi)) for xi, yi, zi in zip(x, y, z, strict=True)
        )
        return self.metric(nearest, z)

    def important_rhos(self, epsilon) -> range:
        """Seminorm indices that matter for tolerance epsilon (capped at d)."""
        return range(1, min(n_epsilon(epsilon), self.dimension) + 1)


@dataclass(frozen=True)
class FinitePointSet:
    """Nonempty finite set of distinct points; norms are maxima over it.

    ``corner_radius`` is set when the set is known to contain all 2^d cube
    corners (+-R, ..., +-R); hull queries then have a closed-form witness.
    """

    points: tuple
    corner_radius: Fraction | None = None

    def __post_init__(self):
        pts = tuple(point(*p) for p in self.points)
        if not pts:
            raise ValueError("point set must be nonempty")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        if len({len(p) for p in pts}) != 1:
            raise ValueError("points must share one dimension")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return tuple(p) in self.points

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def norm(self, rho: int, space: Space) -> Fraction:
        return max(space.seminorm(rho, p) for p in self.points)

    def norm_max(self, epsilon, space: Space) -> Fraction:
        """max over the epsilon-important seminorms of the set norm."""
        return max(self.norm(rho, space) for rho in space.important_rhos(epsilon))

    def norm_inf(self) -> Fraction:
        """Largest absolute coordinate (unweighted box radius)."""
        return max((abs(c) for p in self.points for c in p), default=ZERO)

    def union(self, other: "FinitePointSet") -> "FinitePointSet":
        merged = list(self.points)
        seen = set(merged)
        for p in other.points:
            if p not in seen:
                merged.append(p)
                seen.add(p)
        radius = self.corner_radius
        if radius is None or (other.corner_radius is not None and other.corner_radius > radius):
            radius = other.corner_radius
        return FinitePointSet(tuple(merged), corner_radius=radius)

    def issubset(self, other: "FinitePointSet") -> bool:
        return set(self.points) <= set(other.points)

    def scaled(self, factor) -> "FinitePointSet":
        factor = frac(factor)
        radius = self.corner_radius * factor if self.corner_radius is not None else None
        return FinitePointSet(tuple(pscale(factor, p) for p in self.points), corner_radius=radius)


@dataclass(frozen=True)
class GroundSet:
    """The allowed term values: an explicit finite list, or the lattice (1/q)Z^d."""

    kind: str
    dimension: int
    scale: Fraction | None = None        # lattice: p in A iff q*p is integral
    points: tuple | None = None          # explicit list

    def __post_init__(self):
        if self.kind == "lattice":
            q = frac(self.scale if self.scale is not None else 1)
            if q <= 0:
                raise ValueError("lattice scale must be positive")
            object.__setattr__(self, "scale", q)
        elif self.kind == "explicit":
            pts = tuple(point(*p) for p in (self.points or ()))
            if not pts:
                raise ValueError("explicit ground set needs points")
            object.__setattr__(self, "points", pts)
        else:
            raise ValueError(f"unknown ground set kind {self.kind!r}")

    @classmethod
    def lattice(cls, dimension: int, scale=1) -> "GroundSet":
        return cls(kind="lattice", dimension=dimension, scale=frac(scale))

    @classmethod
    def explicit(cls, points) -> "GroundSet":
        pts = tuple(point(*p) for p in points)
        if not pts:
            raise ValueError("explicit ground set needs points")
        return cls(kind="explicit", dimension=len(pts[0]), points=pts)

    def contains(self, p: Point) -> bool:
        if len(p) != self.dimension:
            return False
        if self.kind == "lattice":
            return all((frac(c) * self.scale).denominator == 1 for c in p)
        return point(*p) in self.points

    def ceil_value(self, x) -> Fraction:
        """Smallest lattice-representable value >= x (lattice kind only)."""
        if self.kind != "lattice":
            raise ValueError("ceil_value needs a lattice ground set")
        return Fraction(ceil_frac(frac(x) * self.scale), 1) / self.scale

    def nearest_to_zero(self, space: Space) -> Point:
        """Stabilization element: closest ground point to 0, ties toward negative."""
        if self.kind == "lattice":
            return pzero(self.dimension)
        origin = pzero(self.dimension)
        return min(self.points, key=lambda p: (space.metric(p, origin), p))


@dataclass(frozen=True)
class IndexSet:
    """An infinite set of admissible indices: all naturals, or a progression."""

    kind: str = "all"
    offset: int = 1
    stride: int = 1

    def __post_init__(self):
        if self.kind not in ("all", "progression"):
            raise ValueError(f"unknown index set kind {self.kind!r}")
        if self.offset < 1 or self.stride < 1:
            raise ValueError("offset and stride must be >= 1")

    def contains(self, n: int) -> bool:
        if n < 1:
            return False
        if self.kind == "all":
            return True
        return n >= self.offset and (n - self.offset) % self.stride == 0

    def next_after(self, t: int) -> int:
        """Smallest member strictly greater than t."""
        if self.kind == "all":
            return max(t + 1, 1)
        if t < self.offset:
            return self.offset
        return self.offset + self.stride * ((t - self.offset) // self.stride + 1)


@dataclass(frozen=True)
class HullWitness:
    """x = sum_j coefficients[j] * points[j] + residual, coefficients a convex combination."""

    coefficients: tuple
    points: tuple
    residual: Point

    def combination(self) -> Point:
        return pcombine(zip(self.coefficients, self.points), len(self.points[0]))


def _residual_caps(space: Space, slack: Fraction) -> list:
    """Per-coordinate |r_i| caps whose box sits inside the metric ball B(0, slack).

    With |r|_i <= U := slack/(1-slack) every metric summand is at most
    2^-i U/(1+U), so the total stays strictly below slack (or equals 0).
    """
    u = slack / (1 - slack)
    return [u / w for w in space.weights]


def _box_witness(M: FinitePointSet, x: Point, caps, space: Space):
    """Closed-form witness when M contains the cube corners of radius R."""
    r_box = M.corner_radius
    d = space.dimension
    residual = []
    inside = []
    for i in range(d):
        c = x[i]
        if c > r_box:
            r_i = c - r_box
        elif c < -r_box:
            r_i = c + r_box
        else:
            r_i = ZERO
        if abs(r_i) > caps[i]:
            return None
        residual.append(r_i)
        inside.append(c - r_i)
    # tensor-product barycentric weights over the 2^d corners
    alphas = [(inside[i] + r_box) / (2 * r_box) for i in range(d)]
    corner_weight = {}
    for signs in product((-1, 1), repeat=d):
        w = Fraction(1)
        for i, s in enumerate(signs):
            w *= alphas[i] if s > 0 else 1 - alphas[i]
        corner = tuple(s * r_box for s in signs)
        corner_weight[corner] = w
    coeffs = []
    for p in M.points:
        coeffs.append(corner_weight.pop(p, ZERO))
    if any(w != 0 for w in corner_weight.values()):
        return None  # some needed corner is missing; fall back to the solver
    return HullWitness(tuple(coeffs), M.points, tuple(residual))


def _phase1_feasible(rows, rhs):
    """Exact feasibility of {A x = b, x >= 0} via phase-1 simplex, Bland's rule.

    Returns the basic solution (list of Fractions) or None.  Smallest-index
    pivoting makes the outcome deterministic and cycling impossible.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    tab = []
    for r in range(m):
        row = [frac(v) for v in rows[r]]
        b = frac(rhs[r])
        if b < 0:
            row = [-v for v in row]
            b = -b
        tab.append(row + [Fraction(1) if i == r else ZERO for i in range(m)] + [b])
    basis = [n + r for r in range(m)]
    # objective: minimize the artificial sum; reduced cost = cost - column sum,
    # with cost 1 on artificials and 0 elsewhere
    obj = [ZERO] * (n + m + 1)
    for r in range(m):
        for j in range(n + m + 1):
            obj[j] -= tab[r][j]
    for r in range(m):
        obj[n + r] += 1
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        best_r, best_ratio = None, None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][-1] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[best_r]
                ):
                    best_r, best_ratio = r, ratio
        if best_r is None:
            return None  # unbounded phase-1 cannot happen; defensive
        piv = tab[best_r][enter]
        tab[best_r] = [v / piv for v in tab[best_r]]
        for r in range(m):
            if r != best_r and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [v - f * p for v, p in zip(tab[r], tab[best_r])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * p for v, p in zip(obj, tab[best_r])]
        basis[best_r] = enter
    if -obj[-1] != 0:  # leftover artificial mass: infeasible
        return None
    x = [ZERO] * n
    for r, bvar in enumerate(basis):
        if bvar < n:
            x[bvar] = tab[r][-1]
    return x


def hull_contains(M: FinitePointSet, x: Point, slack, space: Space):
    """Decide x in conv(M) (+) B(0, slack) exactly; return a witness or None.

    The metric ball is conservatively replaced by its inscribed seminorm box
    (see _residual_caps), which keeps the decision polyhedral; a positive
    answer is therefore always sound.
    """
    slack = frac(slack)
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    space.check_point(x)
    d = space.dimension
    witness = None
    if slack >= 1:
        # the metric never reaches 1, so any residual qualifies
        witness = HullWitness(
            (Fraction(1),) + (ZERO,) * (len(M) - 1), M.points, psub(x, M.points[0])
        )
    else:
        caps = _residual_caps(space, slack)
        if M.corner_radius is not None and M.corner_radius > 0:
            witness = _box_witness(M, x, caps, space)
    if witness is None:
        J = len(M)
        cols = J + 4 * d
        rows, rhs = [], []
        row = [Fraction(1)] * J + [ZERO] * (4 * d)
        rows.append(row)
        rhs.append(Fraction(1))
        for i in range(d):
            row = [p[i] for p in M.points] + [ZERO] * (4 * d)
            row[J + i] = Fraction(1)        # p_i
            row[J + d + i] = Fraction(-1)   # q_i
            rows.append(row)
            rhs.append(x[i])
        for i in range(d):                  # p_i + s_i = cap, q_i + t_i = cap
            row = [ZERO] * cols
            row[J + i] = Fraction(1)
            row[J + 2 * d + i] = Fraction(1)
            rows.append(row)
            rhs.append(caps[i])
            row = [ZERO] * cols
            row[J + d + i] = Fraction(1)
            row[J + 3 * d + i] = Fraction(1)
            rows.append(row)
            rhs.append(caps[i])
        sol = _phase1_feasible(rows, rhs)
        if sol is None:
            return None
        coeffs = tuple(sol[:J])
        residual = tuple(sol[J + i] - sol[J + d + i] for i in range(d))
        witness = HullWitness(coeffs, M.points, residual)
    # exact certification of the witness before handing it out
    if sum(witness.coefficients) != 1 or any(g < 0 for g in witness.coefficients):
        raise CertificationError("hull witness coefficients are not convex")
    if padd(witness.combination(), witness.residual) != tuple(x):
        raise CertificationError("hull witness does not reconstruct the query point")
    if space.metric(witness.residual, pzero(d)) > slack:
        raise CertificationError("hull witness residual escapes the slack ball")
    return witness


def cube_corners(ground: GroundSet, radius, space: Space) -> FinitePointSet:
    """The 2^d corner points (+-R, ..) with R the smallest lattice value >= radius.

    Their hull contains the whole closed box [-radius, radius]^d, which is how
    dense ground sets realize covering steps constructively.
    """
    radius = frac(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if ground.kind != "lattice":
        raise CoverageError(
            "cube corners need a lattice ground set", required_radius=radius
        )
    r = ground.ceil_value(radius)
    pts = tuple(tuple(s * r for s in signs) for signs in product((-1, 1), repeat=ground.dimension))
    return FinitePointSet(pts, corner_radius=r)
