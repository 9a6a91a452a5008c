"""Run-length sequences over the ground set and streaming iterate evaluation.

Constructions routinely pad with one repeated element for hundreds of
thousands of indices; runs keep that cheap.  Iterate values come from one
object, ``IterateWalker``: a level-k walker holds [T^c]_j for every c <= k
at its cursor j, and nothing else, so one walk serves every level.  ``push``
advances one index on the values alone,
[T^c]_(j+1) = (j*[T^c]_j + [T^(c-1)]_(j+1)) / (j+1) with T^0 the sequence;
``push_run`` absorbs a whole run of one point at every level in one
closed-form update, whose weights are the complete homogeneous symmetric
polynomials of 1/(a+1), ..., 1/b computed by binary splitting.
``IterateWalker.push_seq`` is the one loop that walks a sequence's runs up
to an index; ``iterate_at`` and the constructions all go through it, and
``copy`` branches a walker (for instance to pad it with zeros) without
walking the prefix again.

``pieces`` is the one walk for readers that need an extremum or a first hit
over runs (in-block maxima, density minima, and the first hits of lemma
3.3's n0 and of stabilization).  It cuts each run of p into pieces (l, r] on
which every coordinate of [T^c] is monotone, and ``RunProbes`` makes the
walker states from the nearest lower one.  ``RunProbes.search`` reads a
piece's right end and bisects the inside, skipping every part whose bound
from its end states cannot beat the best so far.  Along the run level c
moves toward level c - 1, so on each monotone piece of level c - 1 a
coordinate of level c turns at most once, where bisection finds it; level 1
needs no interior cut.
"""

from fractions import Fraction
from math import lcm

from .space import Point, pzero


class RunSeq:
    """A finite sequence stored as (point, count) runs."""

    def __init__(self, runs=()):
        self.runs: list = []
        self.length = 0
        for p, c in runs:
            self.append(p, c)

    def append(self, p: Point, count: int = 1) -> None:
        if count < 0:
            raise ValueError("run count must be nonnegative")
        if count == 0:
            return
        p = tuple(p)
        if self.runs and len(p) != self.dimension:
            raise ValueError(f"point has dimension {len(p)}, sequence has {self.dimension}")
        if self.runs and self.runs[-1][0] == p:
            self.runs[-1][1] += count
        else:
            self.runs.append([p, count])
        self.length += count

    def __len__(self) -> int:
        return self.length

    def iter_points(self):
        for p, c in self.runs:
            for _ in range(c):
                yield p

    def copy(self) -> "RunSeq":
        return RunSeq((p, c) for p, c in self.runs)

    @property
    def dimension(self) -> int:
        if not self.runs:
            raise ValueError("empty sequence has no dimension")
        return len(self.runs[0][0])


# Index ranges up to this length are multiplied out term by term; longer ones
# are split in half, so the big products pair operands of equal size.
_LEAF = 32


def _falling_product(lo: int, hi: int, m: int) -> list:
    """Integer coefficients of prod_{j=lo..hi} (j - x) mod x^m."""
    if hi - lo < _LEAF:
        poly = [1] + [0] * (m - 1)
        for j in range(lo, hi + 1):
            for i in range(m - 1, 0, -1):
                poly[i] = j * poly[i] - poly[i - 1]
            poly[0] *= j
        return poly
    mid = (lo + hi) // 2
    left = _falling_product(lo, mid, m)
    right = _falling_product(mid + 1, hi, m)
    return [sum(left[t] * right[i - t] for t in range(i + 1)) for i in range(m)]


def _run_weights(a: int, b: int, m: int) -> tuple:
    """h_i(1/(a+1), ..., 1/b) for i < m as integers (H, q): h_i = H[i] / q^i.

    h_i is the x^i coefficient of Q(0)/Q(x) with Q(x) = prod_{j=a+1..b} (j - x),
    so one series inversion of Q mod x^m gives them all, with q = Q(0).
    """
    if m == 1:  # h_0 = 1 needs no product
        return [1], 1
    poly = _falling_product(a + 1, b, m)
    q = poly[0]
    weights = [1]
    for i in range(1, m):
        weights.append(-sum(poly[t] * q ** (t - 1) * weights[i - t] for t in range(1, i + 1)))
    return weights, q


class IterateWalker:
    """Streams a sequence and maintains [T^c(theta)]_j for c = 1..k at the cursor j.

    ``push`` takes one index; ``push_run`` absorbs a run of any length at
    every level in one closed-form update.
    """

    def __init__(self, k: int, dimension: int):
        if k < 1:
            raise ValueError("need k >= 1")
        self.k = k
        self.d = dimension
        self.j = 0
        self.values = [pzero(dimension) for _ in range(k)]

    def push(self, p: Point) -> None:
        j = self.j
        acc = p  # [T^(c-1)]_(j+1), with T^0 the sequence itself
        for c in range(self.k):
            # strict: a point of the wrong dimension fails before any level changes
            acc = tuple((v * j + x) / (j + 1) for v, x in zip(self.values[c], acc, strict=True))
            self.values[c] = acc
        self.j = j + 1

    def push_run(self, p: Point, count: int) -> None:
        """Push ``count`` copies of p, equal to ``count`` calls of ``push(p)``.

        Over the run from cursor a to b = a + count, u_c = [T^c]_j - p obeys
        j*u_c(j) = (j-1)*u_c(j-1) + u_(c-1)(j) with u_0 = 0, hence
        u_c(b) = (a/b) * sum_(i<c) h_i(1/(a+1), ..., 1/b) * u_(c-i)(a).
        Each coordinate and level is normalized once, at the end.
        """
        if count < 0:
            raise ValueError("run count must be nonnegative")
        if len(p) != self.d:
            raise ValueError(f"point has dimension {len(p)}, walker has {self.d}")
        if count == 0:
            return
        if count == 1:
            self.push(p)
            return
        p = tuple(p)
        a, b = self.j, self.j + count
        self.j = b
        if a == 0:
            self.values = [p] * self.k
            return
        weights, q = _run_weights(a, b, self.k)
        q_pow = [q ** c for c in range(self.k)]
        columns = []
        for x, *levels in zip(p, *self.values):
            pn, pd = x.numerator, x.denominator
            # u_s(a) = offsets[s] / (dens[s] * pd)
            offsets = [v.numerator * pd - pn * v.denominator for v in levels]
            dens = [v.denominator for v in levels]
            column = []
            common = 1
            for c in range(self.k):
                common = lcm(common, dens[c])
                total = sum(weights[i] * q_pow[c - i] * offsets[c - i] * (common // dens[c - i])
                            for i in range(c + 1))
                scale = b * q_pow[c] * common
                column.append(Fraction(pn * scale + a * total, pd * scale))
            columns.append(column)
        self.values = [tuple(col[c] for col in columns) for c in range(self.k)]

    def push_seq(self, seq: RunSeq, upto: int | None = None) -> None:
        """Push terms j+1..upto of seq (default: to its end) from the cursor j.

        The walker must already hold terms 1..j of seq; whole runs go
        through ``push_run``.
        """
        upto = len(seq) if upto is None else upto
        if not (self.j <= upto <= len(seq)):
            raise ValueError(f"index {upto} outside {self.j}..{len(seq)}")
        seen = 0
        for p, c in seq.runs:
            seen += c
            step = min(seen, upto) - self.j
            if step > 0:
                self.push_run(p, step)
            if seen >= upto:
                break

    def copy(self) -> "IterateWalker":
        twin = IterateWalker(self.k, self.d)
        twin.j = self.j
        twin.values = list(self.values)
        return twin

    def value(self, level: int) -> Point:
        """[T^level(theta)]_j at the current cursor."""
        if not (1 <= level <= self.k):
            raise ValueError(f"level {level} outside 1..{self.k}")
        if self.j == 0:
            raise ValueError("no terms pushed yet")
        return self.values[level - 1]


class RunProbes:
    """Walker states inside one run of p, and the run's monotone pieces.

    The run takes the cursor a >= 1 of ``walker`` to b = a + count >= a; the
    walker itself is left unchanged.  ``at(j)`` is the state at index j,
    made from the nearest lower state held by ``copy`` and ``push_run``;
    states live only as long as this object, and ``release`` drops the ones
    a reader has moved past.  ``cuts(level)`` splits a..b into pieces on
    which every coordinate of [T^c] is monotone for every c <= level.
    """

    def __init__(self, walker: IterateWalker, p: Point, count: int):
        if walker.j < 1:
            raise ValueError("a run needs a walker past its first term")
        if count < 0:
            raise ValueError("run count must be nonnegative")
        self.p = tuple(p)
        self.a = walker.j
        self.b = walker.j + count
        self._states = {self.a: walker}

    def at(self, j: int) -> IterateWalker:
        state = self._states.get(j)
        if state is None:
            if not (self.a < j <= self.b):
                raise ValueError(f"index {j} outside {self.a}..{self.b}")
            lower = max(i for i in self._states if i < j)
            state = self._states[lower].copy()
            state.push_run(self.p, j - lower)
            self._states[j] = state
        return state

    def release(self, j: int) -> None:
        """Forget the states strictly between a and j."""
        self._states = {i: s for i, s in self._states.items() if i == self.a or i >= j}

    def cuts(self, level: int) -> list:
        """Indices a = t_0 < ... < t_m = b with every [T^c], c <= level, monotone between them.

        Along the run, x = [T^(c-1)] - p and y = [T^c] - p obey
        j*y(j) = (j-1)*y(j-1) + x(j), with x = 0 at c = 1, where j*y(j) is
        constant and there is no interior cut.  At c >= 2, let x move in the
        direction s = sign(x(r) - x(l)) != 0 on a piece [l, r] of ``cuts(c - 1)``.
        As x(j) - y(j) = (j-1)*(y(j) - y(j-1)), the step into j moves y along s
        exactly when P(j): s*(x(j) - y(j)) >= 0 (p cancels).  P persists on the
        piece, as s*y(j) <= s*x(j) <= s*x(j+1) puts the next step along s too,
        so y turns at most once there, and bisection on P finds the turn (there is
        none if P holds at l + 1 or fails at r).
        Where x(r) = x(l), x is constant on the piece and y moves monotonically toward it.
        """
        if level < 1:
            raise ValueError("need level >= 1")
        if level == 1:
            return [self.a, self.b]
        lower = self.cuts(level - 1)
        turns = set()
        for l, r in zip(lower, lower[1:]):
            for i in range(len(self.p)):
                x_l = self.at(l).value(level - 1)[i]
                # x is monotone: a move into l + 1 (probed next anyway) gives s
                x_s = self.at(l + 1).value(level - 1)[i]
                if x_s == x_l:
                    x_s = self.at(r).value(level - 1)[i]
                if x_s == x_l:
                    continue
                rising = x_s > x_l  # compared, not subtracted: no big difference is normalized

                def along(j):  # P(j): the step into j moves [T^level] along s
                    x, y = self.at(j).value(level - 1)[i], self.at(j).value(level)[i]
                    return x >= y if rising else x <= y

                if along(l + 1) or not along(r):
                    continue
                lo, hi = l + 1, r  # P(lo) is false, P(hi) is true
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if along(mid):
                        hi = mid
                    else:
                        lo = mid
                turns.add(lo)
        return sorted({*lower, *turns})

    def search(self, l: int, r: int, bound, best):
        """Lexicographic minimum of best and (bound(at(j), at(j)), j) over l < j <= r.

        On a piece of ``cuts``, bound(at(l), at(r)) must bound each value inside from below.
        The right end is read first; the inside is bisected, skipping every part
        whose (bound, first index) cannot beat the best so far.
        """
        best = min(best, (bound(self.at(r), self.at(r)), r))
        while r - l >= 2 and (bound(self.at(l), self.at(r)), l + 1) < best:
            mid = (l + r) // 2
            best = self.search(l, mid, bound, best)
            l = mid
        return best


def pieces(walker: IterateWalker, runs, level: int, marks=()):
    """Yield (run, l, r): the runs past the walker's cursor, cut into monotone pieces.

    ``runs`` is an iterable of (point, count) runs that continue the walker's
    sequence.  Every index past the cursor lies in exactly one (l, r], in
    order: l is the cursor or the previous piece's r.  Each run is cut at
    ``RunProbes.cuts(level)``, so every coordinate of [T^c], c <= level, is
    monotone on [l, r], and at the marks inside it, so every mark up to the
    end of the runs is some piece's r.  ``run`` is the piece's ``RunProbes``;
    its states before r are released when the next piece is asked for, and
    the last piece's ``run.at(r)`` is the state at the end of the runs.  An
    empty walker takes the first term by ``push`` as the piece (0, 1), whose
    left end has no state: a run needs a state to probe from.  Runs of zero
    terms are skipped.
    """
    for p, count in runs:
        if count and walker.j == 0:
            walker.push(p)
            count -= 1
            yield RunProbes(walker, p, count), 0, 1
        if count == 0:
            continue
        run = RunProbes(walker, p, count)
        cuts = sorted({*run.cuts(level), *(m for m in marks if run.a < m < run.b)})
        for l, r in zip(cuts, cuts[1:]):
            yield run, l, r
            run.release(r)
        walker = run.at(run.b)


def iterate_at(k: int, seq: RunSeq, n: int) -> Point:
    """[T^k(theta)]_n for a run-length sequence (exact)."""
    if not (1 <= n <= len(seq)):
        raise ValueError(f"index {n} outside sequence of length {len(seq)}")
    walker = IterateWalker(k, seq.dimension)
    walker.push_seq(seq, n)
    return walker.value(k)
