"""Run-length sequences over the ground set and streaming iterate evaluation.

Constructions routinely pad with one repeated element for hundreds of
thousands of indices; runs keep that cheap.  Iterate values come from one
object, ``IterateWalker``: a level-k walker holds [T^c]_j for every c <= k
at its cursor j, so one walk serves every level.  It advances by the
running-averages recurrence, one exact rational step per index and level,
except that a pure level-1 walker absorbs a whole run at once.
``IterateWalker.push_seq`` is the one loop that walks a sequence's runs up
to an index; ``iterate_at`` and the constructions all go through it, and
``copy`` branches a walker (for instance to pad it with zeros) without
walking the prefix again.
"""

from fractions import Fraction

from .exact import ZERO
from .space import Point, padd, pscale, pzero


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

    def point_at(self, index: int) -> Point:
        """1-based lookup."""
        if not (1 <= index <= self.length):
            raise IndexError(index)
        seen = 0
        for p, c in self.runs:
            seen += c
            if index <= seen:
                return p
        raise IndexError(index)  # unreachable

    def copy(self) -> "RunSeq":
        return RunSeq((p, c) for p, c in self.runs)

    @property
    def dimension(self) -> int:
        if not self.runs:
            raise ValueError("empty sequence has no dimension")
        return len(self.runs[0][0])

    def prefix_sum(self) -> Point:
        """Sum of all terms (vector)."""
        acc = pzero(self.dimension)
        for p, c in self.runs:
            acc = padd(acc, pscale(c, p))
        return acc


class IterateWalker:
    """Streams a sequence and maintains [T^c(theta)]_j for c = 1..k at the cursor j.

    Level 1 is just a vector prefix sum, so runs of a repeated point advance
    in O(1) when k == 1; higher levels must visit every index.
    """

    def __init__(self, k: int, dimension: int):
        if k < 1:
            raise ValueError("need k >= 1")
        self.k = k
        self.d = dimension
        self.j = 0
        self.sums = [pzero(dimension) for _ in range(k)]
        self.values = [pzero(dimension) for _ in range(k)]

    def push(self, p: Point) -> None:
        self.j += 1
        acc = p
        for c in range(self.k):
            self.sums[c] = padd(self.sums[c], acc)
            acc = pscale(Fraction(1, self.j), self.sums[c])
            self.values[c] = acc

    def push_run(self, p: Point, count: int) -> None:
        if count < 0:
            raise ValueError("run count must be nonnegative")
        if self.k == 1:
            if count == 0:
                return
            self.sums[0] = padd(self.sums[0], pscale(count, p))
            self.j += count
            self.values[0] = pscale(Fraction(1, self.j), self.sums[0])
            return
        for _ in range(count):
            self.push(p)

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
        twin.sums = list(self.sums)
        twin.values = list(self.values)
        return twin

    def value(self, level: int) -> Point:
        """[T^level(theta)]_j at the current cursor."""
        if not (1 <= level <= self.k):
            raise ValueError(f"level {level} outside 1..{self.k}")
        if self.j == 0:
            raise ValueError("no terms pushed yet")
        return self.values[level - 1]


def iterate_at(k: int, seq: RunSeq, n: int) -> Point:
    """[T^k(theta)]_n for a run-length sequence (exact)."""
    if not (1 <= n <= len(seq)):
        raise ValueError(f"index {n} outside sequence of length {len(seq)}")
    walker = IterateWalker(k, seq.dimension)
    walker.push_seq(seq, n)
    return walker.value(k)
