"""The (q+1)-regular tree with a legal edge coloring.

Vertices are non-backtracking words over the colors {0, ..., q}, rooted at a
fixed base vertex (the empty word).  The edge between a word w and its
extension w + (c,) carries color c; consequently the q+1 edges at any vertex
carry distinct colors, which is exactly a legal coloring.

Ends are eventually periodic infinite words, kept in a normal form (shortest
prefix, primitive period).  An apartment is the bi-infinite geodesic spanned
by two distinct ends.

Automorphisms are *portraits*: the image of the base vertex together with a
local color permutation at every vertex.  Local permutations are finitely
described (an exception table plus a deterministic extension rule) and obey
the legality cocycle: the permutations at the two endpoints of an edge agree
on that edge's color, so the image edge has one well-defined color.  Every
portrait, products and inverses included, is a finite-state machine that
reads a word's colors and emits its image's; this is what makes exact end
images and axis ends computable: once a walk's state repeats at the same
phase of the (eventually periodic) input ray, the emitted image letters
provably cycle.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Iterator, NamedTuple, Sequence

from .perms import Perm, identity, transposition


class InsufficientRadius(RuntimeError):
    """A search radius too small to certify a verdict (never a wrong answer)."""


class NotInStabilizer(ValueError):
    """The automorphism does not fix the required end."""


class NotTranslatedSegment(ValueError):
    """The segment/image pair is not in the translated-segment configuration."""


class RepellingFixedEnd(ValueError):
    """Iteration requested at the repelling fixed end."""


class BudgetExhausted(RuntimeError):
    """A search or table over its budget: a pigeonhole walk that found no
    repeat, or a ball too large to build."""


class OutOfBudget(ValueError):
    """A Hecke entry or convolution beyond the radius the tensor was
    computed to; kept here so that the CLI maps it without loading hecke."""


class NotHyperbolic(ValueError):
    """A hyperbolic automorphism was required."""


Word = tuple[int, ...]

_END_WALK_CAP = 20000
_AXIS_ITER_CAP = 4096


# ---------------------------------------------------------------------------
# words


def is_nonbacktracking(word: Sequence[int]) -> bool:
    return all(a != b for a, b in zip(word, word[1:]))


def reduce_word(a: Word, b: Word) -> Word:
    """Concatenate two words as paths, cancelling backtracks at the seam."""
    out = list(a)
    for c in b:
        if out and out[-1] == c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def lcp_len(a: Sequence[int], b: Sequence[int]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def word_distance(a: Word, b: Word) -> int:
    k = lcp_len(a, b)
    return len(a) + len(b) - 2 * k


def neighbor_word(w: Word, c: int) -> Word:
    return w[:-1] if w and w[-1] == c else w + (c,)


def sphere_words(degree: int, n: int) -> Iterator[Word]:
    """Non-backtracking words of length n over {0, ..., degree-1}, lex order."""

    def extend(w: Word) -> Iterator[Word]:
        if len(w) == n:
            yield w
            return
        for c in range(degree):
            if not w or c != w[-1]:
                yield from extend(w + (c,))

    yield from extend(())


def ball_words(degree: int, radius: int) -> Iterator[Word]:
    for n in range(radius + 1):
        yield from sphere_words(degree, n)


class _Value:
    """Base of the immutable value types.

    A subclass names its fields in ``__slots__``, sets them in ``__init__``
    through ``object.__setattr__`` and returns them from ``_key``.  Values
    are equal when of the same class with equal keys and hash as their key,
    so sets and dicts of them iterate in a fixed order.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__: the slots refuse the default state copy
        return self.__class__, self._key()


class TreeVertex(_Value):
    """A vertex: a non-backtracking color word from the base vertex."""

    __slots__ = ("word",)

    def __init__(self, word: Word = ()):
        w = tuple(int(c) for c in word)
        if any(c < 0 for c in w):
            raise ValueError("colors are non-negative integers")
        if not is_nonbacktracking(w):
            raise ValueError(f"backtracking word {w}")
        object.__setattr__(self, "word", w)

    def _key(self) -> tuple:
        return (self.word,)

    def __len__(self) -> int:
        return len(self.word)

    @property
    def parent(self) -> "TreeVertex":
        if not self.word:
            raise ValueError("the base vertex has no parent")
        return TreeVertex(self.word[:-1])

    def neighbor(self, c: int) -> "TreeVertex":
        if c < 0:
            raise ValueError("colors are non-negative integers")
        return _vertex(neighbor_word(self.word, c))

    def distance(self, other: "TreeVertex") -> int:
        return word_distance(self.word, other.word)

    def __repr__(self) -> str:
        return f"TreeVertex({' '.join(map(str, self.word))})"


def _vertex(word: Word) -> TreeVertex:
    """A vertex for a word derived from a valid vertex, unchecked: the
    public constructor re-validates the whole word, which makes walks
    quadratic in their length."""
    v = object.__new__(TreeVertex)
    object.__setattr__(v, "word", word)
    return v


ROOT = TreeVertex(())


def geodesic(a: TreeVertex, b: TreeVertex) -> list[TreeVertex]:
    """The vertex path from a to b."""
    k = lcp_len(a.word, b.word)
    down = [TreeVertex(a.word[:i]) for i in range(len(a.word), k, -1)]
    up = [TreeVertex(b.word[:i]) for i in range(k, len(b.word) + 1)]
    return down + up


# ---------------------------------------------------------------------------
# ends and apartments


def _primitive(period: Word) -> Word:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


class TreeEnd(_Value):
    """An end: prefix + periodic tail, normalized.

    Normal form: the period is primitive and the prefix is shortest (letters
    shared with the periodic tail are absorbed into it by rotation).  Two
    descriptors denote the same end iff their normal forms are equal.
    """

    __slots__ = ("prefix", "period")

    def __init__(self, prefix: Word, period: Word):
        pre = tuple(int(c) for c in prefix)
        per = _primitive(tuple(int(c) for c in period))
        if not per:
            raise ValueError("period must be nonempty")
        if any(c < 0 for c in pre + per):
            raise ValueError("colors are non-negative integers")
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        word = pre + per + per[:1]
        if not is_nonbacktracking(word) or (len(per) == 1):
            raise ValueError(f"not a non-backtracking end: prefix={pre} period={per}")
        object.__setattr__(self, "prefix", pre)
        object.__setattr__(self, "period", per)

    def _key(self) -> tuple:
        return (self.prefix, self.period)

    def letter(self, k: int) -> int:
        if k < len(self.prefix):
            return self.prefix[k]
        return self.period[(k - len(self.prefix)) % len(self.period)]

    def word_prefix(self, n: int) -> Word:
        reps = -(-(n - len(self.prefix)) // len(self.period))
        return (self.prefix + self.period * reps)[: max(n, 0)]

    def vertex_at(self, n: int) -> TreeVertex:
        if n < 0:
            raise ValueError("rays are indexed by non-negative depth")
        return _vertex(self.word_prefix(n))

    def agreement_depth(self, other: "TreeEnd") -> int:
        """Length of the common prefix of the two infinite words.

        Past both prefixes the pairs of letters repeat with the lcm of the
        periods, so distinct ends (in normal form) differ within both
        prefixes plus that lcm.
        """
        n = len(self.prefix) + len(other.prefix) + lcm(len(self.period), len(other.period))
        k = lcp_len(self.word_prefix(n), other.word_prefix(n))
        if k == n:
            raise ValueError("equal ends agree to infinite depth")
        return k

    def __repr__(self) -> str:
        pre = " ".join(map(str, self.prefix))
        per = " ".join(map(str, self.period))
        return f"TreeEnd({pre} | {per})"


class TreeApartment(_Value):
    """The bi-infinite geodesic spanned by two distinct ends.

    Integer coordinates along the line: 0 at the branch vertex (the point
    where the two rays from the base vertex separate, at ``branch_depth``),
    increasing toward end_plus.
    """

    __slots__ = ("end_minus", "end_plus", "branch_depth")

    def __init__(self, end_minus: TreeEnd, end_plus: TreeEnd):
        if end_minus == end_plus:
            raise ValueError("the two ends of an apartment must be distinct")
        object.__setattr__(self, "end_minus", end_minus)
        object.__setattr__(self, "end_plus", end_plus)
        object.__setattr__(self, "branch_depth", end_minus.agreement_depth(end_plus))

    def _key(self) -> tuple:
        return (self.end_minus, self.end_plus)

    def __repr__(self) -> str:
        return f"TreeApartment(end_minus={self.end_minus!r}, end_plus={self.end_plus!r})"

    def vertex_at(self, t: int) -> TreeVertex:
        if t >= 0:
            return self.end_plus.vertex_at(self.branch_depth + t)
        return self.end_minus.vertex_at(self.branch_depth - t)

    def project(self, v: TreeVertex) -> tuple[int, int]:
        """(coordinate of the projection of v onto the line, d(v, line))."""
        L = self.branch_depth
        w = v.word
        mp = lcp_len(w, self.end_plus.word_prefix(len(w)))
        mm = lcp_len(w, self.end_minus.word_prefix(len(w)))
        if mp > L:
            return mp - L, len(w) - mp
        if mm > L:
            return -(mm - L), len(w) - mm
        return 0, len(w) + L - 2 * min(mp, L)

    def coordinate_of(self, v: TreeVertex) -> int | None:
        coord, dist = self.project(v)
        return coord if dist == 0 else None

    def __contains__(self, v: TreeVertex) -> bool:
        return self.coordinate_of(v) is not None


def standard_apartment() -> TreeApartment:
    """The line through the base vertex alternating the colors 0 and 1."""
    return TreeApartment(TreeEnd((), (1, 0)), TreeEnd((), (0, 1)))


class ConeNeighborhood(_Value):
    """Basic neighborhood of an end: agreement with its ray to depth r."""

    __slots__ = ("ray_target", "r")

    def __init__(self, ray_target: TreeEnd, r: int):
        if r < 1:
            raise ValueError("cone neighborhoods need depth r >= 1")
        object.__setattr__(self, "ray_target", ray_target)
        object.__setattr__(self, "r", r)

    def _key(self) -> tuple:
        return (self.ray_target, self.r)

    def __repr__(self) -> str:
        return f"ConeNeighborhood(ray_target={self.ray_target!r}, r={self.r!r})"

    def contains_end(self, xi: TreeEnd) -> bool:
        return xi.word_prefix(self.r) == self.ray_target.word_prefix(self.r)

    def contains_vertex(self, v: TreeVertex) -> bool:
        return len(v.word) > self.r and v.word[: self.r] == self.ray_target.word_prefix(
            self.r
        )


# ---------------------------------------------------------------------------
# portraits

EXTEND_SPARSE = "sparse"
EXTEND_CONSTANT = "constant"


def _extend_sparse(ident: Perm, sigma_parent: Perm, c: int) -> Perm:
    forced = sigma_parent[c]
    if forced == c:
        return ident
    return transposition(len(ident), c, forced)


def _extend_constant(ident: Perm, sigma_parent: Perm, c: int) -> Perm:
    return sigma_parent


_EXTENSIONS: dict[str, Callable[[Perm, Perm, int], Perm]] = {
    EXTEND_SPARSE: _extend_sparse,
    EXTEND_CONSTANT: _extend_constant,
}


class Portrait:
    """An automorphism of the colored tree as a finite-state machine.

    ``step(state, c)`` returns ``(e, next)``: at a vertex in ``state`` the
    edge of color c is mapped to an edge of color e, and ``next`` is the
    state at the far end of that edge.  ``start`` is the state at the base
    vertex.  So the image of a word w is ``base_image`` followed, as a path,
    by the colors emitted along w, and the local permutation at w sends each
    color c to the color emitted from w's state.  States are hashable and
    finitely many, so a repeated state along an eventually periodic ray
    certifies that the emitted colors cycle.

    Products, inverses and powers are portraits built from their factors'
    ``step``s.  Instances hold no mutable state; values may be shared
    between threads.
    """

    def __init__(self, degree: int, base_image: TreeVertex, start, step: Callable):
        self.degree = degree
        self.base_image = base_image
        self.start = start
        self.step = step

    def _walk(self, word: Sequence[int]) -> tuple[list[int], object]:
        """The colors emitted along ``word`` and the state reached."""
        step, state, letters = self.step, self.start, []
        for c in word:
            e, state = step(state, c)
            letters.append(e)
        return letters, state

    def sigma(self, v: TreeVertex) -> Perm:
        state = self._walk(v.word)[1]
        return tuple(self.step(state, c)[0] for c in range(self.degree))

    def image(self, v: TreeVertex) -> TreeVertex:
        return _vertex(reduce_word(self.base_image.word, self._walk(v.word)[0]))

    # -- algebra -----------------------------------------------------------
    def compose(self, other: "Portrait") -> "Portrait":
        """self o other (apply other first).

        The path other(w) leaves other's base image u rootward along u, then
        never turns back.  While it retraces u to u[:i], self is read off
        its state at u[:i]; from there on self steps along the path.
        """
        if self.degree != other.degree:
            raise ValueError("composed portraits must share a degree")
        g_step, h_step = self.step, other.step
        u = other.base_image.word
        letters, states = [], [self.start]
        for c in u:
            e, s = g_step(states[-1], c)
            letters.append(e)
            states.append(s)

        def step(state, c):
            hs, i, gs = state
            e, hs = h_step(hs, c)
            if gs is None:
                if i and u[i - 1] == e:
                    return g_step(states[i], e)[0], (hs, i - 1, None)
                gs = states[i]
            e, gs = g_step(gs, e)
            return e, (hs, None, gs)

        base = _vertex(reduce_word(self.base_image.word, letters))
        return Portrait(self.degree, base, (other.start, len(u), None), step)

    def __mul__(self, other: "Portrait") -> "Portrait":
        return self.compose(other)

    def inverse(self) -> "Portrait":
        """The base-fixing machine with every local permutation inverted,
        stepping on the preimage color, after the transport that undoes
        the base image."""
        degree, g_step = self.degree, self.step

        def step(state, c):
            for x in range(degree):
                e, nxt = g_step(state, x)
                if e == c:
                    return x, nxt

        fixing = Portrait(degree, ROOT, self.start, step)
        undo = TablePortrait(_vertex(self.base_image.word[::-1]), {}, degree, EXTEND_SPARSE)
        return fixing.compose(undo)

    def power(self, n: int) -> "Portrait":
        if n < 1:
            raise ValueError("power expects n >= 1")
        out: Portrait = self
        for _ in range(n - 1):
            out = out.compose(self)
        return out

    # -- derived geometry ----------------------------------------------------
    def displacement(self, v: TreeVertex) -> int:
        return self.image(v).distance(v)

    def image_of_end(self, end: TreeEnd, _abort_if_not: TreeEnd | None = None):
        """Exact image of an eventually periodic end, in normal form.

        Walks the ray to ``end`` one ``step`` at a time.  The image path is
        a geodesic ray: after an initial rootward dip it extends by one
        letter per step.  Once it extends, a repeat of (phase of the period,
        state, last image letter) repeats every later step, so the letters
        emitted between the two visits are the image end's period.

        With ``_abort_if_not`` set, returns None as soon as the image is
        certain to differ from the given end.
        """
        pre_len = len(end.prefix)
        per_len = len(end.period)
        u = list(self.base_image.word)
        cap = _END_WALK_CAP + 40 * (pre_len + per_len + len(u))
        step, state = self.step, self.start
        ray: Word = ()
        target: Word = ()
        # seen maps a key to the image length when it was recorded; every
        # dip clears seen, so a recorded image is a prefix of the current one
        seen: dict = {}
        for k in range(cap):
            if k == len(ray):
                ray = end.word_prefix(2 * k + 64)
            if k >= pre_len:
                key = ((k - pre_len) % per_len, state, u[-1] if u else -1)
                hit = seen.get(key)
                if hit is not None:
                    return TreeEnd(tuple(u[:hit]), tuple(u[hit:]))
                seen[key] = len(u)
            e, state = step(state, ray[k])
            if u and u[-1] == e:
                # image path still dipping toward the root
                u.pop()
                seen.clear()
            else:
                u.append(e)
                if _abort_if_not is not None:
                    if len(u) > len(target):
                        target = _abort_if_not.word_prefix(2 * len(u) + 64)
                    if target[len(u) - 1] != e:
                        return None
        raise RuntimeError(
            "end image did not stabilize; the portrait is probably not an automorphism"
        )

    def fixes_end(self, end: TreeEnd) -> bool:
        return self.image_of_end(end, _abort_if_not=end) == end


class TablePortrait(Portrait):
    """A portrait given by a base image and a finite exception table.

    ``table`` maps vertex words to local permutations.  Beyond the table the
    portrait extends deterministically by one of two Markov rules:

    * ``sparse``: the identity wherever the legality cocycle permits, else
      the transposition swapping the incoming color with its forced image;
    * ``constant``: copy the parent's permutation (always cocycle-legal;
      keeps all local permutations inside any group containing the table's).

    A state is (w, sigma at w), with the word w kept only while it is
    shorter than the table's depth, so that its children may be table keys.
    """

    def __init__(
        self,
        base_image: TreeVertex,
        table: dict | None = None,
        degree: int = 3,
        extension: str = EXTEND_SPARSE,
        strict: bool = True,
    ):
        if degree < 3:
            raise ValueError("thickness requires degree q+1 >= 3")
        if extension not in (EXTEND_SPARSE, EXTEND_CONSTANT):
            raise ValueError(f'extension must be "sparse" or "constant", not {extension!r}')
        self.extension = extension
        self._extend = _EXTENSIONS[extension]
        tbl: dict[Word, Perm] = {}
        for key, perm in (table or {}).items():
            w = key.word if isinstance(key, TreeVertex) else tuple(key)
            if any(not 0 <= c < degree for c in w):
                raise ValueError(f"table key {w} uses colors outside the degree")
            if not is_nonbacktracking(w):
                raise ValueError(f"table key {w} is a backtracking word")
            p = tuple(perm)
            if sorted(p) != list(range(degree)):
                raise ValueError(f"table entry at {w} is not a degree-{degree} permutation")
            tbl[w] = p
        self._table = tbl
        self._table_depth = max((len(w) for w in tbl), default=-1)
        self._identity = identity(degree)
        if any(c >= degree for c in base_image.word):
            raise ValueError("base image uses colors outside the degree")
        start = (() if self._table_depth > 0 else None, tbl.get((), self._identity))
        super().__init__(degree, base_image, start, self._step)
        if strict:
            self._check_table_cocycle()

    def _check_table_cocycle(self):
        for w in sorted(self._table, key=len):
            if not w:
                continue
            c = w[-1]
            sp = self.sigma(TreeVertex(w[:-1]))
            if self._table[w][c] != sp[c]:
                raise ValueError(f"legality cocycle violated at table vertex {w}")

    def _step(self, state: tuple, c: int) -> tuple:
        """The table entry at the child while one may exist, the extension
        rule past the table."""
        w, sig = state
        nxt = None
        if w is not None:
            w += (c,)
            nxt = self._table.get(w)
            if len(w) == self._table_depth:
                w = None
        if nxt is None:
            nxt = self._extend(self._identity, sig, c)
        return sig[c], (w, nxt)

    def power(self, n: int) -> Portrait:
        """A color transport's power is one transport: t_u o t_v is the
        transport by the path u then v, so t_u^n is by u^n reduced."""
        if n >= 1 and all(p == self._identity for p in self._table.values()):
            return parallel_transport(reduce_word((), self.base_image.word * n), self.degree)
        return super().power(n)


def parallel_transport(word: Sequence[int], degree: int) -> TablePortrait:
    """The color-preserving automorphism sending the base vertex to ``word``.

    All local permutations are the identity; it lies in every universal
    group.  It is hyperbolic iff the word's first and last letters differ,
    in which case it translates its axis by len(word).
    """
    return TablePortrait(TreeVertex(tuple(word)), {}, degree, EXTEND_SPARSE)


def constant_portrait(base_image: TreeVertex, sigma: Perm, degree: int) -> TablePortrait:
    """A portrait applying the same local permutation at every vertex."""
    return TablePortrait(base_image, {(): sigma}, degree, EXTEND_CONSTANT)


def identity_portrait(degree: int) -> TablePortrait:
    return parallel_transport((), degree)


def transport_between(src: TreeVertex, dst: TreeVertex, degree: int) -> TablePortrait:
    """The color-preserving automorphism with src -> dst."""
    w = reduce_word(dst.word, tuple(reversed(src.word)))
    return parallel_transport(w, degree)


# ---------------------------------------------------------------------------
# isometry classification


class IsometryClass(NamedTuple):
    kind: str  # "elliptic" | "inversion" | "hyperbolic"
    length: int = 0
    fixed_vertex: TreeVertex | None = None
    fixed_edge: tuple[TreeVertex, TreeVertex] | None = None
    axis: TreeApartment | None = None
    axis_vertex: TreeVertex | None = None

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind == "hyperbolic"


def _descend_to_min_displacement(g: Portrait, cap: int) -> TreeVertex:
    # displacement is convex on the tree, so steepest descent finds the
    # global minimum; every strict step reduces the distance to the min set
    v = ROOT
    dv = g.displacement(v)
    while dv > 0:
        improved = None
        for c in range(g.degree):
            u = v.neighbor(c)
            if len(u.word) > cap:
                raise InsufficientRadius("min-displacement descent left the search ball")
            du = g.displacement(u)
            if du < dv:
                improved = (u, du)
                break
        if improved is None:
            break
        v, dv = improved
    return v


def _attracting_end(g: Portrait, start: TreeVertex) -> TreeEnd:
    """lim g^n(start) for hyperbolic g with start on (or near) the axis.

    Once g(u) extends u by a chunk, g(u + chunk) extends u + chunk by the
    colors g emits along the chunk from its state at u.  So (state, chunk)
    fixes every later chunk, and its first repeat closes the period.
    """
    v = start
    for _ in range(64):
        w = g.image(v)
        if len(w.word) > len(v.word) and w.word[: len(v.word)] == v.word:
            break
        v = w
    else:
        raise RuntimeError("axis iteration never started extending")
    u = list(v.word)
    chunk = w.word[len(u):]
    state = g._walk(u)[1]
    seen: dict = {}
    for _ in range(_AXIS_ITER_CAP):
        key = (state, chunk)
        hit = seen.get(key)
        if hit is not None:
            return TreeEnd(tuple(u[:hit]), tuple(u[hit:]))
        seen[key] = len(u)
        letters = []
        for c in chunk:
            e, state = g.step(state, c)
            letters.append(e)
        if letters[0] == chunk[-1]:
            raise RuntimeError("axis iteration stopped extending")
        u += chunk
        chunk = tuple(letters)
    raise RuntimeError("axis end did not stabilize")


def classify_isometry(g: Portrait, search_radius: int) -> IsometryClass:
    """Elliptic / inversion / hyperbolic, with certificates.

    Finds the global minimum m of the displacement function by convex
    descent from the base vertex.  m = 0 certifies a fixed vertex; m = 1
    with g(g(v)) = v certifies an inverted edge; otherwise translation along
    [v, g(v)] is certified by d(v, g^2(v)) = 2m, and the translation length
    is cross-checked against max(0, d(x0, g x0) - 2 d(x0, axis)).
    """
    d0 = g.displacement(ROOT)
    if search_radius < d0 + 2:
        raise InsufficientRadius(
            f"search radius {search_radius} below displacement bound {d0 + 2}"
        )
    v = _descend_to_min_displacement(g, search_radius)
    m = g.displacement(v)
    if m == 0:
        return IsometryClass(kind="elliptic", length=0, fixed_vertex=v)
    gv = g.image(v)
    ggv = g.image(gv)
    if m == 1 and ggv == v:
        return IsometryClass(kind="inversion", length=0, fixed_edge=(v, gv))
    if v.distance(ggv) != 2 * m:
        raise InsufficientRadius("could not certify a translation axis in the ball")
    expected = max(0, d0 - 2 * len(v.word))
    if expected != m:
        raise RuntimeError(
            "translation length cross-check failed; portrait is not an automorphism"
        )
    return _hyperbolic(g, v, m)


def _hyperbolic(g: Portrait, v: TreeVertex, length: int) -> IsometryClass:
    """The certificate of g translating by ``length`` along an axis through v."""
    plus = _attracting_end(g, v)
    minus = _attracting_end(g.inverse(), v)
    return IsometryClass(
        kind="hyperbolic",
        length=length,
        axis=TreeApartment(minus, plus),
        axis_vertex=v,
    )


def default_search_radius(g: Portrait) -> int:
    return g.displacement(ROOT) + 4


def is_strongly_regular(g: Portrait, search_radius: int) -> bool:
    """On a tree: strongly regular = hyperbolic.

    The two ends of the axis are chambers of the boundary, automatically
    opposite and interior (chambers of a rank-one boundary are points).
    """
    return classify_isometry(g, search_radius).is_hyperbolic


def hyperbolic_from_segment(
    h: Portrait, seg: Sequence[TreeVertex], image_seg: Sequence[TreeVertex]
) -> IsometryClass:
    """Certify h hyperbolic from a forward-translated segment.

    Requires image_seg = h(seg) pointwise, with image_seg overlapping seg in
    at least one edge and extending it forward; then h translates a line
    containing seg and image_seg by d(seg[0], image_seg[0]), with no global
    displacement search.
    """
    seg = list(seg)
    image_seg = list(image_seg)
    if len(seg) != len(image_seg) or len(seg) < 3:
        raise NotTranslatedSegment("need equal-length segments of >= 3 vertices")
    for v, w in zip(seg, image_seg):
        if h.image(v) != w:
            raise NotTranslatedSegment("image segment is not the pointwise image")
    k = seg[0].distance(image_seg[0])
    if k < 1:
        raise NotTranslatedSegment("zero shift")
    if len(seg) - k < 2:
        raise NotTranslatedSegment("overlap shorter than one edge")
    for i in range(len(seg) - k):
        if image_seg[i] != seg[i + k]:
            raise NotTranslatedSegment("image does not overlap the segment forward")
    union = seg + image_seg[len(seg) - k:]
    for a, b in zip(union, union[1:]):
        if a.distance(b) != 1:
            raise NotTranslatedSegment("segment is not a path")
    for a, b in zip(union, union[2:]):
        if a == b:
            raise NotTranslatedSegment("path backtracks")
    return _hyperbolic(h, seg[0], k)


# ---------------------------------------------------------------------------
# retraction from an end, Busemann homomorphism


def retraction(a: TreeApartment, c: TreeEnd, x: TreeVertex) -> int:
    """Retraction onto the apartment based at one of its ends.

    The ray [x, c) merges into the line at the projection p of x; the image
    is the point of the line at distance d(x, p) from p on the far side from
    c.  Restricted to the line this is the identity; the result is reported
    in the line's integer coordinates.
    """
    if c == a.end_plus:
        toward_plus = True
    elif c == a.end_minus:
        toward_plus = False
    else:
        raise ValueError("the retraction end must be an end of the apartment")
    coord, dist = a.project(x)
    return coord - dist if toward_plus else coord + dist


def _certify_fixes_end(g: Portrait, c: TreeEnd):
    if not g.fixes_end(c):
        raise NotInStabilizer("the portrait does not fix the end")


def busemann_beta(a: TreeApartment, c: TreeEnd, g: Portrait) -> int:
    """Translation part of an end-stabilizing automorphism along the line.

    beta_c(g) = retraction(a, c, g(v)) - retraction(a, c, v) for v deep
    enough toward c; independent of v (evaluated at two depths).  Sign
    convention: positive toward c.
    """
    _certify_fixes_end(g, c)
    toward_plus = c == a.end_plus
    depth = len(g.base_image.word) + a.branch_depth + 8
    for attempt in range(2):
        t = depth if toward_plus else -depth
        step = 1 if toward_plus else -1
        vals = []
        for tt in (t, t + step):
            v = a.vertex_at(tt)
            vals.append(retraction(a, c, g.image(v)) - retraction(a, c, v))
        if vals[0] == vals[1]:
            raw = vals[0]
            return raw if toward_plus else -raw
        depth *= 2
    raise RuntimeError("Busemann value did not stabilize at two depths")


def _opposite_ray_end(c: TreeEnd, degree: int) -> TreeEnd:
    first = c.letter(0)
    a = min(x for x in range(degree) if x != first)
    b = min(x for x in range(degree) if x != a)
    return TreeEnd((), (a, b))


def in_Gc0(g: Portrait, c: TreeEnd, search_radius: int) -> bool:
    """Membership in the point-fixing part of the end stabilizer.

    True iff g fixes c and some vertex on the ray [base, c) within the
    searched radius; equivalently the Busemann value vanishes and a fixed
    vertex certifies it.
    """
    _certify_fixes_end(g, c)
    a = TreeApartment(_opposite_ray_end(c, g.degree), c)
    if busemann_beta(a, c, g) != 0:
        return False
    for k in range(search_radius + 1):
        v = c.vertex_at(k)
        if g.image(v) == v:
            return True
    raise InsufficientRadius(
        "vanishing Busemann value but no fixed vertex within the searched radius"
    )


# ---------------------------------------------------------------------------
# dynamics at infinity


def iterate_on_end(a: Portrait, cls: IsometryClass, xi: TreeEnd, n: int) -> list[TreeEnd]:
    """[a^m(xi) for m = 0..n] for hyperbolic a, whose classification is
    ``cls``; exact, in normal form.

    The repelling axis end is rejected (it is fixed, and every other end
    converges to the attracting one).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not cls.is_hyperbolic:
        raise NotHyperbolic("iteration at infinity needs a hyperbolic automorphism")
    if xi == cls.axis.end_minus:
        raise RepellingFixedEnd("the chosen end is the repelling fixed end")
    out = [xi]
    for _ in range(n):
        out.append(a.image_of_end(out[-1]))
    return out


def segment_through_apartment(
    a: Portrait, cls: IsometryClass, x0: TreeVertex, x: TreeVertex, n: int
) -> list[int]:
    """For m = 0..n, the length of the geodesic [x0, a^m(x)] intersected
    with the axis of a, whose classification is ``cls``."""
    if not cls.is_hyperbolic:
        raise NotHyperbolic("the automorphism must be hyperbolic")
    c0, _ = cls.axis.project(x0)
    out = []
    w = x
    for m in range(n + 1):
        if m:
            w = a.image(w)
        out.append(abs(cls.axis.project(w)[0] - c0))
    return out


def pigeonhole_find_hyperbolic(
    line,
    labels: Callable[[TreeVertex], object],
    transporter: Callable[[TreeVertex, TreeVertex], Portrait | None],
    budget: int,
) -> tuple[Portrait, IsometryClass]:
    """Find a hyperbolic element by label repetition along a line or ray.

    Walks the marked vertices line.vertex_at(0), vertex_at(1), ...; when two
    positions s < t carry equal labels, asks the transporter for a group
    element matching their neighborhoods and certifies it hyperbolic via the
    translated-segment criterion (translation length = t - s).  Transporter
    failures and uncertifiable candidates are skipped, not fatal.  Returns
    the element with its certificate.
    """
    seen: dict = {}
    for t in range(budget + 1):
        v = line.vertex_at(t)
        lbl = labels(v)
        for s in seen.get(lbl, ()):
            g = transporter(line.vertex_at(s), v)
            if g is None:
                continue
            seg = [line.vertex_at(i) for i in range(s, t + 2)]
            imgs = [g.image(u) for u in seg]
            try:
                return g, hyperbolic_from_segment(g, seg, imgs)
            except NotTranslatedSegment:
                continue
        seen.setdefault(lbl, []).append(t)
    raise BudgetExhausted(
        f"no certified repeat within budget {budget} ({len(seen)} distinct labels)"
    )
