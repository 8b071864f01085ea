"""The (q+1)-regular tree with a legal edge coloring.

Vertices are non-backtracking words over the colors {0, ..., q} (see
``words``), rooted at a fixed base vertex (the empty word).  The edge
between a word w and its extension w + (c,) carries color c; consequently
the q+1 edges at any vertex carry distinct colors, which is exactly a legal
coloring.

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

from itertools import chain, cycle
from math import lcm
from typing import Callable, Iterator, NamedTuple, Sequence

from .perms import Perm, identity, transposition
from .words import (
    BudgetExhausted,
    Word,
    is_nonbacktracking,
    lcp_len,
    reduce_word,
    word_distance,
)


class NotInStabilizer(ValueError):
    """The automorphism does not fix the required end."""


class NotTranslatedSegment(ValueError):
    """The segment/image pair is not in the translated-segment configuration."""


class RepellingFixedEnd(ValueError):
    """Iteration requested at the repelling fixed end."""


class NotHyperbolic(ValueError):
    """A hyperbolic automorphism was required."""


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
        w = self.word
        return _vertex(w[:-1] if w and w[-1] == c else w + (c,))

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
        per = tuple(int(c) for c in period)
        if not per:
            raise ValueError("period must be nonempty")
        if any(c < 0 for c in pre + per):
            raise ValueError("colors are non-negative integers")
        pre, per = _end(pre, per)._key()
        if not is_nonbacktracking(pre + per + per[:1]) or len(per) == 1:
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


def _end(prefix: Word, period: Word) -> TreeEnd:
    """The end of a descriptor known to be valid, normalized but unchecked:
    the public constructor converts and re-validates the whole prefix.

    The period is made primitive, then the k trailing prefix letters that
    repeat the periodic tail backwards are absorbed by rotating it k places.
    """
    per = _primitive(period)
    n, k = len(per), 0
    while k < len(prefix) and prefix[-1 - k] == per[-1 - k % n]:
        k += 1
    r = k % n
    e = object.__new__(TreeEnd)
    object.__setattr__(e, "prefix", prefix[: len(prefix) - k])
    object.__setattr__(e, "period", per[n - r :] + per[: n - r])
    return e


def least_tail(avoid: int, degree: int) -> Word:
    """The least 2-periodic tail (a, b) that can follow the color ``avoid``:
    a is the least color other than ``avoid`` and b the least other than a."""
    a = min(x for x in range(degree) if x != avoid)
    return a, min(x for x in range(degree) if x != a)


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
    def image_of_end(self, end: TreeEnd) -> TreeEnd:
        """Exact image of an eventually periodic end, in normal form.

        Walks the ray to ``end`` one ``step`` at a time.  The image of a ray
        is a ray from the base image: its path dips rootward, then extends
        by one letter per step and never backtracks again, so a walk that
        does is refused at once.  Once it extends, a repeat of (phase of the
        period, state, last image letter) repeats every later step, so the
        letters emitted between the two visits are the image end's period;
        states are finitely many, so the repeat comes.
        """
        pre_len = len(end.prefix)
        per_len = len(end.period)
        u = list(self.base_image.word)
        step, state = self.step, self.start
        # seen maps a key to the image length when it was recorded; keys are
        # recorded only while extending, so a recorded image is a prefix of
        # the current one
        seen: dict = {}
        extending = False
        for k, c in enumerate(chain(end.prefix, cycle(end.period))):
            if extending and k >= pre_len:
                key = ((k - pre_len) % per_len, state, u[-1])
                hit = seen.get(key)
                if hit is not None:
                    return _end(tuple(u[:hit]), tuple(u[hit:]))
                seen[key] = len(u)
            e, state = step(state, c)
            if u and u[-1] == e:
                if extending:
                    raise RuntimeError("end image backtracks after extending: not an automorphism")
                u.pop()
            else:
                u.append(e)
                extending = True

    def fixes_end(self, end: TreeEnd) -> bool:
        return self.image_of_end(end) == end


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
        for w in sorted(tbl, key=len):
            if w and tbl[w][w[-1]] != self.sigma(_vertex(w[:-1]))[w[-1]]:
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
    group.  The transports form a free product of order-2 groups, one per
    color, so for a nonempty reduced ``word`` the transport is an inversion
    iff the word is a palindrome.  Otherwise it is hyperbolic, and its
    translation length is the length of the word after stripping equal
    outer letters: (2, 0, 1, 2) translates its axis by 2.
    """
    return TablePortrait(TreeVertex(tuple(word)), {}, degree, EXTEND_SPARSE)


def constant_portrait(base_image: TreeVertex, sigma: Perm, degree: int) -> TablePortrait:
    """A portrait applying the same local permutation at every vertex."""
    return TablePortrait(base_image, {(): sigma}, degree, EXTEND_CONSTANT)


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


def _attracting_end(g: Portrait, start: TreeVertex) -> TreeEnd:
    """lim g^n(start) for hyperbolic g with start on the axis.

    The iterates advance along the axis, so within len(start) + 1 steps one
    lies past the projection of the base vertex, and its image extends it.
    Once g(u) extends u by a chunk, g(u + chunk) extends u + chunk by the
    colors g emits along the chunk from its state at u.  So (state, chunk)
    fixes every later chunk, and its first repeat closes the period; states
    are finitely many, so the repeat comes.
    """
    v = start
    for _ in range(len(start.word) + 1):
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
    while True:
        key = (state, chunk)
        hit = seen.get(key)
        if hit is not None:
            return _end(tuple(u[:hit]), tuple(u[hit:]))
        seen[key] = len(u)
        letters = []
        for c in chunk:
            e, state = g.step(state, c)
            letters.append(e)
        if letters[0] == chunk[-1]:
            raise RuntimeError("axis iteration stopped extending")
        u += chunk
        chunk = tuple(letters)


def classify_isometry(g: Portrait) -> IsometryClass:
    """Elliptic / inversion / hyperbolic, with certificates, from g(x0) and
    g(g(x0)) for the base vertex x0.

    A hyperbolic g of length l has d(x0, g^k x0) = k*l + 2 d(x0, axis); any
    other automorphism has d(x0, g^2 x0) <= d(x0, g x0) (Serre, *Trees*,
    I.6.4).  So l = d(x0, g^2 x0) - d0, with d0 = d(x0, g x0), is positive
    exactly when g is hyperbolic, and [x0, g x0] meets the axis after
    (d0 - l) / 2 letters.  Otherwise the middle of [x0, g x0] is the fixed
    vertex (d0 even) or the near end of the inverted edge (d0 odd).  One or
    two more images check the certificate: g(v) = v, g(g(v)) = v, or g(v)
    is v followed by l letters of [x0, g x0].
    """
    gx = g.image(ROOT)
    d0 = len(gx.word)
    length = len(g.image(gx).word) - d0
    if length > 0:
        v = _vertex(gx.word[: (d0 - length) // 2])
        if g.image(v).word != gx.word[: len(v.word) + length]:
            raise RuntimeError("the axis vertex is not translated: not an automorphism")
        return _hyperbolic(g, v, length)
    v = _vertex(gx.word[: d0 // 2])
    gv = g.image(v)
    if d0 % 2 == 0:
        if gv != v:
            raise RuntimeError("the middle vertex is not fixed: not an automorphism")
        return IsometryClass(kind="elliptic", length=0, fixed_vertex=v)
    if gv.word != gx.word[: len(v.word) + 1] or g.image(gv) != v:
        raise RuntimeError("the middle edge is not inverted: not an automorphism")
    return IsometryClass(kind="inversion", length=0, fixed_edge=(v, gv))


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
# the Busemann character of an end stabilizer


def busemann_beta(c: TreeEnd, g: Portrait) -> int:
    """Translation part of an automorphism fixing the end c: how far g
    moves the points of a ray to c toward c.

    A hyperbolic g fixes exactly the two ends of its axis (Tits 1970) and
    moves the attracting one's ray toward it by its translation length,
    away from the repelling one's; an elliptic g fixing c fixes a vertex and
    so the whole ray from it to c; an inversion fixes no end.
    """
    cls = classify_isometry(g)
    if cls.is_hyperbolic:
        if c == cls.axis.end_plus:
            return cls.length
        if c == cls.axis.end_minus:
            return -cls.length
    elif g.fixes_end(c):
        return 0
    raise NotInStabilizer("the portrait does not fix the end")


def in_Gc0(g: Portrait, c: TreeEnd) -> bool:
    """Membership in the point-fixing part of the stabilizer of the end c:
    g fixes c and is elliptic, so that it fixes a ray to c pointwise."""
    if not g.fixes_end(c):
        raise NotInStabilizer("the portrait does not fix the end")
    return classify_isometry(g).kind == "elliptic"


# ---------------------------------------------------------------------------
# dynamics at infinity


def iterate_on_end(
    a: Portrait, cls: IsometryClass, xi: TreeEnd, n: int
) -> Iterator[TreeEnd]:
    """a^m(xi) for m = 0..n, one at a time, for hyperbolic a whose
    classification is ``cls``; exact, in normal form.

    The arguments are checked at the call, before any iterate.  The
    repelling axis end is rejected (it is fixed, and every other end
    converges to the attracting one).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not cls.is_hyperbolic:
        raise NotHyperbolic("iteration at infinity needs a hyperbolic automorphism")
    if xi == cls.axis.end_minus:
        raise RepellingFixedEnd("the chosen end is the repelling fixed end")

    def iterates() -> Iterator[TreeEnd]:
        end = xi
        yield end
        for _ in range(n):
            end = a.image_of_end(end)
            yield end

    return iterates()


def segment_through_apartment(
    a: Portrait, cls: IsometryClass, x0: TreeVertex, x: TreeVertex, n: int
) -> list[int]:
    """For m = 0..n, the length of the geodesic [x0, a^m(x)] intersected
    with the axis of a, whose classification is ``cls``.

    a maps its axis to itself, translating it by ``cls.length`` toward
    ``end_plus``, and commutes with projection onto it; so a^m(x) projects
    to p + m * length, where x projects to p, and no image is computed.
    """
    if not cls.is_hyperbolic:
        raise NotHyperbolic("the automorphism must be hyperbolic")
    c0 = cls.axis.project(x0)[0]
    p = cls.axis.project(x)[0]
    return [abs(p + m * cls.length - c0) for m in range(n + 1)]


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
