"""The (q+1)-regular tree with a legal edge coloring.

A vertex is its word: a non-backtracking tuple over the colors
{0, ..., q} (see ``words``), read from a fixed base vertex, ``ROOT`` = ().
The edge between a word w and its extension w + (c,) carries color c;
consequently the q+1 edges at any vertex carry distinct colors, which is
exactly a legal coloring.  Words made inside this module are non-backtracking
by construction; a ``TablePortrait``, the form in which a portrait arrives
from outside, checks its base image.

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
provably cycle.  The color transport t_u, the portrait with base image u
and every local permutation the identity, maps a word y to u.y reduced.
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
)


class NotInStabilizer(ValueError):
    """The automorphism does not fix the required end."""


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


ROOT: Word = ()


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

    def vertex_at(self, t: int) -> Word:
        if t >= 0:
            return self.end_plus.word_prefix(self.branch_depth + t)
        return self.end_minus.word_prefix(self.branch_depth - t)

    def project(self, w: Word) -> tuple[int, int]:
        """(coordinate of the projection of w onto the line, d(w, line))."""
        L = self.branch_depth
        mp = lcp_len(w, self.end_plus.word_prefix(len(w)))
        mm = lcp_len(w, self.end_minus.word_prefix(len(w)))
        if mp > L:
            return mp - L, len(w) - mp
        if mm > L:
            return -(mm - L), len(w) - mm
        return 0, len(w) + L - 2 * min(mp, L)

    def coordinate_of(self, w: Word) -> int | None:
        coord, dist = self.project(w)
        return coord if dist == 0 else None

    def __contains__(self, w: Word) -> bool:
        return self.coordinate_of(w) is not None


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

    def __init__(self, degree: int, base_image: Word, start, step: Callable):
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

    def sigma(self, w: Word) -> Perm:
        state = self._walk(w)[1]
        return tuple(self.step(state, c)[0] for c in range(self.degree))

    def image(self, w: Word) -> Word:
        return reduce_word(self.base_image, self._walk(w)[0])

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
        u = other.base_image
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

        base = reduce_word(self.base_image, letters)
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
        undo = TablePortrait(self.base_image[::-1], {}, degree, EXTEND_SPARSE)
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
        u = list(self.base_image)
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
        base_image: Sequence[int],
        table: dict | None = None,
        degree: int = 3,
        extension: str = EXTEND_SPARSE,
    ):
        base_image = tuple(int(c) for c in base_image)
        if any(c < 0 for c in base_image):
            raise ValueError("colors are non-negative integers")
        if not is_nonbacktracking(base_image):
            raise ValueError(f"backtracking word {base_image}")
        if degree < 3:
            raise ValueError("thickness requires degree q+1 >= 3")
        if extension not in (EXTEND_SPARSE, EXTEND_CONSTANT):
            raise ValueError(f'extension must be "sparse" or "constant", not {extension!r}')
        self.extension = extension
        self._extend = _EXTENSIONS[extension]
        tbl: dict[Word, Perm] = {}
        for key, perm in (table or {}).items():
            w = tuple(key)
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
        if any(c >= degree for c in base_image):
            raise ValueError("base image uses colors outside the degree")
        start = (() if self._table_depth > 0 else None, tbl.get((), self._identity))
        super().__init__(degree, base_image, start, self._step)
        for w in sorted(tbl, key=len):
            if w and tbl[w][w[-1]] != self.sigma(w[:-1])[w[-1]]:
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
            return parallel_transport(reduce_word((), self.base_image * n), self.degree)
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
    return TablePortrait(word, {}, degree, EXTEND_SPARSE)


def constant_portrait(base_image: Sequence[int], sigma: Perm, degree: int) -> TablePortrait:
    """A portrait applying the same local permutation at every vertex."""
    return TablePortrait(base_image, {(): sigma}, degree, EXTEND_CONSTANT)


def transport_between(src: Word, dst: Word, degree: int) -> TablePortrait:
    """The color-preserving automorphism with src -> dst."""
    w = reduce_word(dst, src[::-1])
    return parallel_transport(w, degree)


# ---------------------------------------------------------------------------
# isometry classification


class IsometryClass(NamedTuple):
    kind: str  # "elliptic" | "inversion" | "hyperbolic"
    length: int = 0
    fixed_vertex: Word | None = None
    fixed_edge: tuple[Word, Word] | None = None
    axis: TreeApartment | None = None
    axis_vertex: Word | None = None

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind == "hyperbolic"


def _attracting_end(g: Portrait, v: Word, gv: Word) -> TreeEnd:
    """lim g^n(v) for hyperbolic g, with v the projection of the base
    vertex onto the axis and gv = g(v).

    Every axis vertex lies beyond v from the base vertex, so g(v) extends v
    by a chunk, and a portrait whose g(v) does not is refused.  Once g(u)
    extends u by a chunk, g(u + chunk) extends u + chunk by the colors g
    emits along the chunk from its state at u.  So (state, chunk) fixes
    every later chunk, and its first repeat closes the period; states are
    finitely many, so the repeat comes.
    """
    u = list(v)
    if len(gv) <= len(u) or gv[: len(u)] != v:
        raise RuntimeError("the axis vertex image does not extend it: not an automorphism")
    chunk = gv[len(u):]
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
    is v followed by l letters of [x0, g x0].  The axis ends are the limits
    of g^n(v) and g^-n(v).
    """
    gx = g.image(ROOT)
    d0 = len(gx)
    length = len(g.image(gx)) - d0
    if length > 0:
        v = gx[: (d0 - length) // 2]
        gv = g.image(v)
        if gv != gx[: len(v) + length]:
            raise RuntimeError("the axis vertex is not translated: not an automorphism")
        inv = g.inverse()
        ends = _attracting_end(inv, v, inv.image(v)), _attracting_end(g, v, gv)
        if ends[0] == ends[1]:
            raise RuntimeError("the two axis ends coincide: not an automorphism")
        axis = TreeApartment(*ends)
        return IsometryClass(kind="hyperbolic", length=length, axis=axis, axis_vertex=v)
    v = gx[: d0 // 2]
    gv = g.image(v)
    if d0 % 2 == 0:
        if gv != v:
            raise RuntimeError("the middle vertex is not fixed: not an automorphism")
        return IsometryClass(kind="elliptic", length=0, fixed_vertex=v)
    if gv != gx[: len(v) + 1] or g.image(gv) != v:
        raise RuntimeError("the middle edge is not inverted: not an automorphism")
    return IsometryClass(kind="inversion", length=0, fixed_edge=(v, gv))


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
    a: Portrait, cls: IsometryClass, x0: Word, x: Word, n: int
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
    line: TreeApartment,
    labels: Callable[[Word], object],
    transporter: Callable[[Word, Word], Portrait | None],
    budget: int,
) -> tuple[Portrait, IsometryClass]:
    """Find a hyperbolic element by label repetition along a line.

    Walks the marked vertices v_t = line.vertex_at(t) for t = 0..budget;
    when two positions s < t carry equal labels, asks the transporter for a
    group element g matching their neighborhoods.  g is accepted iff
    g(v_s) = v_t and ``classify_isometry(g)`` is hyperbolic of length
    t - s: a hyperbolic element moves a vertex by its length only on its
    axis, so v_s and v_t lie on it.  A None answer and any other candidate
    are skipped, not fatal.  Returns g with its classification.
    """
    seen: dict = {}
    for t in range(budget + 1):
        v = line.vertex_at(t)
        lbl = labels(v)
        for s in seen.get(lbl, ()):
            u = line.vertex_at(s)
            g = transporter(u, v)
            if g is None or g.image(u) != v:
                continue
            cls = classify_isometry(g)
            if cls.is_hyperbolic and cls.length == t - s:
                return g, cls
        seen.setdefault(lbl, []).append(t)
    raise BudgetExhausted(
        f"no certified repeat within budget {budget} ({len(seen)} distinct labels)"
    )
