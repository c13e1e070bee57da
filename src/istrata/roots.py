"""Root systems of negative definite lattices.

Enumerates the norm −2 vectors of a negative definite lattice, splits them
into irreducible ADE components with a deterministic choice of simple roots,
identifies rank-24 even unimodular lattices by their root label, and computes
fundamental weights and highest roots.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import exact
from .lattices import IntegralLattice, blowup_lattice, lattice_predicates


# ---------------------------------------------------------------------------
# enumeration


def _sign_canonical(v):
    """Representative of the ± pair: first nonzero coordinate positive."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    return tuple(v)


def enumerate_roots(L):
    """All α ∈ L with α² = −2, one per ± pair, lexicographically sorted.

    Requires L negative definite.  The lattice basis may be badly skewed
    (rank-24 quotient bases are), so the negated Gram is LLL-reduced before
    Fincke–Pohst enumeration.  Definiteness is not checked separately: the
    integral LLL rejects a leading minor ≤ 0 of −G (Sylvester's criterion).
    """
    try:
        reduced, u = exact.lll_reduce_gram([[-x for x in row] for row in L.gram])
        short = exact.vectors_of_norm(reduced, 2)
    except ValueError:
        raise ValueError("lattice is not negative definite") from None
    return sorted(map(_sign_canonical, exact.mat_mul(short, u)))


def weyl_reflect(L, alpha, x):
    """s_α(x) = x + (x·α)α for a root α (α² = −2)."""
    c = L.pairing(x, alpha)
    return tuple(a + c * b for a, b in zip(x, alpha))


# ---------------------------------------------------------------------------
# decomposition into ADE components


@dataclass(frozen=True)
class RootDecomposition:
    lattice: IntegralLattice
    components: tuple  # of (label: str, simple_roots: tuple of vectors)
    total_root_count: int

    @property
    def label(self):
        return "+".join(c[0] for c in self.components)

    @property
    def rank(self):
        return sum(len(c[1]) for c in self.components)

    def all_simple_roots(self):
        return [r for _, simples in self.components for r in simples]


def _ade_label(simples, pairing):
    """Identify the ADE type of an irreducible Dynkin graph and return
    (label, simple roots in Bourbaki order)."""
    n = len(simples)
    adj = [[i for i in range(n) if i != j and pairing(simples[i], simples[j]) != 0]
           for j in range(n)]
    degs = sorted(len(a) for a in adj)
    if n == 1:
        return "A1", tuple(simples)
    branch = [i for i in range(n) if len(adj[i]) >= 3]
    if any(len(adj[i]) > 3 for i in range(n)) or len(branch) > 1:
        raise ValueError("diagram is not of ADE type")

    def walk(start, first):
        """Path from `start` through `first` until a leaf; excludes start."""
        path = [first]
        prev, cur = start, first
        while len(adj[cur]) == 2:
            nxt = next(i for i in adj[cur] if i != prev)
            path.append(nxt)
            prev, cur = cur, nxt
        return path

    if not branch:
        # type A: a path; orient from the end with the lexicographically
        # smaller root so the labeling is deterministic
        ends = [i for i in range(n) if len(adj[i]) == 1]
        if len(ends) != 2 or degs[-1] > 2:
            raise ValueError("diagram is not of ADE type")
        start = min(ends, key=lambda i: simples[i])
        order = [start] + walk(start, adj[start][0])
        return f"A{n}", tuple(simples[i] for i in order)

    b = branch[0]
    arms = sorted((walk(b, first) for first in adj[b]), key=len)
    if sum(len(a) for a in arms) != n - 1:
        raise ValueError("diagram is not of ADE type (cycle present)")
    lens = [len(a) for a in arms]
    if lens[0] != 1:
        raise ValueError("diagram is not of ADE type")
    if lens[1] == 1:
        # type D_n, n = lens[2] + 3; Bourbaki: α₁..α_{n−2} the long path into
        # the branch node, α_{n−1}, α_n the two leaves (swappable by the
        # outer automorphism; taken in deterministic root order)
        long_arm = arms[2]
        path = list(reversed(long_arm)) + [b]
        leaves = sorted([arms[0][0], arms[1][0]], key=lambda i: simples[i])
        order = path + leaves
        return f"D{n}", tuple(simples[i] for i in order)
    if lens[1] == 2 and lens[2] in (2, 3, 4):
        # type E_n: branch node is α₄; length-1 arm is α₂; length-2 arm is
        # α₃, α₁ walking away from the node; long arm is α₅..α_n
        if lens[2] == 2 and n != 6:
            raise ValueError("diagram is not of ADE type")
        short, mid, long_arm = arms
        if n == 6:
            # two length-2 arms: deterministic choice of which is α₃,α₁
            mid, long_arm = sorted([mid, long_arm], key=lambda a: simples[a[0]])
        order = [mid[1], short[0], mid[0], b] + long_arm
        return f"E{n}", tuple(simples[i] for i in order)
    raise ValueError("diagram is not of ADE type")


def _simple_roots(L, roots):
    """Simple roots of a closed root set, as a dict α ↦ G·α in the order of
    `roots`.

    The simple roots are the positive roots (generic functional) that are
    not sums of two positive roots.  They are found in one pass in ascending
    lexicographic order, the order of that functional (Humphreys, *Lie
    Algebras*, §10.2): for roots of a negative definite lattice, r − α is a
    root iff r·α = −1, and every non-simple positive r has a simple α
    earlier in the order with r − α positive.  So r is simple iff r·α ≠ −1
    for every simple α kept so far.
    """
    positives = [_sign_canonical(r) for r in roots]
    dual = {}
    for r in sorted(positives):
        if all(sum(map(mul, r, ga)) != -1 for ga in dual.values()):
            dual[r] = exact.mat_vec(L.gram, r)
    return {r: dual[r] for r in positives if r in dual}


def decompose_root_system(L, roots):
    """Split a closed root set into irreducible ADE components.

    `roots` is the output of enumerate_roots (one per ± pair); the count
    reported doubles it back to the full set.  The simple roots keep the
    order of `roots` (see _simple_roots), which fixes the order of equal
    components.  The closed-form root counts of the components must add up
    to the number of roots (exact.VerificationError otherwise).
    """
    dual = _simple_roots(L, roots)
    simples = list(dual)

    def pair(a, b):
        return sum(map(mul, a, dual[b]))

    # sanity: simple roots pair in {0, 1} with each other (negated Cartan)
    for i, a in enumerate(simples):
        for b in simples[i + 1:]:
            if pair(a, b) not in (0, 1):
                raise ValueError("simple-root set is not of ADE shape")
    # connected components of the pairing graph on simple roots
    n = len(simples)
    seen = [False] * n
    comps = []
    for i in range(n):
        if seen[i]:
            continue
        stack, comp = [i], []
        seen[i] = True
        while stack:
            j = stack.pop()
            comp.append(j)
            for t in range(n):
                if not seen[t] and pair(simples[j], simples[t]) != 0:
                    seen[t] = True
                    stack.append(t)
        comps.append(sorted(comp))
    labeled = []
    for comp in comps:
        sub = [simples[i] for i in comp]
        label, ordered = _ade_label(sub, pair)
        labeled.append((label, ordered))
    labeled.sort(key=_label_sort_key)
    count = 2 * len(roots)
    if sum(ade_root_count(label) for label, _ in labeled) != count:
        raise exact.VerificationError(
            "component root counts do not add up to the number of roots"
        )
    return RootDecomposition(lattice=L, components=tuple(labeled), total_root_count=count)


def _label_sort_key(comp):
    label = comp[0]
    family_order = {"E": 0, "D": 1, "A": 2}
    return (family_order[label[0]], -int(label[1:]))


ADE_ROOT_COUNTS = {"E6": 72, "E7": 126, "E8": 240}


def ade_root_count(label):
    """Closed-form root count of an irreducible ADE system."""
    if label in ADE_ROOT_COUNTS:
        return ADE_ROOT_COUNTS[label]
    fam, n = label[0], int(label[1:])
    if fam == "A":
        return n * (n + 1)
    if fam == "D":
        return 2 * n * (n - 1)
    raise ValueError(f"unknown label {label!r}")


# connection index = order of the discriminant group of the root lattice
def connection_index(label):
    fam, n = label[0], int(label[1:])
    if fam == "A":
        return n + 1
    if fam == "D":
        return 4
    return {6: 3, 7: 2, 8: 1}[n]


# ---------------------------------------------------------------------------
# Niemeier identification


def _label_from_roots(L, roots):
    """Root label of a rank-24 candidate; raises when a nonempty root set
    fails to span rank 24 (contradicts the classification of even unimodular
    negative definite rank-24 lattices)."""
    if not roots:
        return "Leech"
    dec = decompose_root_system(L, roots)
    if dec.rank < 24:
        raise ValueError(
            "roots present but R(L) has rank < 24: "
            "input is not an even unimodular negative definite rank-24 lattice"
        )
    return dec.label


def niemeier_identify(L):
    """Identify a rank-24 even unimodular negative definite lattice by its
    root system ("Leech" when there are no roots)."""
    if L.rank != 24:
        raise ValueError("lattice must have rank 24")
    is_even, is_unimod, _, _ = lattice_predicates(L)
    if not is_even or not is_unimod:
        raise ValueError("lattice must be even and unimodular")
    # definiteness is checked inside enumerate_roots
    return _label_from_roots(L, enumerate_roots(L))


# ---------------------------------------------------------------------------
# weights and highest roots


def fundamental_weight(dec, comp, j):
    """ϖ_j of component `comp`: the rational ambient vector in the span of
    that component's simple roots with ϖ_j·αᵢ = δ_{ij} (and pairing 0 with
    every other component by orthogonality)."""
    label, simples = dec.components[comp]
    r = len(simples)
    if not 1 <= j <= r:
        raise ValueError("weight index out of range")
    neg_cartan = exact.gram_of(simples, dec.lattice.gram)
    rhs = [1 if i == j - 1 else 0 for i in range(r)]
    c = exact.solve_unique(neg_cartan, rhs)
    if c is None:
        raise ValueError("ambient form degenerate on the component span")
    return tuple(exact.vec_mat(c, simples))


def weight_self_pairing(dec, w):
    """ϖ_j² — equals −(C⁻¹)ⱼⱼ for the component's Cartan matrix C."""
    return exact.dot_gram(w, dec.lattice.gram, w)


def component_root_lattice(dec, comp):
    """The component's root lattice in its simple-root basis (Gram = −Cartan)."""
    _, simples = dec.components[comp]
    return IntegralLattice(exact.gram_of(simples, dec.lattice.gram))


def highest_root_coefficients(dec, comp):
    """Coefficients (g₁..g_r) of the highest root of the component in its
    simple-root basis (maximal height among roots with non-negative coords).

    Enumeration runs inside the component's own root lattice (rank ≤ 10),
    where coordinates are simple-root coefficients directly.
    """
    sub = component_root_lattice(dec, comp)
    best = None
    for r in enumerate_roots(sub):
        for v in (r, tuple(-x for x in r)):
            if all(x >= 0 for x in v):
                if best is None or sum(v) > sum(best):
                    best = v
    if best is None:
        raise ValueError("component has no roots (corrupt decomposition)")
    return tuple(best)


# ---------------------------------------------------------------------------
# the E_n blowup basis


def build_En_lattice(n):
    """The lattice ⟨h, ε₁..ε_n⟩ = diag(1, −1, …, −1) with κ = 3h − Σεᵢ and
    the κ⊥ root basis α₁..α_n (αᵢ = εᵢ₊₁ − εᵢ, α_n = h − ε_{n−2} − ε_{n−1} − ε_n).

    Returns (lattice, h, eps list, kappa, alpha list).
    """
    if not 3 <= n <= 11:
        raise ValueError("n must be in 3..11")
    L = blowup_lattice(n)
    h = tuple([1] + [0] * n)
    eps = [tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(1, n + 1)]
    kappa = tuple([3] + [-1] * n)
    alphas = []
    for i in range(1, n):
        a = [0] * (n + 1)
        a[i + 1], a[i] = 1, -1
        alphas.append(tuple(a))
    last = [0] * (n + 1)
    last[0] = 1
    for idx in (n - 2, n - 1, n):
        last[idx] -= 1
    alphas.append(tuple(last))
    return L, h, eps, kappa, alphas
