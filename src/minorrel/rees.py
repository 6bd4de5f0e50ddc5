"""The graded-kernel engine, and the bigraded defining ideal of the Rees algebra.

`GradedKernel` computes, modulo q, the graded kernel of a linear map
from a weight-graded source to polynomials, and its minimal generators.  A
source element is a pair (f, ms): a factor f times the product of the
generators indexed by the sorted multiset ms.  The engine is parameterised
by the factors of each grade, the image of a source element, the shift maps
from lower grades, and optionally a subspace, per grade and weight, to take
the kernel modulo.  Its instances are the relation ideals and the subspace
variety (the base class, one unit factor), the Veronese presentation (in
`witness`) and the Rees ideal (`ReesEngine`, below).

Everything is computed per torus-weight block; a weight is the pair (row
sums, column sums).  Permuting rows and columns of the matrix maps each
source basis to itself up to sign, over the integers, so each per-weight
count is constant on S_m x S_n orbits of weights: only the dominant weight
of each orbit is eliminated, weighted by the orbit size.  The shifted
kernels it needs may sit at non-dominant weights; each of those is the
kernel at the dominant weight of its orbit, carried across by the
permutation of rows and columns, with no elimination.  One engine object
serves an instance: it is built once over the integers, where its source
bases and generator products live, and `at(q)` runs it modulo q, dropping
the kernels of any previous modulus.  q is a prime or, under
`modlinalg.two_primes`, the product of two: the engine uses q only through
ring operations, zero tests and `modlinalg`'s eliminations, so one run at
p1 * p2 is the run at each prime.

The Rees algebra is presented by T-variables (one per quadric generator)
over the matrix-entry ring; the defining ideal J is the bigraded kernel of
T_w -> w*t.  Components are indexed by (a, e) = (x-degree, T-degree), and
reported with the T-grading scaled by 2, i.e. as bidegree (a, 2e), so the
fiber-type condition reads: minimal generators only in (0, 2d) and (d, 2).
"""

from collections import Counter
from functools import cache
from itertools import combinations_with_replacement
from math import factorial
from operator import add, sub

from .modlinalg import guard_nonzeros, nullspace_mod, rank_mod, two_primes
from .partitions import partitions_of
from .polyring import generators_for, guard_degree, pack, poly_mul, unpack, x_weight


def matrix_moves(ctx):
    """The `moves` of the matrix variables: x[i, j] goes to x[rows[i], cols[j]]."""
    n = ctx.n

    def moves(perms):
        rows, cols = perms
        return [rows[v // n] * n + cols[v % n] for v in range(ctx.num_vars)]

    return moves


def _weights_of(ctx, gens):
    """Torus weight of each generator; all its monomials share it."""
    return [x_weight(ctx, next(iter(g))) for g in gens]


def _wadd(w, delta):
    """Componentwise sum of weights."""
    return tuple(map(add, w[0], delta[0])), tuple(map(add, w[1], delta[1]))


def _wsub(w, delta):
    """Componentwise difference of weights, or None if any entry goes negative."""
    rows = tuple(map(sub, w[0], delta[0]))
    cols = tuple(map(sub, w[1], delta[1]))
    if min(rows) < 0 or min(cols) < 0:
        return None
    return rows, cols


def _is_dominant(w):
    return all(a >= b for a, b in zip(w[0], w[0][1:])) and all(
        a >= b for a, b in zip(w[1], w[1][1:])
    )


def _permute(part, perm):
    """The tuple whose entry perm[i] is part[i]."""
    out = [0] * len(part)
    for i, x in zip(perm, part):
        out[i] = x
    return tuple(out)


def _from_dominant(w):
    """The dominant weight of w's orbit, and the (row, column) permutations taking it to w."""
    perms = tuple(
        tuple(sorted(range(len(part)), key=part.__getitem__, reverse=True)) for part in w
    )
    return tuple(tuple(part[i] for i in perm) for part, perm in zip(w, perms)), perms


def _sign_between(f, g):
    """The sign c with f == c * g, for polynomials f and g."""
    if f == g:
        return 1
    if f == {exp: -c for exp, c in g.items()}:
        return -1
    raise ValueError("permuting rows and columns must carry each generator to +- a generator")


def _orbit_size(w):
    """Size of the S_m x S_n orbit of the weight w = (row sums, column sums)."""
    size = 1
    for part in w:
        size *= factorial(len(part))
        for mult in Counter(part).values():
            size //= factorial(mult)
    return size


def orbit_total(dims):
    """The sum over all weights of a count given at the dominant ones.

    dims maps dominant weights to the count there; each is weighted by the
    size of its S_m x S_n orbit.
    """
    return sum(_orbit_size(w) * c for w, c in dims.items())


def _monomials_of_degree(nvars, d):
    """Monomial keys of total degree d, in the order of combinations_with_replacement."""
    guard_degree(d, "monomials")
    for split in combinations_with_replacement(range(nvars), d):
        yield sum(1 << 8 * i for i in split)


def _shifted_rows(vectors, shift, col):
    """Lower-grade kernel vectors moved up by shift, as sparse rows on col.

    shift maps a source key of the vectors to a source key one grade up,
    and col numbers the keys kept; the others are dropped.  Entries are
    summed over the integers; rank_mod reduces them and drops zeros.
    """
    rows = []
    for vec in vectors:
        row = {}
        for key, c in vec.items():
            idx = col.get(shift(key))
            if idx is not None:
                row[idx] = row.get(idx, 0) + c
        rows.append(row)
    return rows


class GradedKernel:
    """Graded kernel and minimal generators of a map to polynomials.

    The base class is the relations instance: the kernel of Sym(gens) ->
    polynomials graded by degree, with one unit factor and the
    multiplications by the generators as shifts.  Subclasses override
    `factors`, `image`, `shifts`, `modulo` and `factor_map`.  gens are
    polynomials in nvars variables, of distinct torus weights `weights`;
    moves(perms) lists, for each variable, the variable that permuting rows
    and columns by perms takes it to.  The sign each generator takes under
    a permutation is read off the generators themselves.  Call `at(q)`
    before asking for a kernel.
    """

    def __init__(self, gens, weights, nvars, moves):
        self.gens, self.weights, self.moves = gens, weights, moves
        # a permutation of rows and columns moves each generator to the one
        # of the permuted weight, so the weights must tell them apart
        self._by_weight = {w: k for k, w in enumerate(weights)}
        if len(self._by_weight) != len(weights):
            raise ValueError("generator weights must be distinct")
        # `count` finds a grade's weights from its total, so every multiset
        # of a size must have the same one
        totals = {tuple(map(sum, w)) for w in weights}
        if len(totals) != 1:
            raise ValueError("generators must share one total weight")
        (self._gen_total,) = totals
        self.nvars = nvars
        self._gen_degree = max((sum(unpack(exp, nvars)) for g in gens for exp in g), default=0)
        self.zero = tuple((0,) * len(part) for part in weights[0])
        self._tables = {}  # (row, column) permutations -> transport table
        self._grades = {}  # grade -> (factors, multiset size, factor positions, factor weights)
        self._multisets = {}  # (size, weight) -> [multiset]
        self._buckets = {}  # (grade, weight) -> [source]
        self.products = {(): {0: 1}}  # multiset -> product of its generators

    def at(self, q):
        """This engine modulo q; the kernels of the previous modulus are dropped.

        q is a prime or a product of distinct primes (see the module
        docstring); it is kept as `p`, the name perfbench's tracer reads.
        """
        self.p = q
        self._kernels = {}  # (grade, weight) -> kernel vectors {source: coeff}
        self._free = {}  # (grade, dominant weight) -> free source of each kernel vector
        return self

    def product(self, ms):
        """Product of the generators indexed by the sorted tuple ms, memoised.

        poly_mul does not read its ring context, so none is passed.
        """
        if ms not in self.products:
            self.products[ms] = poly_mul(None, self.product(ms[:-1]), self.gens[ms[-1]])
        return self.products[ms]

    def factors(self, d):
        """[(factor, weight)] of the grade, and the size of the multisets."""
        return [(None, self.zero)], d

    def image(self, source):
        return self.product(source[1])

    def shifts(self, d):
        """[(lower grade, weight added, source map)] into the grade."""
        return self._generator_shifts(d - 1) if d > 1 else []

    def modulo(self, grade, w):
        """Polynomials of the grade and weight to take the kernel modulo."""
        return []

    def factor_map(self, perms):
        """The factor that permuting rows and columns by perms turns a factor into."""
        return lambda f: f

    def _generator_shifts(self, lower):
        return [
            (lower, gw, lambda s, k=k: (s[0], tuple(sorted(s[1] + (k,)))))
            for k, gw in enumerate(self.weights)
        ]

    def _grade(self, grade):
        """(factors, multiset size, factor -> position, distinct factor weights), memoised."""
        if grade not in self._grades:
            factors, e = self.factors(grade)
            # the exponents of an image are at most its degree: the factor's,
            # which its row sums count, plus e generators'
            top = max(sum(fw[0]) for _, fw in factors) + e * self._gen_degree
            guard_degree(top, f"grade {grade}")
            pos = {f: i for i, (f, _) in enumerate(factors)}
            self._grades[grade] = factors, e, pos, list(dict.fromkeys(fw for _, fw in factors))
        return self._grades[grade]

    def multisets(self, e, w):
        """The multisets (sorted tuples) of e generators of weight w, in sorted order, memoised.

        At a dominant w each multiset is its largest entry k appended to one
        of size e - 1 and weight w - wt(g_k) whose entries are at most k.  At
        any other w they are those of the dominant weight of w's orbit,
        carried across by the generator map.
        """
        key = (e, w)
        if key not in self._multisets:
            if e == 0:
                out = [()] if w == self.zero else []
            elif _is_dominant(w):
                out = []
                for k, gw in enumerate(self.weights):
                    rest = _wsub(w, gw)
                    if rest is not None:
                        lower = self.multisets(e - 1, rest)
                        out += [ms + (k,) for ms in lower if not ms or ms[-1] <= k]
                out.sort()
            else:
                dom, perms = _from_dominant(w)
                gmap = self._table(perms)[0]
                out = sorted(tuple(sorted(gmap[k] for k in ms)) for ms in self.multisets(e, dom))
            self._multisets[key] = out
        return self._multisets[key]

    def bucket(self, grade, w):
        """The sources (f, ms) of weight w in the grade, memoised.

        They come by factor position, then in the order of
        combinations_with_replacement; elimination and the free-column
        numbering follow this order.  At a dominant w each factor is paired
        with the multisets of w - wt(f); any other w is carried across from
        the dominant weight of its orbit by the factor and generator maps.
        """
        key = (grade, w)
        if key not in self._buckets:
            factors, e, pos, fweights = self._grade(grade)
            if _is_dominant(w):
                rest = {fw: _wsub(w, fw) for fw in fweights}
                out = [
                    (f, ms)
                    for f, fw in factors
                    if rest[fw] is not None
                    for ms in self.multisets(e, rest[fw])
                ]
            else:
                dom, perms = _from_dominant(w)
                gmap, _, fmap = self._table(perms)
                out = sorted(
                    (
                        (fmap(f), tuple(sorted(gmap[k] for k in ms)))
                        for f, ms in self.bucket(grade, dom)
                    ),
                    key=lambda s: (pos[s[0]], s[1]),
                )
            self._buckets[key] = out
        return self._buckets[key]

    def _dominant_weights(self, grade):
        """The dominant weights of the grade's total, as partitions padded to m and n parts."""
        _, e, _, fweights = self._grade(grade)
        m, n = map(len, self.zero)
        rows, cols = self._gen_total
        totals = {(sum(fw[0]) + e * rows, sum(fw[1]) + e * cols) for fw in fweights}
        for row_total, col_total in totals:
            for lam in partitions_of(row_total):
                if len(lam) <= m:
                    for mu in partitions_of(col_total):
                        if len(mu) <= n:
                            yield lam + (0,) * (m - len(lam)), mu + (0,) * (n - len(mu))

    def kernel_block(self, grade, w):
        """Kernel vectors of the block of weight w in the grade, modulo `modulo`.

        Only a dominant block is eliminated; any other is transported from
        the dominant weight of its orbit.
        """
        key = (grade, w)
        if key not in self._kernels:
            dom, perms = _from_dominant(w)
            if dom == w:
                self._kernels[key] = self._eliminate(grade, w)
            else:
                vectors = self.kernel_block(grade, dom)
                self._kernels[key] = self._transport(grade, w, vectors, perms)
        return self._kernels[key]

    def _eliminate(self, grade, w):
        members = self.bucket(grade, w)
        vectors, free = [], []
        if members:
            # one row per monomial, one column per polynomial; the subspace
            # comes first, so a kernel vector whose free column lies in it is
            # zero on the sources, and the rest project to a basis with one
            # free source each
            polys = self.modulo(grade, w) + [self.image(s) for s in members]
            skip = len(polys) - len(members)
            rows = {}
            nnz = 0
            for i, f in enumerate(polys):
                nnz += len(f)
                for exp, c in f.items():
                    rows.setdefault(exp, {})[i] = c
            guard_nonzeros(nnz, f"kernel block {grade} at weight {w}")
            for vec in nullspace_mod(list(rows.values()), len(polys), self.p):
                first = next(iter(vec))  # the free column
                if first >= skip:
                    vectors.append({members[i - skip]: c for i, c in vec.items() if i >= skip})
                    free.append(members[first - skip])
        self._free[(grade, w)] = free
        return vectors

    def _table(self, perms):
        """(generator map, generator signs, factor map) of a permutation of rows and columns.

        Each generator goes to the one of the permuted weight, and its sign
        is found by permuting its variables: -1 for a 2x2 minor whose rows
        or columns swap, +1 for a permanent or a subspace coordinate.
        """
        if perms not in self._tables:
            moves = self.moves(perms)
            gmap, signs = [], []
            for g, gw in zip(self.gens, self.weights):
                k = self._by_weight[tuple(map(_permute, gw, perms))]
                moved = {pack(_permute(unpack(exp, self.nvars), moves)): c for exp, c in g.items()}
                gmap.append(k)
                signs.append(_sign_between(moved, self.gens[k]))
            self._tables[perms] = gmap, signs, self.factor_map(perms)
        return self._tables[perms]

    def _transport(self, grade, w, vectors, perms):
        """The kernel vectors of a dominant block, carried to its orbit's weight w by perms.

        A source (f, ms) goes to the permuted factor and the sorted permuted
        multiset, its coefficient times the signs of the generators; the
        keys are w's own source tuples.
        """
        if not vectors:
            return []
        gmap, signs, fmap = self._table(perms)
        own = {s: s for s in self.bucket(grade, w)}
        moved = {}  # source -> (its image at w, sign)
        q = self.p
        out = []
        for vec in vectors:
            new = {}
            for src, c in vec.items():
                if src not in moved:
                    f, ms = src
                    sign = 1
                    for k in ms:
                        sign *= signs[k]
                    moved[src] = own[(fmap(f), tuple(sorted(gmap[k] for k in ms)))], sign
                dst, sign = moved[src]
                new[dst] = c if sign > 0 else q - c
            out.append(new)
        return out

    def _min_gens_at(self, grade, w):
        """Kernel dimension at a dominant (grade, w) minus the rank of the shifted lower kernels.

        The shifted lower kernels lie in K_w, and a vector of K_w is fixed
        by its coordinates at K_w's free sources, so they are ranked on
        those columns alone, numbered in source order.  The order does not
        change the rank, but it changes the fill-in: with the rows taken
        sparsest first, the ranks of the 5x3 Rees grade (3, 3) at one prime
        took 10.3 s on a 2-core host, against 19.6 s with the columns
        numbered from the last free source.
        """
        kw = self.kernel_block(grade, w)
        if not kw:
            return 0
        col = {s: i for i, s in enumerate(self._free[(grade, w)])}
        shifted = []
        for lower, delta, shift in self.shifts(grade):
            w2 = _wsub(w, delta)
            if w2 is not None:
                shifted += _shifted_rows(self.kernel_block(lower, w2), shift, col)
        # the shifted rows lie in the kernel, so their rank stops at len(kw)
        return len(kw) - rank_mod(shifted, self.p, stop=len(kw))

    def count(self, grade, at):
        """Sum of at(grade, w) over all weights, from the dominant ones with sources."""
        dominant = self._dominant_weights(grade)
        return orbit_total({w: at(grade, w) for w in dominant if self.bucket(grade, w)})

    def min_gens(self, grade):
        """Minimal generator count in the grade."""
        return self.count(grade, self._min_gens_at)

    def kernel_dim(self, grade):
        """Kernel dimension in the grade."""
        return self.count(grade, lambda g, w: len(self.kernel_block(g, w)))

    def image_dim(self, grade):
        """Dimension of the image of the grade's sources (modulo `modulo`)."""
        at = lambda g, w: len(self.bucket(g, w)) - len(self.kernel_block(g, w))
        return self.count(grade, at)


class ReesEngine(GradedKernel):
    """The Rees instance: sources x^a T^ms of bidegree (a, e) = (|a|, |ms|).

    The two engine methods are bound on this class too, so that its calls
    can be told apart from other instances' (perfbench traces them here).
    """

    kernel_block = GradedKernel.kernel_block
    min_gens = GradedKernel.min_gens

    def __init__(self, ctx, variant="minors"):
        gens = generators_for(ctx, variant)
        weights = _weights_of(ctx, gens)
        super().__init__(gens, weights, ctx.num_vars, matrix_moves(ctx))
        self.ctx = ctx
        self.var_weights = [x_weight(ctx, 1 << 8 * v) for v in range(ctx.num_vars)]

    def factors(self, grade):
        a, e = grade
        monos = _monomials_of_degree(self.ctx.num_vars, a)
        return [(x, x_weight(self.ctx, x)) for x in monos], e

    def factor_map(self, perms):
        moves, nvars = self.moves(perms), self.nvars
        return cache(lambda x: pack(_permute(unpack(x, nvars), moves)))

    def image(self, source):
        x, ms = source
        return {exp + x: c for exp, c in self.product(ms).items()}

    def shifts(self, grade):
        a, e = grade
        out = self._generator_shifts((a, e - 1)) if e >= 1 else []
        if a >= 1:  # x_v * J(a-1, e)
            out += [
                ((a - 1, e), vw, lambda s, v=v: (s[0] + (1 << 8 * v), s[1]))
                for v, vw in enumerate(self.var_weights)
            ]
        return out


def rees_ideal(ctx, a_max=3, e_max=3, seed=0):
    """Minimal generators of the Rees ideal J by bidegree.

    Returns a sorted list of ((a, 2e), count) with count > 0, over the window
    a <= a_max, e <= e_max (e >= 1; the component (a, 0) is zero since the
    x-variables are algebraically independent).
    """
    engine = ReesEngine(ctx)

    def compute(q):
        engine.at(q)
        counts = [
            ((a, 2 * e), engine.min_gens((a, e)))
            for a in range(a_max + 1)
            for e in range(1, e_max + 1)
        ]
        return [(bideg, c) for bideg, c in counts if c]

    return two_primes(seed, compute)


def fiber_type_check(ctx, a_max=3, e_max=3, seed=0):
    """Decide fiber type on a bidegree window.

    Fiber type: every minimal generator of J lies in bidegree (0, 2d) (a fiber
    relation, i.e. a defining relation of the minor variety) or (d, 2) (a
    syzygy of the quadrics).  Returns (fiber, {(a, 2e): count}).
    """
    table = dict(rees_ideal(ctx, a_max, e_max, seed))
    return not any(a >= 1 and b >= 4 for a, b in table), table
