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
sums, column sums), packed into one int (`polyring.pack_weight`) and
unpacked only to find its orbit's representative; a move shifts a weight's
fields and a monomial's variables within the key (`_move_shifts`).
Permuting rows and columns maps each source basis to itself up to sign,
over the integers, and so does the transpose at m = n where the instance
has it (sign +1 on each minor and permanent).  So each per-weight count is
constant on orbits, and only one representative weight of each is
eliminated (`_orbit`); a kernel elsewhere is carried across from it by a
move, with no elimination and no source basis there.  A grade's count is
the sum over its representatives, each weighted by the number of weights
it stands for (`_reps`).  An engine is built for one modulus q: its source
bases and generator products live over the integers, and its kernels and
ranks are taken mod q.  q is a prime or, in a task's run through
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
from math import factorial

from .modlinalg import nullspace_mod, rank_mod
from .partitions import partitions_of
from .polyring import WEIGHT_BITS, generators_for, guard_degree, poly_mul, unpack, x_weight
from .polyring import pack_weight, unpack_weight, weight_guards, weight_sub


def matrix_moves(ctx):
    """The `moves` of the matrix variables.

    x[i, j] goes to x[rows[i], cols[j]], or to x[rows[j], cols[i]] if transposed.
    """
    n = ctx.n

    def moves(move):
        rows, cols, transposed = move
        if transposed:
            return [rows[v % n] * n + cols[v // n] for v in range(ctx.num_vars)]
        return [rows[v // n] * n + cols[v % n] for v in range(ctx.num_vars)]

    return moves


def _weights_of(ctx, gens):
    """Packed torus weight of each generator; all its monomials share it."""
    return [x_weight(ctx, next(iter(g))) for g in gens]


def _has_transpose(moves, m):
    """Whether moves takes the transpose at m x m, rather than raising ValueError."""
    identity = tuple(range(m))
    try:
        moves((identity, identity, True))
    except ValueError:
        return False
    return True


def _by_mirror(lam, mu, transpose):
    """Whether (mu, lam) represents the sorted weight (lam, mu); the reverse rule was slower."""
    return transpose and mu > lam


def _positions(counts):
    """Each index of counts, as often as its count: a monomial's variables, a weight's fields."""
    return [i for i, c in enumerate(counts) for _ in range(c)]


def orbit_size(w):
    """Size of the S_m x S_n orbit of the weight w = (row sums, column sums)."""
    size = 1
    for part in w:
        size *= factorial(len(part))
        for mult in Counter(part).values():
            size //= factorial(mult)
    return size


def _padded_partitions(total, parts):
    """The partitions of total with at most parts parts, padded with zeros to parts parts."""
    return [lam + (0,) * (parts - len(lam)) for lam in partitions_of(total) if len(lam) <= parts]


def orbit_total(dims):
    """The sum over all weights of a count given at the dominant ones.

    dims maps dominant weights to the count there; each is weighted by the
    size of its S_m x S_n orbit.
    """
    return sum(orbit_size(w) * c for w, c in dims.items())


def _monomials(ctx, top):
    """The (key, weight) pairs of the monomials of each degree 0..top, one iterator per degree.

    Degree e + 1 extends each monomial of degree e by each variable from its
    last one on, so each degree comes in the order of
    combinations_with_replacement, with no sum per monomial.  The degrees
    below top are held as lists; top, the largest, is made as it is read.
    """
    guard_degree(top, "monomials")
    var = [(1 << 8 * v, x_weight(ctx, 1 << 8 * v)) for v in range(ctx.num_vars)]
    level = [(0, 0, 0)]  # (key, weight, last variable): the unit monomial
    for e in range(top + 1):
        if e:
            grown = (
                (key + vkey, w + vw, v)
                for key, w, last in level
                for v, (vkey, vw) in enumerate(var[last:], last)
            )
            level = list(grown) if e < top else grown
        yield ((key, w) for key, w, _ in level)


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
    polynomials in nvars variables, of distinct packed torus weights
    `weights`, each of shape = (m, n) row and column sums; moves(move)
    lists, for each variable, the variable that the move (rows, cols,
    transposed) takes it to, or raises ValueError if there is no transpose;
    the sign each generator takes is read off the generators themselves.
    The source bases (`bucket`, `multisets`) follow one rule at every
    weight, and the engine reads them only at the representative weights
    (`_orbit`).  Kernels and ranks are taken modulo q, a prime or a
    product of distinct primes (see the module docstring), kept as `p`, the
    name perfbench's tracer reads.
    """

    def __init__(self, gens, weights, shape, nvars, moves, q):
        self.gens, self.weights, self.shape, self.moves = gens, weights, shape, moves
        self.p = q
        self._guards = weight_guards(*shape)
        self._transpose = shape[0] == shape[1] and _has_transpose(moves, shape[0])
        # a move of rows and columns takes each generator to the one of the
        # moved weight, so the weights must tell them apart
        self._by_weight = {w: k for k, w in enumerate(weights)}
        if len(self._by_weight) != len(weights):
            raise ValueError("generator weights must be distinct")
        # for `_table`: each generator's terms as (variables, coefficient),
        # its negation, and the fields of its weight, each as `_positions`
        self._terms = [[(_positions(unpack(x, nvars)), c) for x, c in g.items()] for g in gens]
        self._negs = [{exp: -c for exp, c in g.items()} for g in gens]
        self._wfields = [_positions(sum(unpack_weight(w, *shape), ())) for w in weights]
        # `count` finds a grade's weights from its total, so every multiset
        # of a size must have the same one
        totals = {tuple(map(sum, unpack_weight(w, *shape))) for w in weights}
        if len(totals) != 1:
            raise ValueError("generators must share one total weight")
        (self._gen_total,) = totals
        self.nvars = nvars
        self._gen_degree = max((len(vs) for terms in self._terms for vs, _ in terms), default=0)
        self._orbits = {}  # weight -> (representative of its orbit, move to it)
        self._tables = {}  # move -> transport table
        self._grades = {}  # grade -> (factors, multiset size, distinct factor weights)
        self._multisets = {}  # (size, weight) -> [multiset]
        self._buckets = {}  # (grade, weight) -> [source]
        self._rep_tables = {}  # grade -> [(representative weight, orbit weight)]
        self._kernels = {}  # (grade, weight) -> kernel vectors {source: coeff}
        self.products = {(): {0: 1}}  # multiset -> product of its generators

    def product(self, ms):
        """Product of the generators indexed by the sorted tuple ms, memoised.

        poly_mul does not read its ring context, so none is passed.
        """
        if ms not in self.products:
            self.products[ms] = poly_mul(None, self.product(ms[:-1]), self.gens[ms[-1]])
        return self.products[ms]

    def factors(self, d):
        """[(factor, weight)] of the grade, and the size of the multisets."""
        return [(None, 0)], d  # the unit factor, at the zero weight

    def image(self, source):
        return self.product(source[1])

    def shifts(self, d):
        """[(lower grade, weight added, source map)] into the grade."""
        return self._generator_shifts(d - 1) if d > 1 else []

    def modulo(self, grade, w):
        """Polynomials of the grade and weight to take the kernel modulo."""
        return []

    def factor_map(self, move):
        """The factor that the move (rows, cols, transposed) turns a factor into."""
        return lambda f: f

    def _generator_shifts(self, lower):
        return [
            (lower, gw, lambda s, k=k: (s[0], tuple(sorted(s[1] + (k,)))))
            for k, gw in enumerate(self.weights)
        ]

    def _grade(self, grade):
        """(factors, multiset size, distinct factor weights), memoised."""
        if grade not in self._grades:
            factors, e = self.factors(grade)
            fweights = list(dict.fromkeys(fw for _, fw in factors))
            # the exponents of an image are at most its degree: the factor's,
            # which its row sums count, plus e generators'
            top = max(sum(unpack_weight(fw, *self.shape)[0]) for fw in fweights)
            guard_degree(top + e * self._gen_degree, f"grade {grade}")
            self._grades[grade] = factors, e, fweights
        return self._grades[grade]

    def _orbit(self, w):
        """The representative of w's orbit (sums sorted, then `_sorted_rep`), and the move to w."""
        if w not in self._orbits:
            parts = unpack_weight(w, *self.shape)
            rows, cols = (
                tuple(sorted(range(len(p)), key=p.__getitem__, reverse=True)) for p in parts
            )
            lam, mu = ([part[i] for i in perm] for part, perm in zip(parts, (rows, cols)))
            rep, transposed = self._sorted_rep(lam, mu)
            self._orbits[w] = rep, (rows, cols, transposed)
        return self._orbits[w]

    def _sorted_rep(self, lam, mu):
        """The representative of the sorted weight (lam, mu)'s orbit, and whether it is the mirror."""
        mirror = _by_mirror(lam, mu, self._transpose)
        return pack_weight((mu, lam) if mirror else (lam, mu)), mirror

    def multisets(self, e, w):
        """The multisets (sorted tuples) of e generators of weight w, in sorted order, memoised.

        At e = 1 it is the generator of weight w, if any (the weights are
        distinct).  Above, each is its largest entry k appended to a multiset
        of size e - 1 and weight w - wt(g_k) whose entries are at most k.
        """
        out = self._multisets.get((e, w))
        if out is None:
            if e == 0:
                out = [()] if w == 0 else []
            elif e == 1:
                k = self._by_weight.get(w)
                out = [] if k is None else [(k,)]
            else:
                out = []
                for k, gw in enumerate(self.weights):
                    rest = weight_sub(w, gw, self._guards)
                    if rest is not None:
                        lower = self.multisets(e - 1, rest)
                        out += [ms + (k,) for ms in lower if ms[-1] <= k]
                out.sort()
            self._multisets[(e, w)] = out
        return out

    def bucket(self, grade, w):
        """The sources (f, ms) of weight w in the grade, memoised.

        Each factor f, in factor order, is paired with the multisets of
        weight w - wt(f), so they come in the order of
        combinations_with_replacement; elimination and the free-column
        numbering follow this order.
        """
        key = (grade, w)
        if key not in self._buckets:
            factors, e, fweights = self._grade(grade)
            rest = {fw: weight_sub(w, fw, self._guards) for fw in fweights}
            self._buckets[key] = [
                (f, ms)
                for f, fw in factors
                if rest[fw] is not None
                for ms in self.multisets(e, rest[fw])
            ]
        return self._buckets[key]

    def kernel_block(self, grade, w):
        """Kernel vectors of the block of weight w in the grade, modulo `modulo`.

        Only a representative block is eliminated; any other is transported
        from the representative of its orbit.
        """
        key = (grade, w)
        if key not in self._kernels:
            rep, move = self._orbit(w)
            if rep == w:
                self._kernels[key] = self._eliminate(grade, w)
            else:
                vectors = self.kernel_block(grade, rep)
                self._kernels[key] = self._transport(vectors, move)
        return self._kernels[key]

    def _eliminate(self, grade, w):
        members = self.bucket(grade, w)
        vectors = []
        if members:
            # one row per monomial, one column per polynomial; the subspace
            # comes first, so a kernel vector whose free column lies in it is
            # zero on the sources, and the rest project to a basis with one
            # free source each, which stays the vector's first key
            polys = self.modulo(grade, w) + [self.image(s) for s in members]
            skip = len(polys) - len(members)
            rows = {}
            for i, f in enumerate(polys):
                for exp, c in f.items():
                    rows.setdefault(exp, {})[i] = c
            for vec in nullspace_mod(list(rows.values()), len(polys), self.p):
                if next(iter(vec)) >= skip:  # the free column is a source
                    vectors.append({members[i - skip]: c for i, c in vec.items() if i >= skip})
        return vectors

    def _move_shifts(self, move):
        """(variable shifts, weight-field shifts) of a move (rows, cols, transposed).

        A key moves to the sum of the shifts of its `_positions`: variable v
        goes to moves(move)[v]; row i goes to rows[i] and column j to
        cols[j], or if transposed row i to column cols[i] and column j to
        row rows[j].
        """
        rows, cols, transposed = move
        cols = [self.shape[0] + c for c in cols]
        to = [*cols, *rows] if transposed else [*rows, *cols]
        return [1 << 8 * t for t in self.moves(move)], [1 << WEIGHT_BITS * t for t in to]

    def _table(self, move):
        """(generator map, generator signs, factor map) of a move (rows, cols, transposed).

        Each generator goes to the one of its moved weight, and its sign is
        +1 or -1 as its moved terms equal that generator or its negation:
        -1 for a 2x2 minor whose rows or columns swap, +1 for a permanent, a
        subspace coordinate or a transposed minor.  Both are read off the
        shifts of the move and the terms and fields kept at __init__, so no
        key is unpacked here.
        """
        if move not in self._tables:
            vshift, fshift = (s.__getitem__ for s in self._move_shifts(move))
            by_weight, gens, negs = self._by_weight, self.gens, self._negs
            gmap, signs = [], []
            for terms, fields in zip(self._terms, self._wfields):
                k = by_weight[sum(map(fshift, fields))]
                moved = {sum(map(vshift, vs)): c for vs, c in terms}
                if moved == gens[k]:
                    sign = 1
                elif moved == negs[k]:
                    sign = -1
                else:
                    raise ValueError("a move must carry each generator to +- a generator")
                gmap.append(k)
                signs.append(sign)
            self._tables[move] = gmap, signs, self.factor_map(move)
        return self._tables[move]

    def _transport(self, vectors, move):
        """The kernel vectors of a representative block, carried across its orbit by move.

        A source (f, ms) goes to the moved factor and the sorted moved
        multiset, its coefficient times the signs of the generators.
        """
        if not vectors:
            return []
        gmap, signs, fmap = self._table(move)
        moved = {}  # source -> (its image, sign)
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
                    moved[src] = (fmap(f), tuple(sorted(gmap[k] for k in ms))), sign
                dst, sign = moved[src]
                new[dst] = c if sign > 0 else q - c
            out.append(new)
        return out

    def _min_gens_at(self, grade, w):
        """Kernel dimension at a representative (grade, w) minus the rank of the shifted kernels.

        The shifted lower kernels lie in K_w, and a vector of K_w is fixed
        by its coordinates at K_w's free sources, so they are ranked on
        those columns alone, numbered in source order (each kernel vector's
        first key is its free source).  The order does not change the rank,
        but it changes the fill-in: on the 5x3 Rees grade (3, 3) the reverse
        order took twice as long.
        """
        kw = self.kernel_block(grade, w)
        if not kw:
            return 0
        col = {next(iter(v)): i for i, v in enumerate(kw)}
        shifted = []
        for lower, delta, shift in self.shifts(grade):
            w2 = weight_sub(w, delta, self._guards)
            if w2 is not None:
                shifted += _shifted_rows(self.kernel_block(lower, w2), shift, col)
        # the shifted rows lie in the kernel, so their rank stops at len(kw)
        return len(kw) - rank_mod(shifted, self.p, stop=len(kw))

    def _reps(self, grade):
        """[(representative, orbit weight)] of the grade's representatives with sources, memoised.

        The dominant weights of the grade's total are the partitions padded
        to m and n parts; each stands for its S_m x S_n orbit, of the size of
        lam's orbit times mu's, and `_sorted_rep`, the rule `_orbit` applies
        after sorting, gives its representative.  A representative's weight
        is the number of weights it stands for.  They come in the order of
        their first dominant weight, so every elimination runs in that order.
        """
        if grade not in self._rep_tables:
            _, e, fweights = self._grade(grade)
            m, n = self.shape
            rows, cols = self._gen_total
            reps = {}
            for frows, fcols in {tuple(map(sum, unpack_weight(fw, m, n))) for fw in fweights}:
                mus = [(mu, orbit_size((mu,))) for mu in _padded_partitions(fcols + e * cols, n)]
                for lam in _padded_partitions(frows + e * rows, m):
                    size = orbit_size((lam,))
                    for mu, mu_size in mus:
                        w = self._sorted_rep(lam, mu)[0]
                        reps[w] = reps.get(w, 0) + size * mu_size
            self._rep_tables[grade] = [(w, k) for w, k in reps.items() if self.bucket(grade, w)]
        return self._rep_tables[grade]

    def count(self, grade, at):
        """Sum of at(grade, w) over all weights; at runs once per representative with sources."""
        return sum(k * at(grade, w) for w, k in self._reps(grade))

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

    def __init__(self, ctx, variant, q):
        gens = generators_for(ctx, variant)
        weights = _weights_of(ctx, gens)
        super().__init__(gens, weights, (ctx.m, ctx.n), ctx.num_vars, matrix_moves(ctx), q)
        self.ctx = ctx
        *_, var = _monomials(ctx, 1)
        self.var_weights = [w for _, w in var]

    def factors(self, grade):
        a, e = grade
        *_, top = _monomials(self.ctx, a)
        return list(top), e

    def factor_map(self, move):
        vshift, nvars = self._move_shifts(move)[0], self.nvars
        return cache(lambda x: sum(e * s for e, s in zip(unpack(x, nvars), vshift)))

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


def rees_ideal(ctx, a_max, e_max, q):
    """Minimal generators of the Rees ideal J by bidegree, modulo q.

    Returns a sorted list of ((a, 2e), count) with count > 0, over the window
    a <= a_max, e <= e_max (e >= 1; the component (a, 0) is zero since the
    x-variables are algebraically independent).
    """
    engine = ReesEngine(ctx, "minors", q)
    counts = [
        ((a, 2 * e), engine.min_gens((a, e)))
        for a in range(a_max + 1)
        for e in range(1, e_max + 1)
    ]
    return [(bideg, c) for bideg, c in counts if c]


def fiber_type_check(ctx, a_max, e_max, q):
    """Decide fiber type on a bidegree window.

    Fiber type: every minimal generator of J lies in bidegree (0, 2d) (a fiber
    relation, i.e. a defining relation of the minor variety) or (d, 2) (a
    syzygy of the quadrics).  Returns (fiber, {(a, 2e): count}).
    """
    table = dict(rees_ideal(ctx, a_max, e_max, q))
    return not any(a >= 1 and b >= 4 for a, b in table), table
