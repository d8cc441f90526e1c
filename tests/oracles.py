"""Independent oracles used to cross-check the solver and the templates.

Two enumerators produce the complete solution set of a table/scenario pair
without the solver: candidates are generated exhaustively (one of them
dropping a partial candidate once a filled row or weak set fails) and
filtered by evaluating the defining constraints through decode-and-reencode,
never through the solver's compiled expressions.  :func:`gac_closure` computes
the propagation fixpoint the solver must reach, the same way.
:func:`keys_by_templates` finds the inadmissible keys of a template base by
building every key's template.
"""

import itertools

import numpy as np

from triplication import templates


def keys_by_templates(t0, t1, t2):
    """Each key of ``Z_m^*`` whose template repeats a pair, mapped to the
    first pair of the template that occurs again later in it.

    The base is aligned by ``templates._checked_base``; every key's template
    is then built here, pair by pair, and scanned.  The admissible keys are
    those missing from the map.
    """
    t0, t1, t2 = templates._checked_base(t0, t1, t2)
    m = t0.modulus
    repeats = {}
    for key in range(1, m):
        pairs = [(key, key)]
        for (x0, y0), (x1, y1), (x2, y2) in zip(t0.pairs, t1.pairs, t2.pairs):
            pairs.append((x0, y0))
            pairs.append(((key + x1) % m, (key + y1) % m))
            pairs.append(((key + x2) % m, (key + y2) % m))
        repeated = [pair for i, pair in enumerate(pairs) if pair in pairs[i + 1 :]]
        if repeated:
            repeats[key] = repeated[0]
    return repeats


def _structures(tt):
    """Recompute positions-by-color, weak index sets, and carries from
    scratch (kept deliberately separate from the library's cached walk)."""
    m = tt.m
    colors = {}
    for i, (u, v) in enumerate(tt.pairs):
        colors.setdefault(u, []).append(2 * i)
        colors.setdefault(v, []).append(2 * i + 1)
    by_sum = {}
    for i, (u, v) in enumerate(tt.pairs):
        by_sum.setdefault((u + v) % m, []).append(i)
    weak = {s: idx for s, idx in by_sum.items() if s == 0 or len(idx) > 1}
    return colors, weak


def _decode_maps(tt, sc):
    """Per variable: dict discriminator -> lift in Z_{3m}."""
    maps = []
    for u, v in tt.pairs:
        for residue in (u, v):
            lifts = [residue, residue + tt.m, residue + 2 * tt.m]
            maps.append({sc.f(x): x for x in lifts})
    return maps


def solutions_by_color_classes(tt, sc):
    """All solutions, enumerated through per-color injections.

    Any assignment satisfying the range, consistency, and color constraints
    assigns, for each color, an injection of that color's positions into the
    color's three candidate discriminators (avoiding 0 for color 0).  The
    oracle fills the colors in the order they first appear in the table,
    row by row, with each of those injections.  Once both positions of a
    pair are filled, its difference (and, in a weak set, its sum) is
    evaluated through the decoded lifts and compared with the pairs of its
    row (weak set) filled before it, so a partial assignment that breaks a
    row or weak-sum constraint is dropped there.  Returns a set of value
    tables ``((U_0, V_0), ..., (U_3q, V_3q))``.
    """
    colors, weak = _structures(tt)
    maps = _decode_maps(tt, sc)
    n3 = 3 * tt.m
    order = list(dict.fromkeys(c for pair in tt.pairs for c in pair))
    step = {pos: t for t, c in enumerate(order) for pos in colors[c]}

    def filled(i):
        return max(step[2 * i], step[2 * i + 1])

    # (op, nonzero, pairs): op's values on the pairs are pairwise distinct,
    # and nonzero if nonzero
    groups = [("diff", True, [0])]
    for d in range(1, tt.q + 1):
        groups.append(("diff", False, range(3 * d - 2, 3 * d + 1)))
    groups += [("sum", s == 0, idx) for s, idx in weak.items()]
    # checks[t]: (op, nonzero, pair, the pairs of its group filled before
    # it) for each pair filled at step t
    checks = [[] for _ in order]
    for op, nonzero, pairs in groups:
        pairs = sorted(pairs, key=filled)
        for k, i in enumerate(pairs):
            checks[filled(i)].append((op, nonzero, i, pairs[:k]))

    values = [0] * 2 * len(tt.pairs)

    def value(op, i):
        a, b = maps[2 * i][values[2 * i]], maps[2 * i + 1][values[2 * i + 1]]
        return sc.f((a - b if op == "diff" else a + b) % n3)

    def consistent(t):
        for op, nonzero, i, earlier in checks[t]:
            w = value(op, i)
            if (nonzero and w == 0) or any(value(op, j) == w for j in earlier):
                return False
        return True

    out = set()

    def fill(t):
        if t == len(order):
            out.add(tuple(zip(values[::2], values[1::2])))
            return
        c = order[t]
        allowed = [w for w in sc.variable_domain(c) if not (c == 0 and w == 0)]
        for vals in itertools.permutations(allowed, len(colors[c])):
            for pos, w in zip(colors[c], vals):
                values[pos] = w
            if consistent(t):
                fill(t + 1)

    fill(0)
    return out


def solutions_literal(tt, sc):
    """All solutions by filtering every one of the ``3^(2N)`` candidate
    assignments with vectorized masks.  Only feasible for tiny orders;
    validates :func:`solutions_by_color_classes` at order 5.
    """
    n = len(tt.pairs)
    nvars = 2 * n
    r = sc.r
    total = 3**nvars
    residues = [c for pair in tt.pairs for c in pair]
    domains = [sc.variable_domain(c) for c in residues]

    idx = np.arange(total, dtype=np.int64)
    vals = []
    for j in range(nvars):
        dom = np.array(domains[j], dtype=np.int16)
        vals.append(dom[(idx // 3**j) % 3])
    # lift each discriminator back to Z_{3m} so the constraints can be
    # evaluated definitionally
    lifts = []
    for j in range(nvars):
        look = np.full(r, -1, dtype=np.int32)
        for x in (residues[j], residues[j] + tt.m, residues[j] + 2 * tt.m):
            look[sc.f(x)] = x
        lifts.append(look[vals[j]])

    n3 = 3 * tt.m
    fmod = (lambda a: a % r) if sc.kind == "mod" else (lambda a: a // tt.m)

    def fdiff(i):
        return fmod((lifts[2 * i] - lifts[2 * i + 1]) % n3)

    def fsum(i):
        return fmod((lifts[2 * i] + lifts[2 * i + 1]) % n3)

    mask = fdiff(0) != 0
    for d in range(1, tt.q + 1):
        a, b, c = (fdiff(i) for i in range(3 * d - 2, 3 * d + 1))
        mask &= (a != b) & (a != c) & (b != c)
    colors, weak = _structures(tt)
    for s, idxs in weak.items():
        ws = [fsum(i) for i in idxs]
        for p in range(len(ws)):
            if s == 0:
                mask &= ws[p] != 0
            for q_ in range(p + 1, len(ws)):
                mask &= ws[p] != ws[q_]
    for c, positions in colors.items():
        vs = [vals[p] for p in positions]
        for p in range(len(vs)):
            if c == 0:
                mask &= vs[p] != 0
            for q_ in range(p + 1, len(vs)):
                mask &= vs[p] != vs[q_]

    hits = np.flatnonzero(mask)
    out = set()
    for h in hits:
        values = [int(vals[j][h]) for j in range(nvars)]
        out.add(tuple((values[2 * i], values[2 * i + 1]) for i in range(n)))
    return out


def _groups(tt, sc):
    """Every constraint group as ``(variables, nonzero, values)``: ``values``
    maps the lifts of those variables in ``Z_{3m}`` to the discriminators
    that must be pairwise distinct, and nonzero if ``nonzero``."""
    n3 = 3 * tt.m
    f = [sc.f(x) for x in range(n3)]
    colors, weak = _structures(tt)

    def diffs(x):
        return [f[(x[t] - x[t + 1]) % n3] for t in range(0, len(x), 2)]

    def sums(x):
        return [f[(x[t] + x[t + 1]) % n3] for t in range(0, len(x), 2)]

    def entries(x):
        return [f[w] for w in x]

    def pair_vars(idx):
        return tuple(j for i in idx for j in (2 * i, 2 * i + 1))

    groups = [(pair_vars([0]), True, diffs)]
    for d in range(1, tt.q + 1):
        groups.append((pair_vars(range(3 * d - 2, 3 * d + 1)), False, diffs))
    for s, idx in weak.items():
        groups.append((pair_vars(idx), s == 0, sums))
    for c, positions in colors.items():
        groups.append((tuple(positions), c == 0, entries))
    return groups


def gac_closure(tt, sc, domains):
    """The generalized-arc-consistent closure of ``domains`` by brute force.

    ``domains[j]`` is the set of lift indices ``k`` still allowed at
    variable ``j`` (position ``<i, l>`` is ``j = 2*i + l``), which stands
    for ``x_j = c_j + k*m``.  Each group is revised by walking every joint
    lift of its variables, at most ``3^6 = 729``, and keeping the lifts that
    take part in a tuple satisfying the group, until no domain changes.
    Returns the closed domains, or None if one of them empties.
    """
    residues = [c for pair in tt.pairs for c in pair]
    doms = [set(d) for d in domains]
    groups = _groups(tt, sc)
    changed = True
    while changed:
        changed = False
        for variables, nonzero, values in groups:
            kept = [set() for _ in variables]
            for ks in itertools.product(*(sorted(doms[j]) for j in variables)):
                ws = values([residues[j] + k * tt.m for j, k in zip(variables, ks)])
                if len(set(ws)) == len(ws) and not (nonzero and 0 in ws):
                    for s, k in zip(kept, ks):
                        s.add(k)
            for j, s in zip(variables, kept):
                if not s:
                    return None
                if s != doms[j]:
                    doms[j] = s
                    changed = True
    return doms
