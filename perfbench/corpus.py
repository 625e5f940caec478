"""Seeded input corpus for the ``analyze-files`` workload.

Everything here is computed from closed forms with this module's own exact
arithmetic; it never imports ``crkit``, so a change to the program under
test cannot change its own inputs.  Each file comes with the reference
values (oracles) that the benchmark checks the program's output against;
the tables below record why each input is in the corpus.

The files:

* real forms su(p,q), sl(n,R), so(n) and a solvable R x| R^n family, each
  in its canonical sparse basis and in a seeded random unimodular basis
  (dense rows, structure constants of 10 to 13 bits);
* quadric orbit models: ambient sl(n,C), the realified su(p,q) rows and the
  stabilizer of a seeded isotropic line.

Apart from the timed corpus, ``build_zero_diagonal`` writes sl(n,R) in a
basis with a zero Killing diagonal, (e, f - e, h) and its rank-2 analogue,
the pattern of a known congruence-diagonalization defect.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# Unimodular rebases are grown until the largest structure constant has this
# many bits (numerator or denominator); the band keeps per-seed cost level.
REBASE_BITS = (10, 13)

# (file stem, family, parameter, why it is in the corpus) of every algebra input.
ALGEBRAS = (
    ("sl2_R", "sl", 2, "smallest simple split form; start-up dominated"),
    ("sl3_R", "sl", 3, "split simple, rank 2: Killing form with both signs"),
    ("su2_1", "su", (2, 1), "mixed-signature unitary form, the quadric family's group"),
    ("so4", "so", 4, "compact and not simple: negative definite Killing form"),
    ("so5", "so", 5, "compact simple of dimension 10"),
    ("sl4_R", "sl", 4, "split simple of dimension 15: dense rebase dominates the round"),
    ("su3_1", "su", (3, 1), "unitary form of dimension 15, the largest dense input"),
    ("solv4", "solv", 4, "solvable R x| R^4: the radical is everything, Killing rank 1"),
)
ZERO_DIAGONAL = (
    ("sl2_R_zd", 2, "(e, f-e, h): zero Killing diagonal, pivot sum zero"),
    ("sl3_R_zd", 3, "rank-2 analogue of (e, f-e, h) on every root pair"),
)
QUADRICS = (
    ((1, 1), "smallest quadric orbit model: fileio orbit path plus start-up"),
    ((2, 1), "su(2,1) hypersurface orbit: every analysis runs, codim 1"),
    ((2, 2), "su(2,2) orbit: largest orbit model in the corpus"),
)


# ---------------------------------------------------------------------------
# exact matrices over Z[i], entries as (re, im) integer pairs
# ---------------------------------------------------------------------------

def _mat(entries):
    return {k: v for k, v in entries.items() if v != (0, 0)}


def _mul(a, b):
    out = {}
    for (i, k), (ar, ai) in a.items():
        for (k2, j), (br, bi) in b.items():
            if k != k2:
                continue
            cr, ci = out.get((i, j), (0, 0))
            out[(i, j)] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
    return _mat(out)


def _commutator(a, b):
    ab, ba = _mul(a, b), _mul(b, a)
    keys = set(ab) | set(ba)
    return _mat({
        k: (ab.get(k, (0, 0))[0] - ba.get(k, (0, 0))[0],
            ab.get(k, (0, 0))[1] - ba.get(k, (0, 0))[1])
        for k in keys
    })


def _flatten(mat, n):
    """Real vector (re of every entry, then im of every entry)."""
    re = [mat.get((i, j), (0, 0))[0] for i in range(n) for j in range(n)]
    im = [mat.get((i, j), (0, 0))[1] for i in range(n) for j in range(n)]
    return re + im


def _e(i, j, value=(1, 0)):
    return {(i, j): value}


def _add(*mats):
    out = {}
    for m in mats:
        for k, (r, i) in m.items():
            cr, ci = out.get(k, (0, 0))
            out[k] = (cr + r, ci + i)
    return _mat(out)


# ---------------------------------------------------------------------------
# exact linear algebra over Q
# ---------------------------------------------------------------------------

def _rref(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _nullspace(rows, ncols):
    """Basis of {x : rows . x = 0}."""
    red, pivots = _rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, p in zip(red, pivots):
            x[p] = -row[f]
        out.append(x)
    return out


class _Coords:
    """Exact coordinates of vectors in the span of fixed basis vectors."""

    def __init__(self, basis):
        self.basis = basis
        d = len(basis)
        # solve x . B = w on d independent columns of B, then check all of w
        _, self.cols = _rref(basis)
        if len(self.cols) != d:
            raise ValueError("basis vectors are dependent")
        sq = [[v[c] for c in self.cols] for v in basis]
        self.inv = _inverse(sq)
        if all(x.denominator == 1 for row in self.inv for x in row):
            self.inv = [[int(x) for x in row] for row in self.inv]
            self.basis = [[int(x) for x in v] for v in basis]

    def __call__(self, w):
        wp = [w[c] for c in self.cols]
        d = len(self.basis)
        x = [sum(wp[a] * self.inv[a][k] for a in range(d) if wp[a]) for k in range(d)]
        back = [sum(x[k] * self.basis[k][c] for k in range(d) if x[k])
                for c in range(len(w))]
        if back != list(w):
            raise ValueError("vector is not in the span")
        return x


def _inverse(sq):
    d = len(sq)
    aug = [list(r) + [Fraction(int(i == k)) for k in range(d)] for i, r in enumerate(sq)]
    red, pivots = _rref(aug)
    if pivots[:d] != list(range(d)):
        raise ValueError("singular matrix")
    return [row[d:] for row in red]


# ---------------------------------------------------------------------------
# real forms as structure constants
# ---------------------------------------------------------------------------

def sl_basis(n):
    """E_ab (a != b) then H_a = E_aa - E_(a+1)(a+1)."""
    mats = [_e(a, b) for a in range(n) for b in range(n) if a != b]
    names = [f"E{a}{b}" for a in range(n) for b in range(n) if a != b]
    for a in range(n - 1):
        mats.append(_add(_e(a, a), _e(a + 1, a + 1, (-1, 0))))
        names.append(f"H{a}")
    return mats, names


def sl_zero_diagonal_basis(n):
    """(E_ab, E_ba - E_ab) per root pair a < b, then the H_a."""
    mats, names = [], []
    for a in range(n):
        for b in range(a + 1, n):
            mats.append(_e(a, b))
            mats.append(_add(_e(b, a), _e(a, b, (-1, 0))))
            names += [f"E{a}{b}", f"F{b}{a}m"]
    for a in range(n - 1):
        mats.append(_add(_e(a, a), _e(a + 1, a + 1, (-1, 0))))
        names.append(f"H{a}")
    return mats, names


def su_basis(p, q):
    """X = eta K with K anti-hermitian off the diagonal, i H_a on it."""
    n = p + q
    eta = [1] * p + [-1] * q
    mats, names = [], []
    for a in range(n - 1):
        mats.append(_add(_e(a, a, (0, 1)), _e(a + 1, a + 1, (0, -1))))
        names.append(f"iH{a}")
    for a in range(n):
        for b in range(a + 1, n):
            k_re = _add(_e(a, b), _e(b, a, (-1, 0)))
            k_im = _add(_e(a, b, (0, 1)), _e(b, a, (0, 1)))
            for tag, k in (("X", k_re), ("Y", k_im)):
                mats.append(_mat({(i, j): (eta[i] * v[0], eta[i] * v[1])
                                  for (i, j), v in k.items()}))
                names.append(f"{tag}{a}{b}")
    return mats, names


def so_basis(n):
    mats = [_add(_e(a, b), _e(b, a, (-1, 0))) for a in range(n) for b in range(a + 1, n)]
    names = [f"R{a}{b}" for a in range(n) for b in range(a + 1, n)]
    return mats, names


def constants_from_matrices(mats):
    """Dense structure constants c[i][j][k] of the real span of mats."""
    n = max(max(i, j) for m in mats for (i, j) in m) + 1
    coords = _Coords([_flatten(m, n) for m in mats])
    d = len(mats)
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            x = coords(_flatten(_commutator(mats[i], mats[j]), n))
            c[i][j] = x
            c[j][i] = [-v for v in x]
    return c


def real_form(family, arg):
    """(structure constants, basis names) of a real form in its canonical basis."""
    if family == "solv":
        return solvable_constants(arg), ["t"] + [f"x{k}" for k in range(1, arg + 1)]
    bases = {"sl": sl_basis, "so": so_basis, "su": lambda pq: su_basis(*pq)}
    mats, names = bases[family](arg)
    return constants_from_matrices(mats), names


def solvable_constants(n):
    """R x| R^n: [t, x_k] = k x_k for k = 1..n, all other brackets zero."""
    d = n + 1
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for k in range(1, d):
        c[0][k][k] = Fraction(k)
        c[k][0][k] = Fraction(-k)
    return c


# ---------------------------------------------------------------------------
# seeded unimodular rebase
# ---------------------------------------------------------------------------

def _elementary(c, i, j, s):
    """Change basis b_i <- b_i + s b_j in integer structure constants, in place."""
    c[i] = [[x + s * y for x, y in zip(ri, rj)] for ri, rj in zip(c[i], c[j])]
    for plane in c:
        plane[i] = [x + s * y for x, y in zip(plane[i], plane[j])]
    # old b_i = new b_i - s b_j: an output w_i b_i + w_j b_j gets w_j -= s w_i
    for plane in c:
        for row in plane:
            row[j] -= s * row[i]


def _bits_touched(c, i, j):
    """Largest bit length among the constants `_elementary(c, i, j, s)` changes."""
    return max(max(abs(x).bit_length() for row in c[i] for x in row),
               max(abs(x).bit_length() for plane in c for x in plane[i]),
               max(abs(row[j]).bit_length() for plane in c for row in plane))


def random_unimodular_rebase(c, rng):
    """Relabel, then apply elementary +-1 moves until the bits land in the band.

    Every constant stays below the band until a move lifts one of those it
    changes into it, so each move scans only those (O(d^2), not O(d^3)) and
    the move count a seed happens to need costs little.
    """
    d = len(c)
    if any(x.denominator != 1 for plane in c for row in plane for x in row):
        raise ValueError("rebase expects integral structure constants")
    lo, hi = REBASE_BITS
    while True:
        perm = list(range(d))
        rng.shuffle(perm)
        out = [[[int(c[perm[a]][perm[b]][perm[k]]) for k in range(d)] for b in range(d)]
               for a in range(d)]
        for _ in range(40 * d):
            i, j = rng.sample(range(d), 2)
            _elementary(out, i, j, rng.choice((1, -1)))
            if _bits_touched(out, i, j) >= lo:
                if max(abs(x).bit_length() for plane in out for row in plane for x in row) <= hi:
                    return [[[Fraction(x) for x in row] for row in plane] for plane in out]
                break


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------

def _fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def algebra_payload(c, names, field="Q"):
    d = len(c)
    brackets = []
    for i in range(d):
        for j in range(i + 1, d):
            terms = [[k, _fmt(v)] for k, v in enumerate(c[i][j]) if v]
            if terms:
                brackets.append([i, j, terms])
    return {"kind": "algebra", "dimension": d, "field": field,
            "basis": list(names), "brackets": brackets}


def quadric_orbit_payload(p, q, rng):
    """Orbit of su(p,q) on an isotropic line of C^(p+q), ambient sl(p+q, C)."""
    n = p + q
    amb_mats, amb_names = sl_basis(n)
    ambient = algebra_payload(constants_from_matrices(amb_mats), amb_names, "Q_i")
    coords = _Coords([_flatten(m, n) for m in amb_mats])
    real_basis = []
    for m in su_basis(p, q)[0]:
        # complex coordinates of m in the ambient basis: real part of m
        # and imaginary part of m are both real combinations of E_ab, H_a
        re = coords(_flatten(_mat({k: (v[0], 0) for k, v in m.items()}), n))
        im = coords(_flatten(_mat({k: (v[1], 0) for k, v in m.items()}), n))
        real_basis.append([_fmt(x) for x in re + im])
    a = rng.randrange(p)
    b = p + rng.randrange(q)
    v = [0] * n
    v[a] = v[b] = 1  # isotropic: eta_a + eta_b = 0
    # xi . v - lam v = 0, unknowns (xi coefficients, lam); real equations
    rows = []
    for r in range(n):
        row = []
        for m in amb_mats:
            row.append(Fraction(sum(val[0] * v[j] for (i, j), val in m.items() if i == r)))
        row.append(Fraction(-v[r]))
        rows.append(row)
    stab = _nullspace(rows, len(amb_mats) + 1)
    iso, _ = _rref([s[:-1] for s in stab])
    return {
        "kind": "orbit",
        "name": f"quadric({p},{q})",
        "ambient": ambient,
        "real_basis": real_basis,
        "isotropy_hat_basis": [[_fmt(x) for x in row] for row in iso],
    }


def killing_reference(family, arg):
    """(pos, neg, zero) of the Killing form, from closed forms."""
    if family == "sl":
        n = arg
        return [n * (n + 1) // 2 - 1, n * (n - 1) // 2, 0]
    if family == "su":
        p, q = arg
        return [2 * p * q, p * p + q * q - 1, 0]
    if family == "so":
        n = arg
        return [0, n * (n - 1) // 2, 0]
    if family == "solv":
        return [1, 0, arg]
    raise ValueError(family)


def _writer(outdir, items):
    os.makedirs(outdir, exist_ok=True)

    def write(stem, payload, oracle, pair=None):
        path = os.path.join(outdir, stem + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        items.append({"file": path, "oracle": oracle, "pair": pair})

    return write


def build_zero_diagonal(outdir):
    """Write the zero-Killing-diagonal probes; return their manifest.

    They are not in the timed corpus: the timed workloads must be ones on
    which no op fails, and these hit a known defect (ROADMAP item 1).
    ``selfcheck.py`` runs them and counts their failures.
    """
    items = []
    write = _writer(outdir, items)
    for stem, n, _why in ZERO_DIAGONAL:
        mats, names = sl_zero_diagonal_basis(n)
        oracle = {"kind": "algebra", "killing": killing_reference("sl", n), "radical": 0}
        write(stem, algebra_payload(constants_from_matrices(mats), names), oracle)
    return items


def build(seed, outdir):
    """Write the timed corpus for one seed; return its manifest (list of dicts)."""
    rng = random.Random(f"analyze-files/{seed}")
    items = []
    write = _writer(outdir, items)

    for stem, family, arg, _why in ALGEBRAS:
        c, names = real_form(family, arg)
        oracle = {"kind": "algebra",
                  "killing": killing_reference(family, arg),
                  "radical": len(c) if family == "solv" else 0}
        write(stem, algebra_payload(c, names), oracle)
        rebased = random_unimodular_rebase(c, rng)
        write(stem + "_rebased", algebra_payload(rebased, [f"u{k}" for k in range(len(c))]),
              oracle, pair=stem)

    for (p, q), _why in QUADRICS:
        if rng.random() < 0.5:
            p, q = q, p
        oracle = {"kind": "orbit", "p": p, "q": q,
                  "killing": killing_reference("su", (p, q)), "radical": 0}
        write(f"quadric_{p}_{q}", quadric_orbit_payload(p, q, rng), oracle)
    return items
