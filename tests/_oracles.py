"""Reference implementations for the tests.

The dense solutions go through generic LAPACK paths (dense symmetric
eigensolvers), and the large pencils through shift-invert ARPACK, so
that the banded inertia code is checked against an independent
formulation, and `integrate_against` checks exact moments
against brute-force quadrature.  `cdf` reads a measure's distribution
function off its parts, for comparing measures.  The cell walks, the
general accumulator, the pair-route stamping and the merge rules of the
mesh and atom lists are the one-call-per-item loops that the vectorised
library code must reproduce.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from fractalsturm.selfsim import evaluate, jump_atoms, support_cells
from fractalsturm.spectral import resolve_shift, zero_tolerance


def dense(disc):
    """The pencil's (A, B) as dense matrices."""
    n = disc.n_free
    a = np.diag(disc.a_diag).astype(float)
    b = np.diag(disc.b_diag).astype(float)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = a[idx + 1, idx] = disc.a_off
    b[idx, idx + 1] = b[idx + 1, idx] = disc.b_off
    return a, b


def pencil_eigenvalues(disc, reference_shift=None):
    """All finite eigenvalues of A x = mu B x, sorted.

    Uses the congruence C = A - xi B > 0: the pencil eigenvalues are
    xi + 1/theta over nonzero eigenvalues theta of C^{-1/2} B C^{-1/2}.
    """
    xi = resolve_shift(disc, reference_shift)
    a, b = dense(disc)
    c = a - xi * b
    w, v = np.linalg.eigh(c)
    if w.min() <= 0.0:
        raise AssertionError("reference shift did not make A - xi B positive definite")
    c_inv_half = (v / np.sqrt(w)) @ v.T
    m = c_inv_half @ b @ c_inv_half
    m = 0.5 * (m + m.T)
    theta = np.linalg.eigh(m)[0]
    cutoff = 1e-13 * max(1.0, np.abs(theta).max())
    return np.sort([xi + 1.0 / t for t in theta if abs(t) > cutoff])


def arpack_eigenvalues(disc, k):
    """The k lowest eigenvalues of the stored pencil, ascending.

    Shift-invert ARPACK (eigsh with sigma = -1) from a fixed start vector,
    as in the benchmark's oracle; it shares no code with the inertia sweep.
    """
    a = sp.diags([disc.a_off, disc.a_diag, disc.a_off], [-1, 0, 1], format="csc")
    b = sp.diags([disc.b_off, disc.b_diag, disc.b_off], [-1, 0, 1], format="csc")
    v0 = np.random.default_rng(0).standard_normal(disc.n_free)
    return np.sort(eigsh(a, k=k, M=b, sigma=-1.0, v0=v0, return_eigenvectors=False))


def dense_count(disc, lam, reference_shift=None):
    """(n_plus, n_minus) at lam with the library's own zero tolerance.

    N+ counts the eigenvalues in (-zt, max(lam (1 + 1e-9), zt)] and N-
    those in [min(lam (1 + 1e-9), -zt), -zt), the intervals `count` counts.
    """
    mus = pencil_eigenvalues(disc, reference_shift)
    zt = zero_tolerance(disc)
    lam = float(lam)
    end = lam + 1e-9 * lam
    if lam >= 0.0:
        return int(np.sum((mus > -zt) & (mus <= max(end, zt)))), 0
    return 0, int(np.sum((mus >= min(end, -zt)) & (mus < -zt)))


def cdf(mu, x, depth=48):
    """mu([0, x]) of a CompositeMeasure, atoms at x included; error bounded
    by the self-similar evaluation bound at the given depth."""
    x = float(x)
    total = sum(w for pos, w in mu.atoms if pos <= x + 1e-12)
    if mu.density is not None:
        total += mu.density.integral(0.0, x)
    if mu.selfsim is not None:
        # right limit of P, so a junction atom at x itself counts
        params, scale = mu.selfsim
        total += scale * (evaluate(params, x, depth, side="right")[0] - params.p0)
    return float(total)


def integrate_against(mu, g, depth=10):
    """Approximate int g dmu for a CompositeMeasure mu.

    Atoms are exact; the density part uses the midpoint rule on a
    refinement of its own breaks; the self-similar part uses cell
    midpoints at the given depth, with error at most
    sum |weight| * osc(g over the cell).
    """
    total = sum(w * g(p) for p, w in mu.atoms)
    if mu.density is not None:
        for lo, hi, v in zip(mu.density.breaks[:-1], mu.density.breaks[1:], mu.density.values):
            if v == 0.0:
                continue
            k = max(8, int(np.ceil((hi - lo) * 512)))
            xs = np.linspace(lo, hi, 2 * k + 1)[1::2]
            total += v * (hi - lo) / k * sum(g(x) for x in xs)
    if mu.selfsim is not None:
        params, scale = mu.selfsim
        mass = params.p1 - params.p0
        for pos, jump in jump_atoms(params, depth):
            total += scale * jump * g(pos)
        for left, width, weight, _ in support_cells(params, depth).tolist():
            total += scale * weight * mass * g(left + 0.5 * width)
    return float(total)


_CLAMP = 5e-32


def clamped_sweep(a_diag, a_off, b_diag, b_off, lam, near_tol):
    """Reference LDL^T sweep of A - lam B, one node at a time.

    (negatives, near-zeros, breakdowns, smallest |pivot| / scale) with the
    package's clamp rule: a pivot that is exactly zero is a breakdown and
    continues as +clamp, a nonzero pivot below clamp = 5e-32 * scale in
    magnitude continues as sign * clamp.
    """
    n = a_diag.shape[0]
    scale = 0.0
    for i in range(n):
        m = abs(a_diag[i] - lam * b_diag[i])
        if m > scale:
            scale = m
    for i in range(n - 1):
        e = abs(a_off[i] - lam * b_off[i])
        if e > scale:
            scale = e
    if scale == 0.0:
        return 0, n, 0, 0.0

    clamp = _CLAMP * scale
    neg = 0
    near = 0
    breakdown = 0
    min_rel = 1e308
    d_prev = 0.0
    for i in range(n):
        d = a_diag[i] - lam * b_diag[i]
        if i > 0:
            e = a_off[i - 1] - lam * b_off[i - 1]
            d -= (e / d_prev) * e
        if d < 0.0:
            neg += 1
        mag = abs(d)
        if mag < near_tol * scale:
            near += 1
        if mag / scale < min_rel:
            min_rel = mag / scale
        if d == 0.0:
            breakdown += 1
            d = clamp
        elif mag < clamp:
            d = clamp if d > 0.0 else -clamp
        d_prev = d
    return neg, near, breakdown, min_rel


def walk_support_cells(params, depth):
    """Depth-first reference for `support_cells`: rows (left, width, weight, offset)."""
    alpha = params.alpha
    out = []

    def walk(level, left, width, weight, offset):
        if level == depth:
            out.append((left, width, weight, offset))
            return
        for i in range(params.n):
            w = weight * params.dprime[i]
            if w == 0.0:
                continue
            walk(level + 1, left + width * alpha[i], width * params.a[i], w,
                 offset + weight * params.betaprime[i])

    walk(0, 0.0, 1.0, 1.0, 0.0)
    return np.array(out).reshape(-1, 4)


def visit_jump_atoms(params, depth):
    """Depth-first reference for `jump_atoms`: sorted (position, jump) pairs."""
    alpha = params.alpha
    found = {}

    def visit(level, left, width, weight):
        for i in range(params.n - 1):
            pos = left + width * alpha[i + 1]
            jump = weight * (
                (params.betaprime[i + 1] + params.dprime[i + 1] * params.p0)
                - (params.betaprime[i] + params.dprime[i] * params.p1)
            )
            if jump != 0.0:
                found[pos] = found.get(pos, 0.0) + jump
        if level == depth:
            return
        for i in range(params.n):
            w = weight * params.dprime[i]
            if w != 0.0:
                visit(level + 1, left + width * alpha[i], width * params.a[i], w)

    visit(1, 0.0, 1.0, 1.0)
    return sorted(found.items())


def reference_mesh_nodes(p, q, depth):
    """Mesh of `assembly.assemble` built from the depth-first walks."""
    from fractalsturm.assembly import _dedupe

    cand = [np.array([0.0, 1.0])]
    has_selfsim = has_density = False
    for mu in (p, q):
        if mu.selfsim is not None:
            has_selfsim = True
            params = mu.selfsim[0]
            cells = walk_support_cells(params, depth)
            cand.append(np.concatenate((cells[:, 0], cells[:, 0] + cells[:, 1])))
            branching = sum(1 for dp in params.dprime if dp != 0.0)
            if branching <= 1:
                jump_depth = min(depth, 48)
            else:
                jump_depth = min(depth, int(np.log(4096.0) / np.log(branching)))
            jumps = visit_jump_atoms(params, max(1, jump_depth))
            if len(jumps) > 4096:
                jumps.sort(key=lambda pw: -abs(pw[1]))
                jumps = jumps[:4096]
            if jumps:
                cand.append(np.array([pos for pos, _ in jumps]))
        if mu.atoms:
            cand.append(np.array([pos for pos, _ in mu.atoms]))
        if mu.density is not None and np.any(mu.density.values):
            has_density = True
            cand.append(mu.density.breaks)
    if has_density or not has_selfsim:
        m = min(depth, 10) if has_selfsim else depth
        cand.append(np.linspace(0.0, 1.0, 2**m + 1))
    return _dedupe(np.concatenate(cand))


class RecursiveAccumulator:
    """Depth-first reference for the general assembly accumulator.

    One call per atom and one recursive call per cell, in left-to-right
    depth-first order.
    """

    def __init__(self, nodes):
        self.nodes = nodes
        self.diag = np.zeros(nodes.size)
        self.off = np.zeros(nodes.size - 1)

    def add_atom(self, pos, weight):
        j = int(np.searchsorted(self.nodes, pos))
        for cand in (j - 1, j):
            if 0 <= cand < self.nodes.size and abs(self.nodes[cand] - pos) <= 1e-12:
                self.diag[cand] += weight
                return
        j = int(np.clip(j - 1, 0, self.nodes.size - 2))
        al = (self.nodes[j + 1] - pos) / (self.nodes[j + 1] - self.nodes[j])
        self.diag[j] += weight * al * al
        self.diag[j + 1] += weight * (1.0 - al) * (1.0 - al)
        self.off[j] += weight * al * (1.0 - al)

    def add_density(self, density):
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        vals = density(mids)
        h = np.diff(self.nodes)
        self.diag[:-1] += vals * h / 3.0
        self.diag[1:] += vals * h / 3.0
        self.off += vals * h / 6.0

    def add_selfsim(self, params, scale, depth, extra=30):
        from fractalsturm.selfsim import junction_gaps, moments

        mu = moments(params, 2)
        nodes = self.nodes
        gaps = junction_gaps(params)

        def place(left, width, weight, level):
            j = int(np.clip(np.searchsorted(nodes, left, side="right") - 1, 0, nodes.size - 2))
            if left >= nodes[j] - 1e-12 and left + width <= nodes[j + 1] + 1e-12:
                xl, xr = nodes[j], nodes[j + 1]
                h = xr - xl
                al = (xr - left) / h
                bl = -width / h
                ar = (left - xl) / h
                br = width / h
                w = scale * weight
                self.diag[j] += w * (al * al * mu[0] + 2 * al * bl * mu[1] + bl * bl * mu[2])
                self.diag[j + 1] += w * (ar * ar * mu[0] + 2 * ar * br * mu[1] + br * br * mu[2])
                self.off[j] += w * (al * ar * mu[0] + (al * br + ar * bl) * mu[1] + bl * br * mu[2])
                return
            if level < depth + extra:
                for i in range(params.n):
                    if i > 0 and gaps[i - 1] != 0.0:
                        self.add_atom(left + width * params.alpha[i], scale * weight * gaps[i - 1])
                    wi = weight * params.dprime[i]
                    if wi != 0.0:
                        place(left + width * params.alpha[i], width * params.a[i], wi, level + 1)
                return
            mid = left + 0.5 * width
            al = (nodes[j + 1] - mid) / (nodes[j + 1] - nodes[j])
            w = scale * weight * mu[0]
            self.diag[j] += w * al * al
            self.diag[j + 1] += w * (1 - al) * (1 - al)
            self.off[j] += w * al * (1 - al)

        place(0.0, 1.0, 1.0, 0)

    def add_measure(self, mu, depth):
        for pos, w in mu.atoms:
            self.add_atom(pos, w)
        if mu.density is not None and np.any(mu.density.values):
            self.add_density(mu.density)
        if mu.selfsim is not None:
            self.add_selfsim(mu.selfsim[0], mu.selfsim[1], depth)


def reference_assemble(r_mass, q, p, bc, depth):
    """`assembly.assemble` on composite q and p through the depth-first reference."""
    from fractalsturm.assembly import _finalize

    nodes = reference_mesh_nodes(p, q, depth)
    stiff = 1.0 / (r_mass * np.diff(nodes))
    a_diag = np.zeros(nodes.size)
    a_diag[:-1] += stiff
    a_diag[1:] += stiff
    qa = RecursiveAccumulator(nodes)
    qa.add_measure(q, depth)
    pa = RecursiveAccumulator(nodes)
    pa.add_measure(p, depth)
    return _finalize(nodes, a_diag + qa.diag, -stiff + qa.off, pa.diag, pa.off, bc)


def walk_segments(p, depth, t_factor):
    """Depth-first reference for `assembly._walk_segments`: (t_length, mass) leaves."""
    from fractalsturm.errors import UnsupportedConfigurationError

    segments = []

    def walk(level, tprod, mass):
        if level > depth:
            segments.append((tprod, mass))
            return
        for i in range(p.n):
            tf = t_factor(level, i)
            m2 = mass * p.dprime[i]
            if tf == 0.0:
                if m2 != 0.0:
                    raise UnsupportedConfigurationError(f"cell letter {i}: dP mass sits on a plateau of R")
                continue
            tp2 = tprod * tf
            if m2 == 0.0:
                segments.append((tp2, 0.0))
            else:
                walk(level + 1, tp2, m2)

    walk(1, 1.0, 1.0)
    return segments


def reference_from_segments(segments, quad, r_mass, bc, mass_scale=1.0):
    """Pair-route pencil stamped one segment at a time."""
    from fractalsturm.assembly import _finalize

    merged = []
    for ln, mass in segments:
        if mass == 0.0 and merged and merged[-1][1] == 0.0:
            merged[-1][0] += ln
        else:
            merged.append([ln, mass])
    k = len(merged)
    nodes = np.empty(k + 1)
    nodes[0] = 0.0
    np.cumsum([ln for ln, _ in merged], out=nodes[1:])
    nodes[-1] = 1.0
    a_diag, a_off = np.zeros(k + 1), np.zeros(k)
    b_diag, b_off = np.zeros(k + 1), np.zeros(k)
    for j, (ln, mass) in enumerate(merged):
        s = 1.0 / (r_mass * ln)
        a_diag[j] += s
        a_diag[j + 1] += s
        a_off[j] -= s
        if mass != 0.0:
            w = mass_scale * mass
            b_diag[j] += w * quad[0]
            b_diag[j + 1] += w * quad[2]
            b_off[j] += w * quad[1]
    return _finalize(nodes, a_diag, a_off, b_diag, b_off, bc)


def dedupe_loop(xs, tol=1e-13):
    """Loop reference for `assembly._dedupe`: a node starts a cluster when it
    lies more than tol above the first node of the current cluster."""
    xs = np.sort(xs)
    keep = [xs[0]]
    for x in xs[1:]:
        if x - keep[-1] > tol:
            keep.append(x)
    keep[0] = 0.0
    keep[-1] = 1.0
    return np.asarray(keep)


def clean_atoms_loop(atoms):
    """Loop reference for the atom list `CompositeMeasure` keeps."""
    cleaned = []
    for pos, w in atoms:
        pos, w = float(pos), float(w)
        if pos < -1e-12 or pos > 1.0 + 1e-12:
            raise ValueError(f"atom at {pos} outside [0, 1]")
        cleaned.append((min(max(pos, 0.0), 1.0), w))
    cleaned.sort()
    return tuple(cleaned)


def merge_atoms_loop(atoms):
    """Loop reference for the atom merge of `reduction.transform_measure`."""
    atoms = sorted(atoms)
    merged = []
    for pos, w in atoms:
        if merged and pos - merged[-1][0] <= 1e-12:
            merged[-1][1] += w
        else:
            merged.append([pos, w])
    return clean_atoms_loop((p, w) for p, w in merged if w != 0.0)
