"""Reference implementations for the tests.

The dense solutions go through generic LAPACK paths (dense symmetric
eigensolvers), and the large pencils through shift-invert ARPACK, so
that the banded inertia code is checked against an independent
formulation, and `integrate_against` checks exact moments
against brute-force quadrature.  `cdf` reads a measure's distribution
function off its parts, for comparing measures.  The cell walks, the
general accumulator, the pair-route stamping, the merge rules of the
mesh and atom lists and the scale classes of the pair routes are the
one-call-per-item loops that the library code must reproduce;
`reference_template` builds a pair-route template level by level, each
table its own, and `scan_every_candidate` finds its shift without
skipping any candidate; `reference_level_inertia` is the level recursion
with one call per cell and one junction per chain port, whose records
the kernel must give bit for bit wherever it counts no run of equal
ports in closed form.  `exact_negatives` is that recursion in 50-digit
decimal, the exact reference for counts and eigenvalues of template
pencils, whose float recursions differ from each other only in rounding.
"""

import itertools
from decimal import Decimal, localcontext

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
    A given reference shift is resolved as the library does.  Without
    one, xi is the first of -1, -10, ..., -1e8 that makes C positive
    definite, and the library's resolve_shift only when none does: the
    shift it finds may sit next to an eigenvalue (-1e-6 next to the
    Neumann zero mode), where theta reaches 1e6 and xi + 1/theta loses
    digits.
    """
    a, b = dense(disc)
    shifts = [] if reference_shift is not None else [-(10.0**j) for j in range(9)]
    for xi in shifts:
        w, v = np.linalg.eigh(a - xi * b)
        if w.min() > 0.0:
            break
    else:
        xi = resolve_shift(disc, reference_shift)
        w, v = np.linalg.eigh(a - xi * b)
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

    (negatives, near-zeros, smallest |pivot| / scale) with the package's
    clamp rule: a pivot that is exactly zero counts as negative and
    continues as -clamp, a nonzero pivot below clamp = 5e-32 * scale
    (at least the smallest normal float) in magnitude continues as
    sign * clamp.
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
        return n, n, 0.0

    clamp = max(_CLAMP * scale, float(np.finfo(float).tiny))
    neg = 0
    near = 0
    min_rel = 1e308
    d_prev = 0.0
    for i in range(n):
        d = a_diag[i] - lam * b_diag[i]
        if i > 0:
            e = a_off[i - 1] - lam * b_off[i - 1]
            d -= (e / d_prev) * e
        if d <= 0.0:
            neg += 1
        mag = abs(d)
        if mag < near_tol * scale:
            near += 1
        if mag / scale < min_rel:
            min_rel = mag / scale
        if mag < clamp:
            d = clamp if d > 0.0 else -clamp
        d_prev = d
    return neg, near, min_rel


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
    """Depth-first reference for `jump_atoms`: sorted [position, jump] rows, as `.tolist()` gives them."""
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
    return [[pos, jump] for pos, jump in sorted(found.items())]


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
        if len(mu.atoms):
            cand.append(np.array([pos for pos, _ in mu.atoms.tolist()]))
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
    """Depth-first reference for the rows of `assembly._walk_runs`: (t_length, mass) leaves."""
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


def reference_template(p, factors, chain_level, quad, r_mass, bc, p_scale=1.0):
    """Level-by-level reference for the `_kernels.LevelTemplate` of
    `assembly._pair_pencil`: the chain from the depth-first rows down to
    chain_level, grouped port by port; below it each level's classes from
    `classes_loop` and a table of its own, new tuples, shared with no
    other level."""
    from fractalsturm._kernels import LevelTemplate

    rows = walk_segments(p, chain_level, lambda level, i: factors[level - 1][i])
    index, classes = classes_loop([t * m for t, m in rows if m != 0.0])
    slot = iter(index)
    ports = [(next(slot) if m != 0.0 else -1, 1.0 / t) for t, m in rows]
    chain = tuple((*port, len(list(run))) for port, run in itertools.groupby(ports))
    tables = []
    for tf in factors[chain_level:]:
        letters = [i for i in range(p.n) if tf[i] != 0.0]
        index, below = classes_loop(
            [scale * tf[i] * p.dprime[i] for scale in classes for i in letters if p.dprime[i] != 0.0]
        )
        slot = iter(index)
        tables.append(tuple(
            tuple((next(slot) if p.dprime[i] != 0.0 else -1, 1.0 / tf[i]) for i in letters)
            for _ in classes
        ))
        classes = below
    return LevelTemplate(
        s_unit=r_mass * p_scale,
        quad=tuple(float(x) for x in quad),
        leaves=tuple(classes),
        levels=tuple(reversed(tables)),
        chain=chain,
        left=None if bc.left is None else bc.left * r_mass,
        right=None if bc.right is None else bc.right * r_mass,
    )


def scan_every_candidate(template):
    """Reference for `assembly.positivity_scan` on a template pencil: the
    first shift of the default grid at which the kernel finds no negative
    pivot and a pivot ratio above 1e-13, every candidate swept, 0 included."""
    from fractalsturm import _kernels
    from fractalsturm.assembly import default_shift_grid

    for xi in default_shift_grid().tolist():
        ((neg, _, ratio),) = _kernels.level_pivots_many(template, np.array([xi]))
        if neg == 0 and ratio > 1e-13:
            return xi
    return None


def classes_loop(values):
    """Loop reference for `assembly._classes`: the values in sorted order,
    each opening a class when it lies more than 1e-12 relative above the
    smallest value of the current class."""
    index = [0] * len(values)
    classes = []
    for i in sorted(range(len(values)), key=values.__getitem__):
        if not classes or values[i] - classes[-1] > 1e-12 * abs(classes[-1]):
            classes.append(values[i])
        index[i] = len(classes) - 1
    return index, classes


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
    """Loop reference for the atom table `CompositeMeasure` keeps, as `.tolist()` gives it."""
    cleaned = []
    for pos, w in atoms:
        pos, w = float(pos), float(w)
        if pos < -1e-12 or pos > 1.0 + 1e-12:
            raise ValueError(f"atom at {pos} outside [0, 1]")
        cleaned.append((min(max(pos, 0.0), 1.0), w))
    cleaned.sort()
    return [[pos, w] for pos, w in cleaned]


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


# The level recursion of _kernels as it stood when counts first ran on the
# level template: one _cell call per class, one _ports list per cell, with
# the clamp rule of clamped_sweep.  The kernel's one-loop form must give
# each record bit for bit.
_CLAMP = 5e-32
_NEAR = 1e-12
_TINY = float(np.finfo(float).tiny)
_INF = float("inf")


def _carry(piv, clamp):
    """The value that carries a pivot on: piv, or sign * clamp when smaller (-clamp for 0)."""
    if -clamp < piv < clamp:
        return clamp if piv > 0.0 else -clamp
    return piv


def _ports(children, below):
    """The children of a cell (or the chain's ports) in the parent's units.

    Returns (negatives, near-zeros, smallest pivot ratio) summed over
    the children's templates, and each child's (c, rho_l, rho_r): its
    template's divided by its t, or c = 1 / t for a wire.
    """
    neg = near = 0
    low = _INF
    ports = []
    for index, inv_t in children:
        if index < 0:
            ports.append((inv_t, 0.0, 0.0))
            continue
        n, z, lo, c, l, r = below[index]
        neg += n
        near += z
        if lo < low:
            low = lo
        ports.append((c * inv_t, l * inv_t, r * inv_t))
    return neg, near, low, ports


def _cell(children, below):
    """Template of a cell from those of its children, joined left to right.

    Joining port 1 to port 2 eliminates their shared node: with the
    junction shunt sigma = rho_1r + rho_2l the pivot is d = c1 + c2 +
    sigma, and the joined port has c = c1 c2 / d, rho_l = rho_1l +
    c1 sigma / d and rho_r = rho_2r + c2 sigma / d.  The pivot ratio is
    |d| / (|c1| + |c2| + |sigma|), since a joined port's c can be
    negative.  A pivot below _NEAR of its terms is a near-zero, and one
    below _CLAMP of them (an exact zero: ratio 0) is clamped as _carry
    does.
    """
    neg, near, low, ports = _ports(children, below)
    c, l, r = ports[0]
    for c2, l2, r2 in ports[1:]:
        sigma = r + l2
        d = c + c2 + sigma
        size = abs(c) + abs(c2) + abs(sigma)
        ratio = abs(d) / size if size > 0.0 else 0.0
        if ratio < low:
            low = ratio
        if ratio < _NEAR:
            near += 1
            d = _carry(d, max(_CLAMP * size, _TINY))
        neg += d < 0.0
        c, l, r = c * c2 / d, l + c * sigma / d, r2 + c2 * sigma / d
    return neg, near, low, c, l, r


def _chain(template, cells):
    """The record of the top cell: its chain of ports swept left to right.

    The sweep runs in row-sum form, the sequential order in which counts
    stay monotone in lam (Demmel, Dhillon & Ren, ETNA 3, 1995).  At the
    node between the ports c_in and c_out the shunt is sigma = rho_r of
    c_in + rho_l of c_out, the row sum row = sigma + c_in row' / pivot'
    carries on from the node before, and the pivot is row + c_out, with
    the ratio and clamp of _cell.  A Robin end is a node between the end
    port and a port with c = 0 and the Robin coefficient as its rho; a
    Dirichlet end node is eliminated, and past it c_in row' / pivot' is
    c_in.  The chain's runs of equal ports are expanded back into ports.
    """
    children = [(index, inv_t) for index, inv_t, count in template.chain for _ in range(count)]
    neg, near, low, ports = _ports(children, cells)
    if template.left is not None:
        ports.insert(0, (0.0, 0.0, template.left))
    if template.right is not None:
        ports.append((0.0, template.right, 0.0))
    pivot = row = None
    for (c_in, _, r_in), (c_out, l_out, _) in zip(ports, ports[1:]):
        sigma = r_in + l_out
        through = c_in if pivot is None else c_in * row / pivot
        row = sigma + through
        pivot = row + c_out
        size = abs(sigma) + abs(through) + abs(c_out)
        ratio = abs(pivot) / size if size > 0.0 else 0.0
        if ratio < low:
            low = ratio
        if ratio < _NEAR:
            near += 1
            pivot = _carry(pivot, max(_CLAMP * size, _TINY))
        neg += pivot < 0.0
    return neg, near, min(low, 1e308)


def reference_level_inertia(template, lam):
    """The level_pivots_many record of a level template's pencil at lam."""
    s = lam * template.s_unit
    m00, m01, m11 = template.quad
    below = []
    for scale in template.leaves:
        x = s * scale
        below.append((0, 0, _INF, 1.0 + x * m01, -x * (m00 + m01), -x * (m11 + m01)))
    for table in template.levels:
        below = [_cell(children, below) for children in table]
    return _chain(template, below)


# The level recursion of a template pencil in 50-digit decimal arithmetic,
# one port at a time, taking the template's floats as exact: the reference
# that the float kernels' counts and eigenvalues are checked against where
# their rounding could decide a count.
_DIGITS = 50


def _exact_ports(children, below):
    neg = 0
    ports = []
    for index, inv_t in children:
        inv_t = Decimal(inv_t)
        if index < 0:
            ports.append((inv_t, Decimal(0), Decimal(0)))
            continue
        n, c, l, r = below[index]
        neg += n
        ports.append((c * inv_t, l * inv_t, r * inv_t))
    return neg, ports


def _exact_pivot(d, size):
    """A pivot carried on: one that is 0 to 45 digits of its terms (an exact
    zero that the divisions did not keep) as a negative far below them."""
    return d if abs(d) > size * Decimal(10) ** (5 - _DIGITS) else -(size or 1) * Decimal(10) ** (-2 * _DIGITS)


def exact_negatives(template, lam):
    """The negative pivots of a level template's pencil at lam, in 50-digit decimal.

    The per-port recursion of reference_level_inertia with its runs
    expanded, in decimal.Decimal at 50 digits; a zero pivot counts as
    negative, as in the kernels.
    """
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        s = Decimal(lam) * Decimal(template.s_unit)
        m00, m01, m11 = (Decimal(x) for x in template.quad)
        below = []
        for scale in template.leaves:
            x = s * Decimal(scale)
            below.append((0, 1 + x * m01, -x * (m00 + m01), -x * (m11 + m01)))
        for table in template.levels:
            cells = []
            for children in table:
                neg, ports = _exact_ports(children, below)
                c, l, r = ports[0]
                for c2, l2, r2 in ports[1:]:
                    sigma = r + l2
                    d = _exact_pivot(c + c2 + sigma, abs(c) + abs(c2) + abs(sigma))
                    neg += d < 0
                    c, l, r = c * c2 / d, l + c * sigma / d, r2 + c2 * sigma / d
                cells.append((neg, c, l, r))
            below = cells
        children = [(index, inv_t) for index, inv_t, count in template.chain for _ in range(count)]
        neg, ports = _exact_ports(children, below)
        zero = Decimal(0)
        if template.left is not None:
            ports.insert(0, (zero, zero, Decimal(template.left)))
        if template.right is not None:
            ports.append((zero, Decimal(template.right), zero))
        pivot = row = None
        for (c_in, _, r_in), (c_out, l_out, _) in zip(ports, ports[1:]):
            sigma = r_in + l_out
            through = c_in if pivot is None else c_in * row / pivot
            row = sigma + through
            pivot = _exact_pivot(row + c_out, abs(sigma) + abs(through) + abs(c_out))
            neg += pivot < 0
        return neg


def exact_eigenvalue(template, k, guess, rel=1e-11):
    """The k-th smallest eigenvalue (k from 1) of a template pencil whose
    A - lam B is positive semidefinite at lam = 0, to about 1e-16 relative.

    Bisects the decimal counts in a window of rel around a float guess,
    which must bracket it.
    """
    lo, hi = guess * (1.0 - rel), guess * (1.0 + rel)
    if not exact_negatives(template, lo) < k <= exact_negatives(template, hi):
        raise AssertionError(f"eigenvalue {k} not within {rel} of {guess}")
    while hi - lo > 1e-16 * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if exact_negatives(template, mid) < k:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
