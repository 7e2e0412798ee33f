"""Correctness checks on the reports a round writes.

Every reference value here is computed without mixlab: brute-force
permutation enumeration, binomial sums and sequence enumeration, 1-D
quadrature (numpy, or scipy.integrate.quad over closed-form densities), grid
integration of a posterior, closed forms. Where no independent value exists
the check tests a property the method must have. Each ``check_*`` returns a
list of failure messages; an empty list means the report passed.
"""

import functools
import itertools
import math

import numpy as np
from scipy import integrate, special, stats

# Tolerances. Quadrature rungs are converged to 1e-7 inside mixlab; Monte
# Carlo cells are compared in units of their own standard error.
DIST_TOL = 1e-9
EXACT_TOL = 1e-10
GAUSS_QUAD_TOL = 1e-6
GAMMA_QUAD_TOL = 1e-7
MC_SIGMAS = 4.0
MONOTONE_SIGMAS = 3.0
DENOM_TOL = 1e-12
WITNESS_TOL = 1e-10
CHAIN_SIGMAS = 4.0
CHAIN_BATCHES = 50
RESIDUAL_ZERO = 1e-10
RESIDUAL_GENERIC = 1e-3
RESIDUAL_REL = 0.05
GRAM_REL = 0.05
GRAM_ZERO = 1e-8


def _close(value, reference, tol, what):
    if not (math.isfinite(value) and abs(value - reference) <= tol):
        return [f"{what}: {value!r} vs reference {reference!r} (tol {tol:g})"]
    return []


def _sigma(config):
    return config["kernel"].get("params_fixed", {}).get("sigma", 1.0)


def _measure(doc):
    atoms = np.asarray(doc["atoms"], dtype=float).reshape(len(doc["weights"]), -1)
    return atoms, np.asarray(doc["weights"], dtype=float)


# ---------------------------------------------------------------- distances


@functools.lru_cache(maxsize=None)
def _perm_table(k):
    return np.array(list(itertools.permutations(range(k))))


def brute_matching(cost):
    """min over permutations of sum_i cost[perm[i], i]."""
    k = cost.shape[0]
    perms = _perm_table(k)
    return float(cost[perms, np.arange(k)].sum(axis=1).min())


def _atom_dists(A, B):
    return np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))


def w1_line(atoms1, w1, atoms2, w2):
    """W1 on the real line as the integral of |F - G|."""
    x = np.concatenate([atoms1, atoms2])
    order = np.argsort(x, kind="stable")
    mass = np.concatenate([w1, -w2])[order]
    xs = x[order]
    diff = np.cumsum(mass)[:-1]
    return float((np.abs(diff) * np.diff(xs)).sum())


def w_p_two_atoms(A, wa, B, wb, p):
    """Exact W_p for two-atom measures: the coupling has one free mass."""
    C = _atom_dists(A, B) ** p
    lo = max(0.0, wa[0] + wb[0] - 1.0)
    hi = min(wa[0], wb[0])
    best = math.inf
    for t in (lo, hi):
        plan = np.array([[t, wa[0] - t], [wb[0] - t, 1.0 - wa[0] - wb[0] + t]])
        best = min(best, float((plan * C).sum()))
    return max(best, 0.0) ** (1.0 / p)


def check_distance(config, envelope):
    A, wa = _measure(config["measures"][0])
    B, wb = _measure(config["measures"][1])
    D = _atom_dists(A, B)
    W = np.abs(wa[:, None] - wb[None, :])
    values = iter(envelope["values"])
    fails = []
    for metric in config["parameters"]["metrics"]:
        name = metric["name"]
        if name == "DN":
            ref = brute_matching(math.sqrt(metric["N"]) * D + W)
            fails += _close(next(values)["value"], ref, DIST_TOL * max(1.0, ref), "DN")
        elif name == "Dr":
            ref = brute_matching(D ** metric["r1"] + W ** metric["r2"])
            fails += _close(next(values)["value"], ref, DIST_TOL * max(1.0, ref), "Dr")
        elif name == "wasserstein":
            p = metric["p"]
            value = next(values)["value"]
            if A.shape[1] == 1 and p == 1.0:
                ref = w1_line(A[:, 0], wa, B[:, 0], wb)
                fails += _close(value, ref, 1e-8, "W1 on the line")
            else:
                # Jensen below, the independent coupling above.
                lower = float(np.linalg.norm(wa @ A - wb @ B))
                upper = float((wa[:, None] * wb[None, :] * D**p).sum()) ** (1.0 / p)
                if not lower - 1e-8 <= value <= upper + 1e-8:
                    fails.append(f"W{p:g} {value!r} outside [{lower!r}, {upper!r}]")
        else:
            fails += _close(next(values)["value"], brute_matching(D), DIST_TOL, "d_theta")
            fails += _close(next(values)["value"], brute_matching(W), DIST_TOL, "d_p")
    return fails


# ------------------------------------------------------- binary (Bernoulli)


def binomial_mixture_probs(thetas, weights, N):
    """P(count = s), s = 0..N, for a mixture of Binomial(N, theta)."""
    s = np.arange(N + 1)
    log_binom = np.array(
        [math.lgamma(N + 1) - math.lgamma(j + 1) - math.lgamma(N - j + 1) for j in s]
    )
    out = np.zeros(N + 1)
    for th, w in zip(thetas, weights):
        out += w * np.exp(log_binom + s * math.log(th) + (N - s) * math.log1p(-th))
    return out


def enumerated_probs(thetas, weights, N):
    """Probabilities of every sequence in {0,1}^N, by enumeration."""
    out = []
    for seq in itertools.product((0, 1), repeat=N):
        s = sum(seq)
        out.append(sum(w * th**s * (1 - th) ** (N - s) for th, w in zip(thetas, weights)))
    return np.array(out)


def discrete_divergence(p, q, which):
    if which == "tv":
        return 0.5 * float(np.abs(p - q).sum())
    return math.sqrt(max(0.5 * float(((np.sqrt(p) - np.sqrt(q)) ** 2).sum()), 0.0))


def bernoulli_divergence(m1, m2, N, which):
    (A, wa), (B, wb) = m1, m2
    return discrete_divergence(
        binomial_mixture_probs(A[:, 0], wa, N), binomial_mixture_probs(B[:, 0], wb, N), which
    )


# ------------------------------------------------------ continuous kernels


def gaussian_mean_divergence(m1, m2, sigma, N, which):
    """TV or Hellinger between N-product Gaussian location mixtures, through
    the sufficient sample mean: mixtures of N(theta_i, sigma^2 / N)."""
    (A, wa), (B, wb) = m1, m2
    s = sigma / math.sqrt(N)
    lo = min(A.min(), B.min()) - 12.0 * s
    hi = max(A.max(), B.max()) + 12.0 * s
    x = np.linspace(lo, hi, 400001)

    def mix(atoms, weights):
        z = (x[None, :] - atoms[:, 0][:, None]) / s
        return (weights[:, None] * np.exp(-0.5 * z * z)).sum(axis=0) / (s * math.sqrt(2 * math.pi))

    f, g = mix(A, wa), mix(B, wb)
    if which == "tv":
        return 0.5 * float(np.trapezoid(np.abs(f - g), x))
    return math.sqrt(max(0.5 * float(np.trapezoid((np.sqrt(f) - np.sqrt(g)) ** 2, x)), 0.0))


def _quad_divergence(pdf1, pdf2, points, upper, which):
    if which == "tv":
        fun = lambda x: 0.5 * abs(pdf1(x) - pdf2(x))  # noqa: E731
    else:
        fun = lambda x: 0.5 * (math.sqrt(pdf1(x)) - math.sqrt(pdf2(x))) ** 2  # noqa: E731
    edges = sorted(set(points)) + [upper]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            total += integrate.quad(fun, a, b, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
    total += integrate.quad(fun, upper, math.inf, epsabs=1e-13, limit=200)[0]
    return total if which == "tv" else math.sqrt(max(total, 0.0))


def gamma_pdf(shape, rate):
    """Gamma density in shape and rate, written out for scalar speed inside
    quad; the self-tests compare it with scipy.stats.gamma."""
    const = shape * math.log(rate) - math.lgamma(shape)

    def pdf(x):
        return math.exp(const + (shape - 1.0) * math.log(x) - rate * x) if x > 0 else 0.0

    return pdf


def expon_pdf(loc, scale):
    """Shifted exponential density; compared with scipy.stats.expon in the
    self-tests."""
    def pdf(x):
        return math.exp(-(x - loc) / scale) / scale if x > loc else 0.0

    return pdf


def _mixture_pdf(components, weights):
    def pdf(x):
        return sum(w * c(x) for c, w in zip(components, weights))

    return pdf


def gamma_divergence_n1(m1, m2, which):
    """N = 1 divergence of gamma (shape, rate) mixtures by scipy quad."""
    pdfs, upper = [], 0.0
    for atoms, weights in (m1, m2):
        pdfs.append(_mixture_pdf([gamma_pdf(a, b) for a, b in atoms], weights))
        upper = max(upper, max(stats.gamma(a, scale=1.0 / b).ppf(1 - 1e-13) for a, b in atoms))
    return _quad_divergence(pdfs[0], pdfs[1], [0.0], upper, which)


def locscale_divergence_n1(m1, m2, which):
    """N = 1 divergence of shifted-exponential (endpoint, scale) mixtures."""
    pdfs, points, upper = [], [], -math.inf
    for atoms, weights in (m1, m2):
        pdfs.append(_mixture_pdf([expon_pdf(xi, sig) for xi, sig in atoms], weights))
        points += [float(xi) for xi, _ in atoms]
        upper = max(upper, max(xi + 40.0 * sig for xi, sig in atoms))
    return _quad_divergence(pdfs[0], pdfs[1], points, upper, which)


def gamma_hellinger_pair(t1, t2):
    """Closed-form Hellinger distance between two gamma (shape, rate) laws
    from their Bhattacharyya coefficient."""
    (a1, b1), (a2, b2) = t1, t2
    am, bm = 0.5 * (a1 + a2), 0.5 * (b1 + b2)
    log_bc = (
        math.lgamma(am) - 0.5 * (math.lgamma(a1) + math.lgamma(a2))
        + 0.5 * (a1 * math.log(b1) + a2 * math.log(b2)) - am * math.log(bm)
    )
    return math.sqrt(max(-math.expm1(log_bc), 0.0))


def gaussian_hellinger_pair(t1, t2, sigma):
    d = float(t1[0] - t2[0])
    return math.sqrt(max(-math.expm1(-(d * d) / (8.0 * sigma * sigma)), 0.0))


def hellinger_bound(m1, m2, N, pair):
    """min over matchings of sqrt(N) * (largest pairwise Hellinger) +
    sqrt(half the weight discrepancy)."""
    (A, wa), (B, wb) = m1, m2
    k = len(wa)
    H = np.array([[pair(A[i], B[j]) for j in range(k)] for i in range(k)])
    best = math.inf
    for perm in itertools.permutations(range(k)):
        idx = list(perm)
        value = math.sqrt(N) * H[idx, range(k)].max() + math.sqrt(
            0.5 * np.abs(wa[idx] - wb).sum()
        )
        best = min(best, value)
    return best


def check_divergence(config, envelope):
    family = config["kernel"]["family"]
    N = int(config["parameters"]["N"])
    which = config["parameters"]["name"]
    m1, m2 = (_measure(doc) for doc in config["measures"])
    value, se, method = envelope["value"], envelope["stderr"], envelope["method"]
    fails = []
    if family == "bernoulli":
        fails += _close(value, bernoulli_divergence(m1, m2, N, which), EXACT_TOL, "binomial sum")
        if N <= 10:
            p = enumerated_probs(m1[0][:, 0], m1[1], N)
            q = enumerated_probs(m2[0][:, 0], m2[1], N)
            fails += _close(value, discrete_divergence(p, q, which), EXACT_TOL, "{0,1}^N enumeration")
    elif family == "gaussian_location":
        sigma = _sigma(config)
        ref = gaussian_mean_divergence(m1, m2, sigma, N, which)
        tol = GAUSS_QUAD_TOL if method != "monte-carlo" else MC_SIGMAS * se + 1e-9
        fails += _close(value, ref, tol, f"Gaussian {which} N={N} ({method})")
    elif family == "gamma" and N == 1:
        fails += _close(value, gamma_divergence_n1(m1, m2, which), GAMMA_QUAD_TOL, "gamma quad")
    if method == "monte-carlo" and not se > 0:
        fails.append("Monte Carlo cell reports no standard error")
    if method != "monte-carlo" and se != 0:
        fails.append("deterministic cell reports a standard error")
    return fails


def check_gamma_ladder(cells):
    """Cross-report checks on one pair of gamma mixtures at several N.

    ``cells`` maps (N, which) to (value, stderr, config). Checks
    H^2 <= TV <= H sqrt(2 - H^2), H under the closed-form product bound,
    and both divergences nondecreasing in N.
    """
    fails = []
    Ns = sorted({N for N, _ in cells})
    for N in Ns:
        if (N, "tv") not in cells or (N, "hellinger") not in cells:
            continue
        tv, se_tv, config = cells[(N, "tv")]
        h, se_h, _ = cells[(N, "hellinger")]
        slack = MC_SIGMAS * (se_tv + 2.0 * se_h) + 1e-9
        if not h * h - slack <= tv <= h * math.sqrt(max(2.0 - h * h, 0.0)) + slack:
            fails.append(f"N={N}: TV {tv!r} outside [H^2, H sqrt(2-H^2)] for H {h!r}")
        m1, m2 = (_measure(doc) for doc in config["measures"])
        bound = hellinger_bound(m1, m2, N, gamma_hellinger_pair)
        if not h <= bound + MC_SIGMAS * se_h:
            fails.append(f"N={N}: Hellinger {h!r} above the product bound {bound!r}")
    for which in ("tv", "hellinger"):
        series = [(N, *cells[(N, which)][:2]) for N in Ns if (N, which) in cells]
        for (n1, v1, s1), (n2, v2, s2) in zip(series, series[1:]):
            if v2 < v1 - MONOTONE_SIGMAS * math.hypot(s1, s2):
                fails.append(f"{which} decreases from N={n1} ({v1!r}) to N={n2} ({v2!r})")
    return fails


# ------------------------------------------------------------------ probes


def path_measure(G0, direction, ell):
    """The probe path: atom shifts over weights, normalized to unit
    matching cost, shrunk by 1 / ell."""
    atoms, weights = G0
    k, q = atoms.shape
    flat = np.asarray(direction, dtype=float)
    a = flat[: k * q].reshape(k, q) / weights[:, None]
    b = flat[k * q:]
    scale = float(np.linalg.norm(a, axis=1).sum() + np.abs(b).sum())
    return atoms + a / (scale * ell), weights + b / (scale * ell)


def _numerator_reference(family, config, m1, m2, N, which):
    """Independent divergence for a probe cell, or None if none applies."""
    if family == "gaussian_location":
        sigma = _sigma(config)
        return gaussian_mean_divergence(m1, m2, sigma, N, which)
    if family == "gamma" and N == 1:
        return gamma_divergence_n1(m1, m2, which)
    return None


def _numerator_fails(row, ref, label):
    if ref is None:
        return []
    tol = MC_SIGMAS * row["numerator_stderr"] + 1e-9 if row["method"] == "monte-carlo" else GAUSS_QUAD_TOL
    return _close(row["numerator"], ref, tol, label)


def check_probe(config, rows, envelope):
    params = config["parameters"]
    name = params["name"]
    family = config["kernel"]["family"]
    G0 = _measure(config["measures"][0])
    fails = []
    if not rows:
        return ["probe wrote no rows"]
    if name == "inverse_ratio":
        N = int(params["N"])
        for row in rows:
            ell = row["index"]
            fails += _close(row["denominator"], 1.0 / ell, DENOM_TOL, f"denominator at ell={ell:g}")
            ref = _numerator_reference(family, config, path_measure(G0, params["direction"], ell), G0, N, "tv")
            fails += _numerator_fails(row, ref, f"TV at ell={ell:g}")
    elif name == "impact_Dr":
        r = float(params["r"])
        for row in rows:
            ell = row["index"]
            G = path_measure(G0, params["direction"], ell)
            D = _atom_dists(G[0], G0[0])
            W = np.abs(G[1][:, None] - G0[1][None, :])
            if row["series"] == "over_Dr1":
                ref = brute_matching(D**r + W)
                fails += _close(row["denominator"], ref, DIST_TOL * max(ref, 1e-300) + 1e-15, "D_r1")
            elif len(G0[1]) == 2:
                ref = w_p_two_atoms(G[0], G[1], G0[0], G0[1], r) ** r
                fails += _close(row["denominator"], ref, 1e-8 * max(ref, 1e-12), "W_r^r")
            ref = _numerator_reference(family, config, G, G0, 1, "tv")
            fails += _numerator_fails(row, ref, f"TV at ell={ell:g}")
    elif name == "curvature_locscale":
        (xi1, s1), (_, s2) = G0[0][0], G0[0][1]
        psi = G0[1][0] / s1
        for row in rows:
            ell = row["index"]
            c = 1.0 / ((2.0 + 2.0 * psi) * ell)
            g_atoms, g_w = G0[0].copy(), G0[1].copy()
            g_atoms[0, 0] = xi1 - c
            g_w[0] += psi * c
            g_w[1] -= psi * c
            if row["series"] == "pair":
                h_atoms = G0[0].copy()
                h_atoms[1] = (xi1 - c, s2)
                other = (h_atoms, G0[1])
                fails += _close(row["denominator"], 1.0 / ell, DENOM_TOL, f"pair denominator ell={ell:g}")
            else:
                other = G0
                fails += _close(row["denominator"], c * (1.0 + 2.0 * psi), DENOM_TOL, "single denominator")
            ref = locscale_divergence_n1((g_atoms, g_w), other, "tv")
            fails += _close(row["numerator"], ref, GAMMA_QUAD_TOL, f"{row['series']} TV ell={ell:g}")
    elif name == "sqrtN_sharpness":
        sigma = _sigma(config)
        psi = float(params["psi_exponent"])
        for row in rows:
            n = int(row["series"].split("=")[1])
            atoms = G0[0].copy()
            atoms[0, 0] += row["index"]
            G = (atoms, G0[1])
            pair = lambda t1, t2: gaussian_hellinger_pair(t1, t2, sigma)  # noqa: E731
            ref = hellinger_bound(G, G0, n, pair)
            fails += _close(row["numerator"], ref, 1e-12 * max(1.0, ref), f"bound N={n}")
            D = _atom_dists(G[0], G0[0])
            W = np.abs(G[1][:, None] - G0[1][None, :])
            ref = brute_matching(math.sqrt(n**psi) * D + W)
            fails += _close(row["denominator"], ref, DIST_TOL * max(1.0, ref), f"D_N at N={n}")
    return fails


# ---------------------------------------------------- identify and witness


def _features(family, atoms, sigma=1.0, points=40001):
    """Dense grid, component densities (k, n) and parameter gradients
    (k, q, n) from closed forms."""
    if family == "gaussian_location":
        x = np.linspace(atoms.min() - 9 * sigma, atoms.max() + 9 * sigma, points)
    elif family == "gamma":
        x = np.linspace(1e-9, max(stats.gamma(al, scale=1 / be).ppf(1 - 1e-12) for al, be in atoms),
                        points)
    else:
        x = np.linspace(atoms[:, 0].min(), max(xi + 30 * s for xi, s in atoms), points)
    dens, grads = [], []
    for th in atoms:
        if family == "gaussian_location":
            f = stats.norm.pdf(x, th[0], sigma)
            grad = [f * (x - th[0]) / sigma**2]
        elif family == "gamma":
            al, be = th
            f = stats.gamma.pdf(x, al, scale=1 / be)
            grad = [f * (math.log(be) + np.log(x) - float(special.digamma(al))), f * (al / be - x)]
        else:
            xi, s = th
            f = np.where(x > xi, np.exp(-(x - xi) / s) / s, 0.0)
            grad = [f / s, f * ((x - xi) / s**2 - 1.0 / s)]
        dens.append(f)
        grads.append(grad)
    return x, np.array(dens), np.array(grads)


def first_order_residual(family, atoms, direction, sigma=1.0):
    """max |sum_i a_i . grad f_i + b_i f_i| over a dense grid, normalized as
    mixlab normalizes it (density scale times direction scale)."""
    k, q = atoms.shape
    flat = np.asarray(direction, dtype=float)
    a = flat[: k * q].reshape(k, q)
    b = flat[k * q:]
    _, dens, grads = _features(family, atoms, sigma)
    residual = (b[:, None] * dens).sum(axis=0) + np.einsum("kq,kqn->n", a, grads)
    scale = float((np.linalg.norm(a, axis=1) + np.abs(b)).sum())
    return float(np.abs(residual).max() / (dens.sum(axis=0).max() * scale))


def gram_min_eigenvalue(family, atoms, sigma=1.0):
    """Smallest eigenvalue of the unit-diagonal Gram matrix of the densities
    and their gradients, by trapezoid quadrature on a dense grid."""
    x, dens, grads = _features(family, atoms, sigma)
    phi = np.concatenate([np.concatenate([d[None], g]) for d, g in zip(dens, grads)])
    gram = np.trapezoid(phi[:, None, :] * phi[None, :, :], x, axis=2)
    scale = 1.0 / np.sqrt(np.diag(gram))
    return float(np.linalg.eigvalsh(gram * scale[:, None] * scale[None, :])[0])


def check_identify(config, envelope):
    family = config["kernel"]["family"]
    atoms, weights = _measure(config["measures"][0])
    k = len(weights)
    fails = []
    if family == "bernoulli":
        for entry in envelope["ranks"]:
            if entry["rank"] != min(entry["n"] + 1, 2 * k):
                fails.append(f"rank {entry['rank']} at n={entry['n']} (k={k})")
        if envelope["first_order_identifiable_length"] != 2 * k - 1:
            fails.append("first identifiable length is not 2k - 1")
        return fails
    sigma = _sigma(config)
    ref = first_order_residual(family, atoms, config["parameters"]["direction"], sigma)
    residual = envelope["direction_residual"]
    if ref < RESIDUAL_ZERO:
        if not residual < RESIDUAL_ZERO:
            fails.append(f"degenerate direction residual {residual!r}")
    elif not (residual > RESIDUAL_GENERIC and abs(residual - ref) <= RESIDUAL_REL * ref):
        fails.append(f"generic direction residual {residual!r} vs dense-grid {ref!r}")
    gram = envelope["gram_min_eigenvalue"]
    ref = gram_min_eigenvalue(family, atoms, sigma)
    if not abs(gram - ref) <= GRAM_REL * abs(ref) + GRAM_ZERO:
        fails.append(f"Gram eigenvalue {gram!r} vs dense-grid {ref!r}")
    return fails


def check_witness(config, envelope):
    atoms, weights = _measure(config["measures"][0])
    k = len(weights)
    fails = []
    for entry in envelope["witnesses"]:
        n = entry["n_matched"]
        if n != 2 * k - 2:
            fails.append(f"witness length {n} is not 2k - 2")
        W = _measure(entry["witness"])
        same = bernoulli_divergence((atoms, weights), W, n, "tv")
        nxt = bernoulli_divergence((atoms, weights), W, n + 1, "tv")
        if not same < WITNESS_TOL:
            fails.append(f"witness TV {same!r} at length {n}")
        if not nxt > 1e-12:
            fails.append(f"witness TV {nxt!r} at length {n + 1} is not positive")
        fails += _close(entry["tv_at_next_length"], nxt, WITNESS_TOL, "TV at next length")
        if n + 1 <= 10:
            p = enumerated_probs(atoms[:, 0], weights, n + 1)
            q = enumerated_probs(W[0][:, 0], W[1], n + 1)
            fails += _close(discrete_divergence(p, q, "tv"), nxt, WITNESS_TOL, "enumeration")
        if not entry["moment_mismatch"] < WITNESS_TOL:
            fails.append(f"moment mismatch {entry['moment_mismatch']!r}")
    return fails


def check_minimax(config, envelope):
    p = config["parameters"]
    gamma, beta0, a = p["gamma"], p["beta0"], p["a"]
    expected = [(m, N) for m in p["m"] for N in p["N"]]
    got = envelope["bounds"]
    if len(got) != len(expected):
        return [f"{len(got)} bounds for a {len(expected)}-cell grid"]
    fails = []
    for (m, N), entry in zip(expected, got):
        ref = (a / 4.0) * ((1.0 - a) / (gamma * math.sqrt(m * N))) ** (1.0 / beta0)
        fails += _close(entry["bound"], ref, 1e-12 * ref, f"bound m={m} N={N}")
    return fails


# ------------------------------------------------------------- contraction


def check_contraction(config, rows, envelope):
    params = config["parameters"]
    law = params["length_law"]
    expected = {(m, r) for m in params["m_grid"] for r in range(params.get("replicates", 1))}
    fails = []
    if {(int(row["m"]), int(row["replicate"])) for row in rows} != expected or len(rows) != len(expected):
        fails.append("rows do not cover the (m, replicate) grid once each")
    for row in rows:
        m, total, nbar = int(row["m"]), int(row["total_length"]), row["N_bar"]
        for metric in ("D_N", "d_theta", "d_p"):
            q = [row[f"{metric}_{key}"] for key in ("q50", "q90", "q95")]
            if not 0.0 <= q[0] <= q[1] <= q[2]:
                fails.append(f"{metric} quantiles out of order at m={m}: {q}")
        if law[0] == "constant":
            if not (total == law[1] * m and nbar == float(law[1])):
                fails.append(f"constant law: total {total}, N_bar {nbar} at m={m}")
        elif not (law[1] * m <= total <= law[2] * m and abs(nbar - total / m) <= 1e-12 * nbar):
            fails.append(f"uniform law: total {total}, N_bar {nbar} at m={m}")
        if not 0.0 < row["acceptance"] < 1.0:
            fails.append(f"acceptance {row['acceptance']!r} at m={m}")
    for name, fit in envelope["slopes"].items():
        if not (math.isfinite(fit["slope"]) and 0.0 <= fit["r_squared"] <= 1.0):
            fails.append(f"slope fit {name} malformed: {fit}")
    return fails


def bernoulli_posterior_means(sequences, box, grid=160):
    """Posterior means of (smaller atom, larger atom, smaller atom's weight)
    for a two-atom Bernoulli mixture with uniform priors on the atom box and
    the weight simplex, by midpoint-rule integration on a grid.

    A coarse pass finds the region holding the mass; a fine pass integrates
    over it. Only the ordered half theta1 < theta2 is integrated, which is
    the posterior of the canonically ordered draws.
    """
    lengths = np.array([len(s) for s in sequences])
    succ = np.array([int(round(sum(s))) for s in sequences])
    pairs, counts = np.unique(np.stack([lengths, succ], axis=1), axis=0, return_counts=True)
    n, s = pairs[:, 0].astype(float), pairs[:, 1].astype(float)

    def log_post(t1, t2, w):
        # broadcast t1 (a,1,1,1), t2 (1,b,1,1), w (1,1,c,1) against rows
        l1 = s * np.log(t1) + (n - s) * np.log1p(-t1)
        l2 = s * np.log(t2) + (n - s) * np.log1p(-t2)
        mix = np.logaddexp(np.log(w) + l1, np.log1p(-w) + l2)
        return (mix * counts).sum(axis=-1)

    def integrate_box(lo, hi, size):
        axes = [lo[d] + (np.arange(size) + 0.5) * (hi[d] - lo[d]) / size for d in range(3)]
        t1, t2, w = axes
        lp = np.empty((size, size, size))
        for i in range(size):
            lp[i] = log_post(t1[i], t2[:, None, None], w[None, :, None])
        lp = np.where(t1[:, None, None] < t2[None, :, None], lp, -np.inf)
        return axes, lp

    lo, hi = np.array([box[0], box[0], 0.0]), np.array([box[1], box[1], 1.0])
    axes, lp = integrate_box(lo, hi, 90)
    keep = lp > lp.max() - 40.0
    idx = np.argwhere(keep)
    step = (hi - lo) / 90
    new_lo = np.maximum(lo, lo + (idx.min(axis=0) - 1) * step)
    new_hi = np.minimum(hi, lo + (idx.max(axis=0) + 2) * step)
    (t1, t2, w), lp = integrate_box(new_lo, new_hi, grid)
    p = np.exp(lp - lp.max())
    z = p.sum()
    return (
        float((p * t1[:, None, None]).sum() / z),
        float((p * t2[None, :, None]).sum() / z),
        float((p * w[None, None, :]).sum() / z),
    )


def batch_means(values, batches=CHAIN_BATCHES):
    parts = np.array_split(np.asarray(values, dtype=float), batches)
    means = np.array([part.mean() for part in parts])
    return float(np.mean(values)), float(means.std(ddof=1) / math.sqrt(batches))


def check_chain(summary, sequences, box):
    """Chain posterior means against the grid posterior, in batch-means
    standard errors. ``summary`` holds the per-draw arrays."""
    ref = bernoulli_posterior_means(sequences, box)
    fails = []
    for name, values, target in zip(("theta_low", "theta_high", "w_low"), summary["draws"], ref):
        mean, se = batch_means(values)
        if not abs(mean - target) <= CHAIN_SIGMAS * se:
            fails.append(f"{name}: chain mean {mean!r} vs grid {target!r} (se {se:.3g})")
    if not 0.0 < summary["acceptance"] < 1.0:
        fails.append(f"acceptance {summary['acceptance']!r}")
    return fails
