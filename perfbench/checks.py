"""Output checks for the benchmark. Each returns a list of failure messages.

(a) rows: one CSV row per configured point, with the requested number of
    realizations and a finite, positive mean SE.
(b) capacity bound: in a static channel every estimated row's mean SE is
    at most the perfect row's at the same environment point.
(c) the paper's result: at K >= 20 dB, ooba_mrc beats conventional at the
    same K_P.
(d) independent oracle: sampled evaluate_link cells recomputed from the
    link design with this module's own SVD and water-filling, plus the
    design's semi-unitarity and power budget.
(e) determinism: CSVs that must match do, byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

ENV_COLUMNS = ("k_factor_db", "velocity_kmh", "snr_db")
OOBA_MIN_K_DB = 20.0


def parse_csv(text: str) -> list[dict]:
    header, *lines = text.strip("\n").split("\n")
    names = header.split(",")
    return [dict(zip(names, line.split(","))) for line in lines]


def env_key(row: dict) -> tuple[str, ...]:
    return tuple(row[c] for c in ENV_COLUMNS)


def check_rows(rows: list[dict], n_points: int, n_realizations: int) -> list[str]:
    """(a) One row per configured point, each complete and finite."""
    out = []
    if len(rows) != n_points:
        out.append(f"(a) {len(rows)} CSV rows for {n_points} configured points")
    keys = [env_key(r) + (r["pilot_k_p"], r["method"]) for r in rows]
    if len(set(keys)) != len(keys):
        out.append("(a) duplicate sweep points in the CSV")
    for r in rows:
        se = float(r["se_mean"])
        if int(r["n_realizations"]) != n_realizations:
            out.append(f"(a) {r} has n_realizations != {n_realizations}")
        if not (math.isfinite(se) and se > 0):
            out.append(f"(a) {r} has se_mean that is not finite and > 0")
    return out


def check_capacity_bound(rows: list[dict]) -> list[str]:
    """(b) Estimated <= perfect at every static environment point.

    With a static channel the perfect design is water-filling capacity on
    the one channel every method sees, and a frozen linear design with an
    added error term cannot exceed it. With a moving channel the perfect
    row is itself a design frozen at the first data symbol, which is no
    bound; those cells are held to per-symbol capacity by (d) instead.
    """
    out = []
    perfect = {env_key(r): float(r["se_mean"]) for r in rows if r["method"] == "perfect"}
    for r in rows:
        key = env_key(r)
        if r["method"] == "perfect" or key not in perfect:
            continue
        if float(r["velocity_kmh"]) == 0.0 and float(r["se_mean"]) > perfect[key]:
            out.append(f"(b) {r} exceeds the perfect row's se_mean {perfect[key]}")
    return out


def check_ooba_beats_conventional(rows: list[dict]) -> list[str]:
    """(c) ooba_mrc > conventional at the same point and K_P when K >= 20 dB."""
    out = []
    se = {
        env_key(r) + (r["pilot_k_p"], r["method"]): float(r["se_mean"]) for r in rows
    }
    for key, ooba in se.items():
        *point, method = key
        if method != "ooba_mrc" or float(point[0]) < OOBA_MIN_K_DB:
            continue
        conv = se.get(tuple(point) + ("conventional",))
        if conv is not None and not ooba > conv:
            out.append(f"(c) at {point} ooba_mrc {ooba} does not beat conventional {conv}")
    return out


def check_identical(reference: str, other: str, what: str) -> list[str]:
    """(e) Byte-identical outputs."""
    if reference == other:
        return []
    return [f"(e) {what} differs from the reference CSV"]


# --- (d) independent oracle ---------------------------------------------------

SV_FLOOR = 1e-300
SINR_BITS_TOL = 1e-6  # per stream, bits
UNITARY_TOL = 1e-9
POWER_RTOL = 1e-9
SAMPLED_CALLS = 8
JACOBI_TOL = 1e-14  # pair counts as orthogonal below this cosine
JACOBI_SWEEPS = 100
BISECTION_STEPS = 200
SAMPLED_SUBCARRIERS = 4
SAMPLED_SYMBOLS = 2


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of stacked matrices (B, m, n) by one-sided Jacobi.

    Rotates column pairs until they are mutually orthogonal; the column
    norms are then the singular values. Sorted nonincreasing.
    """
    u = np.array(a, dtype=np.complex128)
    n = u.shape[-1]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                x, y = u[:, :, i].copy(), u[:, :, j].copy()
                alpha = np.sum(np.abs(x) ** 2, axis=1)
                beta = np.sum(np.abs(y) ** 2, axis=1)
                gamma = np.sum(np.conj(x) * y, axis=1)
                g = np.abs(gamma)
                active = g > JACOBI_TOL * np.sqrt(alpha * beta)
                if not active.any():
                    continue
                rotated = True
                g_safe = np.where(active, g, 1.0)
                zeta = (beta - alpha) / (2.0 * g_safe)
                t = np.where(zeta >= 0, 1.0, -1.0) / (np.abs(zeta) + np.sqrt(1.0 + zeta**2))
                t = np.where(active, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                # rotate y by the phase of x^H y so the pair becomes real
                y_real = y * np.where(active, np.conj(gamma) / g_safe, 1.0)[:, None]
                u[:, :, i] = c[:, None] * x - s[:, None] * y_real
                u[:, :, j] = s[:, None] * x + c[:, None] * y_real
        if not rotated:
            break
    return -np.sort(-np.linalg.norm(u, axis=1), axis=-1)


def waterfill_bisection(sv: np.ndarray, noise_power: float, p_total: float) -> np.ndarray:
    """Water-filling power per stream, (B, L), by bisection on the level."""
    with np.errstate(divide="ignore"):
        thresholds = np.where(sv > SV_FLOOR, noise_power / sv**2, np.inf)
    alive = np.isfinite(thresholds).any(axis=1)
    lo = np.zeros(sv.shape[0])
    hi = np.where(alive, np.min(thresholds, axis=1) + p_total, 0.0)
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        filled = np.sum(np.clip(mid[:, None] - thresholds, 0.0, None), axis=1)
        over = filled >= p_total
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    level = 0.5 * (lo + hi)
    return np.where(alive[:, None], np.clip(level[:, None] - thresholds, 0.0, None), 0.0)


def oracle_cells(h, q, f, p, noise_power: float, p_total: float):
    """Per-stream SINR of a frozen design and the cells' capacity.

    h (C, m_rx, m_tx) true channel cells; q (C, m_rx, L), f (C, m_tx, L)
    and p (C, L) the design at each cell's subcarrier. Returns
    (sinr (C, L), capacity bits (C,)).
    """
    g = np.conj(np.swapaxes(q, 1, 2)) @ h @ (f * np.sqrt(p)[:, None, :])
    n_streams = g.shape[-1]
    diag = np.diagonal(g, axis1=1, axis2=2)
    interference = np.clip(np.sum(np.abs(g) ** 2, axis=2) - np.abs(diag) ** 2, 0.0, None)
    sv = singular_values(h)[:, :n_streams]
    p_star = waterfill_bisection(sv, noise_power, p_total)
    perfect = sv * np.sqrt(p_star)
    sigma_mu_sq = (np.abs(perfect - diag) ** 2 + interference) / n_streams
    q_norm_sq = np.sum(np.abs(q) ** 2, axis=1)
    sinr = np.abs(diag) ** 2 / (interference + (sigma_mu_sq + noise_power) * q_norm_sq)
    capacity = np.sum(np.log2(1.0 + p_star * sv**2 / noise_power), axis=1)
    return sinr, capacity


class OracleSampler:
    """Tracer observer for metrics.evaluate_link that keeps sampled cells.

    Every stride-th call is sampled, at most SAMPLED_CALLS of them; in
    each, a few (subcarrier, symbol) cells chosen from rng are copied out so
    the check can run after the round without holding whole tensors.
    """

    def __init__(self, rng: np.random.Generator, stride: int):
        self.rng = rng
        self.stride = max(1, stride)
        self.calls = 0
        self.samples: list[dict] = []

    def __call__(self, span, args, result) -> None:
        index = self.calls
        self.calls += 1
        if index % self.stride or len(self.samples) >= SAMPLED_CALLS:
            return
        h_data, design, noise_power = args
        _, _, n_sc, k_d = h_data.shape
        ns = self.rng.choice(n_sc, size=min(SAMPLED_SUBCARRIERS, n_sc), replace=False)
        ks = self.rng.choice(k_d, size=min(SAMPLED_SYMBOLS, k_d), replace=False)
        n_idx, k_idx = (a.ravel() for a in np.meshgrid(ns, ks, indexing="ij"))
        self.samples.append(
            {
                "call": index,
                "h": np.array(h_data[:, :, n_idx, k_idx].transpose(2, 0, 1)),
                "q": np.array(design.combiner[n_idx]),
                "f": np.array(design.precoder[n_idx]),
                "p": np.array(design.power[n_idx]),
                "dead": np.array(design.dead[n_idx]),
                "p_total": design.p_total,
                "noise_power": noise_power,
                "sinr": np.array(result.sinr[n_idx, k_idx]),
            }
        )


def check_oracle(samples: list[dict]) -> list[str]:
    """(d) Sampled evaluate_link cells against the oracle; design invariants."""
    out = []
    if not samples:
        return ["(d) no evaluate_link call was sampled"]
    for s in samples:
        where = f"evaluate_link call {s['call']}"
        live = ~s["dead"]
        n_streams = s["q"].shape[-1]
        eye = np.eye(n_streams)
        for name in ("q", "f"):
            m = s[name][live]
            gram = np.conj(np.swapaxes(m, 1, 2)) @ m
            if m.size and np.max(np.abs(gram - eye)) > UNITARY_TOL:
                out.append(f"(d) {where}: design {name} is not semi-unitary")
        sums = s["p"].sum(axis=1)
        want = np.where(live, s["p_total"], 0.0)
        if np.any(s["p"] < 0) or np.any(np.abs(sums - want) > POWER_RTOL * s["p_total"]):
            out.append(f"(d) {where}: power rows do not sum to p_total")
        sinr, capacity = oracle_cells(
            s["h"], s["q"], s["f"], s["p"], s["noise_power"], s["p_total"]
        )
        bits = np.log2(1.0 + sinr)
        got = np.log2(1.0 + s["sinr"])
        worst = np.max(np.abs(bits - got))
        if not worst <= SINR_BITS_TOL:
            out.append(f"(d) {where}: per-stream rate differs from the oracle by {worst:.3g} bits")
        excess = np.max(got.sum(axis=1) - capacity)
        if not excess <= SINR_BITS_TOL:
            out.append(f"(d) {where}: a cell's rate exceeds its capacity by {excess:.3g} bits")
    return out
