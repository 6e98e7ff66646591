"""Sweep-throughput benchmark for mmlink.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the program through its public API the way `mmlink run` does
(build the sweep specs, validate every point, run_sweep, format_csv) from
the source tree next to this directory. The seed becomes every sweep's
master_seed. The run repeats whole rounds of the workload's sweep until S
seconds have passed, checks the outputs (see checks.py) and prints each
metric by name and unit; the last line of stdout is one JSON object.

After the timed rounds, every run makes one untimed serial check round in
which sampled metrics.evaluate_link calls are kept for the independent
oracle. --trace 0 reports the end-to-end metrics. --trace 1 reports the
per-layer metrics: it then runs one more round, serially, with the public
functions of each layer wrapped (see tracing.py). The timed rounds wrap
nothing, and no BLAS or OpenMP thread count is set.

Exit codes: 0 when a result was printed, 2 on a usage or set-up error.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

EXIT_USAGE = 2


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # preset name, or a config path relative to the repo root
    n_realizations: int  # per sweep point, in one round
    pooled: bool
    method: str | None = None  # estimation method forced onto a config file


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig2a-static", "fig2a", 1, pooled=False),
        Workload("fig3b-dynamic-pool", "fig3b", 1, pooled=True),
        Workload("table1-fullband", "configs/table1.cfg", 8, pooled=False, method="ooba_mrc"),
    )
}


def pool_workers() -> int:
    """nproc, but at least 2 so that the process pool is always used."""
    return max(2, len(os.sched_getaffinity(0)))


def import_mmlink():
    """Import mmlink from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mmlink
    from mmlink import core, montecarlo, presets

    if Path(mmlink.__file__).resolve().parent != src / "mmlink":
        raise ImportError(f"mmlink was imported from {mmlink.__file__}, not {src}")
    return core, montecarlo, presets


def build_specs(w: Workload, seed: int, core, montecarlo, presets) -> list:
    if w.source.endswith(".cfg"):
        base = core.load_config(str(ROOT / w.source))
        if w.method:
            base = replace(base, estimation_method=core.Method(w.method))
        specs = [montecarlo.SweepSpec(base=base)]
    else:
        specs = presets.build_preset(w.source)
    return [
        replace(
            s, base=replace(s.base, n_realizations=w.n_realizations, master_seed=seed)
        )
        for s in specs
    ]


def validate(specs, validate_config, montecarlo) -> list[str]:
    violations = []
    for spec in specs:
        for point in spec.points():
            violations.extend(validate_config(montecarlo.apply_point(spec.base, point)))
    return violations


def realizations(specs) -> int:
    """(config, realization) samples in one round of the given sweeps."""
    return sum(len(s.points()) * s.base.n_realizations for s in specs)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def blas_name() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')}-{blas.get('version')}"


def thread_count() -> int:
    """Threads of this process now: the BLAS pool shows here (0 without /proc)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Highest resident set of this process or any reaped child (KiB on Linux)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    completed: int
    failed: int
    csv: str | None  # None when a sweep of the round failed


def run_round(montecarlo, specs, workers: int) -> Round:
    """One pass over every sweep of the workload; a SweepError fails its sweep."""
    records, completed, failed, whole = [], 0, 0, True
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for spec in specs:
        n = realizations([spec])
        try:
            records.extend(montecarlo.run_sweep(spec, workers=workers))
            completed += n
        except montecarlo.SweepError as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            failed += n
            whole = False
    csv = montecarlo.format_csv(records) if whole else None
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    return Round(wall, cpu, completed, failed, csv)


def check_csv(csv: str, specs) -> list[str]:
    rows = checks.parse_csv(csv)
    n_points = sum(len(s.points()) for s in specs)
    return (
        checks.check_rows(rows, n_points, specs[0].base.n_realizations)
        + checks.check_capacity_bound(rows)
        + checks.check_ooba_beats_conventional(rows)
    )


def serial_round(tracer, specs, montecarlo) -> tuple[float, str]:
    """One round with workers=1 under the tracer; returns (wall, csv)."""
    with tracer.installed():
        t0 = time.perf_counter()
        records = []
        for spec in specs:
            records.extend(montecarlo.run_sweep(spec, workers=1))
        wall = time.perf_counter() - t0
    return wall, montecarlo.format_csv(records)


def check_round(seed: int, specs, montecarlo):
    """Serial round that samples evaluate_link for the (d) oracle.

    Only evaluate_link is wrapped, a few calls per realization, so the
    round's wall is that of an untraced serial round. Returns
    (sampler, wall, csv).
    """
    sampler = checks.OracleSampler(
        np.random.default_rng(seed), stride=realizations(specs) // checks.SAMPLED_CALLS
    )
    tracer = tracing.Tracer(
        observers={"metrics.evaluate_link": sampler},
        layers=(("metrics", "evaluate_link"),),
    )
    wall, csv = serial_round(tracer, specs, montecarlo)
    return sampler, wall, csv


def traced_round(specs, core, montecarlo):
    """Serial round with every layer wrapped; returns (tracer, wall, csv)."""

    def count_svds(matrices):
        def observe(span, args, result):
            span.attrs["svd_matrices"] = matrices(args[0])

        return observe

    tracer = tracing.Tracer(
        observers={
            # one SVD per subcarrier of the estimate (m_rx, m_tx, N)
            "transceiver.design_link": count_svds(lambda est: est.data.shape[2]),
            # one per (subcarrier, data symbol) of h_data (m_rx, m_tx, N, K_D)
            "metrics.perfect_gain_diagonals": count_svds(lambda h: h.shape[2] * h.shape[3]),
        }
    )
    with tracer.installed():
        validate(specs, core.validate_config, montecarlo)
    wall, csv = serial_round(tracer, specs, montecarlo)
    return tracer, wall, csv


def layer_metrics(tracer, realizations: int, env_realizations: int) -> dict:
    totals = tracing.layer_totals(tracer.spans)
    out = {}
    for mod, path in tracing.LAYERS:
        name = f"{mod}.{path}"
        labels = (
            [f"{name}.{b}" for b in ("mmw", "sub6")] if name in tracing.BAND_ARG else [name]
        )
        for label in labels:
            calls, self_s = totals.get(label, (0, 0.0))
            out[f"{label}.calls"] = (calls, "count")
            out[f"{label}.self_ms_per_realization"] = (
                1e3 * self_s / realizations,
                "ms",
            )
    synth = sum(totals.get(f"channel.synthesize_band.{b}", (0, 0))[0] for b in ("mmw", "sub6"))
    out["channel.synthesize_band.calls_per_env_realization"] = (
        synth / env_realizations,
        "ratio",
    )
    out["metrics.perfect_gain_diagonals.calls_per_env_realization"] = (
        totals.get("metrics.perfect_gain_diagonals", (0, 0))[0] / env_realizations,
        "ratio",
    )
    for name in ("transceiver.design_link", "metrics.perfect_gain_diagonals"):
        svds = sum(s.attrs.get("svd_matrices", 0) for s in tracer.spans if s.name == name)
        out[f"{name}.svd_matrices_per_realization"] = (svds / realizations, "count")
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        core, montecarlo, presets = import_mmlink()
        specs = build_specs(w, args.seed, core, montecarlo, presets)
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    violations = validate(specs, core.validate_config, montecarlo)
    if violations:
        for v in dict.fromkeys(violations):
            print(f"invalid configuration: {v}", file=sys.stderr)
        return EXIT_USAGE
    workers = pool_workers() if w.pooled else 1
    # CPU time of the main thread since the process started: interpreter
    # start-up, importing numpy and mmlink, building the specs, validating
    # every point. Not wall time: importing numpy starts an OpenBLAS worker
    # thread that spins, and whether it shares the main thread's CPU for
    # the rest of set-up split the wall time into two clusters, 0.09 and
    # 0.17 s, while this stayed within 0.087-0.111 s (README.md).
    setup_s = time.thread_time()

    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < args.seconds:
        rounds.append(run_round(montecarlo, specs, workers))
    whole = [r for r in rounds if r.csv is not None]
    if not whole:
        print("error: every round failed", file=sys.stderr)
        return 1
    # Totals over all rounds rather than a median per round: on a shared
    # host the round time jumps between a fast and a slow mode for tens of
    # seconds, and a per-round median jumps with it. Peak RSS is read here,
    # before the check rounds below can raise it.
    completed = sum(r.completed for r in whole)
    total_wall = sum(r.wall_s for r in whole)
    round_wall = total_wall / len(whole)
    end_to_end = {
        "realizations_per_s": (completed / total_wall, "1/s"),
        "cpu_ms_per_realization": (1e3 * sum(r.cpu_s for r in whole) / completed, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }

    reference = whole[0].csv
    problems = check_csv(reference, specs)
    for i, r in enumerate(whole[1:], 1):
        problems += checks.check_identical(reference, r.csv, f"round {i}")
    sampler, serial_wall, serial_csv = check_round(args.seed, specs, montecarlo)
    problems += checks.check_identical(reference, serial_csv, "serial check round")
    problems += checks.check_oracle(sampler.samples)

    per_round = realizations(specs)
    env_points = len({checks.env_key(r) for r in checks.parse_csv(reference)})
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-seed{args.seed}"
    stem.with_suffix(".csv").write_text(reference, encoding="utf-8")

    info = {
        "rounds": len(rounds),
        "realizations_per_round": per_round,
        "workers": workers,
        "round_wall_s": " ".join(f"{r.wall_s:.3f}" for r in rounds),
        "serial_round_wall_s": f"{serial_wall:.3f}",
        "csv_sha256": hashlib.sha256(reference.encode()).hexdigest(),
        "blas": blas_name(),
        "threads": thread_count(),
        "oracle_samples": len(sampler.samples),
    }
    if args.trace:
        tracer, traced_wall, traced_csv = traced_round(specs, core, montecarlo)
        tracer.write(str(stem) + ".spans.jsonl")
        problems += checks.check_identical(reference, traced_csv, "traced round")
        metrics = layer_metrics(tracer, per_round, env_points * specs[0].base.n_realizations)
        # untraced serial round against the timed rounds: about 1 on the
        # serial workloads, the pool's speed-up per worker on the pooled one
        metrics["montecarlo.parallel_efficiency"] = (
            serial_wall / (workers * round_wall),
            "ratio",
        )
        metrics["trace.overhead_ratio"] = (traced_wall / serial_wall, "ratio")
        info["spans"] = len(tracer.spans)
    else:
        metrics = end_to_end

    for key, value in info.items():
        print(f"info {key} {value}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"checks {'passed' if not problems else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(r.completed + r.failed for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
