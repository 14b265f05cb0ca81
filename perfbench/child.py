"""Child processes of the benchmark; each prints one JSON object on stdout.

    child.py setup  <scenario>
        Build the scenario cold and print the monotonic time at which it was
        ready: qrf imported, cli.load_config and cli.build_scenario run,
        perspective.physical_space computed.
    child.py query  <scenario> --seed N [--part K] (--seconds S | --count C) [--trace FILE]
        Build the scenario once, then run warm library queries generated from
        (N, K) for S seconds (or exactly C of them), each checked the way the
        matching ``qrf run`` task checks it.
    child.py report <scenario> --seed N --out FILE --trace FILE
        ``qrf run <scenario> --format json`` with spans around every layer.

Untraced reports run ``python -m qrf.cli run`` directly, not through here.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np
import scipy

import spans


def _setup(source: str):
    from qrf import cli, perspective

    cfg = cli.load_config(source)
    ps = perspective.physical_space(cli.build_scenario(cfg), cfg.tol())
    return cfg, ps


def _hermitian(rng, dim: int) -> np.ndarray:
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (h + h.conj().T) / 2.0


def _projector(rng, dim: int) -> np.ndarray:
    rank = int(rng.integers(1, dim))
    q, _ = np.linalg.qr(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))
    return q @ q.conj().T


def _state(rng, ps) -> np.ndarray:
    c = rng.standard_normal(ps.dim) + 1j * rng.standard_normal(ps.dim)
    return ps.basis.basis @ (c / np.linalg.norm(c))


def _element(rng, frame):
    if frame.rep.is_finite:
        return frame.rep.element(int(rng.integers(frame.rep.group.order)))
    return frame.rep.element(rng.uniform(-np.pi, np.pi, size=frame.rep.generators.shape[0]))


def _kinds(ps) -> list[str]:
    # An odd number of kinds, so that the median falls inside one kind's latencies
    # rather than in the gap between two.  Reorientation needs a right action,
    # which the finite regular frames have; Lie scenarios take the same-frame
    # orientation change (the schrodinger_map path of frame_change) instead.
    last = "reorient" if ps.scenario.total_rep.is_finite else "same_frame_change"
    return ["rel_obs", "reduce", "probability", "frame_change", last]


def _query(rng, cfg, ps, kind: str):
    """Draw the inputs of one query: (call, check), made before any timing.

    ``call`` does the library work of the matching ``qrf run`` task and
    ``check`` applies that task's pass criterion to its result.
    """
    from qrf import framechange, perspective, reductions

    s = ps.scenario
    tol, t = cfg.tol(), cfg.tolerance
    names = list(s.frames)
    f = names[int(rng.integers(len(names)))]
    frame = s.frame(f)
    g = _element(rng, frame)
    comp = s.complement_dim(f)
    if kind == "rel_obs":
        f_s = _hermitian(rng, comp)
        return lambda: perspective.relational_observable(s, f, g, f_s, tol, check=True), lambda _: True
    if kind == "reduce":
        psi = _state(rng, ps)
        return (
            lambda: reductions.schrodinger_reduce(ps, f, g, psi),
            lambda out: abs(np.linalg.norm(out) - np.linalg.norm(psi)) <= 1e4 * t,
        )
    if kind == "probability":
        proj, psi = _projector(rng, comp), _state(rng, ps)
        return (
            lambda: reductions.conditional_probability(ps, f, g, proj, psi, tol),
            lambda p: 0.0 <= p <= 1.0,
        )
    if kind in ("frame_change", "same_frame_change"):
        # same frame, new orientation: the schrodinger_map path of frame_change
        f_to = f if kind == "same_frame_change" else names[(names.index(f) + 1) % len(names)]
        g_to = _element(rng, s.frame(f_to))
        return (
            lambda: framechange.frame_change(ps, f, g, f_to, g_to, tol),
            lambda ch: ch.scale_notes.get("isometry_defect", 0.0) <= 1e5 * t * max(1, ch.matrix.shape[0]),
        )
    g_move, f_s = _element(rng, frame), _hermitian(rng, comp)

    def reorient():
        obs = perspective.relational_observable(s, f, g, f_s, tol)
        moved = framechange.reorient(s, f, g_move, obs, tol)
        direct = perspective.relational_observable(s, f, moved.orientation, f_s, tol)
        return float(np.linalg.norm(moved.matrix - direct.matrix))

    return reorient, lambda resid: resid <= 1e5 * t * max(1.0, float(np.abs(f_s).max()))


def run_queries(source: str, seed: int, part: int, seconds: float, count: int | None) -> dict:
    """Warm queries for ``seconds``, or exactly ``count`` of them if given."""
    cfg, ps = _setup(source)
    rng = np.random.default_rng([seed, part])
    kinds = _kinds(ps)
    out = []
    pending: list[str] = []
    stop = time.perf_counter() + seconds
    while len(out) < count if count is not None else time.perf_counter() < stop:
        if not pending:
            # Every kind once per cycle, in a seed-shuffled order, so the mix does not vary with the seed.
            pending = [kinds[int(i)] for i in rng.permutation(len(kinds))]
        kind = pending.pop()
        call, check = _query(rng, cfg, ps, kind)
        start = time.perf_counter()
        try:
            result = call()
        except (ValueError, np.linalg.LinAlgError):
            out.append([kind, time.perf_counter() - start, False])
            continue
        elapsed = time.perf_counter() - start
        out.append([kind, elapsed, bool(check(result))])
    return {"queries": out, "env": _environment()}


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "query", "report"))
    parser.add_argument("scenario")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--count", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        _setup(args.scenario)
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    rec = spans.Recorder()
    if args.trace:
        spans.install(rec)
    try:
        if args.mode == "query":
            print(json.dumps(run_queries(args.scenario, args.seed, args.part, args.seconds, args.count)))
            return 0
        from qrf import cli

        return cli.main(["run", args.scenario, "--format", "json", "--seed", str(args.seed), "--out", args.out])
    finally:
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as handle:
                json.dump({"spans": rec.spans, "counters": rec.counters}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
