"""One sada benchmark workload, measured in its own process.

``run.py`` starts this script with the workload's thread settings; see
``run.py`` for the command line.  The last line of standard output is the
JSON result.  Lines before it that start with ``#`` carry the run's metadata
and notes.  The exit code is 0 only when every output check passed.
"""
from __future__ import annotations

import os
import time

T0 = float(os.environ.get("PERFBENCH_T0") or time.time())

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sada  # noqa: E402
import sada.cli  # noqa: E402
from tracing import Tracer  # noqa: E402

IMPORTED = time.time()

#: Input builds per run; setup_s counts their median.
SETUP_REPEATS = 5
#: Replications per gamma in the full-size simulate sweep.
SIM_REPS = 30
#: Relative tolerance of the closed-form oracles.
RTOL = 1e-8
#: Lowest plausible coverage of a 95% interval over a sweep cell's replicates;
#: swapped or collapsed intervals read near 0.
MIN_COVERAGE = 0.5

THETA_STAR = np.array([1.0, 0.5, -0.25])
#: Prediction columns: y plus noise of these standard deviations, times these scales.
PRED_NOISE = np.array([0.5, 1.0, 2.0, 0.25, 4.0])
PRED_SCALE = np.array([1.0, 10.0, 0.1, 3.0, 1.0])

try:
    LIBC = ctypes.CDLL("libc.so.6")
    LIBC.malloc_trim.argtypes, LIBC.malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (OSError, AttributeError):  # not glibc: ops start from whatever heap the last one left
    LIBC = None

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
#: Per-layer metrics that are counts or sizes, and must repeat exactly between traced ops.
COUNTS = {
    "io.write_bytes",
    "data.validate_calls",
    "data.stacked_score_calls",
    "models.score_rows_per_N",
    "models.jacobian_rows_per_N",
    "models.jacobian_bytes",
    "models.pilot_solves_per_dataset",
    "models.newton_solves",
    "models.newton_iterations",
    "weighting.moment_calls",
    "estimators.solve_weighted_calls",
    "estimators.fallbacks",
    "inference.attach_calls",
    "simulate.failed_fits",
}

IO_WRITERS = (
    "io.write_estimate_reports",
    "io.write_compare_table",
    "io.write_sim_table",
    "io.write_efficiency_svg",
)


@dataclass
class Checked:
    """Outcome of one op's output checks."""

    attempted: int
    failed: int  # fits that raised, were reported failed, or failed a check
    program_failed: int  # fits the program itself reported as failed
    digest: bytes  # outputs that must be identical on every op of a run
    problems: list
    write_bytes: int = 0


def ols_design(seed: int, N: int):
    """Intercept plus two standard normal features, y = x'theta* + N(0, 1) noise,
    and five predictions of y at mixed quality and scale."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(N), rng.standard_normal((N, 2))])
    y = X @ THETA_STAR + rng.standard_normal(N)
    preds = PRED_SCALE * (y[:, None] + PRED_NOISE * rng.standard_normal((N, len(PRED_NOISE))))
    return X, y, preds


def write_csv(path: str, X, y, preds, n: int) -> None:
    """Input-schema CSV with its own writer: the first n rows labeled, empty y after."""
    d, K = X.shape[1], preds.shape[1]
    header = [f"x_{j + 1}" for j in range(d)] + ["y"] + [f"yhat_{k + 1}" for k in range(K)]
    # %.17g round-trips every double, so the oracles can use the in-memory arrays.
    labeled = ",".join(["%.17g"] * (d + 1 + K))
    unlabeled = ",".join(["%.17g"] * d + [""] + ["%.17g"] * K)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, np.column_stack([X[:n], y[:n], preds[:n]]), fmt=labeled)
        np.savetxt(fh, np.column_stack([X[n:], preds[n:]]), fmt=unlabeled)


def ppi_ols_theta(X, y_lab, yhat, n: int) -> np.ndarray:
    """PPI root for OLS in closed form.

    mean_L (y - x'theta)x + mean_U (yhat - x'theta)x - mean_L (yhat - x'theta)x = 0
    is linear in theta: (X_U'X_U / (N-n)) theta = X_L'y/n + X_U'yhat_U/(N-n) - X_L'yhat_L/n.
    """
    XL, XU = X[:n], X[n:]
    A = XU.T @ XU / len(XU)
    b = XL.T @ y_lab / n + XU.T @ yhat[n:] / len(XU) - XL.T @ yhat[:n] / n
    return np.linalg.solve(A, b)


def rel_close(got, ref) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return bool(np.linalg.norm(got - ref) <= RTOL * np.linalg.norm(ref))


def fit_problem(theta, lower, upper) -> str | None:
    """Why an estimate with its interval is not well formed, or None."""
    values = np.concatenate([np.ravel(theta), np.ravel(lower), np.ravel(upper)])
    if not np.all(np.isfinite(values)):
        return "non-finite estimate or CI bound"
    if not (np.all(np.asarray(lower) <= theta) and np.all(np.asarray(theta) <= upper)):
        return "estimate outside its CI"
    return None


def run_cli(argv: list) -> int:
    """``sada.cli.main`` in-process with its console output captured."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return sada.cli.main(argv)
    except Exception as exc:  # the op failed; the caller counts all its fits as failed
        print(f"# cli raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return -1


def release_memory() -> None:
    """Start every op from the same heap: collect garbage and hand freed memory
    back to the OS, so peak memory and page faults do not depend on earlier ops."""
    gc.collect()
    if LIBC is not None:
        LIBC.malloc_trim(0)


class EstimateCsv:
    """``sada estimate data.csv --model ols --methods naive,sada``: CSV read plus two fits."""

    name = "estimate_csv_ols"
    methods = ("naive", "sada")
    p = 3

    def __init__(self, seed: int, toy: bool):
        self.seed = seed
        self.N = 2_000 if toy else 50_000
        self.n = self.N // 10
        self.datasets_per_op = 1
        self.argv = ["estimate", "data.csv", "--model", "ols", "--methods", ",".join(self.methods), "--out", "out"]

    def size(self) -> dict:
        return {"N": self.N, "n": self.n, "K": len(PRED_NOISE), "d": self.p}

    def build(self) -> None:
        self.X, self.y, preds = ols_design(self.seed, self.N)
        write_csv("data.csv", self.X, self.y, preds, self.n)

    def warm_up(self) -> None:
        X, y, preds = ols_design(self.seed, 2_000)
        write_csv("warm.csv", X, y, preds, 200)
        run_cli(["estimate", "warm.csv", "--model", "ols", "--out", "warm_out"])

    def prepare(self) -> None:
        self.naive_ref = np.linalg.lstsq(self.X[: self.n], self.y[: self.n], rcond=None)[0]
        self.csv_bytes = Path("data.csv").stat().st_size

    def op(self, workers: int, tracer=None) -> int:
        return run_cli(self.argv)

    def check(self, rc: int) -> Checked:
        attempted = len(self.methods)
        paths = [Path("out/report.json"), Path("out/estimates.csv")]
        if rc != 0 or not all(p.is_file() for p in paths):
            return Checked(attempted, attempted, attempted, b"", [f"sada estimate exited {rc}"])
        blobs = [p.read_bytes() for p in paths]
        records = {r["method"]: r for r in json.loads(blobs[0])["records"]}
        problems = []
        for method in self.methods:
            rec = records.get(method)
            if rec is None:
                problems.append(f"{method}: missing from report.json")
                continue
            problem = fit_problem(np.array(rec["theta_hat"]), np.array(rec["ci_lower"]), np.array(rec["ci_upper"]))
            if problem is None and method == "naive" and not rel_close(rec["theta_hat"], self.naive_ref):
                problem = "differs from numpy lstsq on the labeled rows"
            if problem:
                problems.append(f"{method}: {problem}")
        return Checked(attempted, len(problems), 0, b"\0".join(blobs), problems, sum(map(len, blobs)))


class CompareMem:
    """The 12 compare methods on an in-memory 1e6-row dataset, each followed by inference."""

    name = "compare_mem_ols"
    p = 3

    def __init__(self, seed: int, toy: bool):
        self.seed = seed
        self.N = 10_000 if toy else 1_000_000
        self.n = self.N // 10
        self.K = len(PRED_NOISE)
        self.datasets_per_op = 1
        self.tokens = ["naive"] + [f"ppi:{k}" for k in range(1, self.K + 1)]
        self.tokens += [f"ppi_pp:{k}" for k in range(1, self.K + 1)] + ["sada"]

    def size(self) -> dict:
        return {"N": self.N, "n": self.n, "K": self.K, "d": self.p}

    def build(self) -> None:
        self.ds = None  # release the previous build first, so peak memory is one dataset
        self.X, self.y, self.preds = ols_design(self.seed, self.N)
        self.ds = sada.Dataset.from_arrays(self.X, self.y[: self.n], self.preds)
        self.model = sada.ols_model(self.p)

    def warm_up(self) -> None:
        full = self.ds
        X, y, preds = ols_design(self.seed, 2_000)
        self.ds = sada.Dataset.from_arrays(X, y[:200], preds)
        self.op(1)
        self.ds = full

    def prepare(self) -> None:
        X, y, n = self.X, self.y, self.n
        self.refs = {"naive": np.linalg.lstsq(X[:n], y[:n], rcond=None)[0]}
        for k in range(1, self.K + 1):
            self.refs[f"ppi:{k}"] = ppi_ols_theta(X, y[:n], self.preds[:, k - 1], n)
        del self.X, self.y, self.preds

    def _fit(self, token: str, model):
        tag, _, col = token.partition(":")
        if tag == "naive":
            return sada.naive_estimate(self.ds, model)
        if tag == "ppi":
            return sada.ppi_estimate(self.ds, model, int(col))
        if tag == "ppi_pp":
            return sada.ppi_pp_estimate(self.ds, model, int(col))
        return sada.sada_estimate(self.ds, model)

    def op(self, workers: int, tracer=None) -> dict:
        model = tracer.wrap_model(self.model) if tracer else self.model
        out = {}
        for token in self.tokens:
            try:
                report = sada.attach_inference(self._fit(token, model), self.ds, model)
                out[token] = (report.theta_hat, report.intervals.lower, report.intervals.upper)
            except Exception as exc:  # a failed fit is counted and the pass goes on
                out[token] = exc
        return out

    def check(self, out: dict) -> Checked:
        problems, digest, raised = [], [], 0
        for token in self.tokens:
            got = out[token]
            if isinstance(got, Exception):
                raised += 1
                problems.append(f"{token}: raised {type(got).__name__}: {got}")
                digest.append(type(got).__name__.encode())
                continue
            digest.extend(np.ascontiguousarray(a).tobytes() for a in got)
            problem = fit_problem(*got)
            if problem is None and token in self.refs and not rel_close(got[0], self.refs[token]):
                problem = "differs from its closed form"
            if problem:
                problems.append(f"{token}: {problem}")
        return Checked(len(self.tokens), len(problems), raised, b"".join(digest), problems)


class SimulateSweep:
    """``sada simulate`` over 11 gamma values with the default six methods."""

    name = "simulate_sweep"
    methods = ("naive", "ppi:1", "ppi:2", "ppi_pp:1", "ppi_pp:2", "sada")
    p = 1
    theta_star = 0.5

    def __init__(self, seed: int, toy: bool):
        self.seed = seed
        self.reps = 4 if toy else SIM_REPS
        self.grid = "0:1:3" if toy else "0:1:11"
        start, stop, count = self.grid.split(":")
        self.gammas = [float(g) for g in np.linspace(float(start), float(stop), int(count))]
        self.N, self.n = 200, 60
        self.datasets_per_op = len(self.gammas) * self.reps

    def size(self) -> dict:
        return {"N": self.N, "n": self.n, "reps": self.reps, "gammas": len(self.gammas), "methods": len(self.methods)}

    def argv(self, workers: int, reps: int, grid: str, out: str) -> list:
        return [
            "simulate", "--reps", str(reps), "--gamma-grid", grid, "--seed", str(self.seed),
            "--workers", str(workers), "--total-rows", str(self.N), "--labeled-rows", str(self.n),
            "--theta-star", repr(self.theta_star), "--out", out,
        ]

    def build(self) -> None:
        """The program's inputs are its arguments; the replicates are drawn inside it."""

    def warm_up(self) -> None:
        run_cli(self.argv(nproc(), 2, "0:1:2", "warm_out"))

    def prepare(self) -> None:
        """Mean and SD over replicates of naive and ppi:k, from an independent
        re-draw of each replicate's substream."""
        draws = []
        for rep in range(self.reps):
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(rep,)))
            draws.append([rng.standard_normal(self.N) for _ in range(3)])
        z = np.array(draws)  # (reps, 3, N): label noise, eps1, eps2
        y = self.theta_star + z[:, 0]
        n = self.n
        naive = y[:, :n].mean(axis=1)
        self.refs = {}
        for g in self.gammas:
            yhats = (g * y + (1 - g) * z[:, 1], (1 - g) * y + g * z[:, 2])
            self.refs[(g, "naive")] = naive
            for k, yhat in enumerate(yhats, start=1):
                self.refs[(g, f"ppi:{k}")] = naive + yhat[:, n:].mean(axis=1) - yhat[:, :n].mean(axis=1)

    def op(self, workers: int, tracer=None) -> int:
        return run_cli(self.argv(workers, self.reps, self.grid, "out"))

    def check(self, rc: int) -> Checked:
        attempted = len(self.gammas) * len(self.methods) * self.reps
        paths = [Path("out/results.csv"), Path("out/efficiency.svg")]
        if rc != 0 or not all(p.is_file() for p in paths):
            return Checked(attempted, attempted, attempted, b"", [f"sada simulate exited {rc}"])
        blobs = [p.read_bytes() for p in paths]
        rows = {(float(r["gamma"]), r["method"]): r for r in csv.DictReader(io.StringIO(blobs[0].decode()))}
        problems, failed, program_failed = [], 0, 0
        for g in self.gammas:
            for method in self.methods:
                row = rows.get((g, method))
                if row is None:
                    problems.append(f"gamma={g} {method}: missing from results.csv")
                    failed += self.reps
                    continue
                failures = int(row["failures"])
                program_failed += failures
                values = np.array([float(row[c]) for c in ("rel_efficiency", "coverage", "sd", "mean", "bias")])
                problem = None
                if not np.all(np.isfinite(values)):
                    problem = "non-finite summary"
                elif not MIN_COVERAGE <= values[1] <= 1.0:
                    problem = f"coverage outside [{MIN_COVERAGE}, 1]"
                elif (g, method) in self.refs:
                    ref = self.refs[(g, method)]
                    if not (rel_close(values[3], ref.mean()) and rel_close(values[2], ref.std())):
                        problem = "mean or SD differs from the closed form"
                if problem:
                    problems.append(f"gamma={g} {method}: {problem}")
                    failures = self.reps
                failed += failures
        return Checked(attempted, failed, program_failed, b"\0".join(blobs), problems, sum(map(len, blobs)))


WORKLOADS = {cls.name: cls for cls in (EstimateCsv, CompareMem, SimulateSweep)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Run:
    """Ops of one workload, with their checks, outputs and timings."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = self.ops = 0
        self.problems: list = []
        self.first_digest: bytes | None = None
        self.identical = True

    def op(self, workers: int, tracer: Tracer | None = None, op_id: int = 0) -> tuple[float, Checked]:
        shutil.rmtree("out", ignore_errors=True)
        release_memory()
        if tracer is None:
            start = time.perf_counter()
            raw = self.wl.op(workers)
            wall = time.perf_counter() - start
        else:
            with tracer.installed(op_id):
                start = time.perf_counter()
                raw = self.wl.op(workers, tracer)
                wall = time.perf_counter() - start
        checked = self.wl.check(raw)
        self.ops += 1
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.problems.extend(checked.problems)
        if self.first_digest is None:
            self.first_digest = checked.digest
        elif checked.digest != self.first_digest and self.identical:
            self.identical = False
            self.problems.append(f"outputs of op {self.ops} differ from those of op 1")
        return wall, checked

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def measure(run: Run, seconds: float) -> dict:
    """Untraced ops until the next would end after ``seconds``.

    The op time is that of the fastest op.  On a shared host the speed of a
    core changes in phases of seconds to tens of seconds, and other tenants
    only ever add time, so the fastest op is the steadiest reading of what an
    op costs; a median or a tail over one run mostly tells how much of the
    run fell in slow phases.  Both are printed as notes.
    """
    walls, fits, start = [], [], time.perf_counter()
    while True:
        wall, checked = run.op(nproc())
        walls.append(wall)
        fits.append(checked.attempted - checked.failed)
        if len(walls) == 1:
            # Peak memory of set-up plus one op, as one CLI call or one pass
            # sees it.  Later ops of the run let the heap fragment further,
            # by an amount that depends on how many ops fit in the run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    best = walls.index(min(walls))
    print(f"# op walls (s): {' '.join(f'{w:.4f}' for w in walls)}")
    # The tail is the highest percentile with ten ops beyond it, or the maximum
    # when a run has fewer than 20 ops.
    ordered = sorted(walls)
    tail = f"max {ordered[-1]:.4f}"
    if len(walls) >= 20:
        tail = f"p{100 * (len(walls) - 10) / len(walls):.1f} {ordered[-11]:.4f}"
    print(f"# op_s over {len(walls)} ops: median {statistics.median(walls):.4f}, tail {tail}")
    return {"op_s_min": walls[best], "fits_per_s": fits[best] / walls[best], "peak_rss_mb": peak_rss_mb}


def layer_metrics(wl, summary, checked: Checked) -> dict:
    """Per-layer metrics of one traced op; layers the workload does not reach read 0."""
    calls, total, self_time, counts = summary.calls, summary.total, summary.self_time, summary.counts
    rows_scale = wl.N * wl.datasets_per_op
    load_s = total["io.load_dataset_csv"]
    return {
        "io.load_s": load_s,
        "io.load_MBps": wl.csv_bytes / 1e6 / load_s if load_s else 0.0,
        "io.write_s": sum(total[name] for name in IO_WRITERS),
        "io.write_bytes": checked.write_bytes,
        "data.validate_calls": calls["data.validate_dataset"],
        "data.validate_s": total["data.validate_dataset"],
        "data.stacked_score_calls": calls["data.stacked_score_matrix"],
        "data.stacked_score_s": total["data.stacked_score_matrix"],
        "models.score_rows_per_N": counts["score_rows"] / rows_scale,
        "models.jacobian_rows_per_N": counts["jacobian_rows"] / rows_scale,
        "models.jacobian_bytes": counts["jacobian_bytes"],
        "models.pilot_solves_per_dataset": calls["models.solve_score_root"] / wl.datasets_per_op,
        "models.newton_solves": calls["models.solve_estimating_equation"],
        "models.newton_iterations": counts["newton_iterations"],
        "weighting.moment_calls": calls["weighting.moment_estimates"],
        "weighting.moment_s": total["weighting.moment_estimates"],
        # Self time of the plug-in, which leaves out its pilot solve and moments.
        "weighting.weight_solve_s": self_time["weighting.estimate_general_weights"],
        "estimators.naive_s": total["estimators.naive_estimate"],
        "estimators.ppi_s": total["estimators.ppi_estimate"],
        "estimators.ppi_pp_s": total["estimators.ppi_pp_estimate"],
        "estimators.sada_s": total["estimators.sada_estimate"],
        "estimators.solve_weighted_calls": calls["estimators.solve_weighted"],
        "estimators.fallbacks": counts["fallbacks"],
        "inference.attach_calls": calls["inference.attach_inference"],
        "inference.attach_s": total["inference.attach_inference"],
        "simulate.generate_s": total["simulate.generate_synthetic"],
        "simulate.harness_self_s": self_time["simulate.efficiency_curve"] + self_time["simulate.run_replications"],
        "simulate.failed_fits": checked.program_failed if isinstance(wl, SimulateSweep) else 0,
        "cli.self_s": self_time["cli.main"],
    }


def measure_traced(run: Run, seconds: float, spans_path: Path) -> dict:
    """Rounds of untraced and traced ops until the next round would end after
    ``seconds``, and at least two rounds, so that counts can be compared.

    The simulate sweep runs untraced with every worker and with one, then
    traced with one, since spans are only seen in this process.
    """
    wl = run.wl
    plan = [(nproc(), False), (1, False), (1, True)] if isinstance(wl, SimulateSweep) else [(1, False), (1, True)]
    tracer = Tracer()
    walls = defaultdict(list)
    per_op: list = []
    rounds, start = [], time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for workers, traced in plan:
            op_id = len(per_op) + 1
            wall, checked = run.op(workers, tracer if traced else None, op_id)
            walls[(workers, traced)].append(wall)
            if traced:
                per_op.append(layer_metrics(wl, tracer.summary(op_id), checked))
        rounds.append(time.perf_counter() - round_start)
        if len(rounds) >= 2 and time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    tracer.dump(spans_path)
    run.problems.extend(f"traced function {name} no longer exists" for name in sorted(tracer.missing))
    print(f"# spans of {len(per_op)} traced ops written to {spans_path.relative_to(ROOT)}")
    print("# models.jacobian_bytes is computed as Jacobian rows x p^2 x 8, not measured")

    metrics = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if name in COUNTS and len(set(values)) != 1:
            run.problems.append(f"{name} differs between traced ops: {values}")
        metrics[name] = values[0] if name in COUNTS else statistics.median(values)
    median = {key: statistics.median(v) for key, v in walls.items()}
    metrics["simulate.parallel_speedup"] = (
        median[(1, False)] / median[(nproc(), False)] if isinstance(wl, SimulateSweep) else 0.0
    )
    metrics["trace_overhead_frac"] = median[(1, True)] / median[(1, False)] - 1.0
    return metrics


def metadata(wl) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except Exception:  # the build record is informational only
        blas = {}
    return {
        "workload": wl.name,
        "size": wl.size(),
        "nproc": nproc(),
        "workers": nproc() if isinstance(wl, SimulateSweep) else 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: value for var, value in os.environ.items() if var.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.size == "toy")
    print("# meta " + json.dumps(metadata(wl), sort_keys=True))
    runs_dir = ROOT / ".perfbench_runs"
    work = runs_dir / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.build()
            builds.append(time.perf_counter() - start)
        start = time.perf_counter()
        wl.warm_up()
        warm_s = time.perf_counter() - start
        setup_s = IMPORTED - T0 + statistics.median(builds) + warm_s
        print(f"# setup_s: start-and-import {IMPORTED - T0:.4f} s, "
              f"median build of {' '.join(f'{t:.4f}' for t in builds)} s, warm-up {warm_s:.4f} s")
        wl.prepare()

        run = Run(wl)
        if args.trace:
            metrics = measure_traced(run, args.seconds, runs_dir / f"spans-{wl.name}-seed{args.seed}.jsonl")
            units = PER_LAYER
        else:
            metrics = measure(run, args.seconds)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    print(f"# failed_frac: {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} fits)")
    print(f"# identical outputs: {run.identical} over {run.ops} ops")
    for problem in run.problems[:20]:
        print(f"# problem: {problem}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
