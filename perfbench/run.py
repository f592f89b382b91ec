"""solvcrit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 25 --trace 0

Run from the root of a solvcrit checkout; the library is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics:

* ``run_s``: wall time of one pass over the workload's operations (single
  process, one thread, ``workers=1``); passes repeat, at least three and
  until ``--seconds`` is used up, and each operation counts at its median;
* ``setup_s``: median over fresh processes, started between passes, of
  importing solvcrit and building every input the workload uses;
* ``peak_rss_mb``: peak resident set size of this process, which runs the
  passes after its own set-up;
* ``ok_frac``: operations whose result passed its check, over operations
  attempted (one minus the failure fraction).

With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics (see ``README.md``).  The last line of standard output is
the JSON result; a ``digest`` line before it hashes every operation's report,
and is the same for the same code and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from functools import partial
from operator import mul
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PER_PASS = 3      # fresh set-up processes timed after each pass
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402
from tracing import (END, ITEMS, LAYERS, OP, PARENT, START,  # noqa: E402
                     Tracer, self_times, write_spans)


def load_solvcrit():
    """Import solvcrit from this checkout's ``src/`` and nowhere else."""
    init = SRC / "solvcrit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from the root of a "
                         "solvcrit checkout")
    sys.path.insert(0, str(SRC))
    import solvcrit
    if Path(solvcrit.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported {solvcrit.__file__}, not {init}")
    return solvcrit


def setup_once(workload: str, seed: int) -> float:
    start = perf_counter()
    sc = load_solvcrit()
    wl.BUILDERS[workload](sc, seed)
    return perf_counter() - start


def setup_samples(workload: str, seed: int, count: int) -> list:
    """Set-up times of ``count`` fresh interpreter processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


class PassLog:
    """Checks the first pass, then holds every later pass to its digests."""

    def __init__(self):
        self.digests = None
        self.attempted = 0
        self.failures: list = []
        self.failed = 0
        self.times: list = []  # per pass, seconds of each operation

    def run(self, ops: list, tracer=None) -> float:
        """Run one pass; return its total time."""
        outcomes = wl.run_pass(ops, check=self.digests is None, tracer=tracer)
        digests = [o.digest for o in outcomes]
        if self.digests is None:
            self.digests = digests
            bad = {i: o.problems for i, o in enumerate(outcomes) if o.problems}
        else:
            bad = {i: ["report differs from the first pass"]
                   for i, (d, first) in enumerate(zip(digests, self.digests))
                   if d != first}
        self.attempted += len(outcomes)
        self.failed += len(bad)
        self.failures += [(ops[i].name, p) for i, ps in bad.items() for p in ps]
        self.times.append([o.seconds for o in outcomes])
        return sum(self.times[-1])

    def pass_seconds(self) -> float:
        """One pass's time, each operation taken at its median over passes.

        Contention on a shared machine comes in bursts; a per-operation
        median drops a burst that hit one pass, where a median of whole-pass
        totals would keep it whenever it hit most passes somewhere."""
        return sum(statistics.median(column) for column in zip(*self.times))

    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


def probe_ns(calls: list) -> float:
    """Median ns per call of ``calls`` (zero-argument callables)."""
    rounds = []
    for _ in range(11):
        start = perf_counter()
        for call in calls:
            call()
        rounds.append((perf_counter() - start) * 1e9 / len(calls))
    return statistics.median(rounds)


def permutation_probe(elements: list) -> dict:
    """Per-call cost of ``Permutation.__mul__`` and ``inverse`` over a fixed
    slice of the workload's own elements, at the workload's degree."""
    n = len(elements)
    pairs = [(elements[i], elements[(7 * i + 3) % n]) for i in range(n)] * 16
    return {
        "permutation.mul_ns": probe_ns([partial(mul, p, q) for p, q in pairs]),
        "permutation.inv_ns": probe_ns([p.inverse for p, _q in pairs]),
    }


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    spans = tracer.spans
    selfs = self_times(spans)
    pass_self = dict.fromkeys(LAYERS, 0)
    setup_self = dict.fromkeys(LAYERS, 0)
    calls: dict = {}
    seconds: dict = {}
    enumerated = 0
    setup_calls = dict.fromkeys(LAYERS, 0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    in_criterion = [False] * len(spans)
    builds_in_criterion = 0
    setup_ns = 0
    for i, (span, own) in enumerate(zip(spans, selfs)):
        layer = tracer.layer_of(span)
        parent = span[PARENT]
        if parent >= 0:
            in_criterion[i] = (in_criterion[parent]
                               or tracer.layer_of(spans[parent]) == "criterion")
        if span[OP] == "setup":
            setup_self[layer] += own
            setup_calls[layer] += 1
            if parent < 0:
                setup_ns += span[END] - span[START]
            continue
        pass_self[layer] += own
        layer_calls[layer] += 1
        name = tracer.qualname(span)
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0) + span[END] - span[START]
        if name == "engine.StabilizerChain.iter_tuples":
            enumerated += span[ITEMS]
        if name == "engine.StabilizerChain.build" and in_criterion[i]:
            builds_in_criterion += 1

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return seconds.get(name, 0) / 1e9

    pairs = tracer.counts["pairs_covered"]
    out = {
        "catalog.calls": setup_calls["catalog"],
        "engine.chain_builds": n("engine.StabilizerChain.build"),
        "engine.chain_build_s": s("engine.StabilizerChain.build"),
        "engine.extend_calls": n("engine.StabilizerChain.extend"),
        "engine.contains_calls": n("engine.StabilizerChain.contains_tuple"),
        "engine.elements_enumerated": enumerated,
        "structure.classes_calls": n("structure.conjugacy_classes"),
        "structure.classes_s": s("structure.conjugacy_classes"),
        "structure.spectrum_s": s("structure.order_spectrum"),
        "structure.elements_of_order_s": s("structure.elements_of_order"),
        "structure.is_solvable_calls": n("structure.is_solvable"),
        "criterion.pairs_covered": pairs,
        "criterion.recheck_pairs": tracer.counts["recheck_pairs"],
        "criterion.chain_builds_per_pair":
            builds_in_criterion / pairs if pairs else 0.0,
        "tables.calls": layer_calls["tables"],
        "numbertheory.factorize_calls": n("numbertheory.factorize"),
        "numbertheory.factorize_s": s("numbertheory.factorize"),
        "numbertheory.is_prime_calls": n("numbertheory.is_prime"),
    }
    for layer in LAYERS:
        # the catalog works in set-up only; its figures come from there
        own = setup_self[layer] if layer == "catalog" else pass_self[layer]
        base = setup_ns / 1e9 if layer == "catalog" else traced_s
        out[f"{layer}.self_s"] = own / 1e9
        out[f"{layer}.share"] = own / 1e9 / base if base else 0.0
    out["bench.self_s"] = traced_s - sum(pass_self.values()) / 1e9
    out["trace.run_s"] = traced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    return out


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        print(repr(setup_once(args.workload, args.seed)))
        return 0

    started = perf_counter()
    sc = load_solvcrit()
    declared = declared_metrics(args.trace)
    work = wl.BUILDERS[args.workload](sc, args.seed)
    log = PassLog()
    log.run(work.ops)

    if args.trace:
        metrics = permutation_probe(work.probe)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = "setup"
            traced_work = wl.BUILDERS[args.workload](sc, args.seed)
            tracer.op = None
            traced_s = log.run(traced_work.ops, tracer)
        finally:
            tracer.op = None
            tracer.uninstall()
        metrics.update(layer_metrics(tracer, traced_s, sum(log.times[0])))
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        write_spans(tracer, out_dir / f"spans-{args.workload}-{args.seed}.tsv")
    else:
        # the first set-up process compiles bytecode and is not counted
        setup = setup_samples(args.workload, args.seed, 1 + SETUP_PER_PASS)[1:]
        while True:
            elapsed = perf_counter() - started
            if len(log.times) >= MIN_PASSES and \
                    elapsed * (len(log.times) + 1) / len(log.times) > args.seconds:
                break
            log.run(work.ops)
            setup += setup_samples(args.workload, args.seed, SETUP_PER_PASS)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": log.pass_seconds(),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kb / 1024,
            "ok_frac": 1 - log.failed / log.attempted,
        }

    for name, problem in log.failures[:50]:
        print(f"FAIL {name}: {problem}")
    print(f"pass_s {[round(sum(t), 4) for t in log.times]}")
    print(f"digest {log.digest()}")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
