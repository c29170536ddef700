#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny scale (about a minute).

    python3 e2ebench/selftest.py

For every workload, untraced and traced, it runs the benchmark at --scale
tiny and checks the result contract: exit 0, a last stdout line with exactly
the keys correct/attempted/failed/metrics, correct == true, no failed
requests, and exactly the metric names and units BENCHMARK.json declares.
It then checks that the benchmark's inputs follow its seed, that each
record check fires on deliberately damaged records (exit 1, correct ==
false), and that the benchmark refuses to run without the program's sources.
"""
import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = ["sim_long", "sim_dense", "serve_trace", "serve_ingress"]

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT, runner=RUN):
    cmd = runner + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", str(trace), "--scale", "tiny", *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stderr


def declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: declared(spec, "end_to_end"), 1: declared(spec, "per_layer")}

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, err = run(workload, trace=trace)
            label = "%s trace=%d" % (workload, trace)
            check(code == 0, label + ": exit 0" + ("" if code == 0 else " (%s)" % err[-300:]))
            if result is None:
                check(False, label + ": result line parses")
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  label + ": result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, label + ": correct, nothing failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], label + ": metric names and units match BENCHMARK.json")
            if trace == 0:
                zeros = [k for k, v in result["metrics"].items() if v["value"] == 0]
                check(not zeros, label + ": no end-to-end metric is 0 %s" % zeros)

    # Inputs follow the seed: same seed, same simulator outcome; another
    # seed, another outcome.
    outcome = ("goodput", "useful_gpu_share", "latency_p50_ms")
    a, b, c = (run("sim_long", seed=s)[1]["metrics"] for s in (5, 5, 6))
    check(all(a[k] == b[k] for k in outcome), "sim_long: same seed, same outcome")
    check(a["goodput"] != c["goodput"], "sim_long: another seed, another outcome")

    # Every record check fires on damaged records, on both substrates.
    for workload in ("sim_long", "serve_ingress"):
        for kind in ("lose", "misattribute", "hop-order"):
            code, result, err = run(workload, extra=("--corrupt", kind))
            check(code == 1 and result is not None and result["correct"] is False
                  and result["failed"] >= 1,
                  "%s --corrupt %s: detected (exit %d)" % (workload, kind, code))

    # Without the program's sources the benchmark must fail, print no result.
    bare = ROOT / ".bench_build" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name)
    code, result, _ = run("sim_long", cwd=bare,
                          runner=[sys.executable, str(bare / HERE.name / "run.py")])
    check(code != 0 and result is None, "bare directory: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
