"""Run the repository benchmark.

Every workload, each in its own process, with the end-to-end metrics::

    python3 perfbench/run.py

One workload in this process; ``--trace 1`` prints the per-layer metrics of
a traced pass instead, with the tracing overhead against untraced passes::

    python3 perfbench/run.py --workload grid-1d --seed 20160626 --seconds 38 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when an output check failed.
"""

import time

_START = time.perf_counter()  # setup_s counts the imports below from here

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20160626


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf8"))


def _parse(argv):
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload in this process (default: all, "
                             "each in its own process)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="time budget of the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_one(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:1] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.host import host_stamp
    from perfbench.workloads import measure

    import_s = time.perf_counter() - _START
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(f"stamp {json.dumps(host_stamp(ROOT, args.seed), sort_keys=True)}")
    print(f"notes {json.dumps(result.notes, sort_keys=True)}")
    for name, metric in result.metrics.items():
        print(f"{args.workload:<14} {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace:
        _print_shares(args.workload, result)
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0 if result.correct else 1


def _print_shares(workload: str, result) -> None:
    """The algorithms' shares of the traced pass's wall time."""
    wall = result.notes["traced_pass_wall_s"]
    shares = sorted(((metric["value"] / wall, name) for name, metric in result.metrics.items()
                     if name.startswith("algo.") and name.endswith(".s")), reverse=True)
    top = ", ".join(f"{name} {share:.0%}" for share, name in shares[:3] if share > 0)
    print(f"{workload:<14} largest algorithm shares of the traced pass: {top or 'none'}")


def _run_all(args) -> int:
    """Each workload in a fresh process, so no peak RSS or cache leaks
    from one into another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in _spec()["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 and not lines:
            return child.returncode
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload['name']}.{name}"] = metric
        status = status or child.returncode
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    return _run_one(args) if args.workload else _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
