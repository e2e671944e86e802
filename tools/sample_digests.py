#!/usr/bin/env python
"""Byte-identity grid of the generated samples: one sha256 per model.

Each line hashes one sample's bytes and its ``RunStats.summary()`` after
checking that the interpreted oracle, ``CompiledExecutor`` and a
``generate_batch(..., batched=True)`` slot produced the same ones. An
unchanged line is a byte-identical sample: a PR that changes a kernel's
last bit shows the changed hashes in its diff of ``sample_digests.txt``.
``--src DIR`` imports another checkout::

    python tools/sample_digests.py                  # print the lines
    python tools/sample_digests.py --check          # ... and diff, exit 1
    python tools/sample_digests.py --update         # rewrite the file
    python tools/sample_digests.py --src /path/to/parent/src > parent.txt
"""

import argparse
import difflib
import hashlib
import json
import sys
from pathlib import Path

EXPECTED = Path(__file__).with_suffix(".txt")
ITERATIONS = 8
SEED = 7

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--src", default=Path(__file__).resolve().parents[1] / "src")
parser.add_argument("--check", action="store_true",
                    help=f"diff against {EXPECTED.name}; exit 1 on any difference")
parser.add_argument("--update", action="store_true",
                    help=f"rewrite {EXPECTED.name} with this run's output")
ARGS = parser.parse_args()
sys.path.insert(0, str(ARGS.src))

from repro import BENCHMARK_MODELS, ExionConfig, ExionPipeline, build_model  # noqa: E402


def digest(result) -> str:
    summary = json.dumps(result.stats.summary(), sort_keys=True)
    return hashlib.sha256(result.sample.tobytes() + summary.encode()).hexdigest()


def main() -> int:
    lines = []
    for name in BENCHMARK_MODELS:
        model = build_model(name, total_iterations=ITERATIONS)
        config = ExionConfig.for_model(name)
        engines = ExionPipeline(model, config)
        by_engine = {
            "oracle": ExionPipeline(model, config, compiled=False).generate(seed=SEED),
            "compiled": engines.generate(seed=SEED),
            "batched": engines.generate_batch([SEED, SEED + 1, SEED + 2])[1][0],
        }
        digests = {engine: digest(result) for engine, result in by_engine.items()}
        if len(set(digests.values())) != 1:
            print(f"{name}: the engines disagree: {digests}", file=sys.stderr)
            return 1
        lines.append(f"{digests['oracle']}  {name}/{SEED}")
        print(lines[-1])

    text = "".join(line + "\n" for line in lines)
    if ARGS.update:
        EXPECTED.write_text(text)
    elif ARGS.check:
        diff = list(difflib.unified_diff(
            EXPECTED.read_text().splitlines(True), text.splitlines(True),
            EXPECTED.name, "this run"))
        sys.stderr.writelines(diff)
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
