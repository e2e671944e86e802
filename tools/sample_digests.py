#!/usr/bin/env python
"""Byte-identity grid of the generated samples: one sha256 per model.

Each line hashes one sample's bytes and its ``RunStats.summary()`` after
checking that the interpreted oracle and two calls on the compiled engine
produced the same ones, and the same whole ``RunStats`` by ``repr`` (a
Python ``float`` and an ``np.float64`` differ): a one-seed ``generate``,
whose ticks run the EP attention step at a batch of one, and a slot of a
three-seed ``generate_batch``, whose ticks run it at three. On a conditioned
model one more slot must agree: a batch whose other members attend a
prompt of another length and a class label of its own length, so its
cross-attention runs in a context-length group apart, shared with a
different context.
An unchanged line is a byte-identical sample: a PR that changes a kernel's
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
from repro.exec import ContinuousExecutor  # noqa: E402
from repro.serve import GenerationRequest  # noqa: E402

#: The batch-mates' prompt: six tokens against the slot's one.
MATES_PROMPT = "a corgi surfing on a wave"


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
            "one-seed call": engines.generate(seed=SEED),
            "three-seed batch": engines.generate_batch([SEED, SEED + 1, SEED + 2])[1][0],
        }
        if model.spec.context_dim:
            mixed = ContinuousExecutor(model, config).run_batch([
                GenerationRequest(0, seed=SEED + 1, prompt=MATES_PROMPT),
                GenerationRequest(1, seed=SEED),
                GenerationRequest(2, seed=SEED + 2, prompt=MATES_PROMPT),
                GenerationRequest(3, seed=SEED + 3, class_label=3),
            ])
            by_engine["mixed-length batch"] = mixed[1]
        found = {engine: (digest(r), repr(r.stats)) for engine, r in by_engine.items()}
        apart = [engine for engine, key in found.items() if key != found["oracle"]]
        if apart:
            print(f"{name}: {apart} disagree with the oracle", file=sys.stderr)
            return 1
        lines.append(f"{found['oracle'][0]}  {name}/{SEED}")
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
