"""What every ``repro`` command shares: argparse value types, the one
reader of input files and the one writer of output files."""

import argparse
import json
import math
import operator

from repro.cluster.replica import ACCELERATORS

_COMPARISONS = {">=": operator.ge, ">": operator.gt}

#: The ``--accelerator`` / ``--simulate`` choices, in help order.
ACCELERATOR_NAMES = sorted(ACCELERATORS)


def number(kind: type, op: str, bound: float):
    """An argparse type: a ``kind`` (``int`` or ``float``) that is ``op``
    ``bound``. A value breaking the rule exits 2 with ``argument --X: must
    be <op> <bound>, got <value>`` instead of a constructor traceback."""

    def parse(text: str):
        value = kind(text)
        if not _COMPARISONS[op](value, bound):  # NaN fails every rule
            raise argparse.ArgumentTypeError(
                f"must be {op} {bound}, got {value}"
            )
        if value == math.inf:
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


#: A count of at least one: iterations, replicas, batch sizes, depths.
count = number(int, ">=", 1)
positive = number(float, ">", 0)
non_negative = number(float, ">=", 0)


def model_name(text: str) -> str:
    """An argparse type: a benchmark model name. An unknown name exits 2
    with ``argument --model: unknown model 'x'; known models: ...``."""
    from repro.workloads.specs import get_spec

    try:
        get_spec(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def model_names(text: str) -> str:
    """An argparse type: comma-separated benchmark model names."""
    for name in text.split(","):
        model_name(name)
    return text


def read(flag: str, load, path):
    """``load(path)`` for a file a command reads: a missing, unreadable or
    malformed file exits ``bad <flag>: <reason>`` instead of a traceback."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bad {flag}: {exc}")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write(path, text: str, note: str = "") -> None:
    """Write ``text`` to ``path`` and print ``wrote <path><note>``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}{note}")


def write_obs_outputs(
    observer, metrics_out=None, trace_out=None, events_out=None
) -> None:
    """Write the observer's metrics / trace / event-log files, if asked.

    ``metrics_out`` gets the canonical JSON registry snapshot. The Chrome
    trace is schema-validated before writing so a broken exporter fails
    the command instead of producing a file Perfetto rejects.
    """
    from repro.canon import canonical_json
    from repro.obs import chrome_trace, events_jsonl, validate_chrome_trace

    if trace_out is not None:
        document = chrome_trace(observer.tracer)
        events = validate_chrome_trace(document)
        write(trace_out, canonical_json(document),
              f" ({events} trace events; open in Perfetto or chrome://tracing)")
    if metrics_out is not None:
        write(metrics_out, observer.metrics.to_json())
    if events_out is not None:
        write(events_out, events_jsonl(observer.tracer))
