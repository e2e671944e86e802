"""Canonical-encoding determinism tests."""

import json

from repro.core.config import ExionConfig
from repro.program import (
    lower_plan,
    lower_program,
    plan_digest,
    plan_json,
    plan_to_dict,
)
from repro.workloads.specs import get_spec


class TestDeterminism:
    def test_independent_lowerings_are_byte_identical(self):
        """Two cold lowerings (cache cleared in between) emit the same
        canonical bytes — the fingerprint the smoke bench gates."""
        spec = get_spec("latte_video_dit")
        first = plan_json(lower_plan(spec))
        lower_program.cache_clear()
        second = plan_json(lower_plan(spec))
        assert first == second

    def test_digest_is_sha256_hex(self):
        digest = plan_digest(lower_plan(get_spec("mld")))
        assert len(digest) == 64
        int(digest, 16)  # raises on a non-hex digest

    def test_canonical_form(self):
        blob = plan_json(lower_plan(get_spec("mdm"), iterations=3))
        assert blob.endswith("\n")
        doc = json.loads(blob)
        recanon = (
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        )
        assert recanon == blob

    def test_different_configs_have_different_digests(self):
        spec = get_spec("dit")
        assert plan_digest(lower_plan(spec)) != plan_digest(
            lower_plan(spec, ExionConfig.for_model("dit").ablation("ep"))
        )
        assert plan_digest(lower_plan(spec, batch=1)) != plan_digest(
            lower_plan(spec, batch=8)
        )

    def test_totals_embedded_in_encoding(self):
        """The canonical doc carries derived totals, so a pricing change
        that alters MAC accounting cannot hide from the digest."""
        plan = lower_plan(get_spec("sdxl_unet"))
        doc = plan_to_dict(plan)
        assert doc["totals"]["dense_equivalent_macs"] == (
            plan.dense_equivalent_macs
        )
        assert doc["program"]["totals"]["macs"] == plan.program.total_macs
