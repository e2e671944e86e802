"""Simulate EXION hardware against GPU baselines for any benchmark model.

Reproduces the paper's evaluation flow end-to-end for one model:

1. run the model at simulation scale to *measure* its output sparsity
   and collect its FFN-Reuse bitmasks,
2. build a paper-scale sparsity profile from the measurements (its
   ConMerge ratios come from synthetic paper-scale masks; the measured
   masks' own ratio is printed beside them),
3. simulate EXION4 / EXION24 (cycle + energy model seeded with the paper's
   Table II/III numbers) and the edge/server GPU roofline baselines,
4. print the latency and energy-efficiency comparison.

Run:  python examples/accelerator_simulation.py [model]
      (models: mld mdm edge make_an_audio stable_diffusion dit videocrafter2)
"""

import sys

from repro import ExionConfig, ExionPipeline, build_model
from repro.analysis.report import format_table
from repro.baselines.gpu import GPUModel
from repro.baselines.specs import EDGE_GPU, SERVER_GPU
from repro.core.conmerge.cvg import conmerge_tiled
from repro.hw.accelerator import ExionAccelerator
from repro.hw.profile import profile_from_stats


def main(name: str) -> None:
    model = build_model(name, seed=0, total_iterations=12)
    spec = model.spec
    print(f"measuring output sparsity of {spec.display_name} "
          f"at simulation scale...")
    result = ExionPipeline(
        model, ExionConfig.for_model(name), collect_masks=True
    ).generate(seed=3, prompt="accelerator demo")
    profile = profile_from_stats(spec, result.stats)
    print(f"  FFN sparsity {profile.ffn_sparsity:.1%}, "
          f"attention sparsity {profile.attn_sparsity:.1%} (measured)")
    merged = [conmerge_tiled(mask) for mask in result.stats.ffn_bitmasks]
    measured = sum(m.physical_columns for m in merged) / sum(
        m.original_columns for m in merged)
    print(f"  ConMerge remaining columns {measured:.1%} (measured, "
          f"{len(merged)} FFN bitmasks at simulation scale)")
    print(f"  ConMerge remaining columns {profile.ffn_remaining_ratio:.1%} "
          f"(synthetic paper-scale masks, what the simulation prices)")
    print()

    devices = [
        ("edge GPU (Jetson Orin Nano)", GPUModel(EDGE_GPU).simulate(spec)),
        ("server GPU (RTX 6000 Ada)", GPUModel(SERVER_GPU).simulate(spec)),
        ("EXION4_All", ExionAccelerator.exion4().simulate(spec, profile)),
        ("EXION24_All", ExionAccelerator.exion24().simulate(spec, profile)),
    ]
    rows = []
    for label, report in devices:
        rows.append([
            label,
            f"{report.latency_s * 1e3:10.3f} ms",
            f"{report.energy_j:10.4f} J",
            f"{report.effective_tops:8.2f}",
            f"{report.tops_per_watt:8.3f}",
        ])
    print(format_table(
        ["device", "latency", "energy", "eff. TOPS", "TOPS/W"],
        rows,
        title=(f"{spec.display_name}: one generation "
               f"({spec.total_iterations} iterations at paper scale)"),
    ))
    print()
    edge_gpu, server_gpu = devices[0][1], devices[1][1]
    ex4, ex24 = devices[2][1], devices[3][1]
    print(f"EXION4 vs edge GPU   : {edge_gpu.latency_s / ex4.latency_s:8.1f}x "
          f"faster, {ex4.tops_per_watt / edge_gpu.tops_per_watt:8.1f}x more "
          f"energy-efficient")
    print(f"EXION24 vs server GPU: {server_gpu.latency_s / ex24.latency_s:8.1f}x "
          f"faster, {ex24.tops_per_watt / server_gpu.tops_per_watt:8.1f}x more "
          f"energy-efficient")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "dit")
