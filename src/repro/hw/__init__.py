"""Cycle-level simulator of the EXION hardware architecture (paper IV, V).

Component map (paper Fig. 10):

- :mod:`repro.hw.dpu` / :mod:`repro.hw.sdue` — the sparse-dense unified
  engine: cycle model of a 16x16 dot-product-unit array running dense
  tiles and ConMerge-merged blocks through cv_sw / i_sw / w_sw switching;
- :mod:`repro.hw.epre` — eager-prediction engine (log-domain LD_DPUs with
  one-hot OR-gate adder trees);
- :mod:`repro.hw.cfse` — configurable SIMD engine for softmax, norms,
  non-linearities and residual adds (1x32b or 2x16b);
- :mod:`repro.hw.cau` — ConMerge assistant unit (SortBuffer + CVG cycles);
- :mod:`repro.hw.dram` / :mod:`repro.hw.dram_detail` — the external DRAM
  bandwidth/energy model and its banked, row-buffer-aware refinement;
- :mod:`repro.hw.dsc` / :mod:`repro.hw.accelerator` — the
  diffusion-sparsity-aware core and the multi-DSC EXIONx instances;
- :mod:`repro.hw.energy` — power/area model seeded with Table III.
"""

from repro.hw.accelerator import AcceleratorReport, ExionAccelerator
from repro.hw.cau import CAUModel
from repro.hw.cfse import CFSEModel
from repro.hw.dram import DRAM_TECHNOLOGIES, DRAMModel, GDDR6, HBM2E, LPDDR5, get_dram
from repro.hw.dram_detail import BankedDRAM, DRAMTimings
from repro.hw.dsc import DSCModel
from repro.hw.energy import DSC_AREA_MM2, DSC_POWER_MW, EnergyModel
from repro.hw.epre import EPREModel
from repro.hw.sdue import SDUEModel
from repro.hw.timeline import Timeline, simulate_timeline

__all__ = [
    "AcceleratorReport",
    "BankedDRAM",
    "CAUModel",
    "CFSEModel",
    "DRAMModel",
    "DRAMTimings",
    "DRAM_TECHNOLOGIES",
    "DSCModel",
    "DSC_AREA_MM2",
    "DSC_POWER_MW",
    "EPREModel",
    "EnergyModel",
    "ExionAccelerator",
    "GDDR6",
    "HBM2E",
    "LPDDR5",
    "SDUEModel",
    "Timeline",
    "get_dram",
    "simulate_timeline",
]
