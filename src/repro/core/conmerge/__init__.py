"""ConMerge: condensing + merging of sparse output matrices (paper III-B).

Output sparsity produced by FFN-Reuse and eager prediction is unstructured,
so a GPU cannot exploit it. ConMerge compacts the large sparse output matrix
into few dense tile blocks the SDUE can execute at high utilization:

1. **Condensing** (:mod:`condense`) removes columns whose elements are all
   sparse — their weights are never even fetched (Fig. 8).
2. **Merging** (:mod:`merge`) pairs tiled blocks column-by-column, moving
   conflicting elements to other rows within the same column under the
   conflict-vector constraint (one foreign input row per DPU lane, Fig. 9).
3. **Sorting** (:mod:`sortbuffer`) classifies columns by sparsity level so
   dense blocks merge with sparse blocks first, cutting merge cycles by
   29-73% (Figs. 12, 13).
4. The **CVG** (:mod:`cvg`) resolves conflicts in degree-of-freedom order
   and emits the conflict vectors and control maps the SDUE consumes
   (Fig. 14).
"""

from repro.core.conmerge.blocks import TileBlock
from repro.core.conmerge.condense import CondenseResult, condense
from repro.core.conmerge.cvg import ConMergeResult, conmerge, conmerge_tiled
from repro.core.conmerge.merge import MergeAttempt, try_merge
from repro.core.conmerge.sortbuffer import SortBuffer, SparsityClass
from repro.core.conmerge.vectors import CellAssignment

__all__ = [
    "CellAssignment",
    "ConMergeResult",
    "CondenseResult",
    "MergeAttempt",
    "SortBuffer",
    "SparsityClass",
    "TileBlock",
    "condense",
    "conmerge",
    "conmerge_tiled",
    "try_merge",
]
