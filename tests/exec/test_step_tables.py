"""``build_step_tables``: plan-time arrays hold what the oracle computes.

Both compiled engines read the timestep embedding and each block's adaLN
modulation from these tables (``table[step]`` in the 2-D engine, one
``table[cursors]`` gather per tick in the batched one), so every row
must be the bytes :meth:`DiffusionNetwork._embed_timestep` and
``block.adaln`` return for that step alone. Members of one batch sitting
at different cursors are covered end to end by
``tests/serve/test_continuous_parity.py``.
"""

import numpy as np
import pytest

from repro.exec.executor import build_step_tables
from repro.models.zoo import build_model


@pytest.mark.parametrize("name", ("dit", "stable_diffusion"))
def test_rows_equal_the_per_step_oracle(name):
    model = build_model(name, seed=0, total_iterations=7, depth=2)
    network = model.network
    timesteps, t_embeds, adaln_tables = build_step_tables(model)
    steps = len(timesteps)

    # Each model exercises the table it is here for.
    if name == "dit":
        assert all(block.adaln is not None for block in network.blocks)
    else:
        assert network.resblocks

    assert steps == 7
    assert isinstance(t_embeds, np.ndarray)
    assert t_embeds.shape == (steps, network.timestep_dim)
    assert t_embeds.dtype == np.float64
    assert len(adaln_tables) == len(network.blocks)
    for step, t in enumerate(timesteps):
        t_embed = network._embed_timestep(int(t))
        assert t_embeds[step].tobytes() == t_embed.tobytes()
        for block, table in zip(network.blocks, adaln_tables):
            if block.adaln is None:
                assert table is None
                continue
            assert table.shape == (steps, 3, network.dim)
            assert table.dtype == np.float64
            shift, scale, gate = table[step]
            for got, want in zip((shift, scale, gate), block.adaln(t_embed)):
                assert got.tobytes() == want.tobytes()
