"""`solver.run` with the state at each output row recorded, for tests.

A run keeps its diagnostics rows, not its states.  Tests that compare states
record them here: `run` hands each output row's field to
`diagnostics.snapshot_row`, so a recorder wrapped around that function sees
every state a row was taken from, in order.
"""

import pytest

from ksflow import diagnostics, solver


def run_with_states(config, f_in, checkpoint_path=None):
    """solver.run(config, f_in, checkpoint_path), returning (trajectory,
    [the RadialField of each row])."""
    states = []
    snapshot_row = diagnostics.snapshot_row

    def recording(t, f, *args, **kwargs):
        states.append(f)
        return snapshot_row(t, f, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagnostics, "snapshot_row", recording)
        traj = solver.run(config, f_in, checkpoint_path=checkpoint_path)
    return traj, states
