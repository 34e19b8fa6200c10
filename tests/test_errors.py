"""The error contract: every guard of the package raises a SimulationError,
the class that names its fault."""

import numpy as np
import pytest

from helpers import STD_DT, std_grid, std_packet
from wavefall import (
    ClassicalState,
    ConfigError,
    EvolveConfig,
    PacketShape,
    SimulationError,
    SizeMismatch,
    SpectralGrid,
    StepScheme,
    TidalMatrix,
    WaveFunction,
    evolve,
    make_packet,
    rk4_integrate,
    ripple_check,
    tidal_step,
)
from wavefall.curvature import validate_tidal


def packet_2d():
    return make_packet(SpectralGrid(dim=2, n=32, extent=20.0), PacketShape.gaussian(1.0),
                       [1.0, 0.0], [0.0, 0.0], 100.0)


GUARDS = {
    "grid_odd_n": (ConfigError, lambda: SpectralGrid(dim=1, n=7, extent=1.0)),
    "evolve_no_steps": (ConfigError, lambda: EvolveConfig(dt=0.1, n_steps=0)),
    "evolve_zero_dt": (ConfigError, lambda: EvolveConfig(dt=0.0, n_steps=1)),
    "wave_function_shape": (SizeMismatch, lambda: WaveFunction(
        SpectralGrid(dim=1, n=8, extent=1.0), np.zeros(5), 1.0)),
    "evolve_tidal_dim": (SizeMismatch, lambda: evolve(
        std_packet(std_grid()), TidalMatrix.zero(2), StepScheme.STRANG,
        EvolveConfig(dt=STD_DT, n_steps=1))),
    "tidal_step_dim": (SizeMismatch, lambda: tidal_step(
        std_packet(std_grid()), TidalMatrix.zero(2), STD_DT)),
    "ripple_tidal_dim": (SizeMismatch, lambda: ripple_check(
        packet_2d(), TidalMatrix([[1e-4]]), STD_DT)),
    "validate_tidal_extent": (ConfigError, lambda: validate_tidal(TidalMatrix.zero(1), 0.0)),
    "classical_state_shapes": (SizeMismatch, lambda: ClassicalState([0.0], [0.0, 0.0])),
    "rk4_zero_dt": (ConfigError, lambda: rk4_integrate(
        ClassicalState([1.0], [0.0]), TidalMatrix.zero(1), 0.0, 10)),
}


@pytest.mark.parametrize("error,call", GUARDS.values(), ids=GUARDS.keys())
def test_every_guard_raises_a_simulation_error(error, call):
    with pytest.raises(SimulationError) as caught:
        call()
    assert type(caught.value) is error
