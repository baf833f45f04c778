import numpy as np
import pytest
from hypothesis import settings

from flexjoint.cli import TUNED_FLR_BOUNDS
from flexjoint.control import GainSet
from flexjoint.plant import PlantParams, SimConfig

# Every run draws the same hypothesis examples, so a tier-1 outcome does
# not depend on the draws an earlier run happened to make or store.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def params() -> PlantParams:
    return PlantParams()


@pytest.fixture
def gains() -> GainSet:
    return GainSet()


@pytest.fixture
def bounds():
    return TUNED_FLR_BOUNDS


@pytest.fixture
def sim() -> SimConfig:
    return SimConfig()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
