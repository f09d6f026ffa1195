import hashlib

import numpy as np
import pytest

# Pinned output digests depend on how numpy rounds exp and expm1, which
# varies across builds and CPUs; they were taken where this probe of both
# functions has the digest _ELEMENTARY (x86_64 with AVX-512, numpy 2.4.6).
_ELEMENTARY = "3a6be39b0874f043ffb43514c7e3d674aea57208ba069c8acfd591d66441116e"


@pytest.fixture
def pinned_exp():
    """Skip the test unless exp/expm1 round as where its digests were taken."""
    x = np.linspace(-30.0, 30.0, 2001)
    probe = np.ascontiguousarray(np.concatenate([np.exp(x), np.expm1(x)]), dtype="<f8")
    if hashlib.sha256(probe.tobytes()).hexdigest() != _ELEMENTARY:
        pytest.skip("exp/expm1 round differently from the build the digests "
                    "were taken with")


# The stop times of the particle simulator go through np.log; their pins
# were taken where this probe of log has the digest _LOG (same build).
_LOG = "3bdf773549b9599ec59ce59674d1e94793c03fc17f7af5cad6e77b831750e6dc"


@pytest.fixture
def pinned_log():
    """Skip the test unless log rounds as where its digests were taken."""
    x = np.concatenate([np.geomspace(1e-300, 1.0, 2001), np.linspace(1e-3, 1.0, 2001)])
    probe = np.ascontiguousarray(np.log(x), dtype="<f8")
    if hashlib.sha256(probe.tobytes()).hexdigest() != _LOG:
        pytest.skip("log rounds differently from the build the digests were "
                    "taken with")
