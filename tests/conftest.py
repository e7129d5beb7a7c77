import numpy as np
import pytest

from advgame import DistributionSpec, GameConfig, GaussianComponent, two_gaussians_1d


@pytest.fixture
def spec_1d():
    """Symmetric 1-D Gaussians N(-1,1) / N(+1,1), equal priors."""
    return two_gaussians_1d()


@pytest.fixture
def spec_1d_mix():
    """Two-component mixture vs a single Gaussian, skewed prior."""
    return DistributionSpec(
        prior_pos=0.4,
        dimension=1,
        components_pos=(
            GaussianComponent(0.5, (-2.0,), (1.0,)),
            GaussianComponent(0.5, (2.0,), (1.0,)),
        ),
        components_neg=(GaussianComponent(1.0, (0.0,), (0.7,)),),
    )


@pytest.fixture
def spec_1d_3_2():
    """Three positive and two negative components of one width: three Bayes roots."""
    def comps(pairs):
        return tuple(GaussianComponent(w, (m,), (0.83,)) for w, m in pairs)

    return DistributionSpec(0.5, 1, comps(((0.3, 2.47), (0.23, 0.05), (0.47, -0.95))),
                            comps(((0.58, -1.96), (0.42, 1.45))))


@pytest.fixture
def spec_2d():
    return DistributionSpec(
        prior_pos=0.5,
        dimension=2,
        components_pos=(GaussianComponent(1.0, (0.6, 0.6), (0.01, 0.01)),),
        components_neg=(GaussianComponent(1.0, (0.4, 0.4), (0.01, 0.01)),),
    )


@pytest.fixture
def cfg_mass():
    return GameConfig("mass", 0.3, 0.5)


@pytest.fixture
def cfg_norm():
    return GameConfig("norm", 0.3, 0.5)


@pytest.fixture
def net_calls(monkeypatch):
    """Counts of nets.forward_cached and nets.backward calls made in a test."""
    from advgame import nets

    counts = {"forward_cached": 0, "backward": 0}
    for name in counts:
        def counted(*args, _fn=getattr(nets, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(nets, name, counted)
    return counts
