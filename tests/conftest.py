import pytest
from hypothesis import HealthCheck, settings

from imd import quadrature

settings.register_profile(
    "imd",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("imd")


@pytest.fixture
def panels(monkeypatch):
    """The panel count of every quadrature level run during the test."""
    levels = []
    nodes = quadrature._composite_nodes

    def counted(a, b, n_panels, order):
        levels.append(n_panels)
        return nodes(a, b, n_panels, order)

    monkeypatch.setattr(quadrature, "_composite_nodes", counted)
    return levels
