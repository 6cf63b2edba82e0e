"""OnlineConfig: validation, serialization, and manager construction."""

import warnings

import pytest

from repro.algorithms.online import OnlineAssignmentManager, OnlineConfig
from repro.datasets import synthesize_meridian_like
from repro.errors import InvalidParameterError
from repro.placement import kcenter_b


@pytest.fixture(scope="module")
def small_world():
    matrix = synthesize_meridian_like(30, seed=0)
    servers = kcenter_b(matrix, 3, seed=0)
    return matrix, servers


class TestValidation:
    def test_defaults(self):
        config = OnlineConfig()
        assert config.capacity is None
        assert config.join_policy == "greedy"

    def test_bad_capacity(self):
        with pytest.raises(InvalidParameterError):
            OnlineConfig(capacity=0)

    def test_bad_policy(self):
        with pytest.raises(InvalidParameterError):
            OnlineConfig(join_policy="wishful")

    def test_frozen(self):
        with pytest.raises(Exception):
            OnlineConfig().capacity = 5

    def test_roundtrip(self):
        config = OnlineConfig(capacity=7, join_policy="nearest")
        assert OnlineConfig.from_dict(config.to_dict()) == config

    def test_from_dict_ignores_retired_keys(self):
        """Payloads from versions with a kernel-backend and top-k knob
        still load."""
        data = dict(OnlineConfig(capacity=7).to_dict(), backend="numba", top_k=5)
        assert OnlineConfig.from_dict(data) == OnlineConfig(capacity=7)


class TestManagerConstruction:
    def test_config_object_is_primary_api(self, small_world):
        matrix, servers = small_world
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            manager = OnlineAssignmentManager(
                matrix, servers, OnlineConfig(capacity=4)
            )
        assert manager.config.capacity == 4

    @pytest.mark.parametrize("keyword", ["capacity", "join_policy"])
    def test_legacy_keywords_are_gone(self, small_world, keyword):
        matrix, servers = small_world
        value = {"capacity": 4, "join_policy": "nearest"}[keyword]
        with pytest.raises(TypeError, match=keyword):
            OnlineAssignmentManager(matrix, servers, **{keyword: value})
