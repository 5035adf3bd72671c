"""Tests for the declarative routing layer (repro.webapi.router).

The redesign's guarantees under test: exact routes keep the historical
dict dispatch, ``{param}`` segments bind path parameters with
most-literal-first precedence, shape conflicts fail at registration
time, and prefixes compose through ``include``.
"""

import pytest

from repro.errors import ConfigurationError
from repro.webapi import Resource, RouteSpec, Router
from repro.webapi.router import split_path


def handler(request, account=None):
    return {"ok": True}


class TestRouteSpec:
    def test_default_name_is_method_and_pattern(self):
        spec = RouteSpec("GET", "/posts", handler)
        assert spec.name == "GET /posts"
        named = RouteSpec("GET", "/posts", handler, name="posts.list")
        assert named.name == "posts.list"

    def test_rejects_unknown_method_and_relative_pattern(self):
        with pytest.raises(ConfigurationError):
            RouteSpec("PATCH", "/posts", handler)
        with pytest.raises(ConfigurationError):
            RouteSpec("GET", "posts", handler)

    def test_param_detection_and_binding(self):
        spec = RouteSpec("GET", "/hunts/{hunt_id}/results", handler)
        assert spec.has_params
        assert spec.param_names() == ("hunt_id",)
        assert spec.match(split_path("/hunts/h0001/results")) == {
            "hunt_id": "h0001"
        }
        assert spec.match(split_path("/hunts/h0001")) is None
        assert spec.match(split_path("/posts/h0001/results")) is None


class TestRouterRegistration:
    def test_exact_routes_resolve_by_dict_lookup(self):
        router = Router()
        spec = router.add("GET", "/feed", handler)
        match = router.resolve("GET", "/feed")
        assert match is not None
        assert match.route is spec
        assert match.path_params == {}
        assert router.resolve("POST", "/feed") is None
        assert router.resolve("GET", "/feed/extra") is None

    def test_param_routes_bind_path_params(self):
        router = Router()
        router.add("GET", "/hunts/{hunt_id}", handler)
        match = router.resolve("GET", "/hunts/h0042")
        assert match is not None
        assert match.path_params == {"hunt_id": "h0042"}

    def test_most_literal_pattern_wins(self):
        router = Router()
        # Registration order is deliberately the wrong way around.
        wildcard = router.add("GET", "/hunts/{hunt_id}", handler)
        literal = router.add("GET", "/hunts/all",
                             lambda request, account=None: {})
        assert router.resolve("GET", "/hunts/all").route is literal
        assert router.resolve("GET", "/hunts/h1").route is wildcard

    def test_same_shape_conflict_raises(self):
        router = Router()
        router.add("GET", "/hunts/{hunt_id}", handler)
        with pytest.raises(ConfigurationError):
            router.add("GET", "/hunts/{other}", handler)
        # A different method is a different shape.
        router.add("POST", "/hunts/{hunt_id}", handler)

    def test_duplicate_name_raises(self):
        router = Router()
        router.add("GET", "/a", handler, name="thing")
        with pytest.raises(ConfigurationError):
            router.add("GET", "/b", handler, name="thing")

    def test_route_named_lookup(self):
        router = Router()
        spec = router.add("GET", "/a", handler, name="thing")
        assert router.route_named("thing") is spec
        with pytest.raises(ConfigurationError):
            router.route_named("missing")

    def test_len_and_routes_enumeration(self):
        router = Router()
        router.add("GET", "/b", handler)
        router.add("GET", "/a", handler)
        router.add("GET", "/a/{x}", handler)
        assert len(router) == 3
        assert [spec.pattern for spec in router.routes()] == [
            "/a", "/a/{x}", "/b"
        ]


class TestPrefixAndMounting:
    def test_prefix_applies_to_registration_and_resolution(self):
        router = Router(prefix="/v1")
        router.add("GET", "/hunts", handler)
        assert router.resolve("GET", "/v1/hunts") is not None
        assert router.resolve("GET", "/hunts") is None

    def test_prefix_must_be_absolute(self):
        with pytest.raises(ConfigurationError):
            Router(prefix="v1")

    def test_include_composes_prefixes(self):
        inner = Router()
        inner.add("GET", "/status", handler, name="inner.status")
        outer = Router(prefix="/v1")
        outer.include(inner, prefix="/admin")
        match = outer.resolve("GET", "/v1/admin/status")
        assert match is not None
        assert match.route.name == "inner.status"

    def test_resource_registration(self):
        class Hunts:
            def routes(self):
                return (
                    RouteSpec("GET", "/hunts", handler,
                              name="hunts.list"),
                    RouteSpec("GET", "/hunts/{hunt_id}", handler,
                              name="hunts.status"),
                )

        assert isinstance(Hunts(), Resource)
        router = Router(prefix="/v1")
        specs = router.add_resource(Hunts())
        assert [spec.pattern for spec in specs] == [
            "/v1/hunts", "/v1/hunts/{hunt_id}"
        ]
        assert router.resolve("GET", "/v1/hunts/h9") is not None

    def test_delay_overrides_survive_prefixing(self):
        router = Router(prefix="/v1")
        spec = router.add("POST", "/posts", handler,
                          processing_delay_median=0.08,
                          processing_delay_sigma=0.3)
        assert spec.processing_delay_median == 0.08
        assert spec.processing_delay_sigma == 0.3
