"""Descriptor algebra, fitness, and the JSON interchange schemas."""

import dataclasses

import pytest

from conftest import req, svc
from dbesim.config import POOL_SERVICE, REQUEST, SERVICE, TOKEN, ConfigError, read_json
from dbesim.manifest import (
    Request,
    ServiceManifest,
    chain_descriptor,
    chain_price,
    compat,
    coverage,
    fitness,
    surplus,
)
from dbesim.rng import derive_substream


# --- tokens ---

def parse_token(value):
    return read_json(value, "token", ConfigError, TOKEN.read)


def test_token_lowercased_at_parse():
    assert parse_token("Alpha_3") == "alpha_3"


@pytest.mark.parametrize("bad", ["", "has space", "dash-ed", "Ünicode", "x" * 65])
def test_token_rejects_invalid(bad):
    with pytest.raises(ConfigError):
        parse_token(bad)


# --- descriptor ---

def test_descriptor_empty_chain():
    assert chain_descriptor([]) == frozenset()


def test_descriptor_singleton():
    assert chain_descriptor([svc("s1", {"a", "b"})]) == {"a", "b"}


def test_descriptor_union_collapses_duplicates():
    chain = [svc("s1", {"a", "b"}), svc("s2", {"b", "c"})]
    assert chain_descriptor(chain) == {"a", "b", "c"}


def test_descriptor_concatenation_is_union():
    rng = derive_substream(11, "descr")
    pool = ["a", "b", "c", "d", "e"]
    for trial in range(50):
        c1 = [svc(f"x{i}", {pool[rng.below(5)]}) for i in range(rng.below(4))]
        c2 = [svc(f"y{i}", {pool[rng.below(5)]}) for i in range(rng.below(4))]
        assert chain_descriptor(c1 + c2) == chain_descriptor(c1) | chain_descriptor(c2)


# --- coverage / surplus / compat ---

def test_coverage_exact_cover():
    assert coverage(frozenset("abc"), req(attrs="abc")) == 1.0


def test_coverage_empty_chain():
    assert coverage(frozenset(), req(attrs="abc")) == 0.0


def test_coverage_partial_is_one_third():
    assert coverage(frozenset({"a", "x"}), req(attrs="abc")) == 1 / 3


def test_compat_single_service_both_ends_match():
    chain = [svc("s", {"a"}, in_port="src", out_port="dst")]
    assert compat(chain, req()) == 1.0


def test_compat_single_service_no_match():
    chain = [svc("s", {"a"}, in_port="other", out_port="other2")]
    assert compat(chain, req()) == 0.0


def test_compat_two_services_all_junctions():
    chain = [svc("s1", {"a"}, in_port="src", out_port="mid"),
             svc("s2", {"b"}, in_port="mid", out_port="dst")]
    assert compat(chain, req()) == 1.0


def test_compat_empty_chain_is_zero():
    assert compat([], req()) == 0.0


def test_compat_denominator_is_chain_length_plus_one():
    rng = derive_substream(12, "compat")
    ports = ["p0", "p1", "p2"]
    for trial in range(100):
        k = 1 + rng.below(4)
        chain = [svc(f"s{i}", {"a"},
                     in_port=ports[rng.below(3)], out_port=ports[rng.below(3)])
                 for i in range(k)]
        r = req(source=ports[rng.below(3)], sink=ports[rng.below(3)], max_len=4)
        c = compat(chain, r)
        m = round(c * (k + 1))
        assert 0 <= m <= k + 1
        assert c == m / (k + 1)


# --- fitness ---

def _three_attr_request():
    return req("q", {"a", "b", "c"}, source="sigma", sink="tau", max_len=3)


def test_fitness_perfect_two_service_chain():
    r = _three_attr_request()
    chain = [svc("s1", {"a", "b"}, in_port="sigma", out_port="x"),
             svc("s2", {"c"}, in_port="x", out_port="tau")]
    assert fitness(chain, r) == 1.0


def test_fitness_partial_chain_hand_value():
    # coverage 2/3, no surplus, one of two junctions satisfied
    r = _three_attr_request()
    chain = [svc("s1", {"a", "b"}, in_port="sigma", out_port="x")]
    assert fitness(chain, r) == pytest.approx((2 / 3) * (1 / 2))


def test_fitness_zero_when_incompatible():
    r = _three_attr_request()
    chain = [svc("s1", {"a", "b", "c"}, in_port="nope", out_port="wrong")]
    assert fitness(chain, r) == 0.0


def test_fitness_empty_chain():
    assert fitness([], _three_attr_request()) == 0.0


def test_fitness_rejects_bad_beta():
    r = _three_attr_request()
    chain = [svc("s1", {"a"}, in_port="sigma", out_port="tau")]
    for beta in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            fitness(chain, r, beta)


def test_fitness_rejects_overlong_chain():
    r = req(max_len=1)
    chain = [svc("s1", {"a"}), svc("s2", {"a"})]
    with pytest.raises(ValueError):
        fitness(chain, r)


def test_fitness_insensitive_to_attr_listing_order():
    r = _three_attr_request()
    chain1 = [svc("s1", ["a", "b", "c"], in_port="sigma", out_port="tau")]
    chain2 = [svc("s1", ["c", "a", "b"], in_port="sigma", out_port="tau")]
    assert fitness(chain1, r) == fitness(chain2, r)


def test_fitness_one_iff_full_cover_no_surplus_full_compat():
    rng = derive_substream(13, "fit1")
    ports = ["p0", "p1"]
    pool = ["a", "b", "c"]
    for trial in range(300):
        k = 1 + rng.below(3)
        chain = [svc(f"s{i}", {pool[rng.below(3)]},
                     in_port=ports[rng.below(2)], out_port=ports[rng.below(2)])
                 for i in range(k)]
        r = req(attrs={pool[rng.below(3)], pool[rng.below(3)]},
                source=ports[rng.below(2)], sink=ports[rng.below(2)], max_len=3)
        f = fitness(chain, r)
        assert 0.0 <= f <= 1.0
        attrs = chain_descriptor(chain)
        is_perfect = (coverage(attrs, r) == 1.0 and surplus(attrs, r) == 0.0
                      and compat(chain, r) == 1.0)
        assert (f == 1.0) == is_perfect


def test_adding_requested_service_monotone():
    # A service whose attrs are within the request never lowers coverage and
    # never raises surplus.
    rng = derive_substream(14, "mono")
    pool = ["a", "b", "c", "d"]
    r = req(attrs={"a", "b", "c"}, max_len=5)
    for trial in range(200):
        chain = [svc(f"s{i}", {pool[rng.below(4)]}) for i in range(1 + rng.below(3))]
        extra = svc("extra", {pool[rng.below(3)]})  # subset of requested attrs
        before = chain_descriptor(chain)
        after = chain_descriptor(chain + [extra])
        assert coverage(after, r) >= coverage(before, r)
        assert surplus(after, r) <= surplus(before, r)


# --- manifest validation ---

def test_validate_manifest_ok():
    assert POOL_SERVICE.violations(svc("s", {"a"})) == []


def test_validate_manifest_reliability_out_of_range():
    m = svc("s", {"a"})
    m.reliability = 1.5
    assert "reliability out of range" in POOL_SERVICE.violations(m)


def test_validate_manifest_success_exceeds_usage():
    m = svc("s", {"a"}, usage=3, success=5)
    assert "success exceeds usage" in POOL_SERVICE.violations(m)


def test_validate_manifest_negative_price():
    m = svc("s", {"a"})
    m.price = -1.0
    assert "negative price" in POOL_SERVICE.violations(m)


# --- copy ---

def test_copy_carries_every_field_and_owns_its_counters():
    """`copy` names the fields one by one: every field reaches the copy (each
    is set off its default here, so a field added later must be set too),
    and bumping the copy's counters leaves the original alone."""
    original = ServiceManifest("s", frozenset({"a"}), "x", "y", price=2.5, reliability=0.75,
                               usage_count=4, success_count=3)
    copied = original.copy()
    assert copied is not original
    for f in dataclasses.fields(ServiceManifest):
        assert getattr(original, f.name) != f.default, f.name
        assert getattr(copied, f.name) == getattr(original, f.name), f.name
    copied.usage_count += 1
    copied.success_count += 1
    assert (original.usage_count, original.success_count) == (4, 3)


# --- price ---

def test_chain_price_sums():
    chain = [svc("s1", {"a"}, price=1.5), svc("s2", {"a"}, price=2.25)]
    assert chain_price(chain) == 3.75


# --- JSON interchange ---

def service_from_obj(obj):
    return ServiceManifest(**read_json(obj, "service", ConfigError, SERVICE.read))


def request_from_obj(obj):
    return Request(**read_json(obj, "request", ConfigError, REQUEST.read))


def _service_obj():
    return {"id": "s1", "attrs": ["a", "b"], "in_port": "src", "out_port": "dst",
            "price": 2.0, "reliability": 0.9}


def test_service_obj_roundtrip():
    m = service_from_obj(_service_obj())
    assert service_from_obj(SERVICE.echo(m)) == m


def test_service_obj_rejects_unknown_key():
    obj = _service_obj()
    obj["color"] = "blue"
    with pytest.raises(ConfigError, match="color"):
        service_from_obj(obj)


def test_service_obj_rejects_missing_key():
    obj = _service_obj()
    del obj["price"]
    with pytest.raises(ConfigError, match="price"):
        service_from_obj(obj)


def test_request_obj_roundtrip_with_budget():
    obj = {"id": "r1", "req_attrs": ["a"], "source_port": "src",
           "sink_port": "dst", "max_len": 2, "budget": 10.0}
    r = request_from_obj(obj)
    assert r.budget == 10.0
    assert request_from_obj(REQUEST.echo(r)) == r
    del obj["budget"]
    assert request_from_obj(obj).budget is None


def test_request_obj_rejects_unknown_key():
    obj = {"id": "r1", "req_attrs": ["a"], "source_port": "src",
           "sink_port": "dst", "max_len": 2, "deadline": 5}
    with pytest.raises(ConfigError, match="deadline"):
        request_from_obj(obj)
