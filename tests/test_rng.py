import pytest

from treecov.errors import InvalidArgumentError
from treecov.rng import RngStream


@pytest.mark.parametrize("seed,stream_id", [(-5, 0), (0, -1)])
def test_negative_seed_or_stream_is_rejected(seed, stream_id):
    with pytest.raises(InvalidArgumentError, match="non-negative"):
        RngStream(seed, stream_id)


@pytest.mark.parametrize("seed", [0, 3])
def test_default_uniform_keeps_the_generator_bits(seed):
    # the default bounds return generator.random(), whose bits equal
    # generator.uniform(0, 1)'s; other bounds still scale the draw
    draws = RngStream(seed, 2)
    got = [draws.uniform() for _ in range(20000)] + [draws.uniform(2.0, 5.0)]
    ref = RngStream(seed, 2).generator
    want = ref.uniform(0.0, 1.0, size=20000).tolist() + [float(ref.uniform(2.0, 5.0))]
    assert got == want
    assert got[:20000] == RngStream(seed, 2).generator.random(20000).tolist()
