import pytest

from treecov.errors import InvalidArgumentError
from treecov.rng import RngStream


@pytest.mark.parametrize("seed,stream_id", [(-5, 0), (0, -1)])
def test_negative_seed_or_stream_is_rejected(seed, stream_id):
    with pytest.raises(InvalidArgumentError, match="non-negative"):
        RngStream(seed, stream_id)
