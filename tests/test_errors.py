"""Every package error survives pickling, so it can cross a process boundary."""

import pickle

import numpy as np
import pytest

from treecov import errors
from treecov.ultrametric import validate_ultrametric


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


@pytest.mark.parametrize("cls", [errors.TreecovError, *subclasses(errors.TreecovError)],
                         ids=lambda cls: cls.__name__)
def test_round_trip(cls):
    if cls is errors.UltrametricViolationError:
        error = cls(validate_ultrametric(np.ones((2, 2))))
    else:
        error = cls("something went wrong")
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error)
    if cls is errors.UltrametricViolationError:
        assert back.report == error.report
        assert not back.report.valid
