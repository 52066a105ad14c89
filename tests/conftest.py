import numpy as np
import pytest


@pytest.fixture(params=[16, 65536])
def caller_bufsize(request):
    """A ufunc buffer size set by the caller (the default is 8192), restored afterwards."""
    old = np.setbufsize(request.param)
    yield request.param
    np.setbufsize(old)
