import pytest

from qzm.basis import FockContext
from qzm.scalars import GENERIC, ROOT, make_field


@pytest.fixture(scope="session")
def field_h4():
    return make_field(ROOT, 4)


@pytest.fixture(scope="session")
def field_generic():
    return make_field(GENERIC)


@pytest.fixture(scope="session")
def ctx21():
    return FockContext(2, 1)


@pytest.fixture(scope="session")
def ctx22():
    return FockContext(2, 2)


@pytest.fixture(scope="session")
def ctx31():
    return FockContext(3, 1)


@pytest.fixture(scope="session")
def ctx32():
    return FockContext(3, 2)


@pytest.fixture(scope="session")
def gctx2():
    return FockContext(2, generic=True)


@pytest.fixture(scope="session")
def gctx3():
    return FockContext(3, generic=True)
