import pytest

from qzm.basis import FockContext
from qzm.fock import EPS_SIGN
from qzm.scalars import GENERIC, ROOT, make_field


@pytest.fixture(scope="session")
def eps_sign():
    return EPS_SIGN


@pytest.fixture(scope="session")
def field_h4():
    return make_field(ROOT, 4)


@pytest.fixture(scope="session")
def field_generic():
    return make_field(GENERIC)


@pytest.fixture(scope="session")
def ctx21(eps_sign):
    return FockContext(2, 1, eps_sign=eps_sign)


@pytest.fixture(scope="session")
def ctx22(eps_sign):
    return FockContext(2, 2, eps_sign=eps_sign)


@pytest.fixture(scope="session")
def ctx31(eps_sign):
    return FockContext(3, 1, eps_sign=eps_sign)


@pytest.fixture(scope="session")
def ctx32(eps_sign):
    return FockContext(3, 2, eps_sign=eps_sign)


@pytest.fixture(scope="session")
def gctx2(eps_sign):
    return FockContext(2, generic=True, eps_sign=eps_sign)


@pytest.fixture(scope="session")
def gctx3(eps_sign):
    return FockContext(3, generic=True, eps_sign=eps_sign)
