import pytest

from rankmetric import GabidulinCode, find_wso_basis, make_field


@pytest.fixture(scope="session")
def F4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def F9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def F16():
    return make_field(2, 4)


@pytest.fixture(scope="session")
def F256():
    return make_field(2, 8)


@pytest.fixture(scope="session")
def wso256(F256):
    return find_wso_basis(F256)


@pytest.fixture(scope="session")
def code_8_2(F256, wso256):
    return GabidulinCode(F256, 2, wso256)


@pytest.fixture(scope="session")
def code_8_3(F256, wso256):
    return GabidulinCode(F256, 3, wso256)


@pytest.fixture(scope="session")
def code_4_2(F16):
    return GabidulinCode(F16, 2)
