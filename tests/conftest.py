import pytest

from stfom import embedded_catalog, evaluate_catalog, rank


@pytest.fixture(scope="session")
def catalog():
    return embedded_catalog()


@pytest.fixture(scope="session")
def results(catalog):
    return evaluate_catalog(catalog)


@pytest.fixture(scope="session")
def ranked(catalog, results):
    return rank(catalog, results)
