"""Run the slow end-to-end acceptance module after every unit test."""


def pytest_collection_modifyitems(items):
    # sort is stable, so each group keeps its collection order
    items.sort(key=lambda item: item.module.__name__.endswith("test_acceptance"))
