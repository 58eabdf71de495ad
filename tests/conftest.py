"""Settings for the whole suite.

scipy is an oracle of the tests, not a dependency of the package, so pytest
must start where it is not installed: the tests that need no oracle run with
pytest alone.
"""


def pytest_configure(config):
    # an unhandled scipy IntegrationWarning is a failure, not noise on stderr
    try:
        import scipy.integrate  # noqa: F401
    except ImportError:
        return
    config.addinivalue_line("filterwarnings", "error::scipy.integrate.IntegrationWarning")
