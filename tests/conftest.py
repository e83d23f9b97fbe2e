import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per the driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture()
def pg_dsn(tmp_path):
    """A ``fakepg://`` DSN over a fresh shared sqlite file (see
    tests/fakepg.py); returns (dsn, path of the backing DB)."""
    from quickwit_ray.state.sql import register_driver
    from tests.fakepg import _FakePostgres

    db = str(tmp_path / "shared-metastore.db")
    register_driver("fakepg", lambda dsn: _FakePostgres(db))
    return f"fakepg://{db}", db
