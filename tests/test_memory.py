"""Memory bounds of the ingest layers, by tracemalloc, and the scoring
chunks that keep evaluation's bounded."""

import tracemalloc

import numpy as np
import pytest

from choruscvr import trainer
from choruscvr.data import read_log, write_log
from choruscvr.features import build_matrix
from choruscvr.model import Architecture, init_model
from choruscvr.simulator import SimConfig, generate, sim_schema
from choruscvr.trainer import ExperimentConfig

MB = 1024 * 1024
# The acceptance protocol's model: no encoder, one tower layer.
ARCH = Architecture(encoder_widths=(), tower_widths=(16,))


def _peak(fn):
    """``fn()`` and the most memory it held at once, less what was held
    before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def simulated_60k(tmp_path_factory):
    config = SimConfig(n_exposures=60_000, seed=0)
    log, _ = generate(config)
    return log, sim_schema(config, embed_width=4), tmp_path_factory.mktemp("memory") / "log.csv"


def test_write_log_holds_one_block(simulated_60k):
    log, schema, path = simulated_60k
    _, peak = _peak(lambda: write_log(log, path, schema))
    assert peak <= 8 * MB, f"write_log peaked at {peak / MB:.1f} MB"


def test_read_log_peaks_within_twice_the_file(simulated_60k):
    """The two matrices it returns are 1.55 times the file; the
    vectorized pass adds one block of the file and its scratch, never the
    whole file (which would make 2.55 times)."""
    log, schema, path = simulated_60k
    write_log(log, path, schema)
    (back, _), peak = _peak(lambda: read_log(path, schema))
    assert back == log
    size = path.stat().st_size
    assert peak <= 2 * size, f"read_log peaked at {peak / size:.1f}x the file ({size / MB:.2f} MB)"


def test_evaluate_30k_rows_peaks_within_6_mb():
    """Scoring holds one chunk's feature matrix, never the log's."""
    config = SimConfig(n_exposures=30_000, seed=0)
    log, _ = generate(config)
    params = init_model(sim_schema(config, embed_width=4), ARCH, seed=0)
    _, peak = _peak(lambda: trainer.evaluate(params, log))
    assert peak <= 6 * MB, f"evaluate peaked at {peak / MB:.1f} MB"


def test_chunked_scores_equal_one_chunk_byte_for_byte():
    """Rows score independently, and a power-of-two chunk (20,001 rows
    are ten chunks of 2048 and one row) keeps every score's bits: the
    scores ``evaluate`` takes, each chunk's feature matrix built from its
    rows of the log, equal one pass over the whole log's matrix."""
    config = SimConfig(n_exposures=20_001, seed=5)
    log, _ = generate(config)
    schema = sim_schema(config, embed_width=4)
    params, _ = trainer.train(ExperimentConfig(epochs=1, arch=ARCH, seed=1), log, log[:0], schema)
    chunked = trainer._score_log(params, log)
    whole = trainer.predict_values(params, build_matrix(log, schema))
    assert chunked.keys() == whole.keys()
    for head in whole:
        assert np.asarray(chunked[head]).tobytes() == np.asarray(whole[head]).tobytes(), head
