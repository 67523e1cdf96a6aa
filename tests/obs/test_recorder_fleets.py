"""Recorder outputs per shaper fleet class, serial and batched.

The recorder reads shaper ceilings once per event step and books every
change as a throttle (the ceiling dropped) or a redraw.  These tests
pin the byte-exact recorder outputs — span/event JSONL, Prometheus
text, and the scraped series — of one seeded recorded stream on each
fleet class that changes ceilings, and check that recorded cores run
through :func:`~repro.simulator.multistream.run_cores` produce the
results and recorder outputs of serial ``execute()`` byte for byte.
"""

import hashlib

import numpy as np
import pytest

from repro.netmodel import (
    PerCoreQosModel,
    QuantileDistribution,
    TokenBucketModel,
    TokenBucketParams,
    UniformQuantileSamplingModel,
)
from repro.netmodel.fleet import (
    PerCoreQosFleet,
    ResamplingFleet,
    ScalarFleetAdapter,
    TokenBucketFleet,
)
from repro.obs import ObsRecorder
from repro.scenarios.generate import job_stream, poisson_arrivals
from repro.simulator import Cluster, NodeSpec, SparkEngine
from repro.simulator.multistream import run_cores

_BUCKET = TokenBucketParams(
    peak_gbps=10.0,
    capped_gbps=1.0,
    replenish_gbps=0.95,
    capacity_gbit=60.0,
    resume_threshold_gbit=10.0,
    initial_budget_gbit=2.0,
)
_DIST = QuantileDistribution(
    probs=(0.01, 0.25, 0.5, 0.75, 0.99),
    values=(0.4, 2.0, 4.5, 7.0, 9.6),
)


def _factory(kind, seed):
    """Per-node link models whose fabric builds a ``kind`` fleet."""
    if kind is TokenBucketFleet:
        return lambda node: TokenBucketModel(_BUCKET)
    if kind is ResamplingFleet:
        return lambda node: UniformQuantileSamplingModel(
            _DIST, interval_s=4.0, seed=seed * 10 + node
        )
    if kind is PerCoreQosFleet:
        return lambda node: PerCoreQosModel(cores=4, seed=seed * 10 + node)
    # Alternating model types: the fabric falls back to the adapter.
    return lambda node: (
        TokenBucketModel(_BUCKET)
        if node % 2 == 0
        else UniformQuantileSamplingModel(
            _DIST, interval_s=4.0, seed=seed * 10 + node
        )
    )


_KINDS = (TokenBucketFleet, ResamplingFleet, PerCoreQosFleet, ScalarFleetAdapter)


def _recorded_state(kind, seed):
    """An unstarted recorded 4-job stream on a 4-node ``kind`` cluster."""
    rng = np.random.default_rng(seed)
    cluster = Cluster(
        n_nodes=4,
        node_spec=NodeSpec(slots=4),
        link_model_factory=_factory(kind, seed),
    )
    times = poisson_arrivals(rng, rate_per_min=4.0, n_jobs=4)
    stream = job_stream(rng, times, n_nodes=4, slots=4, data_scale=0.2)
    engine = SparkEngine(cluster, rng=rng, sample_interval_s=5.0)
    recorder = ObsRecorder(scrape_interval_s=5.0, window_s=60.0)
    state = engine.stream_state(stream, scheduler="fair", recorder=recorder)
    assert type(state.fabric.fleet) is kind
    return state, recorder


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _recorder_digests(recorder) -> dict:
    series = hashlib.sha256()
    for name, ts in sorted(recorder.series().items()):
        series.update(name.encode())
        series.update(np.asarray(ts.times, dtype=float).tobytes())
        series.update(np.asarray(ts.values, dtype=float).tobytes())
    return {
        "jsonl": _sha(recorder.tracer.to_jsonl().encode()),
        "prometheus": _sha(recorder.render_prometheus().encode()),
        "series": series.hexdigest(),
    }


def _result_bytes(result) -> bytes:
    parts = [repr((result.scheduler, result.makespan_s, result.n_steps))]
    for job in result.job_results:
        parts.append(
            repr(
                (
                    job.job_name,
                    job.submit_s,
                    job.finish_s,
                    sorted(job.stage_windows.items()),
                    list(job.tasks_per_node),
                )
            )
        )
    out = "\n".join(parts).encode()
    out += result.sample_times.tobytes() + result.egress_rates.tobytes()
    if result.budgets is not None:
        out += result.budgets.tobytes()
    return out


def _shaper_events(recorder) -> int:
    return sum(
        1
        for e in recorder.tracer.events("fabric")
        if e["name"] in ("shaper_throttle", "shaper_redraw")
    )


#: sha256 digests of one seeded recorded run per fleet class.  They
#: were taken while the fleet still pushed each transition to the
#: recorder, so they pin that reading ceilings books the same events.
_PINNED = {
    "TokenBucketFleet": {
        "jsonl": (
            "95edfb3e695d9220535fc7a2569a3ee6"
            "74611ba0c5ee4c4e5c73dac766676840"
        ),
        "prometheus": (
            "66bcb6a689e36bf0ba9d45b0e0944ab6"
            "4ecd9d46984e5fbc3febaefcf0971c52"
        ),
        "series": (
            "990930bc7f310c054261f6fa034e6855"
            "fff00360fb6d6d8196784012e6e6158b"
        ),
    },
    "ResamplingFleet": {
        "jsonl": (
            "fac51de8cce27f4dbf8589427818046b"
            "d98cec5664c2587f8af514bbaf175dcb"
        ),
        "prometheus": (
            "8aa7ff7bc9ec62a6b61a465dace9f8cc"
            "5349cbc3264474617efa03963d90d545"
        ),
        "series": (
            "bf9365bf2b3f3acd1acfc32f941d46ce"
            "ebd0f2564c9d598e26a77a5e3b696358"
        ),
    },
    "PerCoreQosFleet": {
        "jsonl": (
            "1effd3a9300555d24fa4f9cc40776ce7"
            "3badaddd0b38805a83e9ca86f40f38ec"
        ),
        "prometheus": (
            "d7862f6031246fdf748eca6ad6682319"
            "1bdbd2533c05198b88e32469df840bbf"
        ),
        "series": (
            "512d32c7c0dc59a769993887cd3344a6"
            "404239a1209185613585dbcd6da9f2ac"
        ),
    },
    "ScalarFleetAdapter": {
        "jsonl": (
            "b13ce5be4e0246b42ca80744e1367df2"
            "62283b5fc277ca71261d0ae6b0ac5e62"
        ),
        "prometheus": (
            "cc2730a2a7606d38de1edfaa935ade56"
            "48297e5d366035d258cfd37c7d689452"
        ),
        "series": (
            "2cc42f5ea233858ea0552add6e7611d3"
            "1058058950a44897547a1c6829f24508"
        ),
    },
}


class TestPinnedRecorderOutputs:
    @pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.__name__)
    def test_recorder_outputs_match_pins(self, kind):
        state, recorder = _recorded_state(kind, seed=3)
        state.execute()
        assert _shaper_events(recorder) > 0
        assert _recorder_digests(recorder) == _PINNED[kind.__name__]


class TestBatchedRecordedCores:
    @pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.__name__)
    def test_run_cores_matches_serial_execute(self, kind):
        seeds = (3, 4, 5)
        serial = []
        for seed in seeds:
            state, recorder = _recorded_state(kind, seed)
            serial.append((state.execute(), recorder))
        cores = [_recorded_state(kind, seed) for seed in seeds]
        batched = run_cores([state for state, _ in cores])
        assert len(batched) == len(seeds)
        for (want, want_rec), got, (_, got_rec) in zip(serial, batched, cores):
            assert _result_bytes(got) == _result_bytes(want)
            assert _shaper_events(got_rec) > 0
            assert _recorder_digests(got_rec) == _recorder_digests(want_rec)
