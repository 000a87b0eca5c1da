"""SharedCheckpoint: publish/attach round-trip, integrity, lifecycle.

The pool's zero-copy story rests on three properties checked here:
attached views are byte-identical to what the publisher laid out,
they are *read-only* (a replica cannot perturb the weights under its
siblings), and a session built from the segment really does serve from
the shared bytes (no hidden copy).  The digest check and the unlink
path guard the failure modes: a torn segment must be refused, and a
closed pool must leave nothing in ``/dev/shm``.
"""

import pickle

import numpy as np
import pytest

from repro.nn.checkpoint import load_checkpoint
from repro.serve import InferenceSession
from repro.serve.shm import NAME_PREFIX, SharedCheckpoint


class TestPublishAttach:
    def test_round_trip_bytes_and_metadata(self, serve_checkpoint):
        path = serve_checkpoint("sr_r9")
        ckpt = load_checkpoint(path)
        with SharedCheckpoint.publish(path) as shared:
            spec = pickle.loads(pickle.dumps(shared.spec))
            attached = SharedCheckpoint.attach(spec)
            assert attached.fingerprint == ckpt.fingerprint
            assert set(attached.state) == set(shared.state)
            for name, view in attached.state.items():
                mine = shared.state[name]
                assert view.dtype == mine.dtype
                assert view.shape == mine.shape
                assert view.tobytes() == mine.tobytes()
            assert attached.verify()
            attached.close()

    def test_views_are_read_only(self, serve_checkpoint):
        with SharedCheckpoint.publish(serve_checkpoint("sr_r9")) as shared:
            attached = SharedCheckpoint.attach(shared.spec)
            for view in attached.state.values():
                with pytest.raises(ValueError):
                    view[...] = 0.0
            attached.close()

    def test_weights_match_a_local_session(self, serve_checkpoint):
        """The segment holds exactly the weight bytes a
        ``from_checkpoint`` session serves from."""
        path = serve_checkpoint("sr_r9")
        session = InferenceSession.from_checkpoint(path)
        local = session.model.state_dict()
        with SharedCheckpoint.publish(path) as shared:
            for name, value in shared.state.items():
                assert value.tobytes() == \
                    np.ascontiguousarray(local[name]).tobytes(), name

    def test_session_shares_segment_memory(self, serve_checkpoint):
        """``from_shared`` rebinds parameters with zero copies."""
        with SharedCheckpoint.publish(serve_checkpoint("sr_r9")) as shared:
            attached = SharedCheckpoint.attach(shared.spec)
            session = InferenceSession.from_shared(attached)
            params = {name: parameter.data for name, parameter
                      in session.model.named_parameters()}
            shared_params = [
                name for name, view in attached.state.items()
                if name in params
                and np.shares_memory(params[name], view)
            ]
            assert shared_params, "no parameter aliases the segment"
            assert len(shared_params) == len(params), \
                "some parameters were copied out of the segment"
            attached.close()


class TestIntegrity:
    def test_digest_mismatch_refused(self, serve_checkpoint):
        with SharedCheckpoint.publish(serve_checkpoint("sr_r9")) as shared:
            spec = pickle.loads(pickle.dumps(shared.spec))
            spec["manifest"]["digest"] = "0" * 32
            with pytest.raises(ValueError, match="digest mismatch"):
                SharedCheckpoint.attach(spec)
            # verify=False attaches anyway (debugging escape hatch)
            attached = SharedCheckpoint.attach(spec, verify=False)
            assert not attached.verify()
            attached.close()


class TestLifecycle:
    def test_close_unlinks_segment(self, serve_checkpoint):
        shared = SharedCheckpoint.publish(serve_checkpoint("sr_r9"))
        name = shared.name
        assert name.startswith(NAME_PREFIX)
        spec = shared.spec
        shared.close()
        shared.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            SharedCheckpoint.attach(spec)
        with pytest.raises(ValueError):
            shared.state

    def test_attacher_close_does_not_unlink(self, serve_checkpoint):
        with SharedCheckpoint.publish(serve_checkpoint("sr_r9")) as shared:
            first = SharedCheckpoint.attach(shared.spec)
            first.close()
            # the segment must survive an attacher's exit
            second = SharedCheckpoint.attach(shared.spec)
            assert second.verify()
            second.close()
