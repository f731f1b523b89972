"""Tier-1 smoke tests for ``repro.fx.compile`` — the one-call optimizing
pipeline (pointwise fusion + memory planning over the pass library)."""

import pickle

import numpy as np
import pytest

import repro
import repro.functional as F
import repro.fx as fx
from repro import nn
from repro.fx.graph import Graph
from repro.fx.passes import PassRecord, shared_transform_cache
from repro.models import (
    DeepRecommender,
    LearningToPaintActor,
    SimpleCNN,
    resnet18,
)


class PointwiseChain(nn.Module):
    """A deep elementwise chain — the best case for fusion."""

    def __init__(self, depth: int = 16):
        super().__init__()
        self.depth = depth

    def forward(self, x):
        t = x
        for i in range(self.depth // 4):
            t = F.relu(t)
            t = t * 1.01
            t = t + 0.1
            t = F.clamp(t, min=-4.0, max=4.0)
        return t


def _max_diff(a, b):
    if isinstance(a, (tuple, list)):
        return max(_max_diff(x, y) for x, y in zip(a, b))
    return float(np.max(np.abs(a.data.astype(np.float64) - b.data.astype(np.float64))))


# (factory, input shape, tolerance): exact for pipelines that only fuse
# pointwise ops; small slack where conv-bn folding re-associates floats.
CASES = {
    "pointwise_chain": (lambda: PointwiseChain(16).eval(), (8, 32), 0.0),
    "simple_cnn": (lambda: SimpleCNN().eval(), (1, 3, 16, 16), 1e-4),
    "resnet18": (lambda: resnet18(num_classes=10).eval(), (1, 3, 32, 32), 1e-3),
    "deep_recommender": (
        lambda: DeepRecommender(n_items=64, layer_sizes=(32, 16)).eval(),
        (2, 64), 0.0),
    "learning_to_paint": (lambda: LearningToPaintActor().eval(),
                          (1, 9, 32, 32), 1e-3),
}


class TestCompiledEqualsEager:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_compiled_matches_eager(self, name):
        factory, shape, tol = CASES[name]
        repro.manual_seed(7)
        m = factory()
        x = repro.randn(*shape)
        ref = m(x)
        cm = fx.compile(m, (x,))
        out1, out2 = cm(x), cm(x)
        assert _max_diff(ref, out1) <= tol
        assert _max_diff(out1, out2) == 0.0  # arena reuse is deterministic

    def test_pointwise_chain_fuses_to_one_kernel(self):
        m = PointwiseChain(16).eval()
        x = repro.randn(4, 8)
        cm = fx.compile(m, (x,))
        r = cm.compile_report
        assert r.fused_regions == 1
        assert r.fused_ops == 16
        assert np.array_equal(cm(x).data, m(x).data)

    def test_training_mode_skips_conv_bn_and_is_exact(self):
        m = SimpleCNN()  # training=True: BN folding must be skipped
        x = repro.randn(2, 3, 16, 16)
        ref = m(x)
        cm = fx.compile(m, (x,))
        assert "fuse_conv_bn" not in [rec.name for rec in cm.compile_report.records]
        assert np.array_equal(cm(x).data, ref.data)


class TestCompileDriver:
    def test_input_module_not_mutated(self):
        m = PointwiseChain(8).eval()
        gm = fx.symbolic_trace(m)
        nodes = len(gm.graph)
        x = repro.randn(3, 4)
        fx.compile(gm, (x,))
        assert len(gm.graph) == nodes
        assert np.array_equal(gm(x).data, m(x).data)

    def test_report_contents(self):
        m = PointwiseChain(8).eval()
        x = repro.randn(3, 4)
        cm = fx.compile(m, (x,))
        r = cm.compile_report
        assert r.nodes_after <= r.nodes_before
        assert r.input_shapes == ((3, 4),)
        names = [rec.name for rec in r.records]
        assert names[:4] == ["shape_prop", "dce", "cse", "const_fold"]
        assert "pointwise_fuse" in names and "memory_plan" in names
        assert all(isinstance(rec, PassRecord) for rec in r.records)
        assert "fusion" in r.format()

    def test_single_tensor_example_input(self):
        m = PointwiseChain(8).eval()
        x = repro.randn(2, 2)
        cm = fx.compile(m, x)
        assert np.array_equal(cm(x).data, m(x).data)

    def test_stage_toggles(self):
        m = PointwiseChain(8).eval()
        x = repro.randn(2, 3)
        plain = fx.compile(m, (x,), fuse=False, memory_planning=False)
        assert plain.compile_report.fused_regions == 0
        assert plain.compile_report.memory is None
        assert np.array_equal(plain(x).data, m(x).data)

    def test_no_example_inputs_runs_generic_cleanups_only(self):
        m = PointwiseChain(8).eval()
        cm = fx.compile(m)
        assert cm.compile_report.fused_regions == 0
        x = repro.randn(4, 4)
        assert np.array_equal(cm(x).data, m(x).data)

    def test_recompile_with_new_shapes_is_not_stale(self):
        # The transform cache keys the pipeline on the example inputs'
        # shapes: new shapes must re-specialize fusion, not replay it.
        class M(nn.Module):
            def forward(self, x):
                t = F.sigmoid(F.relu(x) * 2.0)
                return F.matmul(t, t)

        m = M().eval()
        a = repro.randn(4, 4)
        cm_a = fx.compile(m, (a,))
        assert np.array_equal(cm_a(a).data, m(a).data)
        b = repro.randn(9, 9)
        cm_b = fx.compile(m, (b,))
        assert np.array_equal(cm_b(b).data, m(b).data)

    def test_compiled_module_pickles(self):
        import pickle

        m = PointwiseChain(12).eval()
        x = repro.randn(4, 4)
        cm = fx.compile(m, (x,))
        cm2 = pickle.loads(pickle.dumps(cm))
        assert np.array_equal(cm2(x).data, m(x).data)
        assert cm2.compile_report.fused_regions == cm.compile_report.fused_regions


class BNNet(nn.Module):
    """Two conv-bn pairs with fusable pointwise tails and one planned
    arena slot."""

    def __init__(self):
        super().__init__()
        self.conv1 = nn.Conv2d(3, 8, 3, padding=1)
        self.bn1 = nn.BatchNorm2d(8)
        self.conv2 = nn.Conv2d(8, 8, 3, padding=1)
        self.bn2 = nn.BatchNorm2d(8)

    def forward(self, x):
        y = F.sigmoid(F.relu(self.bn1(self.conv1(x))) * 2.0 + 1.0)
        z = F.relu(self.bn2(self.conv2(y)) + y) * 0.5
        return F.tanh(z - 1.0) + z


@pytest.fixture
def counts(monkeypatch):
    """Counts content hashes (``include_attrs=True``) and pickle calls."""
    seen = {"hash": 0, "dumps": 0, "loads": 0}
    structural_hash = Graph.structural_hash

    def counting_hash(self, include_attrs=True, *args, **kwargs):
        seen["hash"] += bool(include_attrs)
        return structural_hash(self, include_attrs, *args, **kwargs)

    monkeypatch.setattr(Graph, "structural_hash", counting_hash)
    for name in ("dumps", "loads"):
        def counting(*args, _fn=getattr(pickle, name), _name=name, **kwargs):
            seen[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(pickle, name, counting)

    def take():
        out = (seen["hash"], seen["dumps"], seen["loads"])
        seen.update(hash=0, dumps=0, loads=0)
        return out

    return take


class TestCompileTransformCache:
    """The whole numpy pipeline is one transform-cache entry."""

    def _model_and_input(self):
        repro.manual_seed(7)
        return BNNet().eval(), repro.randn(2, 3, 8, 8)

    def test_one_hash_per_compile(self, counts):
        m, x = self._model_and_input()
        shared_transform_cache().clear()
        counts()
        fx.compile(m, (x,))
        assert counts() == (1, 1, 0)  # miss: hash, store
        cm = fx.compile(m, (x,))
        assert counts() == (1, 0, 1)  # hit: hash, unpickle
        assert all(r.cache_hit for r in cm.compile_report.records)

    def test_hit_miss_and_uncached_artifacts_agree(self):
        m, x = self._model_and_input()
        shared_transform_cache().clear()
        miss = fx.compile(m, (x,))
        hit = fx.compile(m, (x,))
        off = fx.compile(m, (x,), cache=False)
        assert not any(r.cache_hit for r in miss.compile_report.records)
        assert all(r.cache_hit for r in hit.compile_report.records)
        assert miss.code == hit.code == off.code
        assert miss.compile_report.fused_regions > 0
        memory = miss.compile_report.memory
        assert memory is not None and memory.planned > 0
        assert memory == hit.compile_report.memory == off.compile_report.memory
        ref = miss(x).data
        assert np.array_equal(hit(x).data, ref)
        assert np.array_equal(off(x).data, ref)
        # Each artifact owns its arena: the report's plan is the module's.
        assert hit.compile_report.memory.arena is not memory.arena

    def test_same_shape_different_values(self):
        m, a = self._model_and_input()
        b = repro.randn(2, 3, 8, 8)
        shared_transform_cache().clear()
        ca = fx.compile(m, (a,))
        cb = fx.compile(m, (b,))
        assert all(r.cache_hit for r in cb.compile_report.records)
        for x in (a, b):
            assert _max_diff(ca(x), m(x)) < 1e-4
            assert np.array_equal(cb(x).data, ca(x).data)

    def test_compile_leaves_rng_state_unchanged(self):
        from repro.tensor import get_rng

        m, x = self._model_and_input()
        state = get_rng().bit_generator.state
        cm = fx.compile(m, (x,), cache=False)
        assert get_rng().bit_generator.state == state
        assert _max_diff(cm(x), m(x)) < 1e-4

    def test_fused_conv_weights_are_the_folded_bn(self):
        from repro.fx.passes import fuse_conv_bn_weights

        m, x = self._model_and_input()
        conv, bn = m.conv1, m.bn1
        bn.running_mean.data = np.linspace(-1, 1, 8).astype(np.float32)
        bn.running_var.data = np.linspace(0.5, 2, 8).astype(np.float32)
        fused = fuse_conv_bn_weights(conv, bn)
        assert type(fused) is nn.Conv2d
        scale = bn.weight.data / np.sqrt(bn.running_var.data + bn.eps)
        assert np.array_equal(
            fused.weight.data,
            (conv.weight.data * scale.reshape(-1, 1, 1, 1)).astype(np.float32))
        assert np.array_equal(
            fused.bias.data,
            ((conv.bias.data - bn.running_mean.data) * scale
             + bn.bias.data).astype(np.float32))
        assert _max_diff(fused(x), bn(conv(x))) < 1e-5
