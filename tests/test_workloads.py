"""Workload generators and named suites (paper Tables III/IV)."""

import hashlib
import itertools

import pytest

from repro.config.presets import small_8core
from repro.cpu.trace import LOAD, NONMEM, STORE, take, validate_record
from repro.errors import ConfigError
from repro.workloads import (
    ALL_WORKLOADS,
    MIXES,
    QUICK_WORKLOADS,
    WORKLOADS,
    trace_factory,
    workload_names,
)
from repro.workloads.synthetic import (
    blend_trace,
    graph_trace,
    server_trace,
    stream_trace,
)


class TestGeneratorsProduceValidRecords:
    @pytest.mark.parametrize("gen", [
        stream_trace(1, 0, 1 << 16),
        graph_trace(1, 0, 1 << 16),
        blend_trace(1, 0, 1 << 16),
        server_trace(1, 0, 1 << 16),
    ])
    def test_records_valid(self, gen):
        for rec in take(gen, 500):
            validate_record(rec)


class TestDeterminism:
    @pytest.mark.parametrize("maker", [
        lambda s: graph_trace(s, 0, 1 << 16),
        lambda s: blend_trace(s, 0, 1 << 16),
        lambda s: server_trace(s, 0, 1 << 16),
    ])
    def test_same_seed_same_trace(self, maker):
        assert take(maker(42), 300) == take(maker(42), 300)

    def test_different_seeds_differ(self):
        a = take(graph_trace(1, 0, 1 << 16), 300)
        b = take(graph_trace(2, 0, 1 << 16), 300)
        assert a != b

    def test_stream_is_seed_independent(self):
        a = take(stream_trace(1, 0, 1 << 16), 100)
        b = take(stream_trace(9, 0, 1 << 16), 100)
        assert a == b


class TestStreamKernels:
    def test_copy_shape(self):
        recs = take(stream_trace(0, 0, 1 << 16, loads_per_iter=1,
                                 stores_per_iter=1, nonmem_per_iter=2), 400)
        loads = sum(1 for k, _, _ in recs if k == LOAD)
        stores = sum(1 for k, _, _ in recs if k == STORE)
        assert loads == stores  # copy: one load per store

    def test_sequential_addresses(self):
        recs = take(stream_trace(0, 0, 1 << 16), 40)
        loads = [a for k, a, _ in recs if k == LOAD]
        deltas = {b - a for a, b in zip(loads, loads[1:])}
        assert deltas == {8}

    def test_arrays_disjoint(self):
        recs = take(stream_trace(0, 0, 1 << 14), 400)
        load_addrs = {a for k, a, _ in recs if k == LOAD}
        store_addrs = {a for k, a, _ in recs if k == STORE}
        assert not load_addrs & store_addrs


class TestGraphGenerator:
    def test_store_prob_controls_stores(self):
        low = take(graph_trace(1, 0, 1 << 16, store_prob=0.05), 2000)
        high = take(graph_trace(1, 0, 1 << 16, store_prob=0.6), 2000)
        count = lambda recs: sum(1 for k, _, _ in recs if k == STORE)
        assert count(high) > 3 * count(low)

    def test_stores_target_vertices_only(self):
        recs = take(graph_trace(1, 0, 1 << 14), 2000)
        loads = {a for k, a, _ in recs if k == LOAD}
        for k, a, _ in recs:
            if k == STORE:
                assert a in loads  # stores update previously read vertices


class TestServerGenerator:
    def test_zipf_skew(self):
        """Hot objects dominate: top addresses see far more traffic."""
        recs = take(server_trace(1, 0, 1 << 18), 4000)
        from collections import Counter
        counts = Counter(a // 256 for k, a, _ in recs if k != NONMEM)
        top = sum(c for _, c in counts.most_common(10))
        assert top > 0.2 * sum(counts.values())


class TestSuites:
    def test_23_single_workloads(self):
        assert len(WORKLOADS) == 23

    def test_six_mixes_match_table_iii(self):
        assert len(MIXES) == 6
        assert MIXES["mix0"] == ["cam4", "omnetpp", "lbm", "cf",
                                 "mis", "whiskey", "merced", "delta"]
        for parts in MIXES.values():
            assert len(parts) == 8
            assert all(p in WORKLOADS for p in parts)

    def test_all_workloads_ordering(self):
        assert len(ALL_WORKLOADS) == 29
        assert ALL_WORKLOADS[-6:] == [f"mix{i}" for i in range(6)]

    def test_quick_subset_is_subset(self):
        assert set(QUICK_WORKLOADS) <= set(ALL_WORKLOADS)

    def test_workload_names_scales(self):
        assert list(workload_names("full")) == ALL_WORKLOADS
        assert list(workload_names("quick")) == QUICK_WORKLOADS

    def test_paper_refs_attached(self):
        for spec in WORKLOADS.values():
            assert spec.paper.mpki > 0
            assert spec.paper.wpki > 2.5 or spec.name == "roms"

    def test_wpki_threshold(self):
        """Paper selects workloads with WPKI > 2.5."""
        for spec in WORKLOADS.values():
            assert spec.paper.wpki >= 2.5


class TestTraceFactory:
    def test_ratemode_disjoint_address_spaces(self):
        cfg = small_8core()
        factory = trace_factory("lbm", cfg)
        a = {a for k, a, _ in take(factory(0), 500) if k != NONMEM}
        b = {a for k, a, _ in take(factory(1), 500) if k != NONMEM}
        assert not a & b

    def test_mix_assigns_constituents(self):
        cfg = small_8core()
        factory = trace_factory("mix0", cfg)
        for core in range(8):
            recs = take(factory(core), 100)
            assert recs  # each core gets a live generator

    def test_unknown_workload(self):
        with pytest.raises(ConfigError):
            trace_factory("doom", small_8core())

    def test_factory_deterministic(self):
        cfg = small_8core()
        a = take(trace_factory("cf", cfg, seed=3)(0), 200)
        b = take(trace_factory("cf", cfg, seed=3)(0), 200)
        assert a == b


#: SHA-256 (first 16 hex digits) of the first 20k records of cores 0 and
#: 1 of every workload and mix at seed 7 on ``small_8core``, each record
#: hashed as ``b"kind,addr,pc;"``.  Captured before the generators' inner
#: loops were rewritten for speed: any change to a trace stream, however
#: small, shows here, not only in the goldens' few runs.
TRACE_STREAM_SHA256 = {
    "cam4": ("f118df96c37c0059", "f3317f6f4b1c9fca"),
    "roms": ("9fe16868e6480759", "9b8ae881091bf905"),
    "omnetpp": ("e611a6ea7f11fc62", "21507db2e7ac1f01"),
    "bwaves": ("3763f9ddc8b6d634", "e4fd06f918c48904"),
    "wrf": ("b1aec6dd412bceb5", "ff9241c009ccb857"),
    "fotonik3d": ("24bd1f2f63f963eb", "cad57b05fa43c335"),
    "lbm": ("2a03dd2d92b1b7bf", "86ecda4bdf5ef175"),
    "triangle": ("eb04ad25f59c337a", "9b652b42854a6dc4"),
    "pagerankdelta": ("3e4771387497d6a0", "8c1456971e458045"),
    "mis": ("548542bc3dc641c6", "54bcadd027b41417"),
    "bellmanford": ("0c587a1da4b5d900", "51a0e61587b71e1c"),
    "cf": ("92ad2ed3394cab93", "2d8af1e5e9504f9b"),
    "bc": ("b2af15993818d957", "80269dd63d59a762"),
    "radii": ("cbf290142b2651c3", "182344e1cac309cb"),
    "pagerank": ("9324f7bb8f5ad159", "0561448b1787b51d"),
    "scale": ("6f325ef1e99a88a8", "c1185a51aa097861"),
    "copy": ("610c0165a9d3537e", "e40cdbac96819253"),
    "triad": ("59a65f0d8a3fcce5", "11546eb9f1a0a6ee"),
    "add": ("4bc4c25947496c6e", "d8054612573dc726"),
    "whiskey": ("e346164d47ac6d69", "a05daec3caf2943a"),
    "charlie": ("41343649c0f72483", "eaadf9c6e778bb17"),
    "merced": ("9de6d7b06887191c", "8ee8c57c636b6fe2"),
    "delta": ("89fe02ed6a13ff60", "5ab96e42321a99cb"),
    "mix0": ("f118df96c37c0059", "21507db2e7ac1f01"),
    "mix1": ("9fe16868e6480759", "e4fd06f918c48904"),
    "mix2": ("9fe16868e6480759", "cad57b05fa43c335"),
    "mix3": ("e611a6ea7f11fc62", "e4fd06f918c48904"),
    "mix4": ("f118df96c37c0059", "cad57b05fa43c335"),
    "mix5": ("9fe16868e6480759", "e4fd06f918c48904"),
}


class TestTraceStreamsPinned:
    def test_every_workload_and_mix_is_pinned(self):
        assert list(TRACE_STREAM_SHA256) == [*WORKLOADS, *MIXES]

    @pytest.mark.parametrize("name", [*WORKLOADS, *MIXES])
    def test_stream_digest(self, name):
        factory = trace_factory(name, small_8core(), seed=7)
        digests = []
        for core in (0, 1):
            h = hashlib.sha256()
            for rec in itertools.islice(factory(core), 20_000):
                h.update(b"%d,%d,%d;" % rec)
            digests.append(h.hexdigest()[:16])
        assert tuple(digests) == TRACE_STREAM_SHA256[name]
