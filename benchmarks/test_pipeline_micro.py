"""Micro-benchmarks of the pipeline stages.

Not a paper artifact — engineering benchmarks that keep the library's
performance honest (reachability, property suite, cover synthesis,
divisor generation, I-partition growth, insertion).
"""

import pytest

from repro.bench_suite import benchmark as bench_circuit
from repro.boolean.divisors import generate_divisors
from repro.boolean.sop import SopCover
from repro.mapping.insertion import insert_signal
from repro.mapping.partition import compute_insertion_sets
from repro.sg.properties import check_speed_independence
from repro.sg.reachability import state_graph_of
from repro.synthesis.cover import synthesize_all

from conftest import circuit_sg


def test_bench_reachability(benchmark):
    stg = bench_circuit("mmu")
    sg = benchmark(state_graph_of, stg)
    assert len(sg) == 218


def test_bench_property_suite(benchmark):
    sg = circuit_sg("mmu")
    report = benchmark(check_speed_independence, sg)
    assert report.implementable


def test_bench_cover_synthesis(benchmark):
    sg = circuit_sg("mmu")
    implementations = benchmark(synthesize_all, sg)
    assert set(implementations) == set(sg.outputs)


def test_bench_divisor_generation(benchmark):
    cover = SopCover.from_string(
        "a b c + a b d + a c e + b d e + c d e + f g")
    divisors = benchmark(generate_divisors, cover, 64)
    assert divisors


def test_bench_ipartition(benchmark):
    sg = circuit_sg("mr1")
    function = SopCover.from_string("a1 a2")
    partition = benchmark(compute_insertion_sets, sg, function)
    assert partition.er_plus


def test_bench_insertion(benchmark):
    sg = circuit_sg("mr1")
    function = SopCover.from_string("a1 a2")
    partition = compute_insertion_sets(sg, function)

    def run():
        return insert_signal(sg, partition, "zz").sg

    new_sg = benchmark(run)
    assert len(new_sg) > len(sg)


def test_bench_diamonds(benchmark):
    sg = circuit_sg("mr1")

    def run():
        sg.encoding()._diamonds = None
        return sg.diamonds()

    diamonds = benchmark(run)
    assert diamonds
