"""Unit tests for repro.core.instance."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.instance import DAGInstance, Instance
from repro.core.task import Task, TaskSet


class TestInstance:
    def test_from_lists(self):
        inst = Instance.from_lists(p=[1, 2], s=[3, 4], m=2)
        assert inst.n == 2 and inst.m == 2
        assert inst.total_p == 3 and inst.total_s == 7

    def test_invalid_m_zero(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            Instance.from_lists(p=[1], s=[1], m=0)

    def test_invalid_m_type(self):
        with pytest.raises(TypeError):
            Instance.from_lists(p=[1], s=[1], m=2.5)  # type: ignore[arg-type]

    def test_invalid_m_bool(self):
        with pytest.raises(TypeError):
            Instance.from_lists(p=[1], s=[1], m=True)  # type: ignore[arg-type]

    def test_task_lookup(self, small_instance):
        assert small_instance.task(0).p == 4

    def test_swapped(self, small_instance):
        sw = small_instance.swapped()
        assert sw.task(0).p == small_instance.task(0).s
        assert sw.task(0).s == small_instance.task(0).p
        assert sw.m == small_instance.m

    def test_with_m(self, small_instance):
        inst = small_instance.with_m(7)
        assert inst.m == 7 and inst.tasks == small_instance.tasks

    def test_as_dag_roundtrip(self, small_instance):
        dag = small_instance.as_dag()
        assert isinstance(dag, DAGInstance)
        assert dag.is_independent()
        back = dag.as_independent()
        assert back.tasks == small_instance.tasks

    def test_equality(self):
        a = Instance.from_lists(p=[1, 2], s=[3, 4], m=2)
        b = Instance.from_lists(p=[1, 2], s=[3, 4], m=2)
        c = Instance.from_lists(p=[1, 2], s=[3, 4], m=3)
        assert a == b and a != c

    def test_json_roundtrip(self, small_instance):
        text = small_instance.to_json()
        back = Instance.from_json(text)
        assert back == small_instance
        assert back.name == "small"

    def test_dict_roundtrip_preserves_labels(self):
        tasks = TaskSet([Task(id="a", p=1, s=2, label="kernel")])
        inst = Instance(tasks, m=1)
        back = Instance.from_dict(inst.to_dict())
        assert back.task("a").label == "kernel"

    def test_empty_instance(self):
        inst = Instance(TaskSet(), m=2)
        assert inst.n == 0 and inst.total_p == 0


class TestDAGInstance:
    def test_basic_construction(self, diamond_dag):
        assert diamond_dag.n == 4
        assert diamond_dag.n_edges == 4
        assert set(diamond_dag.sources()) == {"a"}
        assert set(diamond_dag.sinks()) == {"d"}

    def test_predecessors_successors(self, diamond_dag):
        assert set(diamond_dag.predecessors("d")) == {"b", "c"}
        assert set(diamond_dag.successors("a")) == {"b", "c"}

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown task id"):
            DAGInstance.from_lists(p=[1, 2], s=[1, 2], m=1, edges=[(0, 99)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            DAGInstance.from_lists(p=[1], s=[1], m=1, edges=[(0, 0)])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            DAGInstance.from_lists(p=[1, 1, 1], s=[1, 1, 1], m=1, edges=[(0, 1), (1, 2), (2, 0)])

    def test_edgeless_skips_cycle_check(self, monkeypatch):
        import networkx as nx

        def fail(graph):
            raise AssertionError("an edgeless graph needs no acyclicity check")

        monkeypatch.setattr(nx, "is_directed_acyclic_graph", fail)
        assert DAGInstance.from_lists(p=[1, 2], s=[1, 2], m=2).is_independent()
        with pytest.raises(AssertionError):
            DAGInstance.from_lists(p=[1, 2], s=[1, 2], m=2, edges=[(0, 1)])

    def test_topological_order_is_valid(self, diamond_dag):
        order = diamond_dag.topological_order()
        pos = {tid: i for i, tid in enumerate(order)}
        for u, v in diamond_dag.graph.edges():
            assert pos[u] < pos[v]

    def test_is_independent(self, diamond_dag):
        assert not diamond_dag.is_independent()
        empty = DAGInstance.from_lists(p=[1, 2], s=[1, 2], m=2)
        assert empty.is_independent()

    def test_swapped_keeps_edges(self, diamond_dag):
        sw = diamond_dag.swapped()
        assert set(sw.graph.edges()) == set(diamond_dag.graph.edges())
        assert sw.task("a").p == diamond_dag.task("a").s

    def test_with_m(self, diamond_dag):
        bigger = diamond_dag.with_m(8)
        assert bigger.m == 8
        assert set(bigger.graph.edges()) == set(diamond_dag.graph.edges())

    def test_from_networkx(self):
        g = nx.DiGraph()
        g.add_node("x", p=3, s=4)
        g.add_node("y", p=1, s=2)
        g.add_edge("x", "y")
        inst = DAGInstance.from_networkx(g, m=2)
        assert inst.task("x").p == 3 and inst.task("y").s == 2
        assert inst.n_edges == 1

    def test_from_networkx_missing_attributes_default_zero(self):
        g = nx.DiGraph()
        g.add_node("x")
        inst = DAGInstance.from_networkx(g, m=1)
        assert inst.task("x").p == 0 and inst.task("x").s == 0

    def test_dict_roundtrip(self, diamond_dag):
        back = DAGInstance.from_dict(diamond_dag.to_dict())
        assert back == diamond_dag

    def test_equality_distinguishes_edges(self):
        a = DAGInstance.from_lists(p=[1, 1], s=[1, 1], m=1, edges=[(0, 1)])
        b = DAGInstance.from_lists(p=[1, 1], s=[1, 1], m=1, edges=[])
        assert a != b

    def test_as_independent_drops_edges(self, diamond_dag):
        ind = diamond_dag.as_independent()
        assert isinstance(ind, Instance)
        assert not isinstance(ind, DAGInstance)
